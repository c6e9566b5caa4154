"""Entity-dictionary matching over raw text.

Greedy leftmost-longest matching: scan the text left to right; at each
position the longest dictionary entry starting there wins and the scan
resumes after it, so the output spans never overlap.  Offsets are 0-based
character positions with exclusive ends, written as standoff TSV.  The
entries are indexed by first character, so a position tries only the
lengths of the entries that begin with its character.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Match:
    start: int
    end: int  # exclusive
    surface: str


def dict_match(text: str, dictionary) -> list[Match]:
    """Non-overlapping entity mentions, leftmost-longest."""
    entries = set(dictionary) - {""}
    lengths = {}  # first character -> the lengths of the entries it begins, longest first
    for k, c in sorted({(len(e), e[0]) for e in entries}, reverse=True):
        lengths.setdefault(c, []).append(k)
    matches = []
    i = 0
    n = len(text)
    while i < n:
        for k in lengths.get(text[i], ()):
            # a slice past the end is shorter than k and could equal a shorter entry
            if i + k <= n and text[i : i + k] in entries:
                matches.append(Match(i, i + k, text[i : i + k]))
                i += k
                break
        else:
            i += 1
    return matches


def format_standoff(matches) -> str:
    """One `start<TAB>end<TAB>surface` line per match."""
    return "".join(f"{m.start}\t{m.end}\t{m.surface}\n" for m in matches)

