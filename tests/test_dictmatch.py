from hypothesis import given, settings
from hypothesis import strategies as st

from pathrel.dictmatch import Match, dict_match, format_standoff


def oracle_match(text, dictionary):
    """Reference scan: at each position take the longest entry, else move on."""
    entries = [e for e in set(dictionary) if e]
    out = []
    i = 0
    while i < len(text):
        best = None
        for e in entries:
            if text.startswith(e, i) and (best is None or len(e) > len(best)):
                best = e
        if best is None:
            i += 1
        else:
            out.append(Match(i, i + len(best), best))
            i += len(best)
    return out


class TestBasics:
    def test_empty_dictionary(self):
        assert dict_match("some text", []) == []

    def test_empty_text(self):
        assert dict_match("", ["a"]) == []

    def test_single_hit_offsets(self):
        assert dict_match("xxabyy", ["ab"]) == [Match(2, 4, "ab")]

    def test_longest_entry_wins(self):
        # the three-character compound shadows its one-character suffix head
        text = "山上有白杨树和树。"
        out = dict_match(text, ["树", "白杨树"])
        assert out == [Match(3, 6, "白杨树"), Match(7, 8, "树")]

    def test_longest_at_same_start(self):
        assert dict_match("abc", ["a", "ab", "abc", "b"]) == [Match(0, 3, "abc")]

    def test_no_overlaps_after_consume(self):
        # after "ab" is consumed the scan resumes at "c", so "bc" cannot fire
        assert dict_match("abc", ["ab", "bc"]) == [Match(0, 2, "ab")]

    def test_adjacent_matches(self):
        assert dict_match("abab", ["ab"]) == [Match(0, 2, "ab"), Match(2, 4, "ab")]

    def test_empty_entry_ignored(self):
        assert dict_match("ab", ["", "a"]) == [Match(0, 1, "a")]

    def test_duplicates_ignored(self):
        assert dict_match("aa", ["a", "a"]) == [Match(0, 1, "a"), Match(1, 2, "a")]


@st.composite
def pasted_text(draw):
    """Entries of 1-8 characters, several lengths per first character, and a
    text pasted from their prefixes and from characters that start no entry;
    a short text is shorter than the long entries."""
    entry = st.builds(str.__add__, st.sampled_from("ab木"), st.text(alphabet="ab木树", max_size=7))
    dictionary = draw(st.lists(entry, min_size=1, max_size=8))
    prefix = st.builds(lambda e, k: e[:k], st.sampled_from(dictionary), st.integers(1, 8))
    pieces = draw(st.lists(prefix | st.text(alphabet="树xy", max_size=2), max_size=10))
    return "".join(pieces), dictionary


class TestAgainstOracle:
    @given(case=st.tuples(
        st.text(alphabet="ab木树白杨", max_size=40),
        st.lists(st.text(alphabet="ab木树白杨", min_size=1, max_size=4), max_size=8),
    ) | pasted_text())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, case):
        text, dictionary = case
        assert dict_match(text, dictionary) == oracle_match(text, dictionary)

    @given(
        text=st.text(alphabet="abc", max_size=30),
        dictionary=st.lists(st.text(alphabet="abc", min_size=1, max_size=3), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_spans_sorted_and_disjoint(self, text, dictionary):
        out = dict_match(text, dictionary)
        for m in out:
            assert 0 <= m.start < m.end <= len(text)
            assert text[m.start : m.end] == m.surface
        for a, b in zip(out, out[1:]):
            assert a.end <= b.start


class TestStandoff:
    def test_format(self):
        text = format_standoff([Match(0, 2, "ab"), Match(5, 6, "x")])
        assert text == "0\t2\tab\n5\t6\tx\n"

    def test_empty(self):
        assert format_standoff([]) == ""
