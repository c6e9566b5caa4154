"""
Dependency paths and tree decomposition
=======================================

Parse one sentence, walk the path between two entities, then cut the
tree at prepositions and watch the path get shorter.
"""

from pathrel.data import format_path_line
from pathrel.depgraph import EntitySpan, entity_head, parse_conllu, path_between
from pathrel.structreg import CutRule, cut_and_line, extract_sr_sdp, select_cut_nodes

# a small parse: the second entity is buried under two prepositional
# phrases hanging off the verb
CONLLU = """\
1\tcrews\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tload\t_\tVERB\t_\t_\t0\troot\t_\t_
3\tin\t_\tADP\t_\t_\t2\tprep\t_\t_
4\tcrates\t_\tNOUN\t_\t_\t3\tpobj\t_\t_
5\tat\t_\tADP\t_\t_\t4\tprep\t_\t_
6\tdocks\t_\tNOUN\t_\t_\t5\tpobj\t_\t_
7\t.\t_\tPUNCT\t_\t_\t2\tpunct\t_\t_
"""

tree = parse_conllu(CONLLU)[0]
print("tokens:", " ".join(t.form for t in tree.tokens))

e1 = EntitySpan(1, 1)
e2 = EntitySpan(6, 6)
h1, h2 = entity_head(tree, e1), entity_head(tree, e2)

# the plain shortest path crosses every token between the entities
plain = path_between(tree, h1, h2)
print("\nplain shortest path (", len(plain.nodes), "nodes ):")
print(" ", format_path_line(plain))
print(" ", " ".join(plain.forms))

# cutting at ADP tokens splits off each prepositional subtree; the
# component roots are then chained with synthetic SR-LINK edges
rule = CutRule(variant="prep")
cuts = select_cut_nodes(tree, rule)
print("\nprep rule cuts token indices:", sorted(cuts))

lined = cut_and_line(tree, cuts)
components = {}
for i in range(1, lined.n + 1):
    components.setdefault(lined.component_root(i), []).append(i)
print("components by root:", components)
print("link edges:", list(lined.link_edges))

short = extract_sr_sdp(lined, h1, h2)
print("\nregularized path (", len(short.nodes), "nodes ):")
print(" ", format_path_line(short))
print(" ", " ".join(short.forms))

# other rules select different cut sets over the same tree
for variant in ("none", "punct", "random"):
    r = CutRule(variant=variant, p=0.5, seed=1)
    print(f"{variant:>6} rule cuts:", sorted(select_cut_nodes(tree, r)) or "nothing")
