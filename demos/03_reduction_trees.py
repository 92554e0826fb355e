"""Reduction trees: rewrite a graph vertex by vertex into fan graphs whose
polytopes tile the original one, and census the leaves.

Run:  python demos/03_reduction_trees.py [out.dot]
"""

import sys

from flowpoly import (
    FlowCounter,
    FlowInstance,
    NetflowVector,
    canonical_reduction_tree,
    complete_graph,
    degree_stats,
    dominant_compositions,
    leaf_census,
    normalized_volume_oracle,
    tree_census,
)
from flowpoly.reduction import dot_lines

k4 = complete_graph(4)
tree = canonical_reduction_tree(k4)
print(f"canonical reduction tree of the complete graph: {tree.node_count} nodes")
for node in tree.nodes():
    depth = 0
    walk = node
    while walk.parent is not None:
        depth += 1
        walk = walk.parent
    label = "leaf" if node.is_leaf else f"reduce next at vertex {3 - depth}"
    print(f"  depth {depth}: edges {node.graph.graph.edge_multiset()}  ({label})")
print()

census = leaf_census(tree)
print(f"leaf census (composition j of fan sizes j+1): {census}")

# the census is predicted by flow counts at the shifted netflows
stats = degree_stats(k4)
counter = FlowCounter(k4)
m, n = k4.edge_count, 3
print("predicted multiplicities:")
for j in dominant_compositions(m - n, stats.out_shift):
    shifted = tuple(ji - oi for ji, oi in zip(j, stats.out_shift)) + (0,)
    print(f"  j = {j}: count at {shifted} = {counter.count(shifted)}")
print()

# the leaves' polytopes tile the root's, so their volumes add up
a = NetflowVector((1, 1, 1, -3))
print(f"leaf volumes at netflow {a.entries} add up:")
total = 0
for leaf in tree.leaves():
    vol = normalized_volume_oracle(FlowInstance(leaf.graph.graph, a))
    total += vol
    print(f"  leaf {leaf.graph.graph.edge_multiset()}: volume {vol}")
print(f"  sum {total} = root volume {normalized_volume_oracle(FlowInstance(k4, a))}")
print()

# the tree over the source-augmented graph is this tree with the source
# edges added to every node, so it has the same census
print(f"source-augmented tree has the same census: {tree_census(k4, (3, 2, 2))}")

if len(sys.argv) > 1:
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        fh.write("".join(dot_lines(k4)))
    print(f"wrote {sys.argv[1]}; render with: dot -Tpng -O {sys.argv[1]}")
else:
    print("pass a filename to write the tree as Graphviz DOT")
