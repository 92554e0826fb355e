"""The dissection pipeline end to end: attach a source, reduce, cut each
leaf as the zero-entry reductions do, into the join of per-vertex staircase
triangulations of the products of simplices Delta_{c_i-1} x Delta_{j_i}, and
certify that the resulting simplices tile the augmented polytope, which
proves the c-form count formula geometrically.

Run:  python demos/04_unimodular_dissection.py
"""

import json

from flowpoly import (
    AmbientLattice,
    FlowInstance,
    attach_source,
    complete_graph,
    count_flows,
    in_plus_c_netflow,
    is_unimodular,
    lidskii_count_c_form,
    normalized_volume_oracle,
    reciprocity_volume,
    unimodular_dissection,
    unit_source_sink_netflow,
    verify_dissection,
    verify_in_vector_bijection,
)

k4 = complete_graph(4)
c = (3, 2, 2)

augmented = attach_source(k4, c)
ambient = FlowInstance(augmented, unit_source_sink_netflow(augmented))
print(f"augmented graph: {augmented.edge_count} edges on vertices 0..{augmented.last_vertex}")
print(f"ambient netflow: {ambient.netflow.entries} (one unit, source to sink)")
print()

cells = unimodular_dissection(k4, c)
lattice = AmbientLattice(augmented)
print(f"dissection: {len(cells)} cells of dimension {lattice.dim}")
by_leaf: dict[tuple, int] = {}
for cell in cells:
    by_leaf[cell.leaf_composition] = by_leaf.get(cell.leaf_composition, 0) + 1
for comp, count in sorted(by_leaf.items()):
    print(f"  leaf composition {comp}: {count} cells")
print()

print("every cell is a unimodular lattice simplex:",
      all(is_unimodular(cell, ambient, lattice=lattice) for cell in cells))

volume = normalized_volume_oracle(ambient)
target = count_flows(FlowInstance(k4, in_plus_c_netflow(k4, c)))
print(f"cells {len(cells)} = ambient normalized volume {volume} = "
      f"flow count at indeg-1+c {target} = c-form formula {lidskii_count_c_form(k4, c)}")
# the report's volume: the interior counts at the negative dilates, which
# are 0 until the dilate reaches sum(c), by Ehrhart-Macdonald reciprocity
print(f"volume by reciprocity {reciprocity_volume(augmented)} "
      f"= volume from the difference table {volume}")
print()

# one cell up close: vertices are indicator flows of source-to-sink paths
cell = cells[0]
print("first cell's vertices (root edge coordinates):")
for v in cell.vertices[:4]:
    print(f"  {v}")
print(f"  ... {len(cell.vertices)} vertices total")
print()

report = verify_dissection(k4, c)
print("full verification report:")
print(json.dumps(report.to_json(), indent=2, sort_keys=True))

print()
print("restriction bijection:", verify_in_vector_bijection(k4, c).passed)
