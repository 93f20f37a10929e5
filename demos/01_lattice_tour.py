"""Tour of the truncated hexagonal grid and its combinatorial decompositions.

Builds a small truncation, checks the closed-form vertex/edge counts, and
shows how the grid splits into the two families of parallel zigzag paths and
the transversal lines of bridging edges.

Run: python3 demos/01_lattice_tour.py
"""

import numpy as np

from hexnls import (bridge_line_index, build_honeycomb, decompose_bridges,
                    decompose_paths, validate)


def main() -> None:
    R = 2
    lat = build_honeycomb(R, edge_length=1.0)
    g = lat.graph
    print(f"Truncated hexagonal grid, radius R={R}, edge length 1")
    print(f"  vertices: {g.num_vertices}  (formula 2(2R+1)(2R+2) = "
          f"{2 * (2 * R + 1) * (2 * R + 2)})")
    print(f"  edges:    {g.num_edges}  (formula 3(2R+1)^2 = {3 * (2 * R + 1) ** 2})")
    print(f"  total length: {g.total_length():g}")
    print(f"  validation issues: {validate(g) or 'none'}")
    hist = np.bincount(g.degrees())
    print(f"  degree histogram: " + ", ".join(
        f"{d}: {n}" for d, n in enumerate(hist) if n))

    fam = decompose_paths(lat)
    print(f"\nPath families: {len(fam.L_paths)} left-leaning and "
          f"{len(fam.R_paths)} right-leaning zigzag paths")
    print(f"  each L path has {len(fam.L_paths[0])} edges; L_0 starts with edges "
          f"{fam.L_paths[0][:4]} ...")

    # Every edge is covered; horizontal edges belong to exactly one path of
    # each family, slanted edges to exactly one path in total.
    counts = [0] * g.num_edges
    for path in list(fam.L_paths.values()) + list(fam.R_paths.values()):
        for eid in path:
            counts[eid] += 1
    by_kind = {}
    for (kind, _, _), count in zip(lat.edge_roles, counts):
        by_kind.setdefault(kind, set()).add(count)
    print(f"  coverage multiplicity by edge kind: "
          + ", ".join(f"{k}: {sorted(v)}" for k, v in sorted(by_kind.items())))

    print("\nEach pair (L_i, R_j) shares exactly one horizontal edge:")
    for (i, j) in [(0, 0), (1, -1), (-R, R)]:
        common = set(fam.L_paths[i]) & set(fam.R_paths[j])
        print(f"  L_{i} ∩ R_{j} = edge {sorted(common)} "
              f"(kind {lat.edge_roles[next(iter(common))][0]})")

    bridges = decompose_bridges(lat)
    print(f"\nBridging edges group into {len(bridges.lines)} transversal lines "
          f"(indices {min(bridges.lines)}..{max(bridges.lines)}):")
    for k in (0, 1):
        entries = bridges.lines[k]
        kinds = [(m, bridge_line_index(lat, eid)) for m, eid in entries]
        print(f"  line {k}: joins L_m -> L_(m+1) for m = "
              f"{[m for m, _ in entries]} (parity of m matches parity of k: "
              f"{all((m - k) % 2 == 0 for m, _ in kinds)})")


if __name__ == "__main__":
    main()
