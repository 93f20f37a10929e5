"""Empirical functional inequalities on the hexagonal grid.

The grid is locally one-dimensional but globally two-dimensional, and both
characters show up in its inequalities: the L2-vs-gradient-L1 bound with
constant 2*sqrt(2*l) (a planar, isoperimetric-flavored estimate) and the 1D
Gagliardo-Nirenberg bound with constant 1 inherited from the real line.
This demo stresses both with a randomized corpus, then runs projected ascent
on the ratios to find near-extremal witnesses.

Run: python3 demos/03_inequalities.py
"""

import math

from hexnls import (build_honeycomb, estimate_sharp_constant, inequality_ratio,
                    random_corpus)


def main() -> None:
    lat = build_honeycomb(5, 1.0)
    corpus = random_corpus(lat, 300, seed=0)
    bound = 2.0 * math.sqrt(2.0)

    worst_s2 = max(inequality_ratio(u, "sobolev2d").value for u in corpus)
    print(f"sobolev2d ratio ||u||_2 / ||u'||_1 over 300 random functions:")
    print(f"  max {worst_s2:.4f}  (theoretical bound 2*sqrt(2) = {bound:.4f})")
    for p in (3.0, 5.0):
        worst = max(inequality_ratio(u, "gn1d", p).value for u in corpus)
        print(f"gn1d ratio at p={p:g}: max {worst:.4f}  (bound 1)")

    print("\nAscent-optimized witnesses (iterates vanish on the truncation")
    print("boundary, so each witness extends by zero to the infinite grid and")
    print("its ratio is a lower bound on the lumped discrete sharp constant):")
    for name, p in (("sobolev2d", 2.0), ("gn1d", 4.0), ("gn_interp", 5.0)):
        c_hat, witness = estimate_sharp_constant(name, p, lat, budget=80,
                                                 seed=1, num_starts=12)
        w = inequality_ratio(witness, name, p).witness
        print(f"  {name:>9} (p={p:g}): C_hat = {c_hat:.4f}   "
              f"witness peak {w['linf']:.3f} at edge {w['argmax_edge']}")
    print(f"\nEvery ratio stays below its bound (sobolev2d < {bound:.4f}, gn1d < 1);")
    print("the bounds are proof constants, not necessarily attained, and the")
    print("boundary-zeroed ascent on a finite truncation leaves a further gap.")


if __name__ == "__main__":
    main()
