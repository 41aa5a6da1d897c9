"""Scan the Landau coefficients u2, u4 across the anisotropy axis.

Fits norm(phi) = u0 + u2 phi^2 + u4 phi^4 along the in-plane and staggered
order-parameter directions on a lambda grid and reports where u2 changes
sign. Those sign changes are the Landau estimates of the two critical
couplings.
"""

import argparse
import csv

from dissipative_spins.models import LatticeSpec, dissipative_heisenberg
from dissipative_spins.variational import landau_expansion, sweep_grid

RANGES = {"in-plane": (0.40, 0.60), "staggered-z": (1.40, 1.60)}


def scan(direction, lams, lattice, phi_max, samples):
    rows = []
    for lam in lams:
        fit = landau_expansion(
            dissipative_heisenberg(lam, lattice), direction, phi_max, samples
        )
        rows.append((lam, fit))
        print(f"  lambda={lam:6.4f}  u2={fit.u2:+.5f}  u4={fit.u4:+.5f}"
              f"  residual={fit.residual:.2e}")
    return rows


def sign_changes(rows):
    brackets = []
    for (l1, f1), (l2, f2) in zip(rows, rows[1:]):
        if f1.u2 * f2.u2 < 0:
            brackets.append((l1, l2))
    return brackets


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--direction", choices=["in-plane", "staggered-z", "both"],
                    default="both")
    ap.add_argument("--z", type=int, default=6)
    ap.add_argument("--step", type=float, default=0.02)
    ap.add_argument("--samples", type=int, default=11)
    ap.add_argument("--phi-max", type=float, default=0.03,
                    help="fit window; keep it below the norm's first kink, "
                         "see the landau_expansion docstring")
    ap.add_argument("--out", default="landau_scan.csv")
    args = ap.parse_args()

    lattice = LatticeSpec(z=args.z, bipartite=True, renormalize=True)
    directions = (["in-plane", "staggered-z"] if args.direction == "both"
                  else [args.direction])

    all_rows = []
    for direction in directions:
        lo, hi = RANGES[direction]
        print(f"{direction}: lambda in [{lo}, {hi}], phi window {args.phi_max}")
        rows = scan(direction, sweep_grid(lo, hi, args.step), lattice,
                    args.phi_max, args.samples)
        for l1, l2 in sign_changes(rows):
            print(f"  u2 sign change between lambda={l1} and lambda={l2}")
        all_rows += [(direction, lam, f) for lam, f in rows]

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["direction", "lambda", "u0", "u2", "u4", "residual"])
        for direction, lam, f in all_rows:
            w.writerow([direction, "%.12g" % lam, "%.12g" % f.u0,
                        "%.12g" % f.u2, "%.12g" % f.u4, "%.12g" % f.residual])
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
