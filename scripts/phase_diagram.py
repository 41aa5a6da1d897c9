"""Map the steady-state phase diagram of the dissipative Heisenberg model.

Sweeps the anisotropy through both transitions, fits the critical couplings
and exponents from the variational order parameters, and writes the sweep
data as CSV files that `dspin fit` can consume directly.
"""

import argparse
import json
import os
import time

from dissipative_spins.cli import format_sweep_csv
from dissipative_spins.models import LatticeSpec
from dissipative_spins.variational import fit_critical, sweep


def run_branch(lo, hi, kind, lattice, args, path):
    """One refined sweep, as `dspin sweep` runs it, written to ``path``."""
    records = sweep(lo, hi, args.step, lattice, kind,
                    restarts=args.restarts, seed=args.seed)
    for r in records:
        print(f"  lambda={r.lam:6.4f}  m={r.m:.6f}  ms={r.m_s:.6f}  norm={r.norm:.4e}")
    with open(path, "w") as f:
        f.write(format_sweep_csv(records) + "\n")
    return records


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--z", type=int, default=6, help="coordination number")
    ap.add_argument("--step", type=float, default=0.01, help="lambda grid spacing")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--restarts", type=int, default=8)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    lattice = LatticeSpec(z=args.z, bipartite=True, renormalize=True)
    os.makedirs(args.out_dir, exist_ok=True)
    summary = {"z": args.z, "step": args.step, "seed": args.seed}

    t0 = time.time()
    print("in-plane branch (uniform ansatz), lambda in [0.3, 0.7]")
    xy = run_branch(0.3, 0.7, "uniform", lattice, args,
                    os.path.join(args.out_dir, "sweep_xy.csv"))
    fit1 = fit_critical(xy, which="m")
    summary["lambda_c1"] = fit1.lambda_c
    summary["beta_xy"] = fit1.beta
    print(f"  -> lambda_c1 = {fit1.lambda_c:.4f},  beta = {fit1.beta:.3f}"
          f"  (r^2 = {fit1.r_squared:.5f})")

    print("staggered branch (bipartite ansatz), lambda in [1.3, 1.7]")
    afm = run_branch(1.3, 1.7, "bipartite", lattice, args,
                     os.path.join(args.out_dir, "sweep_afm.csv"))
    fit2 = fit_critical(afm, which="ms")
    summary["lambda_c2"] = fit2.lambda_c
    summary["beta_afm"] = fit2.beta
    print(f"  -> lambda_c2 = {fit2.lambda_c:.4f},  beta = {fit2.beta:.3f}"
          f"  (r^2 = {fit2.r_squared:.5f})")

    with open(os.path.join(args.out_dir, "phase_diagram.json"), "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")

    print()
    print(f"ferromagnetic  XY order for lambda < {fit1.lambda_c:.4f}")
    print(f"disordered     {fit1.lambda_c:.4f} < lambda < {fit2.lambda_c:.4f}")
    print(f"staggered (z)  lambda > {fit2.lambda_c:.4f}")
    print(f"done in {time.time() - t0:.1f}s, results in {args.out_dir}/")


if __name__ == "__main__":
    main()
