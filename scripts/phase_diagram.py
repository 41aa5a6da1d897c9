"""Map the steady-state phase diagram of the dissipative Heisenberg model.

Sweeps the anisotropy through both transitions with `dspin sweep`, fits the
critical couplings and exponents with `dspin fit`, and writes the sweep data
as CSV files that `dspin fit` can consume directly. Both commands run
through `dissipative_spins.cli.main`, so the CLI's caps and input checks
apply: an over-cap --step or --restarts exits 3 before any sweep runs, and
any failing command ends the script with that command's exit code.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import time

from dissipative_spins.cli import main as dspin_main
from dissipative_spins.cli import read_sweep_csv


def dspin(*argv) -> str:
    """Standard output of one `dspin` command; exits with its code if that is not 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dspin_main([str(a) for a in argv])
    if code:
        sys.exit(code)
    return out.getvalue()


def run_branch(lo, hi, kind, which, args, path):
    """One refined `dspin sweep` written to ``path``, then its `dspin fit`."""
    dspin("sweep", "--lambda-min", lo, "--lambda-max", hi, "--step", repr(args.step),
          "--ansatz", kind, "--z", args.z, "--restarts", args.restarts, "--seed", args.seed,
          "--out", path)
    with open(path) as f:
        for r in read_sweep_csv(f.read()):
            print(f"  lambda={r.lam:6.4f}  m={r.m:.6f}  ms={r.m_s:.6f}  norm={r.norm:.4e}")
    return json.loads(dspin("fit", "--in", path, "--which", which))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--z", type=int, default=6, help="coordination number")
    ap.add_argument("--step", type=float, default=0.01, help="lambda grid spacing")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--restarts", type=int, default=8)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    summary = {"z": args.z, "step": args.step, "seed": args.seed}

    t0 = time.time()
    print("in-plane branch (uniform ansatz), lambda in [0.3, 0.7]")
    fit1 = run_branch(0.3, 0.7, "uniform", "m", args, os.path.join(args.out_dir, "sweep_xy.csv"))
    summary["lambda_c1"] = fit1["lambda_c"]
    summary["beta_xy"] = fit1["beta"]
    print(f"  -> lambda_c1 = {fit1['lambda_c']:.4f},  beta = {fit1['beta']:.3f}"
          f"  (r^2 = {fit1['r_squared']:.5f})")

    print("staggered branch (bipartite ansatz), lambda in [1.3, 1.7]")
    fit2 = run_branch(1.3, 1.7, "bipartite", "ms", args,
                      os.path.join(args.out_dir, "sweep_afm.csv"))
    summary["lambda_c2"] = fit2["lambda_c"]
    summary["beta_afm"] = fit2["beta"]
    print(f"  -> lambda_c2 = {fit2['lambda_c']:.4f},  beta = {fit2['beta']:.3f}"
          f"  (r^2 = {fit2['r_squared']:.5f})")

    with open(os.path.join(args.out_dir, "phase_diagram.json"), "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")

    print()
    print(f"ferromagnetic  XY order for lambda < {fit1['lambda_c']:.4f}")
    print(f"disordered     {fit1['lambda_c']:.4f} < lambda < {fit2['lambda_c']:.4f}")
    print(f"staggered (z)  lambda > {fit2['lambda_c']:.4f}")
    print(f"done in {time.time() - t0:.1f}s, results in {args.out_dir}/")


if __name__ == "__main__":
    main()
