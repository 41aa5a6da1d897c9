"""Reproduce the phase diagram of the purely dissipative Heisenberg magnet.

    python3 scripts/phase_diagram.py [--out-dir results]

Sweeps the anisotropy through both transitions with `dspin sweep` (z = 6,
renormalized, step 0.01 with onset refinement, seed 0, 8 restarts) and fits
each branch with `dspin fit`. Then scans the Landau coefficient u2 with
`dspin landau` (lambda step 0.02 on [0.40, 0.60] in-plane and [1.40, 1.60]
staggered, 11 samples, phi_max 0.03) and brackets where it changes sign.
Every number comes from `dissipative_spins.cli.main`; a failing command
ends the script with that command's exit code. Writes sweep_xy.csv and
sweep_afm.csv (as `dspin sweep` writes them), landau_scan.csv and
phase_diagram.json, which records the settings, the fits and the brackets.
The settings are fixed: any other is a `dspin` command of its own.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import sys

from dissipative_spins import __version__
from dissipative_spins.cli import main as dspin_main
from dissipative_spins.cli import read_sweep_csv

Z, STEP, SEED, RESTARTS = 6, 0.01, 0, 8
LANDAU_STEP, LANDAU_SAMPLES, LANDAU_PHI_MAX = 0.02, 11, 0.03
BRANCHES = [  # file, lambda range, ansatz, fitted order parameter, JSON keys of the fit
    ("sweep_xy.csv", (0.3, 0.7), "uniform", "m", ("lambda_c1", "beta_xy")),
    ("sweep_afm.csv", (1.3, 1.7), "bipartite", "ms", ("lambda_c2", "beta_afm")),
]
LANDAU_LAMBDAS = {  # step LANDAU_STEP across each transition
    "in-plane": [k / 100 for k in range(40, 61, 2)],
    "staggered-z": [k / 100 for k in range(140, 161, 2)],
}


def dspin(*argv) -> str:
    """Standard output of one `dspin` command; exits with its code if that is not 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dspin_main([str(a) for a in argv])
    if code:
        sys.exit(code)
    return out.getvalue()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="results")
    out_dir = ap.parse_args().out_dir
    os.makedirs(out_dir, exist_ok=True)
    summary = {"z": Z, "step": STEP, "seed": SEED}

    for name, (lo, hi), ansatz, which, (lam_key, beta_key) in BRANCHES:
        path = os.path.join(out_dir, name)
        dspin("sweep", "--lambda-min", lo, "--lambda-max", hi, "--step", STEP, "--ansatz", ansatz,
              "--z", Z, "--renormalize", "on", "--restarts", RESTARTS, "--seed", SEED, "--out", path)
        fit = json.loads(dspin("fit", "--in", path, "--which", which))
        summary[lam_key], summary[beta_key] = fit["lambda_c"], fit["beta"]
        with open(path) as fh:
            points = len(read_sweep_csv(fh.read()))
        print(f"{ansatz} sweep, {points} points: {lam_key} = {fit['lambda_c']:.4f}, "
              f"beta = {fit['beta']:.3f} (r^2 = {fit['r_squared']:.5f})")

    rows, brackets = [], {}
    for direction, lams in LANDAU_LAMBDAS.items():
        u2 = []
        for lam in lams:
            f = json.loads(dspin("landau", "--lambda", lam, "--direction", direction, "--z", Z,
                                 "--renormalize", "on", "--phi-max", LANDAU_PHI_MAX,
                                 "--samples", LANDAU_SAMPLES))
            rows.append([direction] + ["%.12g" % v for v in (lam, f["u0"], f["u2"], f["u4"], f["residual"])])
            u2.append(f["u2"])
        brackets[direction] = [[l1, l2] for l1, l2, a, b in zip(lams, lams[1:], u2, u2[1:]) if a * b < 0]
        print(f"{direction} Landau scan: u2 changes sign in {brackets[direction]}")
    with open(os.path.join(out_dir, "landau_scan.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["direction", "lambda", "u0", "u2", "u4", "residual"])
        writer.writerows(rows)

    summary.update(renormalize="on", restarts=RESTARTS, landau_step=LANDAU_STEP,
                   landau_samples=LANDAU_SAMPLES, landau_phi_max=LANDAU_PHI_MAX,
                   u2_sign_changes=brackets, version=__version__)
    with open(os.path.join(out_dir, "phase_diagram.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    lc1, lc2 = summary["lambda_c1"], summary["lambda_c2"]
    print(f"ferromagnetic XY order for lambda < {lc1:.4f}, disordered for {lc1:.4f} < lambda "
          f"< {lc2:.4f}, staggered (z) order for lambda > {lc2:.4f}; results in {out_dir}/")


if __name__ == "__main__":
    main()
