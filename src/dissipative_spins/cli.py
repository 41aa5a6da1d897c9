"""Command-line front end.

Subcommands: sweep (phase-diagram scan over the anisotropy), fit (critical
point and exponent from sweep CSV), landau (quartic expansion of the norm at
one coupling), effective (adiabatic elimination of a problem file, with
--validate comparing the exact full and effective evolutions), oracle (exact
small-ring diagnostics: the generator is diagonalized block by block). The
oracle prints what ``liouville`` computes; nothing here handles the
generator's matrix layout.

Exit codes: 0 success, 1 malformed input files, 2 fit or elimination
failure, 3 resource cap exceeded (oracle rings above MAX_ORACLE_SITES = 5
sites, sweep grids above MAX_SWEEP_POINTS = 10,000 points, more than
MAX_RESTARTS = 1,000 sweep restarts or MAX_LANDAU_SAMPLES = 1,000 Landau
samples, validation horizons --t-max above MAX_T_MAX = 2000, problem files
of more than MAX_PROBLEM_SITES = 6 sites). Sweeps are bit-stable for a
fixed --seed regardless of --jobs: each grid point derives its own seed
from the global one and its coupling.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .effective import (
    GaplessEliminationError,
    check_horizon,
    effective_hamiltonian,
    effective_jumps,
    validate_elimination,
)
from .liouville import conjugate_pair_defect, ring_liouvillian, steady_states
from .models import LatticeSpec, dissipative_heisenberg, parse_config
from .opformat import OperatorFormatError, format_operator, parse_problem_text, problem_sites
from .variational import (
    FitError,
    SweepRecord,
    fit_critical,
    grid_size,
    landau_expansion,
    sweep,
)

CSV_HEADER = "lambda,ax_A,ay_A,az_A,ax_B,ay_B,az_B,m,ms,norm,converged,restarts"
MAX_ORACLE_SITES = 5  # the dense n = 6 generator alone is 268 MB
MAX_SWEEP_POINTS = 10_000
MAX_RESTARTS = 1_000  # per sweep point, all built before the first minimization
MAX_LANDAU_SAMPLES = 1_000  # one batched descent and polish, all samples at once
MAX_T_MAX = 2000.0  # validation horizon; the propagator's work grows with it
MAX_PROBLEM_SITES = 6  # dense 2^n x 2^n operators; --validate took 0.3 s at n = 6, 1.4 s at n = 7


def format_sweep_csv(records) -> str:
    """Sweep CSV text (header plus one row per record, no final newline)."""
    rows = [CSV_HEADER]
    for r in records:
        cols = [
            r.lam,
            r.alpha_A[0], r.alpha_A[1], r.alpha_A[2],
            r.alpha_B[0], r.alpha_B[1], r.alpha_B[2],
            r.m, r.m_s, r.norm,
        ]
        text = ",".join("%.12g" % c for c in cols)
        rows.append(f"{text},{1 if r.converged else 0},{r.restarts_used}")
    return "\n".join(rows)


def read_sweep_csv(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise OperatorFormatError("empty sweep CSV")
    header = [h.strip() for h in lines[0].split(",")]
    expected = CSV_HEADER.split(",")
    if header != expected:
        raise OperatorFormatError(f"unexpected CSV header {lines[0]!r}", line=1)
    records = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != len(expected):
            raise OperatorFormatError(
                f"expected {len(expected)} columns, got {len(parts)}", lineno
            )
        try:
            vals = [float(p) for p in parts[:-2]]
            converged, restarts = int(parts[-2]), int(parts[-1])
        except ValueError:
            raise OperatorFormatError(f"bad number in {ln!r}", lineno) from None
        if not all(map(math.isfinite, vals)):
            raise OperatorFormatError(f"non-finite number in {ln!r}", lineno)
        if converged not in (0, 1) or restarts < 1:
            raise OperatorFormatError(
                f"converged must be 0 or 1 and restarts a positive count in {ln!r}", lineno)
        records.append(
            SweepRecord(
                lam=vals[0],
                alpha_A=np.array(vals[1:4]),
                alpha_B=np.array(vals[4:7]),
                m=vals[7],
                m_s=vals[8],
                norm=vals[9],
                converged=bool(converged),
                restarts_used=restarts,
            )
        )
    return records


def _over_cap(message: str) -> int:
    print(message, file=sys.stderr)
    return 3


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        return parse_config(fh.read())


def _write_out(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _model_settings(args, cfg):
    z = args.z if args.z is not None else cfg.get("z", 6)
    kind = args.ansatz if args.ansatz is not None else cfg.get("ansatz", "uniform")
    if kind not in ("uniform", "bipartite"):
        raise OperatorFormatError(f"unknown ansatz {kind!r}")
    if args.renormalize is None:
        renorm = cfg.get("renormalize", True)
    else:
        renorm = args.renormalize == "on"
    # a bipartite ansatz needs the two-sublattice structure on the lattice
    bipartite = bool(cfg.get("bipartite", True)) or kind == "bipartite"
    return z, kind, renorm, bipartite


def cmd_sweep(args) -> int:
    if args.restarts > MAX_RESTARTS:
        return _over_cap(f"sweep: {args.restarts} restarts exceed the restart cap "
                         f"({MAX_RESTARTS} per point)")
    cfg = _load_config(args.config)
    z, kind, renorm, bipartite = _model_settings(args, cfg)
    points = grid_size(args.lambda_min, args.lambda_max, args.step)
    if points > MAX_SWEEP_POINTS:
        return _over_cap(f"sweep: {points} grid points exceed the sweep cap "
                         f"({MAX_SWEEP_POINTS} points)")
    records = sweep(
        args.lambda_min, args.lambda_max, args.step,
        LatticeSpec(z=z, bipartite=bipartite, renormalize=renorm), kind,
        restarts=args.restarts, seed=args.seed, jobs=args.jobs,
        refine=args.refine, threshold=args.threshold,
    )
    _write_out(args, format_sweep_csv(records))
    return 0


def cmd_fit(args) -> int:
    if args.infile == "-":
        text = sys.stdin.read()
    else:
        with open(args.infile) as fh:
            text = fh.read()
    records = read_sweep_csv(text)
    which = "m" if args.which == "m" else "m_s"
    fit = fit_critical(
        records,
        which=which,
        window=(args.window[0], args.window[1]),
        threshold=args.threshold,
    )
    out = {
        "which": args.which,
        "lambda_c": fit.lambda_c,
        "beta": fit.beta,
        "window": [fit.window[0], fit.window[1]],
        "r_squared": fit.r_squared,
        "n_records": len(records),
    }
    _write_out(args, json.dumps(out))
    return 0


def cmd_landau(args) -> int:
    if args.samples > MAX_LANDAU_SAMPLES:
        return _over_cap(f"landau: {args.samples} samples exceed the sample cap "
                         f"({MAX_LANDAU_SAMPLES})")
    cfg = _load_config(args.config)
    z, _, renorm, bipartite = _model_settings(args, cfg)
    lam = args.lam if args.lam is not None else cfg.get("lambda", 1.0)
    if args.direction == "staggered-z":
        bipartite = True
    lattice = LatticeSpec(z=z, bipartite=bipartite, renormalize=renorm)
    model = dissipative_heisenberg(lam, lattice)
    fit = landau_expansion(model, args.direction, args.phi_max, args.samples)
    out = {
        "lambda": lam,
        "direction": args.direction,
        "phi_max": args.phi_max,
        "u0": fit.u0,
        "u2": fit.u2,
        "u4": fit.u4,
        "residual": fit.residual,
        "converged": fit.converged,
        "stationarity": fit.stationarity,
    }
    _write_out(args, json.dumps(out))
    return 0


def cmd_effective(args) -> int:
    if args.validate and check_horizon(args.t_max) > MAX_T_MAX:
        return _over_cap(f"effective: t_max = {args.t_max:g} exceeds the validation "
                         f"horizon cap ({MAX_T_MAX:g})")
    with open(args.problem) as fh:
        text = fh.read()
    n_sites = problem_sites(text)
    if n_sites > MAX_PROBLEM_SITES:
        return _over_cap(f"effective: n = {n_sites} exceeds the problem-size cap "
                         f"({MAX_PROBLEM_SITES} sites)")
    pf = parse_problem_text(text)
    h_eff = effective_hamiltonian(pf.problem)
    c_eff = effective_jumps(pf.problem)
    chunks = ["[H_eff]"]
    body = format_operator(h_eff, pf.n_sites)
    if body:
        chunks.append(body)
    for k, c in enumerate(c_eff):
        chunks.append(f"[c_eff {k}]")
        body = format_operator(c, pf.n_sites)
        if body:
            chunks.append(body)
    if args.validate:
        n_sys = pf.n_sites - len(pf.aux_sites)
        rho_sys = np.eye(2**n_sys, dtype=complex) / 2**n_sys
        down = np.zeros((2 ** len(pf.aux_sites),) * 2, dtype=complex)
        down[-1, -1] = 1.0  # auxiliaries start in their all-down rest state
        val = validate_elimination(
            pf.problem, rho_sys, down, list(pf.aux_sites), pf.n_sites,
            t_max=args.t_max,
        )
        chunks.append("[validation]")
        chunks.append(f"# trace distance at t = {val.t_max:g}")
        chunks.append(f"error = {val.error:.6e}")
    _write_out(args, "\n".join(chunks))
    return 0


def cmd_oracle(args) -> int:
    if args.n > MAX_ORACLE_SITES:
        return _over_cap(f"oracle: n = {args.n} exceeds the exact-diagonalization cap "
                         f"({MAX_ORACLE_SITES} sites)")
    cfg = _load_config(args.config)
    z, _, renorm, bipartite = _model_settings(args, cfg)
    lam = args.lam if args.lam is not None else cfg.get("lambda", 1.0)
    lattice = LatticeSpec(z=z, bipartite=bipartite, renormalize=renorm)
    model = dissipative_heisenberg(lam, lattice)
    liou = ring_liouvillian(model, args.n)
    space = steady_states(liou)
    out = {
        "n": args.n,
        "lambda": lam,
        "dark_dimension": space.dimension,
        "max_real_part": float(space.eigenvalues.real.max()),
        "trace_defect": liou.trace_defect(),
        "conjugate_pair_defect": conjugate_pair_defect(space.blocks, liou.dim),
    }
    _write_out(args, json.dumps(out))
    return 0


def _window(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("window must be 'lo,hi'")
    lo, hi = float(parts[0]), float(parts[1])
    if not 0 < lo < hi:
        raise argparse.ArgumentTypeError("window must satisfy 0 < lo < hi")
    return (lo, hi)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dspin",
        description="steady-state phase diagrams of purely dissipative spin models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--config", help="key = value model config file")
        p.add_argument("--z", type=int, help="lattice coordination number")
        p.add_argument("--ansatz", choices=["uniform", "bipartite"])
        p.add_argument("--renormalize", choices=["on", "off"])
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("sweep", help="scan the anisotropy and minimize the norm")
    add_model_flags(p)
    p.add_argument("--lambda-min", type=float, required=True)
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--restarts", type=int, default=8, help=f"capped at {MAX_RESTARTS}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--threshold", type=float, default=1e-4,
                   help="order-parameter onset used to place grid refinement")
    p.add_argument("--no-refine", dest="refine", action="store_false",
                   help="skip the automatic fine grid around the transition")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="critical coupling and exponent from sweep CSV")
    p.add_argument("--in", dest="infile", default="-", help="sweep CSV ('-' = stdin)")
    p.add_argument("--which", choices=["m", "ms"], default="m")
    p.add_argument("--window", type=_window, default=(0.01, 0.1),
                   help="|lambda - lambda_c| range for the exponent fit, 'lo,hi'")
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("landau", help="quartic norm expansion at one coupling")
    add_model_flags(p)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--direction", choices=["in-plane", "staggered-z"],
                   default="in-plane")
    p.add_argument("--phi-max", type=float, default=0.03,
                   help="fit window; keep small near a transition, the norm "
                        "is only quartic below its first kink")
    p.add_argument("--samples", type=int, default=11, help=f"capped at {MAX_LANDAU_SAMPLES}")
    p.set_defaults(func=cmd_landau)

    p = sub.add_parser("effective", help="adiabatically eliminate a problem file")
    p.add_argument("--problem", required=True)
    p.add_argument("--validate", action="store_true",
                   help="propagate full vs effective dynamics and report the error")
    p.add_argument("--t-max", type=float, default=50.0,
                   help=f"validation horizon (capped at {MAX_T_MAX:g})")
    p.add_argument("--out")
    p.set_defaults(func=cmd_effective)

    p = sub.add_parser("oracle", help="exact diagnostics on a small ring")
    add_model_flags(p)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--n", type=int, default=2, help=f"ring size (capped at {MAX_ORACLE_SITES})")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OperatorFormatError, FileNotFoundError) as exc:
        print(f"dspin {args.command}: {exc}", file=sys.stderr)
        return 1
    except (FitError, GaplessEliminationError) as exc:
        print(f"dspin {args.command}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # bad config values, malformed model parameters
        print(f"dspin {args.command}: {exc}", file=sys.stderr)
        return 1


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
