"""Command-line front end.

Subcommands: sweep (phase-diagram scan over the anisotropy), fit (critical
point and exponent from sweep CSV), landau (quartic expansion of the norm at
one coupling), effective (adiabatic elimination of a problem file, with
--validate comparing the exact full and effective evolutions), oracle (exact
small-ring diagnostics: the generator is diagonalized in sectors of one
coherence order and ring momentum each). The oracle prints what
``liouville`` computes; nothing here handles the generator's layout. Its
q < 0 sectors are copies, so conjugate_pair_defect reads 0.0; zero_cut,
largest_zero and smallest_nonzero (null for none) are the kernel cut and
the |eigenvalues| nearest it either side, and version, z and renormalize
record the run.

Every input is a flag. The model flags default to z = 6, renormalize on,
lambda = 1 and (sweep only) the uniform ansatz; every model-taking command
builds its lattice from them in ``_lattice``. A z outside [2, models.MAX_Z]
or a lambda (or sweep grid point) outside [0, models.MAX_RATE] exits 1.

Exit codes: 0 success, 1 usage errors (an unknown flag, or a value argparse
cannot read), unreadable or malformed input files and bad option values
(such as a sweep span that is NaN, a --step or --t-max that is not
finite and positive, --restarts or --jobs below 1, or an oracle ring too stiff
to resolve), 2 fit or elimination
failure, 3 resource cap exceeded (a MAX_* constant below: oracle sites,
sweep points, restarts and their work with the refinement at its worst,
Landau samples, problem sites and [jump] sections, and the products of a
validation's propagation, the one cap on --t-max). --validate checks the
H_eff and c_eff the run prints, so the elimination runs once. Sweeps are
bit-stable for a fixed --seed regardless of --jobs: each grid point derives
its own seed from the global one and its coupling. The argument parser is
built on the first ``main`` call and kept; each call dispatches to the
module's ``cmd_<name>`` as it is then.
"""

from __future__ import annotations

import argparse
import functools
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
from . import __version__
from .liouville import build_liouvillian, ring_liouvillian, steady_states
from .models import LatticeSpec, dissipative_heisenberg
from .operators import BALL_TOL
from .opformat import (
    OperatorFormatError,
    format_operator,
    parse_problem_text,
    problem_size,
)
from .variational import (
    FitError,
    SweepRecord,
    fit_critical,
    grid_size,
    landau_expansion,
    sweep,
)

CSV_HEADER = "lambda,ax_A,ay_A,az_A,ax_B,ay_B,az_B,m,ms,norm,converged,restarts"
MAX_ORACLE_SITES = 6  # largest sector 160 rows at n = 6 (0.12 s), 492 at n = 7 (1.6 s, 0.03 s of it the ring build)
MAX_SWEEP_POINTS = 10_000
MAX_RESTARTS = 1_000  # per sweep point, all built before the first minimization
REFINED_POINTS = 101  # at worst per bracket: every one an onset, sweep's 51 offsets of step/10 either side
MAX_SWEEP_WORK = 1_000_000  # grid points x restarts, refined ones too; 12-13 min at 0.72-0.79 ms a simplex
MAX_LANDAU_SAMPLES = 1_000  # one batched descent and polish, all samples at once
MAX_PROBLEM_SITES = 6  # dense 2^n x 2^n operators; --validate took 0.05 s at n = 6, 0.4 s at n = 7
MAX_PROBLEM_JUMPS = 16  # at n = 6, 16 rate-1 jumps took 0.04 s, 2,000 3.7 s
# products by Liouvillian.taylor_cost; near it at n = 6 on one core, one rate-49 decay jump to t_max = 44
# took 1.0 s and 16 rate-1 jumps to 15.7, 1.6-2.3 s; at 0.12-0.20 ms a product, no run passes 6-10 s
MAX_VALIDATION_WORK = 50_000


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
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise OperatorFormatError("empty sweep CSV")
    header = [h.strip() for h in lines[0][1].split(",")]
    expected = CSV_HEADER.split(",")
    if header != expected:
        raise OperatorFormatError(f"unexpected CSV header {lines[0][1]!r}", lines[0][0])
    records, first = [], {}  # lambda -> the line that gave it
    for lineno, ln in lines[1:]:
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
        if vals[0] < 0 or not all(0 <= v <= 1 + BALL_TOL for v in vals[7:9]):
            raise OperatorFormatError(f"lambda must be >= 0 and m, ms in [0, 1] in {ln!r}", lineno)
        if vals[0] in first:
            raise OperatorFormatError(f"lambda {vals[0]:.12g} repeats line {first[vals[0]]}", lineno)
        first[vals[0]] = lineno
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


@np.errstate(over="ignore", invalid="ignore")  # a G past the float range has an infinite bound
def _validation_work(problem, t_max: float) -> float:
    """The products the full generator's ``evolve`` to t_max makes at most (``taylor_cost``)."""
    return build_liouvillian(problem.hamiltonian, problem.jumps).taylor_cost(t_max)[1]


def _write_out(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _lattice(args) -> LatticeSpec:
    """The lattice of a sweep, landau or oracle run: its --z and --renormalize."""
    return LatticeSpec(z=args.z, renormalize=args.renormalize == "on")


def cmd_sweep(args) -> int:
    if args.restarts > MAX_RESTARTS:
        return _over_cap(f"sweep: {args.restarts} restarts exceed the restart cap "
                         f"({MAX_RESTARTS} per point)")
    points = grid_size(args.lambda_min, args.lambda_max, args.step)
    if points > MAX_SWEEP_POINTS:
        return _over_cap(f"sweep: {points} grid points exceed the sweep cap "
                         f"({MAX_SWEEP_POINTS} points)")
    work = (points + args.refine * REFINED_POINTS * max(points - 1, 0)) * args.restarts
    if work > MAX_SWEEP_WORK:
        return _over_cap(f"sweep: {work:,} restart simplices, refined at worst, exceed the work cap ({MAX_SWEEP_WORK:,})")
    records = sweep(
        args.lambda_min, args.lambda_max, args.step, _lattice(args), args.ansatz,
        restarts=args.restarts, seed=args.seed, jobs=args.jobs, refine=args.refine,
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
    fit = fit_critical(records, which="m" if args.which == "m" else "m_s", window=args.window)
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
    model = dissipative_heisenberg(args.lam, _lattice(args))
    fit = landau_expansion(model, args.direction, args.phi_max, args.samples)
    out = {
        "lambda": args.lam,
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
    if args.validate:
        check_horizon(args.t_max)  # exit 1 before a NaN could reach the work cap
    with open(args.problem) as fh:
        text = fh.read()
    n_sites, n_jumps = problem_size(text)
    if n_sites > MAX_PROBLEM_SITES:
        return _over_cap(f"effective: n = {n_sites} exceeds the problem-size cap "
                         f"({MAX_PROBLEM_SITES} sites)")
    if n_jumps > MAX_PROBLEM_JUMPS:
        return _over_cap(f"effective: {n_jumps} [jump] sections exceed the jump cap "
                         f"({MAX_PROBLEM_JUMPS})")
    pf = parse_problem_text(text)
    if args.validate:
        work = _validation_work(pf.problem, args.t_max)
        if not work <= MAX_VALIDATION_WORK:
            return _over_cap(f"effective: validation work {work:.4g} exceeds the cap "
                             f"({MAX_VALIDATION_WORK:,}); shorten --t-max or lower the rates")
    try:
        with np.errstate(over="raise", invalid="raise"):
            h_eff, c_eff = effective_hamiltonian(pf.problem), effective_jumps(pf.problem)
    except FloatingPointError as exc:
        raise ValueError(f"the elimination leaves the float range ({exc})") from None
    chunks = []  # an operator with no terms prints its header alone
    for name, op in [("H_eff", h_eff)] + [(f"c_eff {k}", c) for k, c in enumerate(c_eff)]:
        chunks += [f"[{name}]", format_operator(op, n_sites)]
    if args.validate:
        n_sys = n_sites - len(pf.aux_sites)
        rho_sys = np.eye(2**n_sys, dtype=complex) / 2**n_sys
        down = np.zeros((2 ** len(pf.aux_sites),) * 2, dtype=complex)
        down[-1, -1] = 1.0  # auxiliaries start in their all-down rest state
        val = validate_elimination(pf.problem, h_eff, c_eff, rho_sys, down, pf.aux_sites,
                                   t_max=args.t_max)
        chunks += ["[validation]", f"# trace distance at t = {val.t_max:g}",
                   f"error = {val.error:.6e}"]
    _write_out(args, "\n".join(c for c in chunks if c))
    return 0


def cmd_oracle(args) -> int:
    if args.n > MAX_ORACLE_SITES:
        return _over_cap(f"oracle: n = {args.n} exceeds the exact-diagonalization cap "
                         f"({MAX_ORACLE_SITES} sites)")
    model = dissipative_heisenberg(args.lam, _lattice(args))
    space = steady_states(ring_liouvillian(model, args.n))
    out = {
        "n": args.n,
        "lambda": args.lam,
        "dark_dimension": space.dimension,
        "max_real_part": float(space.eigenvalues.real.max()),
        "trace_defect": space.trace_defect,
        "conjugate_pair_defect": 0.0,  # each q < 0 spectrum is its partner's, conjugated
        "zero_cut": space.zero_cut,
        "largest_zero": space.largest_zero,
        "smallest_nonzero": space.smallest_nonzero,
        "version": __version__,
        "z": args.z,
        "renormalize": args.renormalize,
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


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as every malformed input does; subparsers are built as this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # built on first use, not at import, and kept
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dspin",
        description="steady-state phase diagrams of purely dissipative spin models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--z", type=int, default=6, help="lattice coordination number")
        p.add_argument("--renormalize", choices=["on", "off"], default="on")
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("sweep", help="scan the anisotropy and minimize the norm")
    add_model_flags(p)
    p.add_argument("--ansatz", choices=["uniform", "bipartite"], default="uniform")
    p.add_argument("--lambda-min", type=float, required=True)
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--restarts", type=int, default=8, help=f"capped at {MAX_RESTARTS}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-refine", dest="refine", action="store_false",
                   help="skip the automatic fine grid around the transition")

    p = sub.add_parser("fit", help="critical coupling and exponent from sweep CSV")
    p.add_argument("--in", dest="infile", default="-", help="sweep CSV ('-' = stdin)")
    p.add_argument("--which", choices=["m", "ms"], default="m")
    p.add_argument("--window", type=_window, default=(0.01, 0.1),
                   help="|lambda - lambda_c| range for the exponent fit, 'lo,hi'")
    p.add_argument("--out")

    p = sub.add_parser("landau", help="quartic norm expansion at one coupling")
    add_model_flags(p)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--direction", choices=["in-plane", "staggered-z"],
                   default="in-plane")
    p.add_argument("--phi-max", type=float, default=0.03,
                   help="fit window; keep small near a transition, the norm "
                        "is only quartic below its first kink")
    p.add_argument("--samples", type=int, default=11, help=f"capped at {MAX_LANDAU_SAMPLES}")

    p = sub.add_parser("effective", help="adiabatically eliminate a problem file")
    p.add_argument("--problem", required=True)
    p.add_argument("--validate", action="store_true",
                   help="propagate full vs effective dynamics and report the error")
    p.add_argument("--t-max", type=float, default=50.0,
                   help="validation horizon, finite and positive; the work it sets is "
                        f"capped at {MAX_VALIDATION_WORK:,}")
    p.add_argument("--out")

    p = sub.add_parser("oracle", help="exact diagnostics on a small ring")
    add_model_flags(p)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--n", type=int, default=2, help=f"ring size (capped at {MAX_ORACLE_SITES})")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (FitError, GaplessEliminationError) as exc:  # ValueErrors, so caught first
        print(f"dspin {args.command}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        # unreadable files, malformed files, model parameters and option values
        print(f"dspin {args.command}: {exc}", file=sys.stderr)
        return 1


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
