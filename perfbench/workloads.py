"""The four workloads: one round of operations each, built from a seed.

A round is a fixed list of operations. Each operation calls the program
through a public entry point (the ``dspin`` CLI's ``main`` or a library
function); ``run`` is what gets timed and ``read`` parses what it wrote.
Every round of a run is the same, so counts repeat exactly for a seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
# modules, not names: a traced run wraps the module attributes
from dissipative_spins import cli, liouville, models, variational

LANDAU_STEP = 0.02
PHI_MAX = 0.03
STAGGERED_SWEEPS = 4  # sweeps per staggered_sweep round
LANDAU_GRIDS = 4      # grids per direction in a landau_scan round


class OpFailed(RuntimeError):
    """The program reported a failure (non-zero exit code)."""


@dataclass
class Op:
    kind: str
    run: Callable[[], None]
    read: Callable[[], object]


@dataclass
class Round:
    ops: list
    check: Callable[[list], list]  # results, None for failed ops -> errors
    describe: dict                 # the inputs, for the result record


def dspin(*argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"dspin {argv[0]} exited with {code}")


def _bloch(alpha) -> np.ndarray:
    x, y, z = alpha
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


def _random_bloch(rng) -> np.ndarray:
    a = rng.uniform(-1, 1, 3)
    return a * rng.uniform(0, 1) / np.linalg.norm(a)


class UnorderedNorm:
    """Bond norm at alpha = 0 from the explicit reference evaluator."""

    def __init__(self):
        self._cache = {}

    def __call__(self, lam: float) -> float:
        if lam not in self._cache:
            model = models.dissipative_heisenberg(
                lam, models.LatticeSpec(z=6, bipartite=True, renormalize=True))
            self._cache[lam] = variational.reduced_derivative(
                model, variational.ProductAnsatz.uniform(np.zeros(3))).total_norm
        return self._cache[lam]


def sweep_job(tmp: Path, lmin, step, points, ansatz, which, seed, refine):
    lmax = round(lmin + step * (points - 1), 9)
    csv_path, fit_path = tmp / f"sweep_{which}_{seed}.csv", tmp / f"fit_{which}_{seed}.json"
    argv = ["sweep", "--lambda-min", lmin, "--lambda-max", lmax, "--step", step,
            "--ansatz", ansatz, "--seed", seed, "--out", csv_path]
    if not refine:
        argv.append("--no-refine")

    def run():
        dspin(*argv)
        dspin("fit", "--in", csv_path, "--which", which, "--out", fit_path)

    def read():
        rows = checks.read_csv_rows(csv_path.read_text())
        off_grid = sum(abs((r["lambda"] - lmin) / step - round((r["lambda"] - lmin) / step)) > 1e-6
                       for r in rows)
        return {"rows": rows, "fit": json.loads(fit_path.read_text()),
                "counters": {"cli.sweep_points": len(rows), "cli.refine_points": off_grid}}

    describe = {"lambda_min": lmin, "lambda_max": lmax, "step": step,
                "ansatz": ansatz, "refine": refine, "restart_seed": seed}
    return Op("sweep_fit", run, read), describe


def _sweep_round(tmp, lmin, step, points, ansatz, which, seeds, refine, lambda_range):
    jobs = [sweep_job(tmp, lmin, step, points, ansatz, which, seed, refine) for seed in seeds]
    describe = dict(jobs[0][1], restart_seed=list(seeds))
    unordered = UnorderedNorm()

    def check(results):
        errors = []
        for res in filter(None, results):
            errors += checks.check_fit(res["fit"], lambda_range)
            errors += checks.check_sweep_rows(res["rows"], unordered)
        return errors

    return Round([op for op, _ in jobs], check, describe)


def inplane_sweep(rng, tmp):
    # the grid and its 0.002 refinement lattice hold 0.5 itself, which the
    # onset fit needs; the seed draws the random restarts of every point
    seed = int(rng.integers(0, 2**31 - 1))
    return _sweep_round(tmp, 0.48, 0.02, 3, "uniform", "m", [seed], True, checks.LAMBDA_C1_RANGE)


def staggered_sweep(rng, tmp):
    # 4 points on each side of 1.5, which is on the grid; no refinement,
    # which inplane_sweep measures. The norm evaluations a 4-D sweep needs
    # vary by 8 % with its restarts' seed, so a round holds four sweeps of
    # their own seeds and a run's work varies less from seed to seed
    seeds = [int(x) for x in rng.integers(0, 2**31 - 1, STAGGERED_SWEEPS)]
    return _sweep_round(tmp, 1.44, 0.02, 8, "bipartite", "ms", seeds, False, checks.LAMBDA_C2_RANGE)


def landau_op(tmp, lam, direction):
    path = tmp / f"landau_{direction}_{lam}.json"

    def run():
        dspin("landau", "--lambda", lam, "--direction", direction,
              "--phi-max", PHI_MAX, "--samples", 11, "--out", path)

    return Op(f"landau_{direction}", run, lambda: json.loads(path.read_text()))


def landau_scan(rng, tmp):
    # per direction four grids, each offset from lambda_c by a seeded phase
    # drawn from its own quarter of [1/4, 3/4] of a step: a profile's cost
    # depends on where it falls, and stratified phases keep a round's mix
    # alike from seed to seed. 4 x (4 + 4) in-plane and 4 x 10 staggered
    # profiles, so the median op is a staggered one and never sits on the
    # seam between the slow in-plane profiles below lambda_c1 and the fast
    # ones above it
    grids = []  # (direction, lambda_c, lambdas, ordered below lambda_c)
    # in-plane order lives below lambda_c1, staggered order above lambda_c2
    for direction, center, ks, ordered_below in (
            ("in-plane", checks.LAMBDA_C1, range(-4, 4), True),
            ("staggered-z", checks.LAMBDA_C2, range(-5, 5), False)):
        for g in range(LANDAU_GRIDS):
            phase = 0.25 + 0.5 * (g + rng.random()) / LANDAU_GRIDS
            grids.append((direction, center, [round(center + (k + phase) * LANDAU_STEP, 6) for k in ks],
                          ordered_below))
    ops = [landau_op(tmp, lam, direction) for direction, _, lams, _ in grids for lam in lams]

    def check(results):
        errors, rest = [], iter(results)
        for _, center, lams, ordered_below in grids:
            profiles = [(lam, res["u2"]) for lam, res in zip(lams, rest) if res is not None]
            errors += checks.check_u2_sign_change(profiles, center, LANDAU_STEP, ordered_below)
        return errors

    describe = [{"direction": d, "lambdas": lams} for d, _, lams, _ in grids]
    return Round(ops, check, describe)


def oracle_op(tmp, n, lam, k):
    path = tmp / f"oracle_{k}.json"

    def run():
        dspin("oracle", "--n", n, "--lambda", lam, "--out", path)

    return Op(f"oracle_n{n}", run, lambda: json.loads(path.read_text()))


FLIP_PROBLEM = """[sites]
n = 2
aux = 1
[V+]
{h} 0 0:uu 1:+
{h} 0 0:ud 1:+
{mh} 0 0:du 1:+
{mh} 0 0:dd 1:+
[jump]
rate = 1.0
1 0 1:-
[P_e]
1 0 1:uu
"""

# drive E0 and horizon t: E0^2 t is matched, so the error should drop ~4x
FLIP_RUNS = ((0.10, 12.5), (0.05, 50.0))


def effective_op(tmp, e0, t_max):
    problem = tmp / f"flip_{e0}.prob"
    problem.write_text(FLIP_PROBLEM.format(h=e0 / 2, mh=-e0 / 2))
    path = tmp / f"effective_{e0}.txt"

    def run():
        dspin("effective", "--problem", problem, "--validate", "--t-max", t_max, "--out", path)

    def read():
        text = path.read_text()
        return {"c_eff": checks.operator_sections(text, 2)["c_eff 0"],
                "error": checks.validation_error(text)}

    return Op("effective", run, read)


def _bound_op(lam, states):
    """A8: four bond norms bound the exact norm of a product state on a 4-ring."""
    slacks = []

    def run():
        model = models.dissipative_heisenberg(
            lam, models.LatticeSpec(z=2, bipartite=True, renormalize=False))
        liou = liouville.ring_liouvillian(model, 4)
        slacks.clear()
        for a, b in states:
            ansatz = variational.ProductAnsatz.bipartite(a, b)
            bond = variational.reduced_derivative(model, ansatz).total_norm
            ra, rb = _bloch(a), _bloch(b)
            rho = np.kron(np.kron(ra, rb), np.kron(ra, rb))
            slacks.append(4 * bond - liouville.exact_norm(liou, rho))

    return Op("bound", run, lambda: list(slacks))


def exact_reference(rng, tmp):
    # one coupling drawn in each twelfth of [0.2, 2.0]: the cost of the
    # spectrum varies with lambda, and stratified draws keep the mix alike
    # from seed to seed
    lams4 = [0.0] * 4 + [round(0.2 + 0.15 * (k + float(rng.random())), 6) for k in range(12)]
    # n = 5 at lambda = 0 in every round: the 36-dimensional dark kernel is
    # the hard case for the dense eigensolver, and one fixed input keeps
    # the round's largest op alike across seeds
    oracle = [(4, lam) for lam in lams4] + [(5, 0.0)]
    ops = [oracle_op(tmp, n, lam, k) for k, (n, lam) in enumerate(oracle)]
    ops += [effective_op(tmp, e0, t_max) for e0, t_max in FLIP_RUNS]
    lam_b = round(float(rng.uniform(0.0, 2.0)), 6)
    states = [(_random_bloch(rng), _random_bloch(rng)) for _ in range(10)]
    ops.append(_bound_op(lam_b, states))
    down = np.diag([0.0, 1.0])
    minus, plus = np.array([1.0, -1.0]) / np.sqrt(2), np.array([1.0, 1.0]) / np.sqrt(2)
    target = np.kron(np.outer(minus, plus), down)  # |-><+| with the auxiliary down

    def check(results):
        errors = []
        for (n, lam), res in zip(oracle, results):
            if res is not None:
                errors += checks.check_oracle(res, n, lam)
        effective = results[len(oracle):len(oracle) + 2]
        if None not in effective:
            residuals = [checks.structure_residual(r["c_eff"], target) for r in effective]
            errors += checks.check_elimination(residuals, tuple(r["error"] for r in effective))
        if results[-1] is not None:
            errors += checks.check_bound_slack(results[-1])
        return errors

    describe = {"oracle": oracle, "effective": FLIP_RUNS, "bound_lambda": lam_b}
    return Round(ops, check, describe)


def build_round(workload: str, seed: int, tmp: Path) -> Round:
    return globals()[workload](np.random.default_rng(seed), tmp)
