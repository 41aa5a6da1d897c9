"""Tests of the benchmark's own checks and tracing.

Each check must pass a correct output and reject a perturbed one.
Run with ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

FLIP_OUTPUT = """[H_eff]
[c_eff 0]
-0.05 0 0:y
0.05 0 0:y 1:z
0 0.05 0:z
0 -0.05 0:z 1:z
[validation]
# trace distance at t = 12.5
error = 2.101889e-02
"""

DOWN = np.diag([0.0, 1.0])
FLIP_TARGET = np.kron(np.outer([1, -1], [1, 1]) / 2, DOWN)


def sweep_rows(lambda_c=0.5):
    rows = []
    for lam in np.arange(0.48, 0.5201, 0.002):
        m = np.sqrt(max(lambda_c - lam, 0.0) * 0.35)
        rows.append({"lambda": round(lam, 9), "m": m, "ms": 0.0, "norm": 0.1 * m})
    return rows


def test_fit_accepts_the_transitions():
    assert checks.check_fit({"lambda_c": 0.5004, "beta": 0.52}, checks.LAMBDA_C1_RANGE) == []
    assert checks.check_fit({"lambda_c": 1.4991, "beta": 0.505}, checks.LAMBDA_C2_RANGE) == []


@pytest.mark.parametrize("fit, lambda_range", [
    ({"lambda_c": 0.5504, "beta": 0.52}, checks.LAMBDA_C1_RANGE),   # moved by 0.05
    ({"lambda_c": 0.4504, "beta": 0.52}, checks.LAMBDA_C1_RANGE),
    ({"lambda_c": 1.5591, "beta": 0.505}, checks.LAMBDA_C2_RANGE),  # moved by 0.06
    ({"lambda_c": 0.5004, "beta": 0.58}, checks.LAMBDA_C1_RANGE),   # exponent off
    ({"lambda_c": 1.4991, "beta": 0.44}, checks.LAMBDA_C2_RANGE),
])
def test_fit_rejects_perturbed(fit, lambda_range):
    assert checks.check_fit(fit, lambda_range)


def test_sweep_rows_accept_and_reject():
    bound = lambda lam: 1.0  # noqa: E731
    rows = sweep_rows()
    assert checks.check_sweep_rows(rows, bound) == []
    above = [dict(r) for r in rows]
    above[3]["norm"] = 1.0 + 1e-6
    assert checks.check_sweep_rows(above, bound)
    ordered = [dict(r) for r in rows]
    ordered[-1]["ms"] = 2e-4  # staggered order inside the disordered window
    assert checks.check_sweep_rows(ordered, bound)


def u2_profiles(center, crossing):
    lams = [round(center + (k + 0.5) * 0.02, 6) for k in range(-4, 4)]
    return [(lam, 5.0 * (lam - crossing)) for lam in lams]


def test_u2_sign_change_accepts_both_transitions():
    assert checks.check_u2_sign_change(u2_profiles(0.5, 0.498), 0.5, 0.02, True) == []
    # staggered order sets in above 1.5, with u2 turning negative
    flipped = [(lam, -u2) for lam, u2 in u2_profiles(1.5, 1.509)]
    assert checks.check_u2_sign_change(flipped, 1.5, 0.02, False) == []


def test_u2_sign_change_rejects_perturbed():
    profiles = u2_profiles(0.5, 0.498)
    one_flipped = list(profiles)
    lam, u2 = one_flipped[1]
    one_flipped[1] = (lam, -u2)  # one flipped u2 sign
    assert checks.check_u2_sign_change(one_flipped, 0.5, 0.02, True)
    all_flipped = [(lam, -u2) for lam, u2 in profiles]
    assert checks.check_u2_sign_change(all_flipped, 0.5, 0.02, True)
    moved = u2_profiles(0.5, 0.548)  # crossing moved by 0.05
    assert checks.check_u2_sign_change(moved, 0.5, 0.02, True)
    no_change = [(lam, abs(u2)) for lam, u2 in profiles]
    assert checks.check_u2_sign_change(no_change, 0.5, 0.02, True)


GOOD_ORACLE = {"dark_dimension": 25, "trace_defect": 4e-16, "max_real_part": 6e-16}


def test_oracle_accepts_dark_and_unique_kernels():
    assert checks.check_oracle(GOOD_ORACLE, 4, 0.0) == []
    assert checks.check_oracle(dict(GOOD_ORACLE, dark_dimension=36), 5, 0.0) == []
    assert checks.check_oracle(dict(GOOD_ORACLE, dark_dimension=1), 4, 0.7) == []


@pytest.mark.parametrize("change, n, lam", [
    ({"dark_dimension": 24}, 4, 0.0),   # kernel dimension off by one
    ({"dark_dimension": 26}, 4, 0.0),
    ({"dark_dimension": 2}, 4, 0.7),
    ({"trace_defect": 1e-10}, 4, 0.0),
    ({"max_real_part": 1e-6}, 4, 0.0),
])
def test_oracle_rejects_perturbed(change, n, lam):
    out = dict(GOOD_ORACLE, **change)
    assert checks.check_oracle(out, n, lam)


def test_operator_sections_read_the_flip_jump():
    sections = checks.operator_sections(FLIP_OUTPUT, 2)
    assert set(sections) == {"H_eff", "c_eff 0", "validation"}
    c_eff = sections["c_eff 0"]
    assert checks.structure_residual(c_eff, FLIP_TARGET) < 1e-15
    assert np.allclose(c_eff, 0.2j * FLIP_TARGET)
    assert checks.validation_error(FLIP_OUTPUT) == pytest.approx(2.101889e-2)


def test_elimination_accepts_and_rejects():
    assert checks.check_elimination([1e-17, 7e-18], (2.1e-2, 4.7e-3)) == []
    assert checks.check_elimination([1e-17, 1e-8], (2.1e-2, 4.7e-3))   # wrong structure
    assert checks.check_elimination([1e-17, 1e-17], (2.1e-2, 2.1e-2))  # no drive scaling
    wrong = checks.operator_sections(FLIP_OUTPUT.replace("0 0.05 0:z\n", "0 0.06 0:z\n"), 2)
    assert checks.structure_residual(wrong["c_eff 0"], FLIP_TARGET) > 1e-10


def test_bound_slack_rejects_negative():
    assert checks.check_bound_slack([3.3, 0.2]) == []
    assert checks.check_bound_slack([3.3, -1e-9])


def test_missing_hook_is_reported_not_fatal():
    import dissipative_spins.variational as variational

    original = variational.minimize_norm
    tracer = tracing.Tracer()
    tracer.install(tracing.HOOKS + (("variational", "no_such_function", None),
                                    ("no_such_module", "f", None)))
    try:
        assert tracer.missing == ["variational.no_such_function", "no_such_module.f"]
        assert variational.minimize_norm is not original
    finally:
        tracer.uninstall()
    assert variational.minimize_norm is original
    assert all(value is None for value in tracer.layer_metrics().values())


def test_tracer_counts_calls_inside_op_spans_only():
    from dissipative_spins import models

    tracer = tracing.Tracer()
    tracer.install()
    try:
        models.dissipative_heisenberg(0.3, models.LatticeSpec())  # outside an op
        with tracer.span("op"):
            models.dissipative_heisenberg(0.3, models.LatticeSpec())
            models.dissipative_heisenberg(0.4, models.LatticeSpec())
    finally:
        tracer.uninstall()
    assert tracer.stats["models.dissipative_heisenberg"].calls == 2
    assert tracer.stats["op"].calls == 1
    assert tracer.layer_metrics()["models.build_us"] > 0


def test_local_refs_weigh_spells_by_their_time():
    # samples every 0.1 s: 1 ms for the first half second, 3 ms after
    samples = [(0.1 * k, 1e-3 if k < 5 else 3e-3) for k in range(10)]
    fast, mixed, far = run.local_refs([(0.1, 0.3), (0.3, 0.6), (5.0, 5.1)], samples, margin=0.05)
    assert fast == pytest.approx(1e-3)
    # half the time at each speed did the work of 1.5 ms per kernel call
    assert mixed == pytest.approx(1.5e-3)
    assert far == pytest.approx(run.harmonic_mean([t for _, t in samples]))


def test_rounds_hold_several_inputs(tmp_path):
    import workloads

    rng = np.random.default_rng(5)
    staggered = workloads.staggered_sweep(rng, tmp_path)
    assert len(staggered.ops) == workloads.STAGGERED_SWEEPS
    assert len(set(staggered.describe["restart_seed"])) == workloads.STAGGERED_SWEEPS
    grids = workloads.landau_scan(rng, tmp_path).describe
    for direction, center in (("in-plane", checks.LAMBDA_C1), ("staggered-z", checks.LAMBDA_C2)):
        starts = [g["lambdas"][0] for g in grids if g["direction"] == direction]
        first_k = -4 if direction == "in-plane" else -5
        phases = [(lam - center) / workloads.LANDAU_STEP - first_k for lam in starts]
        # one phase in each of LANDAU_GRIDS equal parts of [1/4, 3/4]
        part = 0.5 / workloads.LANDAU_GRIDS
        for g, phase in enumerate(phases):
            assert 0.25 + g * part - 1e-6 <= phase <= 0.25 + (g + 1) * part + 1e-6
