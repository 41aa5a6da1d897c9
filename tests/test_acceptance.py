"""End-to-end acceptance checks, one per criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (collected again in the terminal
summary) and then asserts. Runtime budgets are asserted where the criterion
carries one.
"""

import json
import time

import numpy as np
from conftest import record

from dissipative_spins.cli import main as cli_main
from dissipative_spins.cli import read_sweep_csv
from dissipative_spins.effective import (
    effective_hamiltonian,
    effective_jumps,
    validate_elimination,
)
from dissipative_spins.liouville import exact_norm, ring_liouvillian, steady_states
from dissipative_spins.models import (
    DissipativeModel,
    LatticeSpec,
    anisotropy_jumps,
    dissipative_heisenberg,
    ferro_pump_jumps,
)
from dissipative_spins.operators import bloch_to_density, kron, pauli
from dissipative_spins.opformat import parse_problem_text
from dissipative_spins.variational import (
    ProductAnsatz,
    landau_expansion,
    mean_field_jump_term,
    minimize_norm,
    order_parameters,
    reduced_derivative,
)


def heis(lam, **kw):
    spec = dict(z=6, bipartite=True, renormalize=True)
    spec.update(kw)
    return dissipative_heisenberg(lam, LatticeSpec(**spec))


def test_a1_dark_manifold_at_zero_anisotropy():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    model = heis(0.0)
    worst = 0.0
    for _ in range(20):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        nb = reduced_derivative(model, ProductAnsatz.uniform(v))
        worst = max(worst, nb.total_norm)
    dt = time.monotonic() - t0
    ok = worst < 1e-10 and dt < 1.0
    line = record("A1 dark manifold at lambda=0", ok,
                  f"worst norm {worst:.2e} over 20 directions, {dt:.2f}s")
    assert ok, line


def _sweep_and_fit(tmp_path, lo, hi, ansatz, which, window):
    sweep_csv = tmp_path / f"sweep_{which}.csv"
    fit_json = tmp_path / f"fit_{which}.json"
    code = cli_main([
        "sweep", "--lambda-min", str(lo), "--lambda-max", str(hi),
        "--step", "0.01", "--ansatz", ansatz, "--z", "6",
        "--seed", "0", "--out", str(sweep_csv),
    ])
    assert code == 0
    code = cli_main([
        "fit", "--in", str(sweep_csv), "--which", which,
        "--window", window, "--out", str(fit_json),
    ])
    assert code == 0
    return json.loads(fit_json.read_text()), read_sweep_csv(sweep_csv.read_text())


def test_a2_xy_transition(tmp_path):
    t0 = time.monotonic()
    fit, _ = _sweep_and_fit(tmp_path, 0.3, 0.7, "uniform", "m", "0.01,0.1")
    dt = time.monotonic() - t0
    ok = (0.48 <= fit["lambda_c"] <= 0.52
          and 0.45 <= fit["beta"] <= 0.55
          and dt < 120.0)
    line = record("A2 XY transition (uniform, z=6)", ok,
                  f"lambda_c={fit['lambda_c']:.4f}, beta={fit['beta']:.3f}, {dt:.0f}s")
    assert ok, line


def test_a3_staggered_transition(tmp_path):
    t0 = time.monotonic()
    fit, _ = _sweep_and_fit(tmp_path, 1.3, 1.7, "bipartite", "ms", "0.01,0.1")
    dt = time.monotonic() - t0
    # renormalized convention lambda = lambda'/(z-1), see README
    ok = (1.45 <= fit["lambda_c"] <= 1.55
          and 0.45 <= fit["beta"] <= 0.55
          and dt < 120.0)
    line = record("A3 staggered transition (bipartite, z=6)", ok,
                  f"lambda_c={fit['lambda_c']:.4f}, beta={fit['beta']:.3f}, {dt:.0f}s")
    assert ok, line


def test_a4_no_longitudinal_moment_in_xy_phase():
    worst = 0.0
    for lam in (0.1, 0.2, 0.3, 0.4):
        res = minimize_norm(heis(lam), kind="uniform", seed=0)
        worst = max(worst, abs(res.ansatz.alpha_A[2]))
    ok = worst < 1e-6
    line = record("A4 <sigma_z>=0 across the XY phase", ok, f"worst |alpha_z| {worst:.2e}")
    assert ok, line


def test_a5_disordered_window_both_ansaetze():
    worst = 0.0
    for lam in (0.8, 1.0, 1.2):
        for kind in ("uniform", "bipartite"):
            res = minimize_norm(heis(lam), kind=kind, seed=0)
            m, ms = order_parameters(res.ansatz)
            worst = max(worst, m, ms)
    ok = worst < 1e-4
    line = record("A5 disordered window order parameters", ok, f"worst {worst:.2e}")
    assert ok, line


def test_a6_landau_structure_of_both_transitions():
    # sign change of u2 within +-0.02 of each critical coupling; the
    # narrow window keeps the fit below the first eigenvalue kink
    u2_xy = [landau_expansion(heis(l), "in-plane", 0.03, 11).u2 for l in (0.48, 0.52)]
    u2_st = [landau_expansion(heis(l), "staggered-z", 0.03, 11).u2
             for l in (1.48, 1.52)]
    # quartic confinement on both sides of each transition; these windows
    # span the kink, which is where the quartic growth lives
    u4_xy = [landau_expansion(heis(l), "in-plane", 0.15, 11).u4 for l in (0.48, 0.52)]
    u4_st = [landau_expansion(heis(l), "staggered-z", 0.40, 11).u4
             for l in (1.48, 1.52)]
    ok = (u2_xy[0] < 0 < u2_xy[1]
          and u2_st[1] < 0 < u2_st[0]
          and all(u > 0 for u in u4_xy + u4_st))
    line = record(
        "A6 Landau expansion at both transitions", ok,
        "u2(0.48/0.52)=%+.2f/%+.2f, u2(1.48/1.52)=%+.2f/%+.2f, "
        "u4 in {%.1f,%.1f,%.1f,%.1f}" % (*u2_xy, *u2_st, *u4_xy, *u4_st),
    )
    assert ok, line


def _flip_problem(e0, gamma):
    return parse_problem_text(f"""
[sites]
n = 2
aux = 1
[V+]
{e0 / 2} 0 0:uu 1:+
{e0 / 2} 0 0:ud 1:+
{-e0 / 2} 0 0:du 1:+
{-e0 / 2} 0 0:dd 1:+
[jump]
rate = {gamma}
1 0 1:-
[P_e]
1 0 1:uu
""")


def _bell_problem(e0, gamma):
    return parse_problem_text(f"""
[sites]
n = 3
aux = 2
[V+]
{e0 / 2} 0 0:uu 1:dd 2:+
{-e0 / 2} 0 0:ud 1:du 2:+
{e0 / 2} 0 0:du 1:ud 2:+
{-e0 / 2} 0 0:dd 1:uu 2:+
[jump]
rate = {gamma}
1 0 2:-
[P_e]
1 0 2:uu
""")


def _structure_residual(c_eff, target):
    # remove the component along the expected operator; anything left is
    # outside the advertised structure (absolute prefactors stay unchecked)
    coef = np.vdot(target, c_eff) / np.vdot(target, target)
    return np.abs(c_eff - coef * target).max(), coef


def test_a7_engineered_jump_operators():
    down = np.array([0.0, 1.0])
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    dd = np.outer(down, down)

    # single-particle target |-><+|, auxiliary frozen to down
    (c1,) = effective_jumps(_flip_problem(0.05, 1.0).problem)
    resid1, coef1 = _structure_residual(c1, kron(np.outer(minus, plus), dd))

    # amplitude linear in E0, and gamma^(-1/2) across a decade
    (c_e2,) = effective_jumps(_flip_problem(0.10, 1.0).problem)
    e0_ratio = np.abs(c_e2).max() / np.abs(c1).max()
    (c_g,) = effective_jumps(_flip_problem(0.05, 10.0).problem)
    gamma_ratio = np.abs(c1).max() / np.abs(c_g).max()

    # two-particle target |psi+><psi-|
    psi_p = np.array([0, 1, 1, 0]) / np.sqrt(2)
    psi_m = np.array([0, 1, -1, 0]) / np.sqrt(2)
    (c2,) = effective_jumps(_bell_problem(0.05, 1.0).problem)
    resid2, coef2 = _structure_residual(c2, kron(np.outer(psi_p, psi_m), dd))

    # error of the eliminated dynamics drops ~4x between E0/gamma = 0.1 and
    # 0.05 when the horizon is rescaled to the same dimensionless time
    # 4 E0^2 t / gamma (the effective-rate clock)
    rng = np.random.default_rng(3)
    rho_sys = bloch_to_density(rng.uniform(-0.5, 0.5, 3))
    rho_aux = np.outer(down, down).astype(complex)
    errs = []
    for e0, t_max in ((0.10, 12.5), (0.05, 50.0)):
        problem = _flip_problem(e0, 1.0).problem
        val = validate_elimination(
            problem, effective_hamiltonian(problem), effective_jumps(problem),
            rho_sys, rho_aux, [1], t_max=t_max,
        )
        errs.append(val.error)
    ratio = errs[0] / errs[1]

    ok = (resid1 < 1e-10 and resid2 < 1e-10
          and abs(e0_ratio - 2.0) < 1e-9
          and abs(gamma_ratio - np.sqrt(10)) < 1e-9
          and 3.0 <= ratio <= 5.0)
    line = record(
        "A7 tailored jump operators", ok,
        f"structure residuals {resid1:.1e}/{resid2:.1e}, E0 ratio {e0_ratio:.3f}, "
        f"gamma ratio {gamma_ratio:.3f} (sqrt(10)={np.sqrt(10):.3f}), "
        f"validation ratio {ratio:.2f}",
    )
    assert ok, line


def _brute_force_mf(c, target_slot, nb_alpha, pair):
    """Independent mean-field route: hand-rolled embedding and trace."""
    rho_k = 0.5 * (
        np.eye(2)
        + nb_alpha[0] * pauli("x")
        + nb_alpha[1] * pauli("y")
        + nb_alpha[2] * pauli("z")
    )
    three = np.kron(pair, rho_k)  # site order (i, j, k)
    big = np.zeros((8, 8), dtype=complex)
    for a in range(2):
        for ap in range(2):
            for k in range(2):
                for kp in range(2):
                    for spect in range(2):
                        if target_slot == "i":
                            row = 4 * a + 2 * spect + k
                            col = 4 * ap + 2 * spect + kp
                        else:
                            row = 4 * spect + 2 * a + k
                            col = 4 * spect + 2 * ap + kp
                        big[row, col] += c[2 * a + k, 2 * ap + kp]
    dot = big @ three @ big.conj().T - 0.5 * (
        big.conj().T @ big @ three + three @ big.conj().T @ big
    )
    out = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            for k in range(2):
                out[a, b] += dot[2 * a + k, 2 * b + k]
    return out


def test_a8_mean_field_consistency_and_bound():
    t0 = time.monotonic()
    rng = np.random.default_rng(8)

    # 1. mean-field term vs brute-force three-site construction
    worst_mf = 0.0
    for _ in range(100):
        c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        pair = h + h.conj().T
        pair = pair / max(1.0, np.abs(pair).max())
        nb = rng.uniform(-1, 1, 3)
        nb *= rng.uniform(0, 1) / np.linalg.norm(nb)
        slot = "i" if rng.integers(2) else "j"
        got = mean_field_jump_term(c, slot, nb, pair)
        ref = _brute_force_mf(c, slot, nb, pair)
        worst_mf = max(worst_mf, np.abs(got - ref).max())

    # 2. bond-norm sum upper-bounds the exact norm on a 4-ring
    min_slack = np.inf
    for _ in range(10):
        lam = rng.uniform(0.0, 2.0)
        model = dissipative_heisenberg(
            lam, LatticeSpec(z=2, bipartite=True, renormalize=False)
        )
        a = rng.uniform(-1, 1, 3)
        a *= rng.uniform(0, 1) / np.linalg.norm(a)
        b = rng.uniform(-1, 1, 3)
        b *= rng.uniform(0, 1) / np.linalg.norm(b)
        bond = reduced_derivative(model, ProductAnsatz.bipartite(a, b)).total_norm
        liou = ring_liouvillian(model, 4)
        rho = kron(*(bloch_to_density(v) for v in (a, b, a, b)))
        min_slack = min(min_slack, 4 * bond - exact_norm(liou, rho))

    # 3. exact two-site dark dimensions
    ferro = DissipativeModel(
        lattice=LatticeSpec(z=6),
        jump_terms=ferro_pump_jumps(),
    )
    aniso = DissipativeModel(
        lattice=LatticeSpec(z=6),
        jump_terms=anisotropy_jumps(1.0),
    )
    dim_ferro = steady_states(ring_liouvillian(ferro, 2)).dimension
    liou_aniso = ring_liouvillian(aniso, 2)
    dim_aniso = steady_states(liou_aniso).dimension
    neel_defect = 0.0
    for idx in (1, 2):  # |ud><ud| and |du><du| stay dark
        proj = np.zeros((4, 4), dtype=complex)
        proj[idx, idx] = 1.0
        neel_defect = max(neel_defect, np.abs(liou_aniso.apply(proj)).max())

    dt = time.monotonic() - t0
    ok = (worst_mf < 1e-12 and min_slack > 0
          and dim_ferro == 9 and dim_aniso == 4 and neel_defect < 1e-12
          and dt < 30.0)
    line = record(
        "A8 mean field vs exact clusters", ok,
        f"mf defect {worst_mf:.1e}, bound slack {min_slack:.2f}, "
        f"dark dims {dim_ferro}/{dim_aniso}, Neel defect {neel_defect:.1e}, {dt:.0f}s",
    )
    assert ok, line
