"""Adiabatic elimination against closed-form two-level results.

Oracle: for a single driven auxiliary two-level atom with decay rate gamma
and detuning delta, the excited-manifold resolvent is the scalar
1/(delta - i gamma/2), so every effective operator has an analytic form the
code must hit at machine precision.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from dissipative_spins.effective import (
    EliminationProblem,
    GaplessEliminationError,
    effective_hamiltonian,
    effective_jumps,
    invert_on_decaying_manifold,
    nonhermitian_hamiltonian,
    strip_auxiliary,
    validate_elimination,
)
from dissipative_spins.liouville import Liouvillian, build_liouvillian
from dissipative_spins.operators import bloch_to_density, embed, kron, partial_trace, pauli

UP = np.array([1.0, 0.0])
DOWN = np.array([0.0, 1.0])
MINUS = np.array([1.0, -1.0]) / np.sqrt(2)
PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def single_flip_problem(e0=0.05, gamma=1.0, delta=0.0):
    """One ensemble spin (site 0) + one decaying auxiliary (site 1)."""
    v_plus = e0 * kron(np.outer(MINUS, PLUS), pauli("+"))
    jump = np.sqrt(gamma) * embed(pauli("-"), [1], 2)
    p_e = embed(np.diag([1.0, 0.0]), [1], 2)  # aux up decays
    h_e = delta * p_e
    return EliminationProblem(
        h_ground=np.zeros((4, 4), dtype=complex),
        h_excited=h_e.astype(complex),
        v_plus=v_plus.astype(complex),
        jumps=(jump.astype(complex),),
        p_excited=p_e.astype(complex),
    )


def validate(prob, rho_sys, rho_aux, t_max):
    """validate_elimination of prob's own effective operators, the auxiliary on site 1."""
    return validate_elimination(prob, effective_hamiltonian(prob), effective_jumps(prob),
                                rho_sys, rho_aux, [1], t_max=t_max)


def test_problem_hamiltonian_and_sites():
    prob = single_flip_problem(e0=0.1, delta=0.7)
    h = prob.h_ground + prob.h_excited + prob.v_plus + prob.v_plus.conj().T
    np.testing.assert_array_equal(prob.hamiltonian, h)
    assert prob.n_sites == 2
    three = EliminationProblem(*(np.eye(3, dtype=complex),) * 3, (), np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match="power of two"):
        three.n_sites
    with pytest.raises(ValueError, match="one square dimension"):
        EliminationProblem(prob.h_ground, np.eye(2, dtype=complex), prob.v_plus, prob.jumps,
                           prob.p_excited)


def test_nonhermitian_hamiltonian():
    prob = single_flip_problem(gamma=2.0, delta=0.3)
    ht = nonhermitian_hamiltonian(prob)
    expected = (0.3 - 1j) * embed(np.diag([1.0, 0.0]), [1], 2)
    np.testing.assert_allclose(ht, expected, atol=1e-14)


def test_nonhermitian_hamiltonian_several_jumps_detuned():
    # site 0 the system, sites 1 and 2 detuned auxiliaries exchanging an
    # excitation; three jumps, one complex, act on the block of P_e
    n_up = np.diag([1.0, 0.0])
    h_e = (0.3 * embed(n_up, [1], 3) - 0.7 * embed(n_up, [2], 3)
           + 0.2 * embed(kron(pauli("+"), pauli("-")), [1, 2], 3)
           + 0.2 * embed(kron(pauli("-"), pauli("+")), [1, 2], 3))
    jumps = (np.sqrt(1.5) * embed(pauli("-"), [1], 3),
             np.sqrt(0.4) * embed(pauli("-"), [2], 3),
             (0.3 + 0.2j) * embed(kron(pauli("z"), pauli("-")), [0, 2], 3))
    p_e = np.eye(8) - embed(np.diag([0.0, 0.0, 0.0, 1.0]), [1, 2], 3)  # any auxiliary up
    prob = EliminationProblem(
        h_ground=np.zeros((8, 8), dtype=complex),
        h_excited=h_e,
        v_plus=0.05 * embed(kron(pauli("x"), pauli("+")), [0, 1], 3),
        jumps=jumps,
        p_excited=p_e.astype(complex),
    )
    expected = p_e @ (h_e - 0.5j * sum(c.conj().T @ c for c in jumps)) @ p_e
    np.testing.assert_allclose(nonhermitian_hamiltonian(prob), expected, atol=1e-15)


def test_resolvent_is_inverse_on_manifold():
    prob = single_flip_problem(gamma=1.3, delta=-0.2)
    ht = nonhermitian_hamiltonian(prob)
    inv = invert_on_decaying_manifold(ht, prob.p_excited)
    np.testing.assert_allclose(inv @ ht, prob.p_excited, atol=1e-12)
    np.testing.assert_allclose(ht @ inv, prob.p_excited, atol=1e-12)


def test_effective_jump_resonant():
    e0, gamma = 0.05, 1.0
    prob = single_flip_problem(e0, gamma)
    (c_eff,) = effective_jumps(prob)
    # resolvent at resonance: (-i gamma/2)^-1 = 2i/gamma
    target = (2j * e0 / np.sqrt(gamma)) * kron(
        np.outer(MINUS, PLUS), np.outer(DOWN, DOWN)
    )
    np.testing.assert_allclose(c_eff, target, atol=1e-14)


def test_effective_hamiltonian_vanishes_on_resonance():
    prob = single_flip_problem()
    np.testing.assert_allclose(
        effective_hamiltonian(prob), np.zeros((4, 4)), atol=1e-14
    )


def test_effective_hamiltonian_detuned():
    e0, gamma, delta = 0.04, 0.8, 0.5
    prob = single_flip_problem(e0, gamma, delta)
    # -1/2 |E0|^2 * 2 Re[1/(delta - i gamma/2)] on |+><+| (x) |down><down|
    shift = -(e0**2) * delta / (delta**2 + gamma**2 / 4)
    target = shift * kron(np.outer(PLUS, PLUS), np.outer(DOWN, DOWN))
    np.testing.assert_allclose(effective_hamiltonian(prob), target, atol=1e-14)


def test_effective_rate_scales_with_gamma():
    e0 = 0.02
    amps = []
    for gamma in (0.5, 5.0):
        (c_eff,) = effective_jumps(single_flip_problem(e0, gamma))
        amps.append(np.abs(c_eff).max())
    # decade in gamma -> sqrt(10) drop of the amplitude
    assert amps[0] / amps[1] == pytest.approx(np.sqrt(10), rel=1e-12)


def test_resolvent_at_an_exceptional_point():
    # one ground and two excited levels decaying at gamma_1 and gamma_2,
    # coupled at (gamma_1 - gamma_2) / 4: Htilde's two eigenvalues meet and
    # it is defective there, with no eigenbasis
    ket = np.eye(3)
    gamma_1, gamma_2 = 3.0, 1.0
    omega = (gamma_1 - gamma_2) / 4
    prob = EliminationProblem(
        h_ground=np.zeros((3, 3), dtype=complex),
        h_excited=omega * (np.outer(ket[1], ket[2]) + np.outer(ket[2], ket[1])).astype(complex),
        v_plus=np.outer(ket[1], ket[0]).astype(complex),
        jumps=(np.sqrt(gamma_1) * np.outer(ket[0], ket[1]).astype(complex),
               np.sqrt(gamma_2) * np.outer(ket[0], ket[2]).astype(complex)),
        p_excited=np.diag([0.0, 1.0, 1.0]).astype(complex),
    )
    ht = nonhermitian_hamiltonian(prob)
    inv = invert_on_decaying_manifold(ht, prob.p_excited)
    assert np.abs(ht @ inv - prob.p_excited).max() <= 1e-12
    assert np.abs(inv @ ht - prob.p_excited).max() <= 1e-12


def test_resolvent_of_a_jordan_block():
    ht = np.array([[-0.5j, 1.0], [0.0, -0.5j]])
    inv = invert_on_decaying_manifold(ht, np.eye(2))
    np.testing.assert_allclose(ht @ inv, np.eye(2), atol=1e-12)


def test_gapless_elimination_raises():
    prob = single_flip_problem()
    bad = EliminationProblem(
        h_ground=prob.h_ground,
        h_excited=prob.h_excited,
        v_plus=prob.v_plus,
        jumps=(),
        p_excited=prob.p_excited,
    )
    with pytest.raises(GaplessEliminationError):
        effective_jumps(bad)


def test_projector_validation():
    prob = single_flip_problem()
    with pytest.raises(ValueError):
        EliminationProblem(
            h_ground=prob.h_ground,
            h_excited=prob.h_excited,
            v_plus=prob.v_plus,
            jumps=prob.jumps,
            p_excited=0.5 * np.eye(4, dtype=complex),
        )


def test_strip_auxiliary_factorized():
    sys_op = np.outer(MINUS, PLUS)
    full = kron(sys_op, np.outer(DOWN, DOWN))
    aux_state = np.outer(DOWN, DOWN)
    np.testing.assert_allclose(
        strip_auxiliary(full, [1], 2, aux_state), sys_op, atol=1e-14
    )


def test_strip_auxiliary_middle_site():
    sys_op = kron(pauli("x"), pauli("z"))
    full = embed(np.outer(DOWN, DOWN), [1], 3) @ embed(sys_op, [0, 2], 3)
    aux_state = np.outer(DOWN, DOWN)
    np.testing.assert_allclose(
        strip_auxiliary(full, [1], 3, aux_state), sys_op, atol=1e-14
    )


def test_strip_auxiliary_entangled_state_on_split_sites():
    # auxiliary sites 0 and 2 of 4 in a non-product state, system sites 1 and 3:
    # slot 0 of the auxiliary state is site 0, slot 1 site 2
    rng = np.random.default_rng(5)
    op = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.linalg.matrix_rank(psi.reshape(2, 2)) == 2  # entangled
    aux_state = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    # op rows (a, s, c, u) and columns (b, t, d, v) over sites 0..3;
    # op_sys[(s, u), (t, v)] = sum op[(a, s, c, u), (b, t, d, v)] rho[(b, d), (a, c)]
    expected = np.einsum("ascubtdv,bdac->sutv", op.reshape((2,) * 8),
                         aux_state.reshape(2, 2, 2, 2)).reshape(4, 4)
    for aux_sites in ([0, 2], [2, 0]):
        np.testing.assert_allclose(
            strip_auxiliary(op, aux_sites, 4, aux_state), expected, atol=1e-13)


def test_validation_error_is_perturbatively_small():
    prob = single_flip_problem(e0=0.05, gamma=1.0)
    rho_sys = bloch_to_density(np.array([0.3, 0.2, -0.4]))
    rho_aux = np.outer(DOWN, DOWN).astype(complex)
    val = validate(prob, rho_sys, rho_aux, t_max=50.0)
    # full dynamics moves the state by O(1); elimination should track it to
    # a couple of percent at E0^2/gamma = 2.5e-3
    assert val.error < 2e-2
    # both evolutions stay physical
    assert abs(np.trace(val.rho_full) - 1) < 1e-9
    assert abs(np.trace(val.rho_eff) - 1) < 1e-9


def test_validation_checks_the_operators_it_is_given():
    # the full dynamics does not depend on them; the effective one and the error do
    prob = single_flip_problem(e0=0.1)
    rho_aux = np.outer(DOWN, DOWN).astype(complex)
    h_eff, c_eff = effective_hamiltonian(prob), effective_jumps(prob)
    base = validate_elimination(prob, h_eff, c_eff, np.eye(2) / 2, rho_aux, [1], t_max=12.5)
    assert base.error == validate(prob, np.eye(2) / 2, rho_aux, t_max=12.5).error
    scaled = validate_elimination(prob, h_eff, [2 * c for c in c_eff], np.eye(2) / 2, rho_aux,
                                  [1], t_max=12.5)
    np.testing.assert_array_equal(scaled.rho_full, base.rho_full)
    assert scaled.error > 10 * base.error


def test_validation_leaves_global_random_stream_alone():
    # the propagation is deterministic: it draws nothing from np.random's global state
    prob = single_flip_problem(e0=0.1)
    rho_aux = np.outer(DOWN, DOWN).astype(complex)
    np.random.seed(0)
    expected = np.random.rand()
    np.random.seed(0)
    validate(prob, np.eye(2) / 2, rho_aux, t_max=12.5)
    assert np.random.rand() == expected == pytest.approx(0.5488135)


def test_validation_forms_no_superoperator(monkeypatch):
    # a problem file may hold 6 sites, where the d^2 x d^2 generator has
    # 4096^2 entries: validation propagates matrix-free
    prob = single_flip_problem(e0=0.1)
    rho_aux = np.outer(DOWN, DOWN).astype(complex)
    expected = validate(prob, np.eye(2) / 2, rho_aux, t_max=12.5)

    def refuse(self):
        raise AssertionError("validation formed the d^2 x d^2 generator")

    monkeypatch.setattr(Liouvillian, "matrix", property(refuse))
    val = validate(prob, np.eye(2) / 2, rho_aux, t_max=12.5)
    assert val.error == expected.error
    np.testing.assert_array_equal(val.rho_eff, expected.rho_eff)


@pytest.mark.parametrize("delta", [0.0, 0.7])
def test_validation_matches_dense_propagator(delta):
    # both evolutions against expm of the dense generator matrix
    prob = single_flip_problem(e0=0.1, delta=delta)
    rho_sys = bloch_to_density(np.array([0.3, 0.2, -0.4]))
    rho_aux = np.outer(DOWN, DOWN).astype(complex)
    t = 7.5
    val = validate(prob, rho_sys, rho_aux, t_max=t)

    def dense(h, jumps, rho0):
        return (expm(t * build_liouvillian(h, jumps).matrix) @ rho0.ravel()).reshape(rho0.shape)

    h_full = prob.h_ground + prob.h_excited + prob.v_plus + prob.v_minus
    full = partial_trace(dense(h_full, list(prob.jumps), kron(rho_sys, rho_aux)), [0], 2)
    np.testing.assert_allclose(val.rho_full, full, atol=1e-12)
    h_eff = strip_auxiliary(effective_hamiltonian(prob), [1], 2, rho_aux)
    c_eff = [strip_auxiliary(c, [1], 2, rho_aux) for c in effective_jumps(prob)]
    np.testing.assert_allclose(val.rho_eff, dense(h_eff, c_eff, rho_sys), atol=1e-12)


@pytest.mark.parametrize("t_max", [np.inf, np.nan, -5.0, 0.0])
def test_validation_rejects_bad_horizon(t_max):
    prob = single_flip_problem()
    rho_aux = np.outer(DOWN, DOWN).astype(complex)
    with pytest.raises(ValueError):
        validate(prob, np.eye(2) / 2, rho_aux, t_max=t_max)
