"""Exact-generator checks: pinned spectra, dark dimensions, norm bound.

Oracles: amplitude damping has spectrum {0, -g/2, -g/2, -g} in closed form;
the two-site dark dimensions (9 for the ferro pump set alone, 4 for the
anisotropy set alone, 1 for the full model away from the isotropic point's
neighbors) follow from counting the annihilated subspaces by hand.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from dissipative_spins.liouville import (
    Liouvillian,
    _coherence_orders,
    build_liouvillian,
    exact_norm,
    ring_liouvillian,
    steady_states,
)
from dissipative_spins.models import (
    DissipativeModel,
    JumpTerm,
    LatticeSpec,
    anisotropy_jumps,
    dissipative_heisenberg,
    ferro_pump_jumps,
)
from dissipative_spins.operators import (
    bell_state,
    bloch_to_density,
    dissipator,
    embed,
    kron,
    pauli,
    trace_norm_hermitian,
)


def test_amplitude_damping_spectrum():
    g = 0.7
    liou = build_liouvillian(np.zeros((2, 2)), [np.sqrt(g) * pauli("-")])
    ev = np.sort(np.linalg.eigvals(liou.matrix).real)
    np.testing.assert_allclose(ev, [-g, -g / 2, -g / 2, 0.0], atol=1e-12)


def _random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


@settings(deadline=None, max_examples=40)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 4, 8]),
    st.integers(0, 5),
    st.booleans(),
)
def test_apply_matches_direct_master_equation(seed, d, n_jumps, with_h):
    # the stacked jump product and the folded G = -iH - 1/2 sum c^dag c
    # against the applied form
    rng = np.random.default_rng(seed)
    h = _random_matrix(rng, d) if with_h else np.zeros((d, d))
    h = h + h.conj().T
    cs = [_random_matrix(rng, d) for _ in range(n_jumps)]
    rho = _random_matrix(rng, d)
    direct = -1j * (h @ rho - rho @ h) + sum(
        (dissipator(c, rho) for c in cs), np.zeros((d, d), dtype=complex)
    )
    np.testing.assert_allclose(build_liouvillian(h, cs).apply(rho), direct, atol=1e-11)


@settings(deadline=None, max_examples=30)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 4, 8]),
    st.integers(0, 3),
)
def test_matrix_is_the_applied_generator(seed, d, n_jumps):
    # apply and adjoint never read the matrix, and the matrix comes from the
    # same row gather as the oracle's sectors, so this keeps that gather honest
    rng = np.random.default_rng(seed)
    h = _random_matrix(rng, d)
    liou = build_liouvillian(h + h.conj().T, [_random_matrix(rng, d) for _ in range(n_jumps)])
    rho, x = _random_matrix(rng, d), _random_matrix(rng, d)
    np.testing.assert_allclose(liou.apply(rho).ravel(), liou.matrix @ rho.ravel(), atol=1e-11)
    np.testing.assert_allclose(liou.adjoint(x).ravel(), liou.matrix.conj().T @ x.ravel(), atol=1e-11)


def test_build_rejects_mismatched_jumps():
    with pytest.raises(ValueError):
        build_liouvillian(np.zeros((4, 4)), [np.zeros((2, 2))])
    with pytest.raises(ValueError):
        build_liouvillian(np.zeros((2, 3)), [])


@pytest.mark.parametrize("n", [4, 5])
def test_ring_apply_matches_embedded_jumps(n):
    # every jump on every ring bond, applied one by one
    rng = np.random.default_rng(n)
    model = dissipative_heisenberg(0.7, LatticeSpec(z=6))
    rho = _random_matrix(rng, 2**n)
    direct = sum(
        dissipator(embed(t.matrix, [i, (i + 1) % n], n), rho)
        for t in model.folded_jump_terms()
        for i in range(n)
    )
    np.testing.assert_allclose(ring_liouvillian(model, n).apply(rho), direct, atol=1e-12)


def test_trace_preservation():
    liou = ring_liouvillian(dissipative_heisenberg(0.9, LatticeSpec(z=6)), 2)
    ident = np.eye(liou.dim, dtype=complex)
    left = ident.ravel().conj() @ liou.matrix
    assert np.abs(left).max() < 1e-12
    assert steady_states(liou).trace_defect < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_trace_defect_sees_a_leak(n):
    # G + 0.1 loses trace at rate 0.2; at n = 2 (no translation) the sector
    # value is max |1^dag matrix| over the flattened identity, on a ring each diagonal orbit
    # carries sqrt(period) of it
    liou = ring_liouvillian(dissipative_heisenberg(0.9, LatticeSpec(z=6)), n)
    leaky = Liouvillian(g=liou.g + 0.1 * np.eye(liou.dim), jumps=liou.jumps, ring=liou.ring)
    dense = np.abs(np.eye(liou.dim).ravel() @ leaky.matrix).max()
    assert dense == pytest.approx(0.2)
    assert steady_states(leaky).trace_defect == pytest.approx(0.2 * np.sqrt(n if n > 2 else 1))


def test_spectrum_real_parts_nonpositive():
    liou = ring_liouvillian(dissipative_heisenberg(1.2, LatticeSpec(z=6)), 3)
    ev = np.linalg.eigvals(liou.matrix)
    assert ev.real.max() < 1e-10


def test_spectrum_conjugate_pairs():
    liou = ring_liouvillian(dissipative_heisenberg(0.7, LatticeSpec(z=6)), 2)
    ev = np.linalg.eigvals(liou.matrix)
    for w in ev:
        assert np.abs(ev - w.conjugate()).min() < 1e-9


def test_cp_spot_check():
    # Choi matrix of exp(L t) must be positive semidefinite
    liou = ring_liouvillian(dissipative_heisenberg(1.0, LatticeSpec(z=6)), 2)
    prop = expm(0.3 * liou.matrix)
    d = liou.dim
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e_ij = np.zeros((d, d), dtype=complex)
            e_ij[i, j] = 1.0
            out = (prop @ e_ij.ravel()).reshape(d, d)
            choi += np.kron(e_ij, out)
    assert np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min() > -1e-10


def aniso_only_model(lam=1.0):
    return DissipativeModel(
        lattice=LatticeSpec(z=6),
        jump_terms=anisotropy_jumps(lam),
    )


def ferro_only_model():
    return DissipativeModel(
        lattice=LatticeSpec(z=6),
        jump_terms=ferro_pump_jumps(),
    )


def test_two_site_dark_dimensions():
    # ferro set alone: the full triplet manifold (3x3 of operators) is dark
    space = steady_states(ring_liouvillian(ferro_only_model(), 2))
    assert space.dimension == 9
    # anisotropy set alone: diagonal algebra on {ud, du}
    space = steady_states(ring_liouvillian(aniso_only_model(), 2))
    assert space.dimension == 4
    # full model: unique steady state
    space = steady_states(
        ring_liouvillian(dissipative_heisenberg(1.0, LatticeSpec(z=6)), 2)
    )
    assert space.dimension == 1
    rho = space.basis[0]
    psi_plus = bell_state("+")
    np.testing.assert_allclose(rho, np.outer(psi_plus, psi_plus.conj()), atol=1e-9)


def test_neel_projectors_dark_for_anisotropy_set():
    liou = ring_liouvillian(aniso_only_model(0.8), 2)
    for idx in (1, 2):  # |ud><ud| and |du><du|
        proj = np.zeros((4, 4), dtype=complex)
        proj[idx, idx] = 1.0
        assert np.abs(liou.apply(proj)).max() < 1e-12


def test_steady_representatives_are_hermitian_unit_trace():
    space = steady_states(ring_liouvillian(ferro_only_model(), 2))
    traced = 0
    for b in space.basis:
        np.testing.assert_allclose(b, b.conj().T, atol=1e-9)
        tr = np.trace(b).real
        if abs(tr) > 1e-6:
            assert tr == pytest.approx(1.0)
            traced += 1
    assert traced >= 1


def assert_same_spectrum(reference, blocked, tol=1e-9, radius=1e-6):
    """Equal spectra as multisets: cluster by cluster, equal counts and means.

    A defective eigenvalue (at n = 4, lambda = 1.5 the Heisenberg ring has
    -1.2 in a Jordan block) comes out of eig split by ~sqrt(eps), differently
    for the dense and the blocked matrix, while the mean of its cluster is
    accurate to ~eps. Clusters join eigenvalues of both spectra that are
    within radius of each other.
    """
    both = np.concatenate([reference, blocked])
    _, labels = connected_components(csr_matrix(np.abs(both[:, None] - both) < radius))
    ref_labels, blocked_labels = labels[:reference.size], labels[reference.size:]
    for c in np.unique(labels):
        ref, blk = reference[ref_labels == c], blocked[blocked_labels == c]
        assert ref.size == blk.size, (ref, blk)
        assert abs(ref.mean() - blk.mean()) < tol, (ref, blk)


def assert_steady_basis(liou, space):
    for b in space.basis:
        np.testing.assert_allclose(b, b.conj().T, atol=1e-9)
        assert np.abs(liou.apply(b)).max() < 1e-9
        tr = np.trace(b).real
        assert abs(tr) < 1e-9 or tr == pytest.approx(1.0)


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.9, 1.5, 2.0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_blocked_kernel_matches_dense_reference(n, lam):
    liou = ring_liouvillian(dissipative_heisenberg(lam, LatticeSpec(z=6)), n)
    evals = np.linalg.eig(liou.matrix)[0]
    space = steady_states(liou)
    assert space.dimension == np.count_nonzero(np.abs(evals) < 1e-9)
    assert space.dimension == ((n + 1) ** 2 if lam == 0 else 1)
    assert len(space.blocks) > 1
    assert_same_spectrum(evals, space.eigenvalues)
    assert_steady_basis(liou, space)


@pytest.mark.parametrize("lam, dim", [(0.0, 36), (1.5, 1)])
def test_blocked_kernel_matches_dense_reference_n5(lam, dim):
    liou = ring_liouvillian(dissipative_heisenberg(lam, LatticeSpec(z=6)), 5)
    evals = np.linalg.eig(liou.matrix)[0]
    space = steady_states(liou)
    assert space.dimension == np.count_nonzero(np.abs(evals) < 1e-9) == dim
    assert_same_spectrum(evals, space.eigenvalues)
    assert_steady_basis(liou, space)


def local_jump_model(lam, c):
    """The Heisenberg model plus the single-site jump c on every site."""
    model = dissipative_heisenberg(lam, LatticeSpec(z=6))
    local = JumpTerm(1, np.asarray(c, dtype=complex), "local")
    return replace(model, jump_terms=model.jump_terms + [local])


def quarter_turn(axis):
    """0.4 exp(-i pi sigma_axis / 4): a unitary jump whose generator is complex."""
    return 0.4 * (np.eye(2) - 1j * pauli(axis)) / np.sqrt(2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("lam", [0.0, 0.7, 1.5])
def test_weak_components_match_scipy(n, lam):
    # the oracle's coherence-order split follows the generator's nonzero
    # pattern: each of scipy's weak components holds a single order, so no
    # element of L joins two q-groups
    liou = ring_liouvillian(dissipative_heisenberg(lam, LatticeSpec(z=6)), n)
    orders = _coherence_orders(liou)
    assert orders is not None
    count, labels = connected_components(csr_matrix(liou.matrix != 0), directed=True,
                                         connection="weak")
    assert np.unique(np.stack([labels, orders]), axis=1).shape[1] == count
    assert set(orders) == set(range(-n, n + 1))


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_transverse_jump_is_one_block(lam):
    # a real sigma_x jump mixes coherence orders: one block of orders,
    # which only the ring's three momenta split
    liou = ring_liouvillian(local_jump_model(lam, 0.3 * pauli("x")), 3)
    evals = np.linalg.eig(liou.matrix)[0]
    space = steady_states(liou)
    assert sorted((b.q, b.k) for b in space.blocks) == [(0, 0), (0, 1), (0, 2)]
    assert space.dimension == np.count_nonzero(np.abs(evals) < 1e-9)
    assert_same_spectrum(evals, space.eigenvalues)
    assert_steady_basis(liou, space)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("axis, orders", [("z", True), ("x", False)])
def test_complex_generator_matches_dense_reference(n, axis, orders):
    # a quarter turn as a jump makes L complex, so every momentum is
    # diagonalized on its own; about z it keeps the coherence orders,
    # about x it mixes them and leaves the momenta alone
    liou = ring_liouvillian(local_jump_model(0.7, quarter_turn(axis)), n)
    assert liou.matrix.imag.any()
    evals = np.linalg.eig(liou.matrix)[0]
    space = steady_states(liou)
    assert {b.k for b in space.blocks} == set(range(n))
    assert {b.q for b in space.blocks} == (set(range(-n, n + 1)) if orders else {0})
    assert space.dimension == np.count_nonzero(np.abs(evals) < 1e-9)
    assert space.trace_defect < 1e-12
    assert_same_spectrum(evals, space.eigenvalues)
    assert_steady_basis(liou, space)


def test_null_vectors_at_complex_momenta():
    # sigma_z dephasing alone: the 8 diagonal |i><i| are dark, and the orbit
    # of |100><100| holds one at momentum 1, whose orbit phases are complex
    model = DissipativeModel(lattice=LatticeSpec(z=6),
                             jump_terms=[JumpTerm(1, pauli("z").astype(complex), "dephasing")])
    liou = ring_liouvillian(model, 3)
    evals = np.linalg.eig(liou.matrix)[0]
    space = steady_states(liou)
    assert any(b.k == 1 and np.abs(b.eigenvalues).min() < 1e-9 for b in space.blocks)
    assert space.dimension == np.count_nonzero(np.abs(evals) < 1e-9) == 8
    assert_same_spectrum(evals, space.eigenvalues)
    assert_steady_basis(liou, space)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ring_generator_commutes_with_translation(n):
    # T shifts every site by one, built from nearest-neighbor swaps
    swap = np.eye(4)[[0, 2, 1, 3]]
    shift = np.eye(2**n)
    for s in range(n - 1):
        shift = embed(swap, [s, s + 1], n) @ shift
    rng = np.random.default_rng(n)
    for model in (dissipative_heisenberg(0.7, LatticeSpec(z=6)),
                  local_jump_model(0.7, quarter_turn("x"))):
        liou = ring_liouvillian(model, n)
        assert liou.ring == n
        rho = _random_matrix(rng, 2**n)
        np.testing.assert_allclose(liou.apply(shift @ rho @ shift.T),
                                   shift @ liou.apply(rho) @ shift.T, atol=1e-12)


@pytest.mark.parametrize("z, renormalize", [(6, True), (2, False)])
def test_dark_dimensions_match_dense_reference_n4(z, renormalize):
    # 64 couplings over [0, 2], the resolution at which the ring's dark
    # dimension jumps from (n + 1)^2 at lambda = 0 to 1
    lattice = LatticeSpec(z=z, bipartite=True, renormalize=renormalize)
    for lam in np.linspace(0.0, 2.0, 64):
        liou = ring_liouvillian(dissipative_heisenberg(lam, lattice), 4)
        space = steady_states(liou)
        assert not liou.matrix.imag.any()  # real arithmetic for the reference too
        evals = np.linalg.eigvals(liou.matrix.real)
        assert space.dimension == np.count_nonzero(np.abs(evals) < 1e-9), lam
        assert space.trace_defect <= 1e-12
        assert space.eigenvalues.real.max() <= 1e-9


@pytest.mark.parametrize("n, lams", [
    (2, [0.0, 0.3, 1.0, 2.0]), (3, [0.0, 0.5, 1.5]), (4, [0.0, 0.7, 1.5]), (5, [0.0, 1.5]),
])
def test_oracle_sees_the_rate_set_as_the_folded_jumps(n, lams):
    # the oracle of a model with its rate set apart is the oracle of the
    # same model with lambda folded into every anisotropy matrix
    lattice = LatticeSpec(z=6)
    scale = 1 / np.sqrt(lattice.z - 1)
    for lam in lams:
        folded = DissipativeModel(lattice=lattice, jump_terms=[
            replace(t, matrix=scale * t.matrix) for t in ferro_pump_jumps() + anisotropy_jumps(lam)])
        got = ring_liouvillian(dissipative_heisenberg(lam, lattice), n)
        ref = ring_liouvillian(folded, n)
        np.testing.assert_allclose(got.jumps, ref.jumps, rtol=0, atol=1e-15)
        np.testing.assert_allclose(got.g, ref.g, rtol=0, atol=1e-15)
        assert steady_states(got).dimension == steady_states(ref).dimension, lam


def test_exact_norm_matches_manual():
    model = dissipative_heisenberg(0.6, LatticeSpec(z=6))
    liou = ring_liouvillian(model, 2)
    rho = kron(
        bloch_to_density(np.array([0.3, 0.0, 0.2])),
        bloch_to_density(np.array([-0.1, 0.2, 0.0])),
    )
    manual = sum(dissipator(t.matrix, rho) for t in model.folded_jump_terms())
    assert exact_norm(liou, rho) == pytest.approx(
        trace_norm_hermitian(manual), abs=1e-12
    )


def test_ring_negative_sites():
    with pytest.raises(ValueError):
        ring_liouvillian(dissipative_heisenberg(1.0, LatticeSpec(z=6)), 1)
