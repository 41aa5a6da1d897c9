"""Exact-generator checks: pinned spectra, dark dimensions, norm bound.

Oracles: amplitude damping has spectrum {0, -g/2, -g/2, -g} in closed form;
the two-site dark dimensions (9 for the ferro pump set alone, 4 for the
anisotropy set alone, 1 for the full model away from the isotropic point's
neighbors) follow from counting the annihilated subspaces by hand.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from dissipative_spins import liouville
from dissipative_spins.liouville import (
    Liouvillian,
    coherence_orders,
    build_liouvillian,
    exact_norm,
    ring_liouvillian,
    steady_states,
)
from dissipative_spins.models import (
    DissipativeModel,
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

from test_operators import kron_embed


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
    # apply never reads the matrix, and the matrix comes from the same row
    # gather as the oracle's sectors, so this keeps that gather honest
    rng = np.random.default_rng(seed)
    h = _random_matrix(rng, d)
    liou = build_liouvillian(h + h.conj().T, [_random_matrix(rng, d) for _ in range(n_jumps)])
    rho = _random_matrix(rng, d)
    np.testing.assert_allclose(liou.apply(rho).ravel(), liou.matrix @ rho.ravel(), atol=1e-11)


def test_taylor_degree_meets_its_remainder_bound():
    # theta^(m+1)/(m+1)! e^theta <= 2^-53 at m = 55, theta = 9.5; the root is 9.506
    m, theta = liouville.TAYLOR_TERMS, liouville.TAYLOR_THETA

    def log_remainder(th):
        return (m + 1) * math.log(th) - math.lgamma(m + 2) + th

    assert (m, theta) == (55, 9.5)
    assert log_remainder(theta) <= -53 * math.log(2) < log_remainder(9.507)
    assert log_remainder(9.506) <= -53 * math.log(2)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 4, 8]),
    st.integers(0, 5),
    st.booleans(),
    st.floats(-3.0, 3.0),
)
def test_evolve_is_the_exponential_of_the_generator(seed, d, n_jumps, with_h, log_tb):
    # against expm of the dense generator, at t B from 1e-3 to 1e3 with B the
    # bound on ||L||_2 that sizes the steps; trace and Hermiticity kept
    rng = np.random.default_rng(seed)
    h = _random_matrix(rng, d) if with_h else np.zeros((d, d))
    liou = build_liouvillian(h + h.conj().T, [_random_matrix(rng, d) for _ in range(n_jumps)])
    assume(liou.norm_bound > 0)
    assert np.linalg.norm(liou.matrix, 2) <= liou.norm_bound * (1 + 1e-12)
    a = _random_matrix(rng, d)
    rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
    t = 10.0**log_tb / liou.norm_bound
    got = liou.evolve(rho, t)
    want = (expm(t * liou.matrix) @ rho.ravel()).reshape(d, d)
    assert np.abs(got - want).max() <= 1e-12
    assert abs(np.trace(got) - 1) <= 1e-12
    assert np.abs(got - got.conj().T).max() <= 1e-12


def test_evolve_refuses_what_leaves_the_float_range():
    liou = build_liouvillian(pauli("x"), [pauli("-")])
    with pytest.raises(ValueError, match="float range"):
        liou.evolve(np.full((2, 2), np.nan), 1.0)
    with pytest.raises(ValueError, match="runs backward"):
        liou.evolve(np.eye(2) / 2, -1.0)
    inf = Liouvillian(g=np.full((2, 2), np.inf + 0j), jumps=np.zeros((0, 2, 2)))
    assert inf.norm_bound == np.inf and inf.taylor_cost(1.0) == (np.inf, np.inf)
    with pytest.raises(ValueError, match="float range"):
        inf.evolve(np.eye(2) / 2, 1.0)


@pytest.mark.parametrize("n_jumps", [0, 1, 5, 35])
@pytest.mark.parametrize("d", [2, 3, 8, 32])
def test_g_is_the_jump_sum_taken_one_jump_at_a_time(d, n_jumps):
    # G's jump sum is one product of the stacked jumps; summed one c^dag c
    # at a time it agrees to the rounding of that sum, a few eps sum |c|^2
    rng = np.random.default_rng(100 * d + n_jumps)
    h = _random_matrix(rng, d)
    h = h + h.conj().T
    cs = rng.normal(size=(n_jumps, d, d)) + 1j * rng.normal(size=(n_jumps, d, d))
    ref = -1j * h - 0.5 * sum((c.conj().T @ c for c in cs), np.zeros((d, d), dtype=complex))
    got = build_liouvillian(h, cs).g
    assert np.abs(got - ref).max() <= 4 * np.finfo(float).eps * (np.abs(cs) ** 2).sum()


@pytest.mark.parametrize("n, lam, decay", [(n, lam, False) for n in range(2, 7) for lam in (0.0, 0.7)]
                         + [(5, 0.7, True)])
def test_a_real_jump_set_gives_a_real_g(n, lam, decay, monkeypatch):
    # the product's imaginary parts are sums of exact zeros, so G stays real
    # and steady_states keeps its real path
    model = local_jump_model(lam, np.sqrt(0.3) * pauli("-")) if decay else \
        dissipative_heisenberg(lam, LatticeSpec(z=6))
    liou = ring_liouvillian(model, n)
    assert not liou.jumps.imag.any() and not liou.g.imag.any()
    dtypes, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda f: dtypes.append(f.dtype) or eigvals(f))
    steady_states(liou)
    assert np.float64 in dtypes


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
        dissipator(embed(c, [i, (i + 1) % n], n), rho)
        for c in model.folded_jump_terms()
        for i in range(n)
    )
    np.testing.assert_allclose(ring_liouvillian(model, n).apply(rho), direct, atol=1e-12)


def test_trace_preservation():
    liou = ring_liouvillian(dissipative_heisenberg(0.9, LatticeSpec(z=6)), 2)
    ident = np.eye(liou.dim, dtype=complex)
    left = ident.ravel().conj() @ liou.matrix
    assert np.abs(left).max() < 1e-12
    assert steady_states(liou).trace_defect < 1e-12


def leaky_ring(n, leak):
    """The n-site Heisenberg ring with G + leak, which loses trace at rate 2 leak."""
    liou = ring_liouvillian(dissipative_heisenberg(0.9, LatticeSpec(z=6)), n)
    return Liouvillian(g=liou.g + leak * np.eye(liou.dim), jumps=liou.jumps, ring=liou.ring)


@pytest.mark.parametrize("n", [2, 3])
def test_trace_defect_sees_a_small_leak(n):
    # at n = 2 (no translation) the sector value is max |1^dag matrix| over
    # the flattened identity, on a ring each diagonal orbit carries
    # sqrt(period) of it; a leak of 1e-3 stays below the cap
    leaky = leaky_ring(n, 1e-3)
    assert np.abs(np.eye(leaky.dim).ravel() @ leaky.matrix).max() == pytest.approx(2e-3)
    assert steady_states(leaky).trace_defect == pytest.approx(2e-3 * np.sqrt(n if n > 2 else 1))


@pytest.mark.parametrize("n, defect", [(2, "0.2"), (3, "0.346")])
def test_a_leak_past_the_cap_is_refused(n, defect):
    with pytest.raises(ValueError, match=f"too stiff to resolve: its trace defect {defect} "):
        steady_states(leaky_ring(n, 0.1))


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
        rate_jump_terms=anisotropy_jumps(),
        rate=lam,
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
    liou = ring_liouvillian(dissipative_heisenberg(1.0, LatticeSpec(z=6)), 2)
    assert steady_states(liou).dimension == 1
    psi_plus = bell_state("+")
    assert np.abs(liou.apply(np.outer(psi_plus, psi_plus.conj()))).max() < 1e-12


def test_neel_projectors_dark_for_anisotropy_set():
    liou = ring_liouvillian(aniso_only_model(0.8), 2)
    for idx in (1, 2):  # |ud><ud| and |du><du|
        proj = np.zeros((4, 4), dtype=complex)
        proj[idx, idx] = 1.0
        assert np.abs(liou.apply(proj)).max() < 1e-12


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


@pytest.mark.parametrize("lam, dim", [(0.0, 36), (1.5, 1)])
def test_blocked_kernel_matches_dense_reference_n5(lam, dim):
    liou = ring_liouvillian(dissipative_heisenberg(lam, LatticeSpec(z=6)), 5)
    evals = np.linalg.eig(liou.matrix)[0]
    space = steady_states(liou)
    assert space.dimension == np.count_nonzero(np.abs(evals) < 1e-9) == dim
    assert_same_spectrum(evals, space.eigenvalues)


def local_jump_model(lam, *cs):
    """The Heisenberg model plus the single-site jumps cs on every site."""
    model = dissipative_heisenberg(lam, LatticeSpec(z=6))
    local = tuple(np.asarray(c, dtype=complex) for c in cs)
    return replace(model, jump_terms=model.jump_terms + local)


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
    orders = coherence_orders(liou)
    assert orders is not None
    count, labels = connected_components(csr_matrix(liou.matrix != 0), directed=True,
                                         connection="weak")
    assert np.unique(np.stack([labels, orders]), axis=1).shape[1] == count
    assert set(orders) == set(range(-n, n + 1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coherence_orders_are_popcount_differences_and_not_shared(n):
    # the popcount table is cached per dimension: each call still returns
    # popcount(i) - popcount(j) of |i><j|, bitwise, in an array of its own
    liou = ring_liouvillian(dissipative_heisenberg(0.7, LatticeSpec(z=6)), n)
    pc = np.array([bin(i).count("1") for i in range(liou.dim)])
    first = coherence_orders(liou)
    assert first.dtype == pc.dtype
    assert np.array_equal(first, (pc[:, None] - pc).ravel())
    first[:] = 99
    assert np.array_equal(coherence_orders(liou), (pc[:, None] - pc).ravel())


@pytest.mark.parametrize("lam", [0.0, 0.7, 1.5])
def test_only_the_charge_definite_spelling_is_split_by_q(lam):
    # sigma_x and sigma_y on every site keep the rotation about z only as a
    # set; sqrt(2) sigma^+ and sqrt(2) sigma^- give the same generator, and
    # only they shift the popcount by one fixed amount each
    s = 0.3 * np.sqrt(2)
    original = ring_liouvillian(local_jump_model(lam, 0.3 * pauli("x"), 0.3 * pauli("y")), 3)
    rewrite = ring_liouvillian(local_jump_model(lam, s * pauli("+"), s * pauli("-")), 3)
    np.testing.assert_allclose(rewrite.matrix, original.matrix, rtol=0, atol=1e-12)
    assert coherence_orders(original) is None
    assert coherence_orders(rewrite) is not None
    spelled, rewritten = steady_states(original), steady_states(rewrite)
    assert spelled.dimension == rewritten.dimension
    assert_same_spectrum(spelled.eigenvalues, rewritten.eigenvalues)
    assert {b.q for b in spelled.blocks} == {0}
    assert {b.q for b in rewritten.blocks} == set(range(-3, 4))


@pytest.mark.parametrize("n", [2, 3])
def test_a_generator_without_jumps_is_dark_everywhere(n):
    # every eigenvalue is exactly 0, and so is the kernel cut, scaled by
    # the largest |eigenvalue|: a zero at the cut counts, so the whole
    # space stays dark
    space = steady_states(ring_liouvillian(DissipativeModel(lattice=LatticeSpec()), n))
    assert not space.eigenvalues.any()
    assert space.dimension == 4**n
    assert space.zero_cut == space.largest_zero == 0.0 and space.smallest_nonzero is None


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("lam", [0.0, 0.3, 0.7, 1.5])
def test_dark_dimension_does_not_depend_on_the_time_scale(n, lam):
    # scaling every jump by sqrt(s) scales L by s, which moves no eigenvalue
    # off zero: on stiff rings eigvals leaves a dark state near eps times
    # the largest |eigenvalue|, which the kernel cut must still count, up
    # to the scale where the rounding passes the cap and the ring is refused
    liou = ring_liouvillian(dissipative_heisenberg(lam, LatticeSpec(z=6)), n)
    expected = steady_states(liou).dimension
    for s in 10.0 ** np.arange(-16, 17, 2):
        scaled = replace(liou, g=s * liou.g, jumps=np.sqrt(s) * liou.jumps)
        try:
            dimension = steady_states(scaled).dimension
        except ValueError:
            assert s > 1e12, s
        else:
            assert dimension == expected, s


@pytest.mark.parametrize("lattice", [LatticeSpec(z=6), LatticeSpec(z=2, renormalize=False)])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_stiff_ring_keeps_one_dark_state(n, lattice):
    # pumps far above the couplings leave rates of order 1 (0.6 and 1.4 at
    # n = 4) beside a radius near the pump rate, and eigvals rounds the dark
    # state up to about eps r: the cut must neither swallow those rates nor
    # miss the dark state wherever the rounding of the generator (trace
    # defect, size of the largest real part: both 0 exactly) stays below the
    # cap, as it does up to 1e12; past the cap the ring is refused
    for lam in [1e9, 1e12, 1e13, 3e13, 1e14, 1e15, 1e20, 1e30, 1e100]:
        try:
            dimension = steady_states(ring_liouvillian(dissipative_heisenberg(lam, lattice), n)).dimension
        except ValueError:
            assert lam > 1e12, lam
        else:
            assert dimension == 1, lam


def test_a_ring_its_rounding_swamps_is_refused():
    # at lambda = 1e30 the trace defect reads near 3e14, where a count of
    # zeros means nothing
    liou = ring_liouvillian(dissipative_heisenberg(1e30, LatticeSpec()), 4)
    with pytest.raises(ValueError, match="too stiff to resolve"):
        steady_states(liou)


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


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("jump", ["y", "ix"])
def test_a_jump_real_up_to_a_phase_keeps_the_real_path(n, jump, monkeypatch):
    # sigma_y and i sigma_x have imaginary entries, but c (x) c* is real and
    # so is L: only k <= n/2 is diagonalized, k = 0 (and n/2) in real arithmetic
    c = 0.3 * pauli("y") if jump == "y" else 0.3j * pauli("x")
    liou = ring_liouvillian(local_jump_model(0.7, c), n)
    assert liou.jumps.imag.any() and not liou.matrix.imag.any()
    evals = np.linalg.eig(liou.matrix)[0]
    dtypes, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda f: dtypes.append(f.dtype) or eigvals(f))
    space = steady_states(liou)
    ks = [b.k for b in space.blocks]
    assert len(dtypes) == sum(k <= n // 2 for k in ks) < len(ks)
    assert dtypes.count(np.float64) == sum(2 * k % n == 0 for k in ks)
    assert space.dimension == np.count_nonzero(np.abs(evals) < 1e-9)
    assert_same_spectrum(evals, space.eigenvalues)


def test_a_zero_at_a_mirrored_momentum_counts_twice():
    # sigma_z dephasing alone: the 8 diagonal |i><i| are dark, and the orbits
    # of |100><100| and |110><110| hold one each at momentum 1, whose
    # mirror, momentum 2, is not diagonalized but counts as well
    model = DissipativeModel(lattice=LatticeSpec(z=6),
                             jump_terms=[pauli("z").astype(complex)])
    liou = ring_liouvillian(model, 3)
    evals = np.linalg.eig(liou.matrix)[0]
    space = steady_states(liou)
    assert any(b.k == 1 and np.abs(b.eigenvalues).min() < 1e-9 for b in space.blocks)
    assert space.dimension == np.count_nonzero(np.abs(evals) < 1e-9) == 8
    assert_same_spectrum(evals, space.eigenvalues)


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


def mixed_arity_model(lam):
    """Heisenberg pumps, a single-site jump, a two-site jump that is not swap symmetric, the rate set."""
    model = dissipative_heisenberg(lam, LatticeSpec(z=6))
    lopsided = np.array(kron(pauli("-"), 0.3 * pauli("z") + 0.2j * pauli("x")))
    lopsided[0, 0] = complex(-0.0, -0.0)
    terms = [model.jump_terms[0], quarter_turn("x"), lopsided, *model.jump_terms[1:], 0.5 * pauli("-")]
    return replace(model, jump_terms=terms)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ring_jumps_and_g_are_the_per_jump_kron_bitwise(n):
    # one embed per arity and placement forms the jumps np.kron forms one at a
    # time, in the same order: term-major, placement-minor
    bonds = [[i, (i + 1) % n] for i in range(n)] if n > 2 else [[0, 1]]
    for model in (dissipative_heisenberg(0.7, LatticeSpec(z=6)), mixed_arity_model(0.7)):
        ref = build_liouvillian(np.zeros((2**n, 2**n)), [
            kron_embed(c, at, n) for c in model.folded_jump_terms()
            for at in ([[s] for s in range(n)] if len(c) == 2 else bonds)])
        got = ring_liouvillian(model, n)
        assert got.jumps.tobytes() == ref.jumps.tobytes() and got.jumps.shape == ref.jumps.shape
        assert got.g.tobytes() == ref.g.tobytes()


@pytest.mark.parametrize("n, lam", [(4, 0.7), (5, 0.0)])
@pytest.mark.parametrize("jump", [None, "z"])
def test_one_eigvals_call_per_sector_size_and_dtype(n, lam, jump, monkeypatch):
    # the sectors are diagonalized as stacks, one call per (size, dtype); each
    # stack holds every diagonalized sector of that size and dtype, and
    # nothing else; no row of order q < 0 is gathered and no such sector is
    # diagonalized, since each is its partner's spectrum conjugated
    model = dissipative_heisenberg(lam, LatticeSpec(z=6)) if jump is None else local_jump_model(lam, quarter_turn(jump))
    liou = ring_liouvillian(model, n)
    assert coherence_orders(liou) is not None
    orders, rows = [], liouville._rows
    monkeypatch.setattr(liouville, "_rows", lambda g, cs, i, j: orders.append(
        np.array([bin(x).count("1") - bin(y).count("1") for x, y in zip(i, j)])) or rows(g, cs, i, j))
    calls, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda f: calls.append((f.shape, f.dtype)) or eigvals(f))
    space = steady_states(liou)
    assert min(q.min() for q in orders) == 0
    keys = [(shape[-1], dtype) for shape, dtype in calls]
    assert len(set(keys)) == len(keys) < sum(shape[0] for shape, _ in calls)
    real = not liou.matrix.imag.any()
    diagonalized = [b for b in space.blocks if b.q >= 0 and (b.k <= n // 2 or b.q > 0 and not real)]
    assert sum(shape[0] for shape, _ in calls) == len(diagonalized)
    assert set(keys) == {(len(b.eigenvalues), np.dtype(float if real and 2 * b.k % n == 0 else complex))
                         for b in diagonalized}
    sectors = {(b.q, b.k) for b in space.blocks}
    assert len(sectors) == len(space.blocks) and sectors == {(-q, k) for q, k in sectors}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_real_ring_without_the_spin_flip_matches_dense_reference(n):
    # sigma^- on every site breaks the spin flip that maps q to -q, but a
    # real L still has (-q, k) with the spectrum of (q, k), which the
    # oracle takes over instead of diagonalizing it
    liou = ring_liouvillian(local_jump_model(0.7, np.sqrt(0.3) * pauli("-")), n)
    assert not liou.matrix.imag.any() and coherence_orders(liou) is not None
    evals = np.linalg.eig(liou.matrix)[0]
    space = steady_states(liou)
    assert space.dimension == np.count_nonzero(np.abs(evals) < 1e-9)
    assert space.eigenvalues.size == evals.size
    assert {b.q for b in space.blocks} == set(range(-n, n + 1))
    assert_same_spectrum(evals, space.eigenvalues)


def test_a_phase_jump_matches_dense_reference():
    # a phase jump diag(1, i) keeps the coherence orders but makes the
    # sectors complex: block -q is the conjugate of block q at momentum -k,
    # not of itself
    liou = ring_liouvillian(local_jump_model(0.7, 0.4 * np.diag([1, 1j])), 3)
    assert liou.matrix.imag.any() and coherence_orders(liou) is not None
    evals = np.linalg.eig(liou.matrix)[0]
    space = steady_states(liou)
    assert space.dimension == np.count_nonzero(np.abs(evals) < 1e-9)
    assert space.eigenvalues.size == evals.size
    assert max(np.abs(b.eigenvalues.conj()[:, None] - b.eigenvalues).min(axis=1).max()
               for b in space.blocks) > 0.1
    assert_same_spectrum(evals, space.eigenvalues)


def test_a_copied_sector_is_the_conjugate_generators_sector():
    # a complex two-site jump that is not swap symmetric breaks the
    # reflection k -> -k, so (q, k) and (q, -k) differ at n = 4; the
    # entrywise conjugate L* maps sector (q, k) onto (q, -k), so its sector
    # (q, k), diagonalized for q > 0, is L's copied sector (-q, k)
    heisenberg = dissipative_heisenberg(0.7, LatticeSpec(z=6))
    lopsided = np.array(kron(pauli("-"), 0.5 * np.diag([1, 1j])))
    liou = ring_liouvillian(replace(heisenberg, jump_terms=heisenberg.jump_terms + (lopsided,)), 4)
    assert liou.matrix.imag.any() and coherence_orders(liou) is not None
    space = steady_states(liou)
    assert_same_spectrum(np.linalg.eig(liou.matrix)[0], space.eigenvalues)
    blocks = {(b.q, b.k): b.eigenvalues for b in space.blocks}
    assert np.abs(np.sort_complex(blocks[(1, 1)]) - np.sort_complex(blocks[(1, 3)])).max() > 0.01
    mirror = steady_states(replace(liou, g=liou.g.conj(), jumps=liou.jumps.conj()))
    direct = {(b.q, b.k): b.eigenvalues for b in mirror.blocks}
    for (q, k), evals in blocks.items():
        if q < 0:
            assert_same_spectrum(direct[(-q, k)], evals)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("lam", [0.3, 0.7, 1.5])
def test_the_count_is_apart_from_the_cut(n, lam):
    # the trust measure: every |eigenvalue| counted as zero lies at or below
    # the cut, and every other one above it
    space = steady_states(ring_liouvillian(dissipative_heisenberg(lam, LatticeSpec(z=6)), n))
    assert space.dimension == 1
    assert space.largest_zero <= space.zero_cut < space.smallest_nonzero
    sizes = np.abs(space.eigenvalues)
    assert np.count_nonzero(sizes <= space.zero_cut) == space.dimension
    assert sizes[sizes > space.zero_cut].min() == space.smallest_nonzero


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
            scale * c for c in ferro_pump_jumps() + [np.sqrt(lam) * a for a in anisotropy_jumps()]])
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
    manual = sum(dissipator(c, rho) for c in model.folded_jump_terms())
    assert exact_norm(liou, rho) == pytest.approx(
        trace_norm_hermitian(manual), abs=1e-12
    )


def test_ring_negative_sites():
    with pytest.raises(ValueError):
        ring_liouvillian(dissipative_heisenberg(1.0, LatticeSpec(z=6)), 1)
