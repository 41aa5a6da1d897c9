import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissipative_spins.operators import (
    MAX_DIM,
    bell_state,
    bloch_to_density,
    dissipator,
    embed,
    ketbra,
    kron,
    partial_trace,
    pauli,
    trace_norm_hermitian,
)


def test_pauli_algebra():
    sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
    np.testing.assert_allclose(sx @ sy, 1j * sz)
    np.testing.assert_allclose(sy @ sz, 1j * sx)
    np.testing.assert_allclose(sx @ sx, np.eye(2))
    np.testing.assert_allclose(pauli("identity"), np.eye(2))


def test_pauli_ladder_convention():
    # sigma^- lowers: |down><up|, so sigma^- |up> = |down>
    up = np.array([1.0, 0.0])
    down = np.array([0.0, 1.0])
    np.testing.assert_allclose(pauli("-") @ up, down)
    np.testing.assert_allclose(pauli("+") @ down, up)
    np.testing.assert_allclose(pauli("z") @ up, up)  # spin up = +1


def test_pauli_unknown_axis():
    with pytest.raises(ValueError):
        pauli("w")


def test_bloch_to_density_basics():
    rho = bloch_to_density(np.array([0.3, -0.1, 0.4]))
    assert abs(np.trace(rho) - 1) < 1e-15
    np.testing.assert_allclose(rho, rho.conj().T)
    np.testing.assert_allclose(np.trace(pauli("x") @ rho).real, 0.3)


def test_bloch_to_density_rejects_outside_ball():
    with pytest.raises(ValueError):
        bloch_to_density(np.array([1.0, 0.5, 0.0]))
    with pytest.raises(ValueError, match="3 components"):
        bloch_to_density(np.array([0.1, 0.2]))


@settings(deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=3, max_size=3))
def test_bloch_eigenvalues(alpha):
    alpha = np.array(alpha)
    r = np.linalg.norm(alpha)
    if r > 1:
        alpha = alpha / r
        r = 1.0
    ev = np.linalg.eigvalsh(bloch_to_density(alpha))
    np.testing.assert_allclose(sorted(ev), [(1 - r) / 2, (1 + r) / 2], atol=1e-12)


def test_kron_shapes_and_cap():
    assert kron(np.eye(2), np.eye(2), np.eye(2)).shape == (8, 8)
    n_over = int(np.log2(MAX_DIM)) + 1
    with pytest.raises(ValueError):
        kron(*([np.eye(2)] * n_over))
    with pytest.raises(ValueError, match="max dimension"):
        embed(pauli("x"), [0], n_over)


def test_partial_trace_factorizes_products():
    rho_a = bloch_to_density(np.array([0.2, 0.0, 0.5]))
    rho_b = bloch_to_density(np.array([0.0, -0.7, 0.1]))
    both = kron(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(both, [0], 2), rho_a, atol=1e-14)
    np.testing.assert_allclose(partial_trace(both, [1], 2), rho_b, atol=1e-14)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    for keep in ([0], [1], [2], [0, 2]):
        assert abs(np.trace(partial_trace(x, keep, 3)) - np.trace(x)) < 1e-12


@pytest.mark.parametrize("keep, dim, match", [
    ([3], 8, "out of range"),
    ([-1], 8, "out of range"),
    ([0], 4, "does not match"),
])
def test_partial_trace_refuses_bad_sites_and_shapes(keep, dim, match):
    with pytest.raises(ValueError, match=match):
        partial_trace(np.eye(dim), keep, 3)


def test_dissipator_trace_free_and_hermiticity_preserving():
    rng = np.random.default_rng(1)
    c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = h + h.conj().T
    out = dissipator(c, rho)
    assert abs(np.trace(out)) < 1e-12
    np.testing.assert_allclose(out, out.conj().T, atol=1e-12)


def test_dissipator_dimension_mismatch():
    with pytest.raises(ValueError):
        dissipator(np.eye(2), np.eye(4))


def test_trace_norm_diagonal():
    assert trace_norm_hermitian(np.diag([3.0, -4.0, 0.0])) == pytest.approx(7.0)


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        trace_norm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_norm_symmetrizes_roundoff():
    base = np.diag([1.0, -1.0]).astype(complex)
    base[0, 1] = 1e-13  # below the hermiticity tolerance
    assert trace_norm_hermitian(base) == pytest.approx(2.0, abs=1e-10)


@settings(deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_trace_norm_upper_bounds_trace(seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(4, 4))
    h = h + h.T
    assert trace_norm_hermitian(h) >= abs(np.trace(h)) - 1e-12


def test_bell_states():
    plus = bell_state("+")
    minus = bell_state("-")
    assert abs(np.vdot(plus, plus) - 1) < 1e-15
    assert abs(np.vdot(plus, minus)) < 1e-15
    # ordering: |ud> component first, both share the 1/sqrt(2) weight
    np.testing.assert_allclose(plus, [0, 1, 1, 0] / np.sqrt(2))
    np.testing.assert_allclose(minus, [0, 1, -1, 0] / np.sqrt(2))
    with pytest.raises(ValueError, match="sign"):
        bell_state("x")


def test_ketbra():
    up = np.array([1.0, 0.0])
    down = np.array([0.0, 1.0])
    np.testing.assert_allclose(ketbra(down, up), pauli("-"))


def test_embed_site_order():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 5], [6, 0]], dtype=complex)
    eye = np.eye(2)
    np.testing.assert_allclose(embed(kron(a, b), [0, 1], 3), kron(a, b, eye))
    np.testing.assert_allclose(embed(kron(a, b), [0, 2], 3), kron(a, eye, b))
    # unordered site lists place the first operator slot on the named site
    np.testing.assert_allclose(embed(kron(a, b), [2, 0], 3), kron(b, eye, a))


def test_embed_single_site_matches_kron():
    z = pauli("z")
    np.testing.assert_allclose(embed(z, [1], 3), kron(np.eye(2), z, np.eye(2)))


def kron_embed(op, sites, n):
    """One operator embedded by np.kron with the identity on the other sites, then its axes permuted."""
    rest = [q for q in range(n) if q not in sites]
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex)) if rest else op.copy()
    perm = np.argsort(list(sites) + rest)
    t = full.reshape((2,) * (2 * n)).transpose(tuple(perm) + tuple(p + n for p in perm))
    return np.ascontiguousarray(t.reshape(2**n, 2**n))


def signed_zero_operators(rng, k, count):
    """``count`` random non-symmetric k-site operators, a quarter of their parts -0.0 or +0.0."""
    d = 2**k
    parts = rng.normal(size=(2, count, d, d))
    parts[rng.random(parts.shape) < 0.25] = -0.0
    parts[rng.random(parts.shape) < 0.1] = 0.0
    ops = np.empty((count, d, d), dtype=complex)
    ops.real, ops.imag = parts  # a sum or product with 1j would lose the signs of zeros
    return ops


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_stacked_embed_is_the_per_operator_kron_bitwise(n):
    # each entry is op[a, b] times a complex 1 or 0, as np.kron forms it, so
    # the bits agree, signs of zeros included
    rng = np.random.default_rng(n)
    for k in range(1, min(n, 3) + 1):
        ops = signed_zero_operators(rng, k, 6)
        assert (np.signbit(ops.real) & (ops.real == 0)).any() and (np.signbit(ops.imag) & (ops.imag == 0)).any()
        for sites in (list(range(k)), list(range(n - k, n))[::-1], list(rng.permutation(n)[:k])):
            stacked = embed(ops.reshape(2, 3, 2**k, 2**k), sites, n)
            assert stacked.shape == (2, 3, 2**n, 2**n)
            for op, got in zip(ops, stacked.reshape(6, 2**n, 2**n)):
                want = kron_embed(op, sites, n)
                assert got.tobytes() == embed(op, sites, n).tobytes() == want.tobytes()


def test_stacked_embed_checks_each_operator_shape():
    with pytest.raises(ValueError):
        embed(np.zeros((3, 2, 2)), [0, 1], 3)
    with pytest.raises(ValueError):
        embed(np.zeros((3, 4, 4)), [0, 0], 3)
