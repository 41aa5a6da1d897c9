"""Dense operator algebra for few-spin Hilbert spaces.

Everything in this package works on plain complex numpy arrays. The basis
conventions are fixed here once and relied on everywhere else:

* single spin basis: index 0 = up, index 1 = down, with sigma_z|up> = +|up>
  and sigma_minus = (sigma_x - i sigma_y)/2 = |down><up|;
* multi-spin basis: the leftmost tensor factor is the most significant bit,
  so the two-site order is {uu, ud, du, dd} = indices 0..3.

Operators stay dense; the largest space anything here touches is 2^12
(enforced by :func:`kron`), and the exact-diagonalization oracle caps out
well below that.
"""

from __future__ import annotations

import numpy as np

# Hard ceiling on operator dimension; everything in scope is desk-sized.
MAX_DIM = 4096

# Hermiticity tolerance used before eigenvalue-based norms.
HERM_TOL = 1e-10

# A Bloch vector (optimizer output may graze the sphere) is in the unit ball up to this far past it.
BALL_TOL = 1e-9

_PAULI = {
    "identity": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "+": np.array([[0, 1], [0, 0]], dtype=complex),
    "-": np.array([[0, 0], [1, 0]], dtype=complex),
}


def pauli(axis):
    """Return a 2x2 Pauli (or ladder) matrix.

    Parameters
    ----------
    axis : {'x', 'y', 'z', '+', '-', 'identity'}
        Ladder operators follow sigma_minus = |down><up|.
    """
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


def bloch_to_density(alpha) -> np.ndarray:
    """Single-spin density matrix (1 + alpha . sigma)/2 for |alpha| <= 1."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (3,):
        raise ValueError("Bloch vector must have 3 components")
    r = np.linalg.norm(alpha)
    if r > 1 + BALL_TOL:
        raise ValueError(f"Bloch vector length {r} > 1 violates positivity")
    ax, ay, az = alpha
    return 0.5 * np.array(
        [[1 + az, ax - 1j * ay], [ax + 1j * ay, 1 - az]], dtype=complex
    )


def kron(*ops) -> np.ndarray:
    """Tensor product; leftmost factor is the most significant qubit."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        op = np.asarray(op, dtype=complex)
        if out.shape[0] * op.shape[0] > MAX_DIM:
            raise ValueError(f"kron result exceeds max dimension {MAX_DIM}")
        out = np.kron(out, op)
    return out


def partial_trace(op, keep, n: int) -> np.ndarray:
    """Trace out all sites except ``keep`` from an n-spin operator.

    Parameters
    ----------
    op : (2^n, 2^n) array
    keep : iterable of site indices to retain, returned in ascending order
    n : total number of spins

    The full trace is preserved: trace(partial_trace(op)) == trace(op).
    """
    keep = sorted(set(keep))
    if any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep sites {keep} out of range for n={n}")
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**n, 2**n):
        raise ValueError(f"operator shape {op.shape} does not match n={n}")

    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    row = list(letters[:n])
    col = list(letters[n : 2 * n])
    for q in range(n):
        if q not in keep:
            col[q] = row[q]  # repeated index = trace over that site
    out_sub = "".join(row[q] for q in keep) + "".join(col[q] for q in keep)
    t = op.reshape((2,) * (2 * n))
    res = np.einsum("".join(row) + "".join(col) + "->" + out_sub, t)
    d = 2 ** len(keep)
    return res.reshape(d, d)


def dissipator(c, rho) -> np.ndarray:
    """Lindblad dissipator D(c) rho = c rho c^dag - {c^dag c, rho}/2."""
    c = np.asarray(c, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if c.shape != rho.shape:
        raise ValueError(f"dimension mismatch: {c.shape} vs {rho.shape}")
    cdc = c.conj().T @ c
    return c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc)


def trace_norm_hermitian(op) -> float:
    """Trace norm (sum of |eigenvalues|) of a Hermitian operator.

    The input is symmetrized to absorb rounding from chained products, then
    verified Hermitian within ``HERM_TOL``; anything further off is an
    error, not noise.
    """
    op = np.asarray(op, dtype=complex)
    herm = 0.5 * (op + op.conj().T)
    defect = np.abs(op - op.conj().T).max()
    if defect > HERM_TOL:
        raise ValueError(f"operator is non-Hermitian (defect {defect:.2e})")
    return float(np.abs(np.linalg.eigvalsh(herm)).sum())


def bell_state(sign: str) -> np.ndarray:
    """Two-spin Bell vector (|ud> +- |du>)/sqrt(2) as a length-4 array."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    s = 1.0 if sign == "+" else -1.0
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / np.sqrt(2)
    v[2] = s / np.sqrt(2)
    return v


def ketbra(ket, bra) -> np.ndarray:
    """Outer product |ket><bra| of two state vectors."""
    ket = np.asarray(ket, dtype=complex)
    bra = np.asarray(bra, dtype=complex)
    return np.outer(ket, bra.conj())


def embed(op, sites, n: int) -> np.ndarray:
    """Embed a k-site operator onto the given ordered sites of an n-spin space.

    ``sites`` pairs tensor slots of ``op`` with lattice sites: slot 0 of
    ``op`` acts on ``sites[0]`` and so on. Order matters for non-symmetric
    operators.
    """
    sites = list(sites)
    k = len(sites)
    if len(set(sites)) != k or any(q < 0 or q >= n for q in sites):
        raise ValueError(f"bad site list {sites} for n={n}")
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} sites")
    rest = [q for q in range(n) if q not in sites]
    full = kron(op, np.eye(2 ** (n - k))) if rest else op.copy()
    order = sites + rest  # site owned by each current tensor axis
    perm = np.argsort(order)
    t = full.reshape((2,) * (2 * n))
    t = t.transpose(tuple(perm) + tuple(p + n for p in perm))
    return np.ascontiguousarray(t.reshape(2**n, 2**n))
