"""Exact Liouvillians on small clusters, for cross-checking the mean field.

Column-stacking convention throughout: vec(rho) stacks the columns of rho
(Fortran order), so vec(A rho B) = kron(B^T, A) vec(rho). With the
non-Hermitian G = -i H - 1/2 sum_k c_k^dag c_k the generator reads

    L = kron(1, G) + kron(conj(G), 1) + sum_k kron(conj(c_k), c_k).

Spectra of Lindblad generators come in conjugate pairs with non-positive
real parts; the null space holds the steady states. ``steady_states``
finds them block by block: the connected components of the generator's
nonzero pattern are independent diagonal blocks (the coherence orders of
the ring models), and each is diagonalized on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import DissipativeModel
from .operators import embed, trace_norm_hermitian

_NULL_TOL = 1e-9  # generator eigenvalues below this in magnitude span the steady space


@dataclass(frozen=True)
class Liouvillian:
    matrix: np.ndarray
    dim: int  # Hilbert-space dimension d; matrix is d^2 x d^2

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(rho), self.dim)


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(dim, dim, order="F")


def build_liouvillian(hamiltonian, jumps) -> Liouvillian:
    """The generator of H and the jumps c_k as a d^2 x d^2 matrix.

    The jump sum is one (d^2, k) @ (k, d^2) product over the stacked jumps.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    d = h.shape[0]
    if h.shape != (d, d):
        raise ValueError("hamiltonian must be square")
    cs = np.asarray(jumps, dtype=complex)
    if cs.size == 0:
        cs = cs.reshape(0, d, d)
    if cs.shape[1:] != (d, d):
        raise ValueError("jump operator dimension mismatch")
    flat = cs.reshape(-1, d * d)
    # (i k, j l) entries conj(c)[i, k] c[j, l], reordered to (i j, k l); one
    # expression, so the product is freed before the krons' temporaries
    mat = (flat.conj().T @ flat).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    g = -1j * h - 0.5 * np.einsum("nji,njk->ik", cs.conj(), cs)
    mat += np.kron(np.eye(d), g)
    mat += np.kron(g.conj(), np.eye(d))
    return Liouvillian(matrix=mat, dim=d)


def ring_liouvillian(model: DissipativeModel, n_sites: int) -> Liouvillian:
    """Exact generator of the model on a periodic chain of n_sites spins.

    Every two-site term is placed on each nearest-neighbor bond (i, i+1);
    for n_sites = 2 the two bonds of the formal ring coincide, so the pair
    is counted once. Matrices are used exactly as stored on the model, so
    any renormalization convention carries over unchanged (it rescales the
    generator without moving its null space).
    """
    if n_sites < 2:
        raise ValueError("need at least 2 sites")
    d = 2**n_sites
    h = np.zeros((d, d), dtype=complex)
    jumps = []
    bonds = [(i, (i + 1) % n_sites) for i in range(n_sites)]
    if n_sites == 2:
        bonds = [(0, 1)]
    for arity, term in model.hamiltonian_terms:
        if arity == 1:
            for s in range(n_sites):
                h += embed(term, [s], n_sites)
        else:
            for i, j in bonds:
                h += embed(term, [i, j], n_sites)
    for jt in model.jump_terms:
        if jt.arity == 1:
            for s in range(n_sites):
                jumps.append(embed(jt.matrix, [s], n_sites))
        else:
            for i, j in bonds:
                jumps.append(embed(jt.matrix, [i, j], n_sites))
    return build_liouvillian(h, jumps)


@dataclass(frozen=True)
class SpectralBlock:
    indices: np.ndarray  # vec positions of one diagonal block, ascending
    eigenvalues: np.ndarray  # spectrum of the generator restricted to them


@dataclass(frozen=True)
class SteadySpace:
    dimension: int
    basis: list  # Hermitian representatives; trace 1 where trace is nonzero
    blocks: list  # SpectralBlock per diagonal block of the generator

    @property
    def eigenvalues(self) -> np.ndarray:
        """Full spectrum of the generator: the union of the block spectra."""
        return np.concatenate([b.eigenvalues for b in self.blocks])


def _weak_components(pattern) -> np.ndarray:
    """Component label of each node of a square boolean pattern, weak connection.

    Components are numbered 0, 1, ... in the order of their smallest node,
    as ``scipy.sparse.csgraph.connected_components`` numbers them. Each
    round lowers the labels of both ends of every edge, and of the nodes
    those labels name, to the smaller label of the edge; pointer jumping
    then follows every label to its root. It stops when a round changes
    nothing, so no edge joins two labels.
    """
    rows, cols = np.nonzero(pattern)
    labels = np.arange(len(pattern))
    while True:
        low = np.minimum(labels[rows], labels[cols])
        hooked = labels.copy()
        for ends in (rows, cols, labels[rows], labels[cols]):
            np.minimum.at(hooked, ends, low)
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = hooked


def _generator_blocks(liou: Liouvillian) -> list:
    """Vec positions of each diagonal block of the generator.

    The blocks are the connected components of the generator's nonzero
    pattern, so permuting them together is an exact similarity that
    block-diagonalizes the matrix. A weak U(1) symmetry (the ring models'
    conservation of coherence order popcount(i) - popcount(j) of |i><j|)
    shows up as separate blocks; a model without one is a single block.
    """
    labels = _weak_components(liou.matrix != 0)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


def steady_states(liou: Liouvillian) -> SteadySpace:
    """Null space of the generator, returned as Hermitian representatives.

    Each diagonal block of the generator (``_generator_blocks``) is
    diagonalized on its own; the null vectors of all blocks, embedded back
    into the full vec space, span the null space. The Lindblad generator
    commutes with the adjoint operation, so the null space is spanned by
    Hermitian matrices; each basis element is orthogonalized in the
    Hilbert-Schmidt inner product and rescaled to trace 1 when its trace is
    nonzero (traceless directions are kept with unit Hilbert-Schmidt norm).
    The block spectra, computed on the way, are kept on the result.
    """
    blocks, null_cols = [], []
    for idx in _generator_blocks(liou):
        block = liou.matrix[np.ix_(idx, idx)]
        if not block.imag.any():  # real arithmetic, ~3x faster than complex
            block = block.real
        evals, evecs = np.linalg.eig(block)
        blocks.append(SpectralBlock(indices=idx, eigenvalues=evals))
        for k in np.flatnonzero(np.abs(evals) < _NULL_TOL):
            col = np.zeros(liou.dim**2, dtype=complex)
            col[idx] = evecs[:, k]
            null_cols.append(col)
    dim = len(null_cols)
    herm_candidates = []
    for col in null_cols:
        x = unvec(col, liou.dim)
        herm_candidates.append(x + x.conj().T)
        herm_candidates.append(1j * (x - x.conj().T))
    basis = []
    for cand in herm_candidates:
        for b in basis:
            cand = cand - np.vdot(b, cand) * b
        nrm = np.sqrt(abs(np.vdot(cand, cand)))
        if nrm > 10 * _NULL_TOL:
            basis.append(cand / nrm)
        if len(basis) == dim:
            break
    out = []
    for b in basis:
        tr = np.trace(b).real
        out.append(b / tr if abs(tr) > 1e-9 else b)
    return SteadySpace(dimension=dim, basis=out, blocks=blocks)


def exact_norm(liou: Liouvillian, rho: np.ndarray) -> float:
    """Trace norm of the exact time derivative of rho under the generator."""
    return trace_norm_hermitian(liou.apply(rho))
