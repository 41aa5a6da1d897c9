"""Exact Lindblad generators on small clusters, for cross-checking the mean field.

``Liouvillian`` holds the generator of H and the jumps c_k as the stacked
jumps and G = -i H - 1/2 sum_k c_k^dag c_k, so L rho = G rho + rho G^dag +
sum_k c_k rho c_k^dag. ``apply``, ``adjoint`` and ``evolve`` (exp(t L) rho)
form no d^2 x d^2 superoperator; ``matrix``, built on first use and kept,
is that superoperator for the oracle. Only this module knows its layout:
vec(rho) stacks the columns of rho (Fortran order), so vec(A rho B) =
kron(B^T, A) vec(rho) and matrix = kron(1, G) + kron(conj(G), 1) +
sum_k kron(conj(c_k), c_k).

Spectra of Lindblad generators come in conjugate pairs with non-positive
real parts; the null space holds the steady states. ``steady_states``
finds them block by block: the connected components of the generator's
nonzero pattern are independent diagonal blocks (the coherence orders of
the ring models), and each is diagonalized on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .models import DissipativeModel
from .operators import embed, trace_norm_hermitian

_NULL_TOL = 1e-9  # generator eigenvalues below this in magnitude span the steady space


@dataclass(frozen=True)
class Liouvillian:
    g: np.ndarray      # G = -i H - 1/2 sum_k c_k^dag c_k, (d, d)
    jumps: np.ndarray  # the c_k stacked, (k, d, d)

    @property
    def dim(self) -> int:  # Hilbert-space dimension d
        return self.g.shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L rho, formed from d x d products."""
        g, cs = self.g, self.jumps
        return g @ rho + rho @ g.conj().T + (cs @ rho @ cs.conj().transpose(0, 2, 1)).sum(axis=0)

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """L^dag x = G^dag x + x G + sum_k c_k^dag x c_k, the Hilbert-Schmidt adjoint."""
        g, cs = self.g, self.jumps
        return g.conj().T @ x + x @ g + (cs.conj().transpose(0, 2, 1) @ x @ cs).sum(axis=0)

    def evolve(self, rho0: np.ndarray, t: float) -> np.ndarray:
        """exp(t L) rho0 by expm_multiply through ``apply`` and ``adjoint``, rows flattened.

        The trace of L, which shifts the Taylor series, is 2 d Re tr G + sum |tr c|^2.
        """
        # imported on first use: scipy.sparse.linalg is most of what importing
        # this package would otherwise cost, and only validation needs it
        from scipy.sparse.linalg import LinearOperator, expm_multiply

        d = self.dim
        tr_c = np.trace(self.jumps, axis1=1, axis2=2)
        trace = 2 * d * np.trace(self.g).real + (np.abs(tr_c) ** 2).sum()
        op = LinearOperator((d * d, d * d), dtype=complex,
                            matvec=lambda v: t * self.apply(v.reshape(d, d)).ravel(),
                            rmatvec=lambda v: t * self.adjoint(v.reshape(d, d)).ravel())
        # scipy's 1-norm estimate inside expm_multiply draws its probe vectors
        # from numpy's global random stream; a caller's stream is left as it was
        state = np.random.get_state()
        try:
            out = expm_multiply(op, np.asarray(rho0, dtype=complex).ravel(), traceA=t * trace)
        finally:
            np.random.set_state(state)
        return out.reshape(d, d)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The column-stacked d^2 x d^2 generator, built on first use and kept."""
        d, g = self.dim, self.g
        flat = self.jumps.reshape(-1, d * d)
        # the jump sum as one (d^2, k) @ (k, d^2) product: (i k, j l) entries
        # conj(c)[i, k] c[j, l], reordered to (i j, k l); one expression, so
        # the product is freed before the krons' temporaries
        mat = (flat.conj().T @ flat).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        mat += np.kron(np.eye(d), g)
        mat += np.kron(g.conj(), np.eye(d))
        return mat

    def row_major(self) -> np.ndarray:
        """``matrix`` reindexed from (out col, out row) x (in col, in row) to row-major."""
        return self.matrix.reshape((self.dim,) * 4).transpose(1, 0, 3, 2).reshape(self.matrix.shape)

    def trace_defect(self) -> float:
        """max |vec(1)^dag matrix|: trace preservation, on the matrix the kernel is taken from."""
        return float(np.abs(vec(np.eye(self.dim)).conj() @ self.matrix).max())


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(dim, dim, order="F")


def build_liouvillian(hamiltonian, jumps) -> Liouvillian:
    """The generator of H and the jumps c_k; no d^2 x d^2 work is done here."""
    h = np.asarray(hamiltonian, dtype=complex)
    d = h.shape[0]
    if h.shape != (d, d):
        raise ValueError("hamiltonian must be square")
    cs = np.asarray(jumps, dtype=complex)
    if cs.size == 0:
        cs = cs.reshape(0, d, d)
    if cs.shape[1:] != (d, d):
        raise ValueError("jump operator dimension mismatch")
    g = -1j * h - 0.5 * np.einsum("nji,njk->ik", cs.conj(), cs)
    return Liouvillian(g=g, jumps=cs)


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
    bonds = [[i, (i + 1) % n_sites] for i in range(n_sites)] if n_sites > 2 else [[0, 1]]
    # where a term goes: a single-site one on every site, any other on every bond
    places = {1: [[s] for s in range(n_sites)]}
    h = sum((embed(term, at, n_sites) for arity, term in model.hamiltonian_terms
             for at in places.get(arity, bonds)), np.zeros((2**n_sites,) * 2, dtype=complex))
    jumps = [embed(jt.matrix, at, n_sites) for jt in model.jump_terms
             for at in places.get(jt.arity, bonds)]
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


def conjugate_pair_defect(blocks, d: int) -> float:
    """How far each block's conjugated spectrum is from its partner block's.

    L(rho^dag) = L(rho)^dag, so the spectrum of the block holding vec
    position i + d j (the entry |i><j|) is the conjugate of the spectrum of
    the block holding j + d i. A defective eigenvalue (a Jordan block, as
    -1.5 at n = 4, lambda = 1) comes out of eig only to ~sqrt(eps), split
    differently in a block and in its partner, while the mean of its
    cluster is accurate to ~eps. So each conjugated eigenvalue is compared
    through the means of the eigenvalues within a radius of it on both
    sides; clusters of different sizes count as at least the radius apart.
    """
    radius = 1e-6  # far above the ~1e-8 split of a defective pair
    label = np.empty(d * d, dtype=int)
    for b, block in enumerate(blocks):
        label[block.indices] = b
    worst = 0.0
    for block in blocks:
        i, j = divmod(int(block.indices[0]), d)  # vec position j + d i
        w = block.eigenvalues.conj()
        v = blocks[label[i + d * j]].eigenvalues
        gap_w, gap_v = np.abs(w[:, None] - w), np.abs(w[:, None] - v)
        near_w, near_v = gap_w < radius, gap_v < radius
        n_w, n_v = near_w.sum(axis=1), near_v.sum(axis=1)
        mean_gap = np.abs(near_w @ w / n_w - near_v @ v / np.maximum(n_v, 1))
        unpaired = np.maximum(gap_v.min(axis=1), radius)
        worst = max(worst, float(np.where(n_w == n_v, mean_gap, unpaired).max()))
    return worst


def exact_norm(liou: Liouvillian, rho: np.ndarray) -> float:
    """Trace norm of the exact time derivative of rho under the generator."""
    return trace_norm_hermitian(liou.apply(rho))
