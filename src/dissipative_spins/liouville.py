"""Exact Lindblad generators on small clusters, for cross-checking the mean field.

``Liouvillian`` holds the generator of H and the jumps c_k as the stacked
jumps and G = -i H - 1/2 sum_k c_k^dag c_k, so L rho = G rho + rho G^dag +
sum_k c_k rho c_k^dag. ``apply``, ``adjoint`` and ``evolve`` (exp(t L) rho)
form no d^2 x d^2 superoperator. The one layout is row-major: |i><j| is
entry i d + j of rho.ravel(), and ``_rows`` is the one place where the
entries L[(i, j), (k, l)] are formed, for ``steady_states`` and for
``matrix``, the whole d^2 x d^2 generator that the bond compile and dense
references read.

Spectra of Lindblad generators come in conjugate pairs with non-positive
real parts; the null space holds the steady states. ``steady_states``
finds them sector by sector without ``matrix``: a conserved coherence
order q (the weak U(1) symmetry of the ring models) and, on a ring, the
momentum k of the site translation split the generator into (q, k)
sectors, whose matrices are gathered from G and the jumps and then
diagonalized in stacks, one ``eigvals`` call per sector size and dtype
(at n = 6 the largest sector has 160 rows, against 4,096 for the whole
generator).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .models import DissipativeModel
from .operators import embed, trace_norm_hermitian

_NULL_TOL = 1e-9  # an |eigenvalue| up to this times min(1, spectral radius) is zero,
_NULL_EPS = 64 * np.finfo(float).eps  # as is one up to this times the radius (eigvals' rounding)
ROUNDING_CAP = 1e-2  # up to this, far below the rates of order 1 that a stiff ring keeps


@dataclass(frozen=True)
class Liouvillian:
    g: np.ndarray      # G = -i H - 1/2 sum_k c_k^dag c_k, (d, d)
    jumps: np.ndarray  # the c_k stacked, (k, d, d)
    ring: int = 0      # sites n of a ring whose translation commutes with L; 0 for none

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
        # from numpy's global random stream; a caller's stream is left as it was.
        # Its sign step overflows on a subnormal entry, which only probes other
        # columns; so warnings are silenced and the result checked instead
        state = np.random.get_state()
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                out = expm_multiply(op, np.asarray(rho0, dtype=complex).ravel(), traceA=t * trace)
        finally:
            np.random.set_state(state)
        if not np.isfinite(out).all():
            raise ValueError("the propagation leaves the float range")
        return out.reshape(d, d)

    @property
    def matrix(self) -> np.ndarray:
        """The d^2 x d^2 generator, row-major: L @ rho.ravel() is (L rho).ravel()."""
        d = self.dim
        return _rows(self.g, self.jumps, *np.divmod(np.arange(d * d), d)).reshape(d * d, d * d)


def _rows(g: np.ndarray, cs: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Rows (i, j) of L, each a d x d array over (k, l): (len(i), d, d).

    L[(i, j), (k, l)] = G[i, k] d(j, l) + conj G[j, l] d(i, k) + sum_c c[i, k] conj c[j, l]:
    the jump sum as one batched (d, jumps) @ (jumps, d) product per row,
    then the two G terms.
    """
    a = np.arange(len(i))
    rows = cs[:, i].transpose(1, 2, 0) @ cs[:, j].conj().transpose(1, 0, 2)
    rows[a, :, j] += g[i]
    rows[a, i, :] += g[j].conj()
    return rows


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

    Every two-site jump is placed on each nearest-neighbor bond (i, i+1)
    and every single-site jump on each site, one ``embed`` of the stack of
    all terms of an arity per placement, and the jumps are stacked term by
    term, each term's placements in order; for n_sites = 2 the two bonds
    of the formal ring coincide, so the pair is counted once. The model
    has no Hamiltonian, so H = 0. The jumps are its ``folded_jump_terms()``,
    used exactly as they come, so any renormalization convention carries
    over unchanged (it rescales the generator without moving its null
    space).
    """
    if n_sites < 2:
        raise ValueError("need at least 2 sites")
    d = 2**n_sites
    bonds = [[i, (i + 1) % n_sites] for i in range(n_sites)] if n_sites > 2 else [[0, 1]]
    terms = model.folded_jump_terms()
    placed = [None] * len(terms)  # per term, its jump on each placement: (placements, d, d)
    for arity, places in ((1, [[s] for s in range(n_sites)]), (2, bonds)):
        of_arity = [t for t, jt in enumerate(terms) if jt.arity == arity]
        if of_arity:  # one embed of all the terms of this arity per placement
            stack = np.stack([terms[t].matrix for t in of_arity])
            for t, jumps in zip(of_arity, np.stack([embed(stack, at, n_sites) for at in places], axis=1)):
                placed[t] = jumps
    # every bond carries every term, so the site translation is exact; the
    # single bond of n = 2 is not symmetric under the swap in general
    return replace(build_liouvillian(np.zeros((d, d)), np.concatenate(placed or [np.zeros((0, d, d))])),
                   ring=n_sites if n_sites > 2 else 0)


@dataclass(frozen=True)
class SpectralBlock:
    q: int  # coherence order popcount(i) - popcount(j) of the sector; 0 where not conserved
    k: int  # momentum 2 pi k / n under the ring's translation; 0 without one
    eigenvalues: np.ndarray  # spectrum of the generator on the sector


@dataclass(frozen=True)
class SteadySpace:
    dimension: int
    basis: list  # Hermitian representatives; trace 1 where trace is nonzero
    blocks: list  # SpectralBlock per (q, k) sector of the generator
    trace_defect: float  # max |u^dag F_0| on sector (0, 0), u the identity there

    @property
    def eigenvalues(self) -> np.ndarray:
        """Full spectrum of the generator: the union of the sector spectra."""
        return np.concatenate([b.eigenvalues for b in self.blocks])


def coherence_orders(liou: Liouvillian):
    """popcount(i) - popcount(j) of each |i><j| (row-major) if L conserves it, else None.

    It is conserved when G keeps popcount and every jump shifts it by one
    fixed amount of its own: G rho, rho G^dag and c rho c^dag then keep the
    order of each |i><j|. The package's one test of the rotation about z:
    ``steady_states`` and the variational bond compile both ask it.
    """
    pc = np.array([bin(i).count("1") for i in range(liou.dim)])
    shift = pc[:, None] - pc  # popcount change made by the entry (i, k) of an operator
    nonzero = liou.jumps != 0
    low = np.where(nonzero, shift, liou.dim).min(axis=(1, 2))
    high = np.where(nonzero, shift, -liou.dim).max(axis=(1, 2))
    if shift[liou.g != 0].any() or (low < high).any():
        return None
    return shift.ravel()


def _site_rotations(liou: Liouvillian) -> np.ndarray:
    """T^m as a map of basis states, m < n: (n, d); T rotates the ring's sites by one.

    Without a ring (``liou.ring`` 0) the only map is the identity, n = 1.
    """
    i = np.arange(liou.dim)
    if not liou.ring:
        return i[None]
    m = np.arange(liou.ring)[:, None]
    return ((i << m) | (i >> (liou.ring - m))) & (liou.dim - 1)


def steady_states(liou: Liouvillian) -> SteadySpace:
    """Null space of the generator, sector by sector, as Hermitian representatives.

    L commutes with the weak U(1) symmetry (coherence order q, when
    ``coherence_orders`` finds it conserved) and with the ring's
    translation T, so it is block diagonal in (q, k) sectors. A sector's
    basis holds one vector per T-orbit of entries |i><j| of order q: with
    representative r_a and period p_a, v_a = sqrt(p_a)/n sum_m
    exp(-2 pi i k m/n) T^m r_a, kept when k p_a = 0 mod n. Its matrix,
    F_k[a, b] = sqrt(p_a p_b)/n sum_m exp(-2 pi i k m/n) L[r_a, T^m r_b],
    is gathered from the rows r_a of L that ``_rows`` forms from G and the
    jumps; the d^2 x d^2 generator is never formed. A real generator has
    F_{n-k} = conj F_k, so only k <= n/2 is diagonalized and k = 0 (and
    n/2) in real arithmetic, decided from G and each jump times the
    conjugate phase of its largest entry (so sigma_y or i c counts as real).
    Every sector's matrix is gathered first; then one ``eigvals`` call
    takes all sectors of one size and dtype as a stack (bitwise the
    spectra of one call per sector, though a stack of real sectors comes
    back complex for all when one has a complex eigenvalue), and last each
    sector's null vectors and the trace defect are formed. An eigenvalue
    counts as zero up to max(``_NULL_TOL`` min(1, r), min(``_NULL_EPS`` r,
    ``ROUNDING_CAP``)), r the largest |eigenvalue|: rates far below 1, the
    rounding of ``eigvals`` (a zero near eps r) below the rates of order 1
    a stiff ring keeps, every exact zero at r = 0; and sector (0, 0), which
    the trace makes singular, counts its smallest |eigenvalue| in any case.

    L(rho^dag) = L(rho)^dag, so the null space is spanned by Hermitian
    matrices: the Hermitian parts of the sectors' null vectors, mapped back
    to d x d, are made orthonormal in the Hilbert-Schmidt inner product and
    rescaled to trace 1 when their trace is nonzero (traceless directions
    keep unit Hilbert-Schmidt norm). The sector spectra are kept on the
    result, and ``trace_defect`` is max |u^dag F_0| on the sector (0, 0),
    u the identity in that sector's basis (sqrt(p_a) on the diagonal orbits).
    """
    d, g, cs = liou.dim, liou.g, liou.jumps
    if cs.imag.any():  # turn each jump by the conjugate phase of its largest entry
        flat = cs.reshape(len(cs), d * d)
        top = flat[np.arange(len(cs)), np.abs(flat).argmax(axis=1)]
        cs = cs * np.divide(top.conj(), abs(top), out=np.ones_like(top), where=top != 0)[:, None, None]
    real = not (g.imag.any() or cs.imag.any())
    if real:  # real arithmetic in the gather and in the real sectors
        g, cs = g.real, cs.real
    rot = _site_rotations(liou)
    n = len(rot)
    orbit = (rot[:, :, None] * d + rot[:, None, :]).reshape(n, d * d)  # T^m |i><j|
    reps = np.flatnonzero(orbit.min(axis=0) == np.arange(d * d))
    period = n // (orbit[:, reps] == reps).sum(axis=0)
    orders = coherence_orders(liou)
    q_of = np.zeros(reps.size, dtype=int) if orders is None else orders[reps]
    phase = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    sectors, fs = [], []  # (q, k, orbit representatives, their periods) of each sector, and its F
    for q in np.unique(q_of):
        r, p = reps[q_of == q], period[q_of == q]
        i, j = divmod(r, d)
        a = np.arange(r.size)[:, None]
        # R_m[a, b] = L[r_a, T^m r_b] from the rows r_a of L: (n, A, A)
        gather = _rows(g, cs, i, j)[a, rot[:, i][:, None, :], rot[:, j][:, None, :]]
        ks = np.arange(n // 2 + 1 if real else n)
        f_k = (phase[ks] @ gather.reshape(n, -1)).reshape(-1, r.size, r.size)
        f_k *= np.sqrt(np.outer(p, p)) / n
        for k, f in zip(ks, f_k):
            keep = k * p % n == 0
            if keep.any():
                f = f[np.ix_(keep, keep)]
                sectors.append((int(q), k, r[keep], p[keep]))
                fs.append(f.real if real and 2 * k % n == 0 else f)
    groups = {}  # one eigvals call per stack of sectors of one size and dtype
    for s, f in enumerate(fs):
        groups.setdefault((len(f), f.dtype), []).append(s)
    spectra, radius = [None] * len(fs), 0.0  # and the largest |eigenvalue| of all of them
    for members in groups.values():
        stack = np.linalg.eigvals(np.stack([fs[s] for s in members]))
        radius = max(radius, np.abs(stack).max())
        for s, evals in zip(members, stack):
            spectra[s] = evals
    cut = max(_NULL_TOL * min(1.0, radius), min(_NULL_EPS * radius, ROUNDING_CAP))
    blocks, nulls, trace_defect = [], [], 0.0
    for (q, k, r, p), f, evals in zip(sectors, fs, spectra):
        zero = np.count_nonzero(np.abs(evals) <= cut)
        if q == 0 and k == 0:
            i, j = divmod(r, d)
            u = np.where(i == j, np.sqrt(p), 0.0)
            trace_defect = float(np.abs(u @ f).max())
            zero = max(zero, 1)  # u F = 0: this sector is singular, however its zero is rounded
        mirrored = real and 2 * k % n  # sector n - k is the complex conjugate
        blocks.append(SpectralBlock(q=q, k=k, eigenvalues=evals))
        if mirrored:
            blocks.append(SpectralBlock(q=q, k=n - k, eigenvalues=evals.conj()))
        if zero:
            # null vectors from the SVD: for a repeated zero of an exactly
            # structured sector eig can return dependent vectors, while a
            # bounded semigroup has no Jordan block at zero, so the last
            # singular vectors span it; then x_a v_a summed over the orbits
            x = np.linalg.svd(f)[2][-zero:].conj().T * (np.sqrt(p) / n)[:, None]
            null = np.zeros((d * d, zero), dtype=complex)
            terms = (phase[k][:, None, None] * x).reshape(-1, zero)  # (m, a) rows
            np.add.at(null, orbit[:, r].ravel(), terms)
            nulls.append(null.T)
            if mirrored:
                nulls.append(null.T.conj())
    basis = _hermitian_basis(np.concatenate(nulls or [np.zeros((0, d * d))]).reshape(-1, d, d))
    return SteadySpace(dimension=len(basis), basis=basis, blocks=blocks, trace_defect=trace_defect)


def _hermitian_basis(nulls: np.ndarray) -> list:
    """Hermitian basis of the span of the (dim, d, d) null matrices.

    The Hermitian parts x + x^dag and i (x - x^dag) span it over the reals:
    the top dim eigenvectors of their real Gram matrix combine them into an
    orthonormal basis, Hermitian by construction. Each element is rescaled
    to trace 1 where its trace is nonzero.
    """
    dim, d = len(nulls), nulls.shape[-1]
    xh = nulls.conj().transpose(0, 2, 1)
    herm = np.concatenate([nulls + xh, 1j * (nulls - xh)]).reshape(2 * dim, d * d)
    weight, comb = np.linalg.eigh((herm.conj() @ herm.T).real)
    basis = (comb[:, -dim:].T @ herm / np.sqrt(weight[-dim:])[:, None]).reshape(-1, d, d)
    return [b / tr if abs(tr := np.trace(b).real) > 1e-9 else b for b in basis]


def conjugate_pair_defect(blocks, d: int) -> float:
    """How far each sector's conjugated spectrum is from its partner sector's.

    L(rho^dag) = L(rho)^dag and the adjoint maps |i><j| to |j><i| and the
    phases of T's orbits to their conjugates, so the spectrum of sector
    (q, k) is the conjugate of the spectrum of sector (-q, -k mod n), n the
    sites of the ring (d = 2^n). A defective eigenvalue (a Jordan block, as
    -1.5 at n = 4, lambda = 1) comes out of eig only to ~sqrt(eps), split
    differently in a sector and in its partner, while the mean of its
    cluster is accurate to ~eps. So each conjugated eigenvalue is compared
    through the means of the eigenvalues within a radius of it on both
    sides; clusters of different sizes count as at least the radius apart.
    Blocks whose spectra, and their partners', have the same lengths and
    dtypes are compared as one stack, entry by entry as one at a time.
    """
    radius = 1e-6  # far above the ~1e-8 split of a defective pair
    n = max(d.bit_length() - 1, 1)
    by_sector = {(b.q, b.k): b for b in blocks}
    groups = {}  # blocks by the lengths and dtypes of theirs and their partner's spectra
    for block in blocks:
        w = block.eigenvalues.conj()
        v = by_sector[(-block.q, -block.k % n)].eigenvalues
        groups.setdefault((w.shape, v.shape, w.dtype, v.dtype), []).append((w, v))
    worst = 0.0
    for pairs in groups.values():
        w, v = np.stack([w for w, _ in pairs]), np.stack([v for _, v in pairs])
        gap_w, gap_v = np.abs(w[:, :, None] - w[:, None]), np.abs(w[:, :, None] - v[:, None])
        near_w, near_v = gap_w < radius, gap_v < radius
        n_w, n_v = near_w.sum(axis=2), near_v.sum(axis=2)
        mean_gap = np.abs((near_w @ w[:, :, None])[:, :, 0] / n_w
                          - (near_v @ v[:, :, None])[:, :, 0] / np.maximum(n_v, 1))
        unpaired = np.maximum(gap_v.min(axis=2), radius)
        worst = max(worst, float(np.where(n_w == n_v, mean_gap, unpaired).max()))
    return worst


def exact_norm(liou: Liouvillian, rho: np.ndarray) -> float:
    """Trace norm of the exact time derivative of rho under the generator."""
    return trace_norm_hermitian(liou.apply(rho))
