"""Exact Lindblad generators on small clusters, for cross-checking the mean field.

``Liouvillian`` holds the generator of H and the jumps c_k as the stacked
jumps and G = -i H - 1/2 sum_k c_k^dag c_k, so L rho = G rho + rho G^dag +
sum_k c_k rho c_k^dag; the jump sum is one product S^dag S of the stacked
jumps S read as a (k d, d) matrix. ``apply`` and ``evolve`` (exp(t L) rho,
a Taylor series) form no d^2 x d^2 superoperator. The one layout is
row-major: |i><j| is entry i d + j of rho.ravel(), and ``_rows`` is the one
place where the entries L[(i, j), (k, l)] are formed, for ``steady_states``
and for ``matrix``, the whole d^2 x d^2 generator that the bond compile and
dense references read.

Spectra of Lindblad generators come in conjugate pairs with non-positive
real parts; the null space holds the steady states. ``steady_states``
counts them sector by sector without ``matrix``: a conserved coherence
order q (the weak U(1) symmetry of the ring models) and, on a ring, the
momentum k of the site translation split the generator into (q, k)
sectors, whose matrices are gathered from G and the jumps and then
diagonalized in stacks, one ``eigvals`` call per sector size and dtype
(at n = 6 the largest sector has 160 rows, against 4,096 for the whole
generator). Only q >= 0 is gathered: L(rho^dag) = L(rho)^dag makes each
q < 0 spectrum a conjugated copy of its partner's. The count is read off
those spectra, with the cut and the |eigenvalues| nearest it either side
as a measure of how sure it is, and a ring whose rounding passes
``ROUNDING_CAP`` is refused rather than counted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .models import DissipativeModel
from .operators import embed, trace_norm_hermitian

_NULL_TOL = 1e-9  # an |eigenvalue| up to this times min(1, spectral radius) is zero,
_NULL_EPS = 64 * np.finfo(float).eps  # as is one up to this times the radius (eigvals' rounding)
ROUNDING_CAP = 1e-2  # up to this, far below the rates of order 1 that a stiff ring keeps
TAYLOR_TERMS, TAYLOR_THETA = 55, 9.5  # m and theta of ``evolve``'s Taylor series


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

    @property
    def norm_bound(self) -> float:
        """2 ||G||_2 + sum_k ||c_k||_2^2 >= ||L||_2 (||A (x) B||_2 = ||A||_2 ||B||_2); inf for a G not finite."""
        if not np.isfinite(self.g).all():  # as it is wherever a jump is not
            return np.inf
        with np.errstate(over="ignore"):  # a bound past the float range is inf
            return float(2 * np.linalg.norm(self.g, 2) + (np.linalg.norm(self.jumps, 2, axis=(1, 2)) ** 2).sum())

    def taylor_cost(self, t: float) -> tuple[float, float]:
        """``evolve``'s steps to t, s = ceil(t ``norm_bound`` / theta), and its products, s m (jumps + 1) at most."""
        steps = float(np.ceil(float(t) * self.norm_bound / TAYLOR_THETA))  # Python floats: inf, or nan for 0 inf
        return steps, steps * TAYLOR_TERMS * (len(self.jumps) + 1)

    def evolve(self, rho0: np.ndarray, t: float) -> np.ndarray:
        """exp(t L) rho0: in each of ``taylor_cost``'s steps h = t/s, the Taylor series of exp(h L).

        As h ||L||_2 <= theta = 9.5, cut after m = 55 terms a step's remainder is at most theta^(m+1)/(m+1)!
        e^theta <= 2^-53 of its input (root theta = 9.506); it stops sooner once a term's largest entry is below
        2^-53 of the sum's: Al-Mohy and Higham's truncated Taylor method (SIAM J. Sci. Comput. 33, 488 (2011)) at
        one degree, stepped by the bound in place of their norm estimates. ValueError for t < 0 or past the floats.
        """
        steps, _ = self.taylor_cost(t)
        rho = np.array(rho0, dtype=complex).reshape(self.dim, self.dim)
        for _ in range(int(steps) if 0 <= steps < np.inf else 0):
            term = rho
            for k in range(1, TAYLOR_TERMS + 1):
                term = self.apply(term) * (t / steps / k)
                rho = rho + term
                if np.abs(term).max() <= 2.0**-53 * np.abs(rho).max():
                    break
        if not (t >= 0 and steps < np.inf and np.isfinite(rho).all()):
            raise ValueError(f"the propagation to t = {t:g} runs backward or leaves the float range")
        return rho

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
    """The generator of H and the jumps c_k; no d^2 x d^2 work is done here.

    G's jump sum is one (d, k d) @ (k d, d) product: sum_k c_k^dag c_k =
    S^dag S with S the stacked jumps reshaped to (k d, d).
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
    s = cs.reshape(-1, d)
    g = -1j * h - 0.5 * (s.conj().T @ s)
    return Liouvillian(g=g, jumps=cs)


def ring_liouvillian(model: DissipativeModel, n_sites: int) -> Liouvillian:
    """Exact generator of the model on a periodic chain of n_sites spins.

    A jump's shape is its arity: every two-site (4x4) jump is placed on
    each nearest-neighbor bond (i, i+1) and every single-site (2x2) jump on
    each site, one ``embed`` of the stack of all terms of an arity per
    placement, and the jumps are stacked term by term, each term's
    placements in order; for n_sites = 2 the two bonds of the formal ring
    coincide, so the pair is counted once. The model has no Hamiltonian,
    so H = 0. The jumps are its ``folded_jump_terms()``,
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
    for dim, places in ((2, [[s] for s in range(n_sites)]), (4, bonds)):
        of_arity = [t for t, c in enumerate(terms) if len(c) == dim]
        if of_arity:  # one embed of all the terms of this arity per placement
            stack = np.stack([terms[t] for t in of_arity])
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
    dimension: int  # steady states: the zero eigenvalues over all sectors
    blocks: list  # SpectralBlock per (q, k) sector of the generator
    trace_defect: float  # max |u^dag F_0| on sector (0, 0), u the identity there
    zero_cut: float  # an |eigenvalue| up to this counts as zero
    largest_zero: float  # the largest |eigenvalue| counted as zero, the forced one of (0, 0) too
    smallest_nonzero: float | None  # the smallest |eigenvalue| not counted as zero; None for none

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
    shift = _popcount_shifts(liou.dim)
    nonzero = liou.jumps != 0
    low = np.where(nonzero, shift, liou.dim).min(axis=(1, 2))
    high = np.where(nonzero, shift, -liou.dim).max(axis=(1, 2))
    if shift[liou.g != 0].any() or (low < high).any():
        return None
    return shift.flatten()  # a copy: no caller writes into the cached table


@functools.cache
def _popcount_shifts(d: int) -> np.ndarray:
    """popcount(i) - popcount(k), the popcount change made by the entry (i, k) of a d x d operator."""
    pc = np.array([bin(i).count("1") for i in range(d)])
    return pc[:, None] - pc


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
    """Dimension of the generator's null space, counted sector by sector.

    L commutes with the weak U(1) symmetry (coherence order q, when
    ``coherence_orders`` finds it conserved) and with the ring's
    translation T, so it is block diagonal in (q, k) sectors. A sector's
    basis holds one vector per T-orbit of entries |i><j| of order q: with
    representative r_a and period p_a, v_a = sqrt(p_a)/n sum_m
    exp(-2 pi i k m/n) T^m r_a, kept when k p_a = 0 mod n. Its matrix,
    F_k[a, b] = sqrt(p_a p_b)/n sum_m exp(-2 pi i k m/n) L[r_a, T^m r_b],
    is gathered from the rows r_a of L that ``_rows`` forms from G and the
    jumps; the d^2 x d^2 generator is never formed. The adjoint |i><j| ->
    |j><i| commutes with L and maps sector (q, k) onto (-q, -k), so the
    spectrum of (-q, -k) is the conjugate of that of (q, k): only q >= 0 is
    gathered and diagonalized, and of q = 0 only k <= n/2. A real generator
    also has F_{n-k} = conj F_k, so there every q keeps only k <= n/2, k = 0
    (and n/2) in real arithmetic, and (-q, k) has the spectrum of (q, k);
    real is decided from G and each jump times the conjugate phase of its
    largest entry (so sigma_y or i c counts as real). Each spectrum's block
    is kept with its copies, the conjugated ones, and its zeros count once
    for each block it stands for (up to four). Every sector's matrix is
    gathered first; then one ``eigvals`` call takes all sectors of one size
    and dtype as a stack (bitwise the spectra of one call per sector,
    though a stack of real sectors comes back complex for all when one has
    a complex eigenvalue). An eigenvalue counts as zero up to the cut
    max(``_NULL_TOL`` min(1, r), min(``_NULL_EPS`` r, ``ROUNDING_CAP``)),
    r the largest |eigenvalue|: rates far below 1, the rounding of
    ``eigvals`` (a zero near eps r) below the rates of order 1 a stiff
    ring keeps, every exact zero at r = 0; and sector (0, 0), which the
    trace makes singular, counts its smallest |eigenvalue| in any case.
    The bounded semigroup has no Jordan block at zero, so the count of
    zeros is the number of independent steady states.

    The sector spectra are kept on the result, and ``trace_defect`` is
    max |u^dag F_0| on the sector (0, 0), u the identity in that sector's
    basis (sqrt(p_a) on the diagonal orbits). Both it and the largest real
    part are 0 in exact arithmetic; a ValueError refuses the ring when
    either passes ``ROUNDING_CAP``, where rounding can have moved the rates
    of order 1 onto the cut or a zero off it. A count clear of rounding has
    ``largest_zero`` <= ``zero_cut`` < ``smallest_nonzero``, gaps wide.
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
    for q in np.unique(q_of[q_of >= 0]):  # sector (-q, -k) is the conjugate of (q, k)
        r, p = reps[q_of == q], period[q_of == q]
        i, j = divmod(r, d)
        a = np.arange(r.size)[:, None]
        # R_m[a, b] = L[r_a, T^m r_b] from the rows r_a of L: (n, A, A)
        gather = _rows(g, cs, i, j)[a, rot[:, i][:, None, :], rot[:, j][:, None, :]]
        ks = np.arange(n // 2 + 1 if real or q == 0 else n)
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
    blocks, dimension, trace_defect = [], 0, 0.0
    zeros, others = [], []  # the |eigenvalues| counted as zero, and the rest
    for (q, k, r, p), f, evals in zip(sectors, fs, spectra):
        size = np.abs(evals)
        zero = size <= cut
        if q == 0 and k == 0:
            i, j = divmod(r, d)
            u = np.where(i == j, np.sqrt(p), 0.0)
            trace_defect = float(np.abs(u @ f).max())
            zero[size.argmin()] = True  # u F = 0: this sector is singular, however its zero is rounded
        zeros.append(size[zero])
        others.append(size[~zero])
        copies = [(q, k, evals)]  # the sectors this spectrum stands for
        if 2 * k % n and (real or q == 0):  # (q, -k) is the conjugate: L is real, or q = 0 is its own partner
            copies.append((q, n - k, evals.conj()))
        if q:  # the adjoint: (-q, -k) is the conjugate of (q, k)
            copies += [(-q, -c % n, e.conj()) for _, c, e in copies]
        blocks += [SpectralBlock(q=c_q, k=c_k, eigenvalues=e) for c_q, c_k, e in copies]
        dimension += len(copies) * zeros[-1].size
    zeros, others = np.concatenate(zeros), np.concatenate(others)
    space = SteadySpace(dimension=dimension, blocks=blocks, trace_defect=trace_defect, zero_cut=float(cut),
                        largest_zero=float(zeros.max()),
                        smallest_nonzero=float(others.min()) if others.size else None)
    top = float(space.eigenvalues.real.max())
    if max(trace_defect, abs(top)) > ROUNDING_CAP:  # 0 is in the spectrum, which lies in Re <= 0
        raise ValueError(f"the ring is too stiff to resolve: its trace defect {trace_defect:.3g} "
                         f"or largest real part {top:.3g} passes {ROUNDING_CAP:g}")
    return space


def exact_norm(liou: Liouvillian, rho: np.ndarray) -> float:
    """Trace norm of the exact time derivative of rho under the generator."""
    return trace_norm_hermitian(liou.apply(rho))
