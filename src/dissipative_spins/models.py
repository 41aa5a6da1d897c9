"""Declarative dissipative lattice models.

A :class:`DissipativeModel` is a lattice description plus the jump operators
of a translationally invariant, purely dissipative master equation: there is
no Hamiltonian, and the jumps alone fix the dynamics. The constructors here
build the dissipative Heisenberg (XXZ) family: a ferromagnetic pump set
that makes every uniform product state dark, and an anisotropy set (rate
lambda) whose dark states are the two Neel bond states.

A jump is its matrix, and its shape is its arity: 2x2 acts on one site,
4x4 on two, written in the basis {uu, ud, du, dd}. A model holds its jumps
in two sets: ``jump_terms`` with the rate folded into the matrix (a jump
with rate g carries a sqrt(g) prefactor), and ``rate_jump_terms`` at unit
rate beside the one rate they share. The bond derivative is linear in each
jump's rate, so the variational evaluator compiles the two sets apart and
forms K = P + rate A; every other consumer takes ``folded_jump_terms()``,
the one tuple with that rate folded in.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .operators import bell_state, ketbra

_UU = np.array([1, 0, 0, 0], dtype=complex)
_UD = np.array([0, 1, 0, 0], dtype=complex)
_DU = np.array([0, 0, 1, 0], dtype=complex)
_DD = np.array([0, 0, 0, 1], dtype=complex)

# numpy's int64 holds z - 1 for the renormalization's sqrt(z - 1)
MAX_Z = 2**63 - 1
# with z <= MAX_Z, (z - 1) lambda stays below 1e120, and its square, which the
# bond fit forms, far inside the float range (at z = MAX_Z with renormalize
# off, lambda = 1e150 overflowed it)
MAX_RATE = 1e100


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice parameters: coordination number, bipartiteness, rate convention.

    ``renormalize`` applies lambda = lambda'/(z-1) to every two-particle
    coupling rate (matrices divided by sqrt(z-1)) so the mean-field term
    stays finite as z grows. ``z`` is an integer in [2, MAX_Z]: anything
    ``operator.index`` refuses, a float such as 6.0 included, is refused.
    """

    z: int = 6
    bipartite: bool = True
    renormalize: bool = True

    def __post_init__(self):
        try:
            operator.index(self.z)
        except TypeError:
            raise ValueError(f"coordination number z={self.z!r} must be an integer") from None
        if not 2 <= self.z <= MAX_Z:
            raise ValueError(f"coordination number z={self.z} must be >= 2 and at most {MAX_Z}")


def check_rate(rate: float):
    """ValueError unless a jump rate is finite, >= 0 and at most MAX_RATE."""
    if not 0 <= rate <= MAX_RATE:
        raise ValueError(f"rate lambda={rate} must be finite and >= 0, and at most {MAX_RATE:g}")


@dataclass(frozen=True)
class DissipativeModel:
    """A lattice and its one- and two-site jumps, in two sets of matrices.

    Each jump is a 2x2 (one-site) or 4x4 (two-site) matrix; its shape is
    its arity, and any other shape is refused. ``jump_terms`` carry their
    rates folded into their matrices; ``rate_jump_terms`` are written at
    unit rate and all run at ``rate``, an empty tuple for none. A model is a
    value: its sets hold read-only copies (change one by ``dataclasses.replace``).
    """

    lattice: LatticeSpec
    jump_terms: tuple = ()
    rate_jump_terms: tuple = ()  # unit rate, scaled by ``rate``
    rate: float = 0.0

    def __post_init__(self):
        check_rate(self.rate)
        for name in ("jump_terms", "rate_jump_terms"):
            held = tuple(np.array(c) for c in getattr(self, name))
            for i, c in enumerate(held):
                if c.shape not in ((2, 2), (4, 4)):
                    raise ValueError(f"{name}[{i}] has shape {c.shape}: a jump is 2x2 (one site) or 4x4 (two sites)")
                c.flags.writeable = False
            object.__setattr__(self, name, held)

    def folded_jump_terms(self) -> tuple:
        """Every jump with its rate in its matrix: ``jump_terms``, then sqrt(rate) times each of the rate set."""
        s = np.sqrt(self.rate)
        return self.jump_terms + tuple(s * c for c in self.rate_jump_terms)


def ferro_pump_jumps():
    """The three unit-rate 4x4 pump operators out of the singlet.

    |uu><psi-|, |dd><psi-| and |psi+><psi-| drain the antisymmetric Bell
    state into the spin-triplet space, so every symmetric product state
    (any uniform ferromagnet) is dark.
    """
    psi_m = bell_state("-")
    psi_p = bell_state("+")
    return [ketbra(_UU, psi_m), ketbra(_DD, psi_m), ketbra(psi_p, psi_m)]


def anisotropy_jumps():
    """The four unit-rate 4x4 operators draining the polarized bond states.

    |ud><uu|, |du><uu|, |ud><dd| and |du><dd|: they lift the SU(2)
    symmetry and leave |ud> and |du> (the Neel bond states) dark. A model
    runs them at its ``rate``, lambda.
    """
    return [ketbra(_UD, _UU), ketbra(_DU, _UU), ketbra(_UD, _DD), ketbra(_DU, _DD)]


def dissipative_heisenberg(lam: float, lattice: LatticeSpec) -> DissipativeModel:
    """Purely dissipative Heisenberg model: ferro pumps plus anisotropy set.

    The pumps are the unit-rate ``jump_terms``; the four anisotropy jumps
    are the rate set, written at unit rate, and ``rate`` is lambda. With
    ``lattice.renormalize`` every two-particle rate is divided by (z-1)
    (both sets' matrices by sqrt(z-1)); for this all-two-particle model that
    is an exact overall rescale of the dynamics, so the phase boundaries are
    convention independent (only the norm scale and the z-scaling of the
    interaction part change).
    """
    scale = 1.0 / np.sqrt(lattice.z - 1)
    jumps = [scale * c if lattice.renormalize else c for c in _UNIT_JUMPS]  # the model copies
    return DissipativeModel(lattice=lattice, jump_terms=jumps[:3], rate_jump_terms=jumps[3:],
                            rate=lam)


# the three pumps, then the four anisotropy jumps, at unit rate
_UNIT_JUMPS = ferro_pump_jumps() + anisotropy_jumps()
