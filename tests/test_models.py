from dataclasses import fields

import numpy as np
import pytest

from dissipative_spins.models import (
    MAX_RATE,
    MAX_Z,
    DissipativeModel,
    JumpTerm,
    LatticeSpec,
    anisotropy_jumps,
    check_rate,
    dissipative_heisenberg,
    ferro_pump_jumps,
)
from dissipative_spins.operators import bell_state


def test_lattice_spec_validation():
    default = LatticeSpec()
    assert default.z == 6 and default.bipartite and default.renormalize
    LatticeSpec(z=2)
    with pytest.raises(ValueError):
        LatticeSpec(z=1)


def test_jump_term_validation():
    with pytest.raises(ValueError):
        JumpTerm(arity=3, matrix=np.eye(8), label="bad")
    with pytest.raises(ValueError):
        JumpTerm(arity=1, matrix=np.eye(4), label="wrong shape")


def test_ferro_pump_set():
    jumps = ferro_pump_jumps()
    assert len(jumps) == 3
    minus = bell_state("-")
    uu = np.zeros(4)
    uu[0] = 1.0
    # every ferro jump drains the singlet; none touches aligned states
    for t in jumps:
        assert t.arity == 2
        assert np.linalg.norm(t.matrix @ uu) < 1e-15
        assert np.linalg.norm(t.matrix @ minus) > 0.99


def test_anisotropy_scaling():
    lam = 0.7
    jumps = anisotropy_jumps(lam)
    assert len(jumps) == 4
    ref = anisotropy_jumps(1.0)
    for a, b in zip(jumps, ref):
        np.testing.assert_allclose(a.matrix, np.sqrt(lam) * b.matrix)
    with pytest.raises(ValueError):
        anisotropy_jumps(-0.5)
    # a non-finite rate would only fail later, inside LAPACK
    for lam in (np.inf, np.nan):
        with pytest.raises(ValueError, match="lambda"):
            anisotropy_jumps(lam)


def test_anisotropy_targets_aligned_states():
    # rate-lambda channels depolarize |uu> and |dd> into ud / du
    dd = np.zeros(4)
    dd[3] = 1.0
    hits = sum(np.linalg.norm(t.matrix @ dd) > 0 for t in anisotropy_jumps(1.0))
    assert hits == 2


def test_heisenberg_renormalization():
    plain = dissipative_heisenberg(1.0, LatticeSpec(z=5, renormalize=False))
    renorm = dissipative_heisenberg(1.0, LatticeSpec(z=5, renormalize=True))
    scale = 1 / np.sqrt(5 - 1)
    for a, b in zip(renorm.folded_jump_terms(), plain.folded_jump_terms(), strict=True):
        np.testing.assert_allclose(a.matrix, scale * b.matrix)


def test_heisenberg_is_purely_dissipative():
    model = dissipative_heisenberg(0.8, LatticeSpec(z=6))
    # a model is its lattice, its jump sets and their rate: it holds no Hamiltonian
    assert [f.name for f in fields(model)] == ["lattice", "jump_terms", "rate_jump_terms", "rate"]
    # three unit-rate pumps, and the four anisotropy jumps as the rate set at lambda
    assert (len(model.jump_terms), len(model.rate_jump_terms), model.rate) == (3, 4, 0.8)
    assert len(model.folded_jump_terms()) == 7
    # lambda = 0 silences the anisotropy channels but keeps the slots
    silent = dissipative_heisenberg(0.0, LatticeSpec())
    assert len(silent.folded_jump_terms()) == 7
    for t in silent.folded_jump_terms()[3:]:
        assert np.abs(t.matrix).max() == 0.0


@pytest.mark.parametrize("renormalize", [True, False])
@pytest.mark.parametrize("z", [2, 4, 6])
def test_folded_jumps_are_the_rate_folded_matrices(z, renormalize):
    # the folded list is the one the model held with lambda in its matrices:
    # the pumps, then sqrt(lambda) times each anisotropy jump, all scaled
    scale = 1 / np.sqrt(z - 1) if renormalize else 1.0
    for lam in np.linspace(0.0, 2.5, 11):
        model = dissipative_heisenberg(lam, LatticeSpec(z=z, renormalize=renormalize))
        reference = ferro_pump_jumps() + anisotropy_jumps(lam)
        for got, ref in zip(model.folded_jump_terms(), reference, strict=True):
            assert (got.arity, got.label) == (ref.arity, ref.label)
            np.testing.assert_allclose(got.matrix, scale * ref.matrix, rtol=0, atol=1e-15)


@pytest.mark.parametrize("renormalize", [True, False])
@pytest.mark.parametrize("z", [2, 4, 6])
def test_heisenberg_jumps_are_the_unit_matrices_at_their_scale_bitwise(z, renormalize):
    # every matrix holds the bits of the public unit-rate sets at the
    # lattice's scale, signed zeros included, and no two builds share one
    unit = ferro_pump_jumps() + anisotropy_jumps(1.0)
    scale = 1 / np.sqrt(z - 1)
    first, second = (dissipative_heisenberg(0.3, LatticeSpec(z=z, renormalize=renormalize))
                     for _ in range(2))
    for got, again, ref in zip(first.jump_terms + first.rate_jump_terms,
                               second.jump_terms + second.rate_jump_terms, unit, strict=True):
        want = scale * ref.matrix if renormalize else ref.matrix
        assert (got.arity, got.label) == (ref.arity, ref.label)
        assert np.array_equal(got.matrix.view(np.uint64), want.view(np.uint64))
        assert not np.shares_memory(got.matrix, again.matrix)


def test_model_rate_must_be_finite_and_nonnegative():
    for rate in (-0.5, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and >= 0"):
            DissipativeModel(lattice=LatticeSpec(), rate=rate)
        with pytest.raises(ValueError, match="finite and >= 0"):
            dissipative_heisenberg(rate, LatticeSpec())
    # a model without a rate set folds to its own jumps
    model = DissipativeModel(lattice=LatticeSpec(), jump_terms=ferro_pump_jumps(), rate=0.7)
    assert model.folded_jump_terms() == model.jump_terms


def test_rate_and_z_have_upper_bounds():
    # past them the bond fit's squares overflow, or numpy cannot take sqrt(z - 1)
    assert LatticeSpec(z=MAX_Z).z == MAX_Z
    check_rate(MAX_RATE)
    with pytest.raises(ValueError, match="at most"):
        LatticeSpec(z=MAX_Z + 1)
    with pytest.raises(ValueError, match="at most"):
        check_rate(np.nextafter(MAX_RATE, np.inf))


def test_swap_closure():
    """Both jump sets map onto themselves under swapping the two sites.

    This is what makes the bond orientation irrelevant in the bond
    derivative: sum_c D(c) is invariant under conjugating every c by SWAP.
    """
    swap = np.eye(4)[[0, 2, 1, 3]]
    for jumps in (ferro_pump_jumps(), anisotropy_jumps(0.37)):
        mats = [t.matrix for t in jumps]
        for m in mats:
            swapped = swap @ m @ swap
            overlaps = [abs(np.vdot(swapped, other)) for other in mats]
            norms = [np.linalg.norm(other) ** 2 for other in mats]
            # swapped operator coincides with exactly one set member
            assert any(
                abs(o - n) < 1e-12 and abs(o) > 1e-12
                for o, n in zip(overlaps, norms)
            )
