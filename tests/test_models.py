from dataclasses import fields, replace

import numpy as np
import pytest

from dissipative_spins.liouville import ring_liouvillian
from dissipative_spins.models import (
    MAX_RATE,
    MAX_Z,
    DissipativeModel,
    LatticeSpec,
    anisotropy_jumps,
    check_rate,
    dissipative_heisenberg,
    ferro_pump_jumps,
)
from dissipative_spins.operators import bell_state
from dissipative_spins.variational import CompiledBond


def test_lattice_spec_validation():
    default = LatticeSpec()
    assert default.z == 6 and default.bipartite and default.renormalize
    LatticeSpec(z=2)
    with pytest.raises(ValueError):
        LatticeSpec(z=1)


@pytest.mark.parametrize("z", [2, 6, MAX_Z, np.int64(6), np.int32(3), np.uint8(4)], ids=repr)
def test_lattice_spec_accepts_integer_z(z):
    assert LatticeSpec(z=z).z == z


@pytest.mark.parametrize("z", [2.5, 6.0, np.float64(6.0), "6", None, 6 + 0j], ids=repr)
def test_lattice_spec_refuses_non_integer_z(z):
    # a float z of integral value is refused too: z counts neighbors
    with pytest.raises(ValueError, match="must be an integer"):
        LatticeSpec(z=z)


@pytest.mark.parametrize("shape", [(8, 8), (3, 3), (2, 4)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("jump_set", ["jump_terms", "rate_jump_terms"])
def test_model_refuses_a_jump_of_any_other_shape(jump_set, shape):
    # a jump's shape is its arity: 2x2 on one site, 4x4 on two
    jumps = ferro_pump_jumps() + [np.zeros(shape, dtype=complex)]
    with pytest.raises(ValueError, match=rf"{jump_set}\[3\] has shape \({shape[0]}, {shape[1]}\)"):
        DissipativeModel(lattice=LatticeSpec(), **{jump_set: jumps}, rate=0.5)
    DissipativeModel(lattice=LatticeSpec(), **{jump_set: jumps[:3] + [np.eye(2)]}, rate=0.5)


@pytest.mark.parametrize("shape", [(8, 8), (3, 3)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("jump_set", ["jump_terms", "rate_jump_terms"])
def test_a_jump_of_another_shape_added_later_is_refused_not_dropped(jump_set, shape):
    # a set is a tuple: nothing is appended to a model, and the new model
    # that adds the jump meets the shape check, naming the set and the jump
    model = dissipative_heisenberg(0.7, LatticeSpec())
    held = getattr(model, jump_set)
    with pytest.raises(AttributeError):
        held.append(np.eye(*shape))
    with pytest.raises(ValueError, match=rf"{jump_set}\[{len(held)}\] has shape"):
        replace(model, **{jump_set: held + (np.eye(*shape),)})
    assert getattr(model, jump_set) is held


@pytest.mark.parametrize("jump_set", ["jump_terms", "rate_jump_terms"])
def test_a_model_is_a_value(jump_set):
    # the model holds read-only copies: writing into one of its matrices
    # raises, and the caller's arrays, changed afterwards, do not reach it
    source = [c.copy() for c in anisotropy_jumps()]
    model = DissipativeModel(lattice=LatticeSpec(), **{jump_set: source}, rate=0.5)
    held = getattr(model, jump_set)
    assert isinstance(held, tuple)
    with pytest.raises(ValueError, match="read-only"):
        held[0][0, 0] = 1.0
    for c in source:
        c[...] = np.nan
    source.append(np.eye(8))
    assert len(held) == 4
    for got, ref in zip(held, anisotropy_jumps(), strict=True):
        assert np.array_equal(got, ref)
    ring = ring_liouvillian(model, 3)
    assert np.isfinite(ring.jumps).all()




def test_ferro_pump_set():
    jumps = ferro_pump_jumps()
    assert len(jumps) == 3
    minus = bell_state("-")
    uu = np.zeros(4)
    uu[0] = 1.0
    # every ferro jump drains the singlet; none touches aligned states
    for c in jumps:
        assert c.shape == (4, 4)
        assert np.linalg.norm(c @ uu) < 1e-15
        assert np.linalg.norm(c @ minus) > 0.99


def test_anisotropy_jumps_are_at_unit_rate():
    # each is one |a><b| of the bond basis: the model's rate carries lambda
    jumps = anisotropy_jumps()
    assert len(jumps) == 4
    for c in jumps:
        assert c.shape == (4, 4) and np.array_equal(c[c != 0], [1.0])


def test_anisotropy_targets_aligned_states():
    # rate-lambda channels depolarize |uu> and |dd> into ud / du
    dd = np.zeros(4)
    dd[3] = 1.0
    hits = sum(np.linalg.norm(c @ dd) > 0 for c in anisotropy_jumps())
    assert hits == 2


def test_heisenberg_renormalization():
    plain = dissipative_heisenberg(1.0, LatticeSpec(z=5, renormalize=False))
    renorm = dissipative_heisenberg(1.0, LatticeSpec(z=5, renormalize=True))
    scale = 1 / np.sqrt(5 - 1)
    for a, b in zip(renorm.folded_jump_terms(), plain.folded_jump_terms(), strict=True):
        np.testing.assert_allclose(a, scale * b)


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
    for c in silent.folded_jump_terms()[3:]:
        assert np.abs(c).max() == 0.0


@pytest.mark.parametrize("renormalize", [True, False])
@pytest.mark.parametrize("z", [2, 4, 6])
def test_folded_jumps_are_the_rate_folded_matrices(z, renormalize):
    # the folded list is the one the model held with lambda in its matrices:
    # the pumps, then sqrt(lambda) times each anisotropy jump, all scaled
    scale = 1 / np.sqrt(z - 1) if renormalize else 1.0
    for lam in np.linspace(0.0, 2.5, 11):
        model = dissipative_heisenberg(lam, LatticeSpec(z=z, renormalize=renormalize))
        reference = ferro_pump_jumps() + [np.sqrt(lam) * c for c in anisotropy_jumps()]
        for got, ref in zip(model.folded_jump_terms(), reference, strict=True):
            np.testing.assert_allclose(got, scale * ref, rtol=0, atol=1e-15)
        # and bit for bit sqrt(rate) times the rate set the model holds
        for got, c in zip(model.folded_jump_terms()[3:], model.rate_jump_terms, strict=True):
            assert np.array_equal((np.sqrt(lam) * c).view(np.uint64), got.view(np.uint64))


@pytest.mark.parametrize("renormalize", [True, False])
@pytest.mark.parametrize("z", [2, 4, 6])
def test_heisenberg_jumps_are_the_unit_matrices_at_their_scale_bitwise(z, renormalize):
    # every matrix holds the bits of the public unit-rate sets at the
    # lattice's scale, signed zeros included, and no two builds share one
    unit = ferro_pump_jumps() + anisotropy_jumps()
    scale = 1 / np.sqrt(z - 1)
    first, second = (dissipative_heisenberg(0.3, LatticeSpec(z=z, renormalize=renormalize))
                     for _ in range(2))
    for got, again, ref in zip(first.jump_terms + first.rate_jump_terms,
                               second.jump_terms + second.rate_jump_terms, unit, strict=True):
        want = scale * ref if renormalize else ref
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert not np.shares_memory(got, again)


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
    for mats in (ferro_pump_jumps(), anisotropy_jumps()):
        for m in mats:
            swapped = swap @ m @ swap
            overlaps = [abs(np.vdot(swapped, other)) for other in mats]
            norms = [np.linalg.norm(other) ** 2 for other in mats]
            # swapped operator coincides with exactly one set member
            assert any(
                abs(o - n) < 1e-12 and abs(o) > 1e-12
                for o, n in zip(overlaps, norms)
            )
