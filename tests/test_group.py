import random
from fractions import Fraction

import pytest

from cayleycert.errors import DegenerateError, StructureError
from cayleycert.field import QuadField, random_rational
from cayleycert.group import (ActionGen, GroupSpec, apply_action,
                              compose_actions, cycle, identity_perm, perm_sign,
                              same_action, st_tw_embed, transposition,
                              twist_action)

F = QuadField(-3)
ZETA = F.zeta()


def test_cycle_moves_coordinates_backwards():
    # sigma = (1 2 3): new_i = x at sigma^-1(i)
    g = ActionGen(perm=cycle(3, (0, 1, 2)))
    assert apply_action(g, ("a", "b", "c")) == ("c", "a", "b")


def test_inversion_twist():
    g = ActionGen(perm=identity_perm(3), twist="invert")
    out = apply_action(g, (Fraction(2), Fraction(3), Fraction(1, 6)))
    assert out == (Fraction(1, 2), Fraction(1, 3), Fraction(6))


def test_twisted_galois_fixed_point():
    g = ActionGen(perm=identity_perm(3), twist="invert", conjugate=True)
    assert apply_action(g, (ZETA, ZETA, ZETA)) == (ZETA, ZETA, ZETA)


def test_negate_twist():
    # negation is the scale -1
    g = ActionGen(perm=identity_perm(2), scale=(-1, -1))
    assert apply_action(g, (Fraction(1), Fraction(-2))) == (Fraction(-1), Fraction(2))


def test_scale_applies_after_permutation():
    g = ActionGen(perm=transposition(2, 0, 1), scale=(ZETA, ZETA ** 2))
    out = apply_action(g, (F.of(1), F.of(2)))
    assert out == (2 * ZETA, ZETA ** 2)


def test_inverting_zero_coordinate_is_degenerate():
    g = ActionGen(perm=identity_perm(2), twist="invert")
    with pytest.raises(DegenerateError):
        apply_action(g, (Fraction(0), Fraction(1)))


def test_arity_mismatch():
    g = ActionGen(perm=identity_perm(3))
    with pytest.raises(StructureError):
        apply_action(g, (1, 2))


@pytest.mark.parametrize("perm", [(0, 0, 1), (0, -1, 1), (0, 3, 1), (1, 2)])
def test_perm_must_be_a_permutation(perm):
    # unchecked, (0, 0, 1) acts as a 3-cycle, (0, -1, 1) as a transposition
    # and (0, 3, 1) raises IndexError at its first use
    with pytest.raises(StructureError, match="is not a permutation of 0.."):
        ActionGen(perm=perm)


def test_compose_matches_sequential_application():
    rng = random.Random(17)
    gens = [
        ActionGen(perm=transposition(3, 0, 1), twist="invert",
                  scale=(ZETA, F.one, ZETA ** 2)),
        ActionGen(perm=cycle(3, (0, 1, 2)), twist="invert", conjugate=True),
        ActionGen(perm=identity_perm(3), twist="invert", conjugate=True),
        ActionGen(perm=cycle(3, (0, 2, 1)), scale=(ZETA ** 2, ZETA, F.one)),
        ActionGen(perm=transposition(3, 1, 2), conjugate=True, scale=(-1, -1, -1)),
    ]
    for a in gens:
        for b in gens:
            ab = compose_actions(b, a)
            for _ in range(10):
                t = tuple(F.of(random_rational(rng, nonzero=True), random_rational(rng))
                          for _ in range(3))
                assert apply_action(b, apply_action(a, t)) == apply_action(ab, t)


def test_compose_inverts_integer_scales_exactly():
    from fractions import Fraction
    inner = ActionGen(perm=identity_perm(2), scale=(2, 3))
    outer = ActionGen(perm=identity_perm(2), twist="invert")
    comp = compose_actions(outer, inner)
    pt = (Fraction(5), Fraction(7))
    assert apply_action(outer, apply_action(inner, pt)) == apply_action(comp, pt)
    assert comp.scale == (Fraction(1, 2), Fraction(1, 3))


def test_semilinear_generator_squares_to_identity():
    g = ActionGen(perm=identity_perm(3), twist="invert", conjugate=True)
    assert same_action(compose_actions(g, g), ActionGen(perm=identity_perm(3)))


def test_group_word_application():
    spec = GroupSpec(
        name="S3",
        generators=(("s", ActionGen(perm=transposition(3, 0, 1))),
                    ("c", ActionGen(perm=cycle(3, (0, 1, 2))))),
        relations=(("s", "s"), ("c", "c", "c"), ("c", "s", "c", "s")))
    pt = ("a", "b", "c")
    for word in spec.relations:
        assert spec.apply_word(word, pt) == pt
    collapsed = spec.word_action(("c", "c", "c"))
    assert same_action(collapsed, ActionGen(perm=identity_perm(3)))


def test_twist_action_with_eps_gives_conjugate_inverse():
    base = GroupSpec(
        name="S2xGamma",
        generators=(("eps", ActionGen(perm=identity_perm(3), twist="invert")),
                    ("gamma", ActionGen(perm=identity_perm(3), conjugate=True))))
    twisted = twist_action(base, {"gamma": ("eps",)})
    got = twisted.action("gamma")
    want = ActionGen(perm=identity_perm(3), twist="invert", conjugate=True)
    assert got == want


def test_trivial_cocycle_keeps_base():
    base = GroupSpec(
        name="G",
        generators=(("eps", ActionGen(perm=identity_perm(2), twist="invert")),
                    ("gamma", ActionGen(perm=identity_perm(2), conjugate=True))))
    same = twist_action(base, {"gamma": ()})
    assert same.table() == base.table()


def test_cocycle_value_must_square_to_identity():
    base = GroupSpec(
        name="G",
        generators=(("c", ActionGen(perm=cycle(3, (0, 1, 2)))),
                    ("gamma", ActionGen(perm=identity_perm(3), conjugate=True))))
    with pytest.raises(StructureError):
        twist_action(base, {"gamma": ("c",)})


def test_cocycle_into_galois_rejected():
    base = GroupSpec(
        name="G",
        generators=(("gamma", ActionGen(perm=identity_perm(2), conjugate=True)),))
    with pytest.raises(StructureError):
        twist_action(base, {"gamma": ("gamma",)})


def test_st_embedding_is_trivial_on_second_factor():
    for p in (transposition(3, 0, 1), cycle(3, (0, 1, 2)), identity_perm(3)):
        assert st_tw_embed(p, "St") == (p, 0)


def test_tw_embedding_tracks_sign():
    t = transposition(3, 0, 1)
    c = cycle(3, (0, 1, 2))
    assert st_tw_embed(t, "Tw") == (t, 1)
    assert st_tw_embed(c, "Tw") == (c, 0)
    assert perm_sign(t) == -1 and perm_sign(c) == 1


def test_describe_mentions_parts():
    g = ActionGen(perm=transposition(2, 0, 1), twist="invert", conjugate=True,
                  scale=(ZETA, F.one))
    text = g.describe()
    assert "invert" in text and "conj" in text and "scale" in text
