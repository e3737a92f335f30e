import random
from fractions import Fraction

import pytest

from cayleycert.errors import DegenerateError, StructureError, TermBudgetError
from cayleycert.field import QuadField
from cayleycert.poly import (Poly, RatFunc, chart_restrict, ratfunc_compose,
                             ratfunc_equal, term_budget)

F = QuadField(-3)
ZETA = F.zeta()
V3 = ("x1", "x2", "x3")


def rf(name):
    return RatFunc.variable(V3, name)


def test_eval_cube_roots_sum_to_zero():
    p = sum((Poly.variable(V3, v) for v in V3), Poly.zero(V3))
    assert p.eval((F.one, ZETA, ZETA ** 2)) == 0


def test_eval_constant():
    p = Poly.const(V3, Fraction(7))
    assert p.eval((Fraction(1), Fraction(-2), Fraction(9))) == 7


def test_rank_one_outer_product_satisfies_quadric():
    vs = ("a11", "a12", "a21", "a22")
    a = {n: Poly.variable(vs, n) for n in vs}
    q = a["a11"] * a["a22"] - a["a12"] * a["a21"]
    rng = random.Random(3)
    for _ in range(20):
        y1, y2, z1, z2 = (Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(4))
        assert q.eval((y1 * z1, y1 * z2, y2 * z1, y2 * z2)) == 0


def test_eval_is_ring_homomorphism():
    rng = random.Random(11)
    p = Poly.variable(V3, "x1") * Poly.variable(V3, "x2") - 3
    q = Poly.variable(V3, "x3") ** 2 + Poly.variable(V3, "x1")
    for _ in range(10):
        pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in V3)
        assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)
        assert (p + q).eval(pt) == p.eval(pt) + q.eval(pt)


def test_eval_arity_mismatch():
    with pytest.raises(StructureError):
        Poly.variable(V3, "x1").eval((Fraction(1),))


def test_ratfunc_equal_x_over_x():
    assert ratfunc_equal(rf("x1") / rf("x1"), RatFunc.const(V3, Fraction(1)))


def test_ratfunc_equal_cancellation():
    f = (rf("x1") ** 2 - 1) / (rf("x1") - 1)
    g = rf("x1") + 1
    assert ratfunc_equal(f, g)


def test_ratfunc_unequal():
    f = (rf("x1") + rf("x2")) / rf("x2")
    assert not ratfunc_equal(f, rf("x1"))


def test_compose_identity():
    f = (rf("x1") + rf("x2") ** 2) / rf("x3")
    ident = RatFunc.variables(V3)
    assert ratfunc_equal(ratfunc_compose(f, ident), f)


def test_compose_inversion_symmetry():
    f = rf("x1") + 1 / rf("x1")
    swapped = ratfunc_compose(f, (1 / rf("x1"), rf("x2"), rf("x3")))
    assert ratfunc_equal(swapped, f)
    # and the cleared form is (x^2 + 1)/x
    expected = (rf("x1") ** 2 + 1) / rf("x1")
    assert ratfunc_equal(swapped, expected)


def test_compose_associates():
    rng = random.Random(5)
    f = (rf("x1") * rf("x2") - 1) / (rf("x3") + 2)
    s = (rf("x2") + 1, rf("x1") * rf("x3"), rf("x1"))
    t = (1 / rf("x1"), rf("x3"), rf("x2") - rf("x1"))
    lhs = ratfunc_compose(ratfunc_compose(f, s), t)
    rhs = ratfunc_compose(f, tuple(ratfunc_compose(c, t) for c in s))
    assert ratfunc_equal(lhs, rhs)


def test_compose_degenerate_denominator():
    f = RatFunc.const(("y",), Fraction(1)) / RatFunc.variable(("y",), "y")
    zero = RatFunc.const(V3, Fraction(0))
    with pytest.raises(DegenerateError):
        ratfunc_compose(f, (zero,))


def test_chart_restrict_torus_relation_itself():
    f = rf("x1") * rf("x2") * rf("x3")
    r = chart_restrict(f, "torus-product", "x3")
    assert ratfunc_equal(r, RatFunc.const(("x1", "x2"), Fraction(1)))


def test_chart_restrict_linear_sum_itself():
    f = rf("x1") + rf("x2") + rf("x3")
    r = chart_restrict(f, "linear-sum", "x3")
    assert r.is_zero()


def test_chart_restrict_torus_ratio():
    r = chart_restrict(rf("x2") / rf("x3"), "torus-product", "x3")
    x1 = RatFunc.variable(("x1", "x2"), "x1")
    x2 = RatFunc.variable(("x1", "x2"), "x2")
    assert ratfunc_equal(r, x1 * x2 ** 2)


def test_chart_restrict_general_exponents():
    vs = ("a11", "a12", "a21", "a22")
    a21 = RatFunc.variable(vs, "a21")
    r = chart_restrict(a21, "torus-product", "a21",
                       variables=vs, exponents=(1, -1, -1, 1))
    out = ("a11", "a12", "a22")
    expect = (RatFunc.variable(out, "a11") * RatFunc.variable(out, "a22")
              / RatFunc.variable(out, "a12"))
    assert ratfunc_equal(r, expect)


def test_chart_restrict_rejects_unknown_relation():
    with pytest.raises(StructureError):
        chart_restrict(rf("x1"), "quadratic", "x3")


def test_chart_restrict_unsolvable_exponent():
    with pytest.raises(StructureError):
        chart_restrict(rf("x1"), "torus-product", "x3",
                       variables=V3, exponents=(1, 1, 2))


def test_canonical_rendering_is_sorted_and_stable():
    p = (Poly.variable(V3, "x3") + Poly.variable(V3, "x1") ** 2
         + Poly.variable(V3, "x2") * Poly.variable(V3, "x1"))
    assert str(p) == "x1^2 + x1*x2 + x3"
    q = Poly.variable(V3, "x1") * ZETA - 1
    assert str(q) == "(-1/2+1/2*sqrt(-3))*x1 - 1"


def test_structural_equality_is_mathematical():
    a = Poly.variable(V3, "x1") + Poly.variable(V3, "x2")
    b = Poly.variable(V3, "x2") + Poly.variable(V3, "x1")
    assert a == b and a.terms == b.terms


def test_equivalence_compatible_with_arithmetic():
    rng = random.Random(13)
    f = (rf("x1") ** 2 - 1) / (rf("x1") - 1)
    g = rf("x1") + 1
    h = (rf("x2") + 3) / rf("x3")
    assert ratfunc_equal(f + h, g + h)
    assert ratfunc_equal(f * h, g * h)


def test_term_budget_guard():
    vs = tuple(f"v{i}" for i in range(6))
    p = sum((Poly.variable(vs, v) for v in vs), Poly.zero(vs)) + 1
    with term_budget(10), pytest.raises(TermBudgetError):
        q = p
        for _ in range(6):
            q = q * p
    # the budget ends with its block
    assert len((p * p).terms) > 10


def test_term_budget_must_be_positive():
    with pytest.raises(StructureError):
        with term_budget(0):
            pass


def test_zero_denominator_rejected():
    with pytest.raises(DegenerateError):
        RatFunc(Poly.variable(V3, "x1"), Poly.zero(V3))


def test_monomial_normalization_keeps_value():
    f = (rf("x1") * rf("x2")) / (rf("x1") * rf("x3"))
    g = rf("x2") / rf("x3")
    assert f.num == g.num and f.den == g.den


def test_constant_ratfunc_compares_with_quadext():
    c = RatFunc.const(V3, ZETA)
    assert c == ZETA and ZETA == c
    assert c != ZETA ** 2 and ZETA ** 2 != c
    assert (rf("x1") * ZETA) / rf("x1") == ZETA
