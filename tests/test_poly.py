import contextlib
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cayleycert.errors import (DegenerateError, ExponentOverflowError, FieldMismatchError,
                               StructureError, TermBudgetError)
from cayleycert.field import QuadExt, QuadField
from cayleycert import poly as poly_module, su3
from cayleycert.poly import (ComposePlan, EvalPlan, Poly, RatFunc, Relation, _cross, _times,
                             _wrap, chart_restrict, ratfunc_compose, ratfunc_equal, term_budget)
from cayleycert.ratmap import Block, EquivMap, VarietySpec, map_of_point

F = QuadField(-3)
ZETA = F.zeta()
V3 = ("x1", "x2", "x3")


def rf(name):
    return RatFunc.variable(V3, name)


def test_eval_cube_roots_sum_to_zero():
    p = sum((Poly.variable(V3, v) for v in V3), Poly(V3, {}))
    assert RatFunc(p).eval((F.one, ZETA, ZETA ** 2)) == 0


def test_eval_constant():
    p = Poly.const(V3, Fraction(7))
    assert RatFunc(p).eval((Fraction(1), Fraction(-2), Fraction(9))) == 7


def test_rank_one_outer_product_satisfies_quadric():
    vs = ("a11", "a12", "a21", "a22")
    a = {n: Poly.variable(vs, n) for n in vs}
    q = a["a11"] * a["a22"] - a["a12"] * a["a21"]
    rng = random.Random(3)
    for _ in range(20):
        y1, y2, z1, z2 = (Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(4))
        assert RatFunc(q).eval((y1 * z1, y1 * z2, y2 * z1, y2 * z2)) == 0


def test_eval_is_ring_homomorphism():
    rng = random.Random(11)
    p = Poly.variable(V3, "x1") * Poly.variable(V3, "x2") - 3
    q = Poly.variable(V3, "x3") ** 2 + Poly.variable(V3, "x1")
    for _ in range(10):
        pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in V3)
        at = EvalPlan(map(RatFunc, (p, q, p * q, p + q))).eval(pt)
        assert at[2] == at[0] * at[1] and at[3] == at[0] + at[1]


def test_eval_arity_mismatch():
    with pytest.raises(StructureError):
        rf("x1").eval((Fraction(1),))


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


@pytest.mark.parametrize("args, message", [
    (("torus-product", ("a", "b", "c"), "c", (1, 1, 2)),
     "cannot solve for 'c': exponent 2 is not unit"),
    (("linear-sum", ("a", "b", "c"), "c", (1, 1, 1)),
     "linear-sum relation takes no exponents"),
    (("torus-product", ("a", "b"), "c"), "'c' does not occur in the relation"),
    (("torus-product", ("a", "b"), "b", (1,)),
     "exponent vector does not match relation variables"),
    (("quadratic", ("a", "b"), "b"), "unsupported relation form 'quadratic'"),
])
def test_relation_checks_every_form_on_construction(args, message):
    with pytest.raises(StructureError, match=re.escape(message)):
        Relation(*args)


def test_relation_solves_in_any_ring():
    rel = Relation("torus-product", ("a", "b", "c"), "b", exponents=(2, -1, 1))
    values = {"a": Fraction(2, 3), "c": Fraction(-5)}
    assert rel.solve(values, Fraction(1)) == Fraction(-20, 9)
    a, c = RatFunc.variables(("a", "c"))
    one = RatFunc.const(("a", "c"), Fraction(1))
    assert ratfunc_equal(rel.solve({"a": a, "c": c}, one), a ** 2 * c)
    lin = Relation("linear-sum", ("a", "b", "c"), "a")
    assert lin.solve({"b": Fraction(1, 2), "c": Fraction(3)}, Fraction(1)) == Fraction(-7, 2)


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
    p = sum((Poly.variable(vs, v) for v in vs), Poly(vs, {})) + 1
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
        RatFunc(Poly.variable(V3, "x1"), Poly(V3, {}))


def test_monomial_normalization_keeps_value():
    f = (rf("x1") * rf("x2")) / (rf("x1") * rf("x3"))
    g = rf("x2") / rf("x3")
    assert f.num == g.num and f.den == g.den


def test_constant_ratfunc_compares_with_quadext():
    c = RatFunc.const(V3, ZETA)
    assert c == ZETA and ZETA == c
    assert c != ZETA ** 2 and ZETA ** 2 != c
    assert (rf("x1") * ZETA) / rf("x1") == ZETA


def test_int_denominator_normalises_exactly():
    f = RatFunc(Poly.const(V3, 1), Poly.const(V3, 3))
    assert dict(f.num.items()) == {(0, 0, 0): Fraction(1, 3)}
    assert type(f.num.items()[0][1]) is Fraction and f.den == Poly.const(V3, 1)
    assert str(f) == "1/3"
    g = RatFunc(Poly(V3, {(1, 0, 0): 4}), Poly(V3, {(0, 1, 0): 6, (0, 0, 0): -2}))
    assert str(g) == "(2/3*x1)/(x2 - 1/3)"


def test_term_budget_points():
    x, y = (Poly.variable(("x", "y"), v) for v in ("x", "y"))
    four, five = (x + 1) ** 3, (x + y + 1) ** 2 - y ** 2
    assert (len(four.terms), len(five.terms)) == (4, 5)
    with term_budget(1), pytest.raises(TermBudgetError,
                                       match="product of 4 x 5 terms exceeds budget 1"):
        four * five
    with term_budget(2):
        assert (x + 1) * (x - 1) == x ** 2 - 1      # zeros are not counted
        with pytest.raises(TermBudgetError, match="^4 terms exceed budget 2$"):
            (x + 1) * (y + 1)


def test_negative_exponent_is_rejected():
    # unchecked, x^-1 would print as 1 and evaluate as the last cached power
    with pytest.raises(StructureError, match=re.escape(
            "exponent vector (-1, 0) has an exponent that is not a non-negative int")):
        Poly(("x", "y"), {(-1, 0): 1, (2, 0): 3})


@pytest.mark.parametrize("exps", [(1.5,), (2.0,), (Fraction(1),), (True,)])
def test_non_integer_exponent_is_rejected(exps):
    with pytest.raises(StructureError, match="not a non-negative int"):
        Poly(("x",), {exps: 1})


@pytest.mark.parametrize("c", [0.5, 0.0, True, "1", None, complex(1, 1)])
def test_coefficient_that_is_no_scalar_is_rejected(c):
    # unchecked, 0.5 built and failed at the first product or evaluation
    with pytest.raises(StructureError, match=re.escape(
            f"coefficient {c!r} of (1,) is not an int, Fraction or QuadExt")):
        Poly(("x",), {(1,): c})


@pytest.mark.parametrize("c", [0.5, 0.0, "1", None])
def test_constant_that_is_no_scalar_is_rejected(c):
    # unchecked, Poly.const(vars, 0.5) built and its product with x raised
    # AttributeError from the scalar kernel
    with pytest.raises(StructureError, match=re.escape(
            f"coefficient {c!r} of (0,) is not an int, Fraction or QuadExt")):
        Poly.const(("x",), c)


def test_a_constant_still_compares_with_a_bool():
    one, zero = Poly.const(("x",), 1), Poly(("x",), {})
    assert one == True and zero == False and one != False
    assert Poly.const(("x",), True) == one


def test_a_constant_hashes_as_the_scalar_it_equals():
    three, zero = Poly.const(("x",), 3), Poly(("x",), {})
    assert three == 3 and 3 in {three} and three in {3}
    assert zero == 0 and 0 in {zero} and zero in {0}
    half = Poly.const(("x",), QuadExt(Fraction(1, 2), 0, -3))
    assert half == Fraction(1, 2) and Fraction(1, 2) in {half}
    # equal non-constant Polys still hash alike, whatever the coefficient type
    assert len({Poly(("x",), {(1,): 2, (0,): 1}), Poly(("x",), {(1,): Fraction(2), (0,): 1})}) == 1


def exponent_tuple_variable(variables, name):
    """A coordinate function through the validating constructor."""
    variables = tuple(variables)
    return Poly(variables, {tuple(int(v == name) for v in variables): Fraction(1)})


@pytest.mark.parametrize("n", range(1, 6))
def test_variable_is_the_exponent_tuple_construction(n):
    names = tuple("xyzuv"[:n])
    for name in names:
        got, want = Poly.variable(names, name), exponent_tuple_variable(names, name)
        assert got == want and got.items() == want.items()
        assert [type(c) for _, c in got.items()] == [Fraction]
        assert hash(got) == hash(want) and str(got) == name
        assert got.derivative(name) == 1
    with pytest.raises(StructureError, match=re.escape(f"unknown variable 'w' in {names}")):
        Poly.variable(names, "w")


def test_variable_refuses_a_repeated_name():
    with pytest.raises(StructureError, match=re.escape("variable 'x' repeats in ('x', 'y', 'x')")):
        Poly.variable(("x", "y", "x"), "x")
    assert Poly.variable(("x", "y", "x"), "y") == exponent_tuple_variable(("x", "y", "x"), "y")


def test_generic_entries_refuse_a_repeated_name_and_an_odd_pairing():
    with pytest.raises(StructureError, match=re.escape("variable 'x' repeats in ('x', 'y', 'x')")):
        Poly.generic(("x", "y", "x"))
    with pytest.raises(StructureError, match="odd count"):
        Poly.generic(("x", "y", "z"), -3)


def test_derivative_of_an_unknown_variable_names_it():
    p = Poly(("x", "y"), {(2, 1): 3, (0, 3): 1})
    assert str(p.derivative("y")) == "3*x^2 + 3*y^2"
    assert str(p.derivative("x")) == "6*x*y"
    with pytest.raises(StructureError, match=re.escape("unknown variable 'z' in ('x', 'y')")):
        p.derivative("z")


def test_degree_at_the_exponent_width_works_and_past_it_raises():
    x, y = Poly.variable(("x", "y"), "x"), Poly.variable(("x", "y"), "y")
    top = x ** 65535
    assert top.items() == [((65535, 0), Fraction(1))]
    assert top == Poly(("x", "y"), {(65535, 0): 1})
    assert str(x ** 30000 * y ** 35535) == "x^30000*y^35535"
    for big in (lambda: top * x, lambda: top * y, lambda: x ** 65536,
                lambda: (top + 1) * (y + 1),
                # the key of y^65535 leads on total degree, not x's field
                lambda: (x ** 60000 + y ** 65535) * x):
        with pytest.raises(ExponentOverflowError, match="degree 65536 exceeds the 16-bit"):
            big()
    for exps in ((65536, 0), (40000, 30000)):
        with pytest.raises(ExponentOverflowError):
            Poly(("x", "y"), {exps: 1})


def test_compose_at_the_exponent_width_works_and_past_it_raises():
    x, y = RatFunc.variables(("x", "y"))
    t = Poly.variable(("t",), "t")
    at = (RatFunc(t ** 40000), RatFunc(t ** 25535))
    assert ratfunc_compose(x * y, at) == RatFunc(t ** 65535)
    with pytest.raises(ExponentOverflowError, match="degree 65536"):
        ratfunc_compose(x * y, (at[0], RatFunc(t ** 25536)))
    with pytest.raises(ExponentOverflowError):
        ratfunc_compose(y / x, (RatFunc(t ** 2), 1 / RatFunc(t ** 65535)))
    # a one-term row folded after a many-term row overflows at the product
    # the arithmetic forms, with its message
    at = (RatFunc(t ** 40000 + 1), RatFunc(t ** 25535))
    assert ratfunc_compose(x * y, at) == RatFunc(t ** 65535 + t ** 25535)
    at = (at[0], RatFunc(t ** 25536))
    with pytest.raises(ExponentOverflowError) as got:
        ratfunc_compose(x * y, at)
    with pytest.raises(ExponentOverflowError) as want:
        reference_compose(x * y, at)
    assert str(got.value) == str(want.value) == \
        "product of degree 65536 exceeds the 16-bit exponent field"


# -- differential oracle for the product kernel, composition and charts ------
#
# Products are checked against the pairwise scalar loop written here (values,
# monomial order and coefficient types); composition and chart restriction
# against sympy's rational function field over QQ<sqrt(d)>, whose arithmetic
# cancels by gcd.

DISCRIMINANTS = (-3, -1, 2, 5)
FIELDS = (None,) + DISCRIMINANTS          # None: coefficients in Q
XYZ = ("x", "y", "z")
ST = ("s", "t")

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def coefficients(d):
    """ints and Fractions, and for a field also rational and irrational QuadExts."""
    if d is None:
        return st.one_of(st.integers(-6, 6), rationals)
    return st.one_of(st.integers(-6, 6), rationals,
                     st.builds(lambda a, b: QuadExt(a, b, d), rationals, rationals))


def polys(d, variables, max_terms, top, min_terms=0):
    exps = st.tuples(*[st.integers(0, top) for _ in variables])
    return st.dictionaries(exps, coefficients(d), min_size=min_terms,
                           max_size=max_terms).map(lambda terms: Poly(variables, terms))


def nonzero_polys(d, variables, max_terms, top):
    return polys(d, variables, max_terms, top, 1).filter(lambda p: not p.is_zero())


def ratfuncs(d, variables, max_terms, top):
    return st.builds(RatFunc, polys(d, variables, max_terms, top),
                     nonzero_polys(d, variables, max(1, max_terms - 1), top))


def reference_mul(p, q):
    """The pairwise product: one scalar multiply and add per term pair."""
    terms = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc = terms.get(e, 0) + c1 * c2
            if acc:
                terms[e] = acc
            else:
                terms.pop(e, None)
    return terms


def expected_domain(*ps):
    """(type, d) every product coefficient must have: QuadExt in the field
    of the irrational coefficients if any is a QuadExt, int if all are
    ints, else Fraction."""
    cs = [c for p in ps for c in p.terms.values()]
    quads = [c for c in cs if isinstance(c, QuadExt)]
    if quads:
        irrational = {c.d for c in quads if c.b}
        return QuadExt, min(irrational or {c.d for c in quads})
    return (int if all(type(c) is int for c in cs) else Fraction), None


def graded_order(terms):
    return sorted(terms, key=lambda e: (-sum(e), [-x for x in e]))


def assert_product(p, q):
    got = p * q
    want = reference_mul(p, q)
    assert dict(got.items()) == want
    assert [e for e, _ in got.items()] == graded_order(want)
    kind, d = expected_domain(p, q)
    for c in got.terms.values():
        assert c and type(c) is kind
        if kind is QuadExt:
            assert c.d == d
    return got


@st.composite
def factor_pairs(draw):
    d = draw(st.sampled_from(FIELDS))
    return (draw(polys(d, XYZ, 6, 3)), draw(polys(d, XYZ, 6, 3)))


def conjugate_pair(c):
    """(x + c, x - c): their product cancels its x terms."""
    return (Poly(XYZ, {(1, 0, 0): 1, (0, 0, 0): c}),
            Poly(XYZ, {(1, 0, 0): 1, (0, 0, 0): -c}))


@settings(max_examples=150, deadline=None)
@given(factor_pairs())
@example(conjugate_pair(QuadExt(0, 1, -3)))
@example(conjugate_pair(Fraction(1, 2)))
def test_mul_matches_pairwise_reference(pq):
    p, q = pq
    got = assert_product(p, q)
    assert got == q * p
    assert str(got) == str(Poly(XYZ, reference_mul(p, q)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DISCRIMINANTS), st.sampled_from(DISCRIMINANTS),
       polys(None, XYZ, 4, 2), polys(None, XYZ, 4, 2))
def test_mul_across_fields_follows_the_irrational_factor(d1, d2, p, q):
    # rational QuadExt coefficients of one field times any of another
    ratq = Poly(XYZ, {e: QuadExt(c, 0, d1) for e, c in p.items()})
    irrq = Poly(XYZ, {e: QuadExt(c, c, d2) for e, c in q.items()})
    assert_product(ratq, irrq)
    assert_product(irrq, ratq)
    assert_product(ratq, q)


def test_int_product_keeps_int_coefficients():
    p = Poly(("x", "y"), {(1, 0): 3, (0, 2): -2, (0, 0): 5})
    q = Poly(("x", "y"), {(0, 1): 7, (1, 0): 1})
    pq = p * q
    assert dict(pq.items()) == {(2, 0): 3, (1, 1): 21, (1, 2): -2, (0, 3): -14,
                                (1, 0): 5, (0, 1): 35}
    assert all(type(c) is int for c in pq.terms.values())
    assert all(type(c) is int for c in (p * p * p * q).terms.values())
    # one Fraction coefficient anywhere turns the whole product rational
    x = Poly.variable(("x", "y"), "x")
    assert all(type(c) is Fraction for c in (pq * x).terms.values())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda d: polys(d, XYZ, 4, 2)),
       st.integers(1, 5))
@example(Poly(("x", "y"), {(1, 0): 3, (0, 2): -2, (0, 0): 5}), 3)
def test_pow_is_repeated_product(p, k):
    # values, monomial order and coefficient types of p * p * ... * p
    want = p
    for _ in range(k - 1):
        want = want * p
    got = p ** k
    assert got.terms == want.terms and list(got.terms) == list(want.terms)
    assert [(type(c), getattr(c, "d", None)) for c in got.terms.values()] == \
           [(type(c), getattr(c, "d", None)) for c in want.terms.values()]
    one = dict((p ** 0).items())
    assert one == {(0,) * len(p.vars): 1} and type(one[(0,) * len(p.vars)]) is int


@st.composite
def wide_factors(draw, count):
    """``count`` polys over one tuple of 1 to 64 variables (the width of
    the generic matrices of a Hermitian form at n = 4), with exponents up
    to 500, so that a product fills most of a 16-bit field."""
    n = draw(st.integers(1, 64))
    d = draw(st.sampled_from(FIELDS))
    vs = tuple(f"v{i}" for i in range(n))
    exps = st.lists(st.one_of(st.integers(0, 3), st.integers(0, 500)),
                    min_size=n, max_size=n).map(tuple)
    return tuple(Poly(vs, draw(st.dictionaries(exps, coefficients(d), max_size=5)))
                 for _ in range(count))


@settings(max_examples=60, deadline=None)
@given(wide_factors(2))
def test_wide_mul_matches_pairwise_reference(pq):
    p, q = pq
    got = assert_product(p, q)
    assert str(got) == str(Poly(p.vars, reference_mul(p, q)))


def reference_ratfunc(num, den):
    """The numerator and denominator terms of RatFunc(num, den) on exponent
    tuples: the common monomial stripped, the denominator made monic."""
    if num.is_zero():
        return {}, {(0,) * len(num.vars): Fraction(1)}
    tn, td = dict(num.items()), dict(den.items())
    mins = [min(col) for col in zip(*tn, *td)]

    def strip(terms):
        return {tuple(e - m for e, m in zip(exps, mins)): c for exps, c in terms.items()}
    tn, td = strip(tn), strip(td)
    lead = td[graded_order(td)[0]]
    if lead != 1:
        lead = Fraction(lead) if isinstance(lead, int) else lead
        tn = {e: c / lead for e, c in tn.items()}
        td = {e: c / lead for e, c in td.items()}
    return tn, td


@settings(max_examples=60, deadline=None)
@given(wide_factors(3))
def test_wide_ratfunc_strips_the_common_monomial(parts):
    num, den, common = parts
    # shift both by a common monomial, the leading one of the third poly
    shift = next(iter(common.items()), ((0,) * len(num.vars), 1))[0]
    num, den = (Poly(p.vars, {tuple(a + b for a, b in zip(e, shift)): c
                              for e, c in p.items()}) for p in (num, den))
    if den.is_zero():
        den = Poly(num.vars, {shift: 2})
    f = RatFunc(num, den)
    for got, want in zip((f.num, f.den), reference_ratfunc(num, den)):
        assert dict(got.items()) == want
        assert [e for e, _ in got.items()] == graded_order(want)


def test_irrational_coefficients_of_two_fields_raise():
    p = Poly.variable(V3, "x1") + QuadExt(0, 1, -3)
    q = Poly.const(V3, QuadExt(1, 1, 5))
    for a, b in ((p, q), (q, p)):
        with pytest.raises(FieldMismatchError):
            a * b
    # rational values of another field are fine
    assert_product(p, Poly.const(V3, QuadExt(2, 0, 5)))


# -- composition and the cross test against RatFunc arithmetic -------------
#
# The integer paths of ratfunc_compose and _cross must agree with the
# RatFunc arithmetic they replace: the same values, the same coefficient
# types (one _domain call) and the same products in the same order, so the
# same TermBudgetError at every budget.  ratfunc_compose clears denominators
# by groups: the entries whose denominators are equal form one group g with
# denominator D_g, and a term c*x^e picks up D_g^(M_g - sum_{i in g} e_i),
# M_g the largest such sum over the terms of f.  With no two denominators
# equal, each group is one variable and this is the per-variable rule
# d_i^(M_i - e_i).


def reference_compose(f, subst):
    """ratfunc_compose product by product through Poly arithmetic: the
    power rows n_i^k, and D_g^k in step with the numerator row of g's last
    variable, then each term's chain c * n_i^e_i variable by variable, with
    D_g^(M_g - sum_{i in g} e_i) right after the last variable of g, summed
    term by term."""
    out_vars = subst[0].vars
    dens = []
    for s in subst:
        if not any(s.den == p for p in dens):
            dens.append(s.den)
    group = [next(g for g, p in enumerate(dens) if s.den == p) for s in subst]
    last = {g: i for i, g in enumerate(group)}
    exps_of = [e for p in (f.num, f.den) for e, _ in p.items()]

    def group_degree(exps, g):
        return sum(e for e, h in zip(exps, group) if h == g)
    top = [max(e[i] for e in exps_of) for i in range(len(f.vars))]
    gtop = [max(group_degree(e, g) for e in exps_of) for g in range(len(dens))]
    one = Poly.const(out_vars, Fraction(1))
    nrows, drows = [], [[one] for _ in dens]
    for i, s in enumerate(subst):
        g = group[i]
        closes = last[g] == i
        nrow, drow = [one], drows[g]
        for k in range(max(top[i], gtop[g] if closes else 0)):
            if k < top[i]:
                nrow.append(nrow[-1] * s.num)
            if closes and k < gtop[g]:
                drow.append(drow[-1] * dens[g])
        nrows.append(nrow)

    def cleared(poly):
        acc = Poly(out_vars, {})
        for exps, c in poly.items():
            val = Poly.const(out_vars, c)
            for i, e in enumerate(exps):
                if e:
                    val = val * nrows[i][e]
                g = group[i]
                k = gtop[g] - group_degree(exps, g)
                if last[g] == i and k:
                    val = val * drows[g][k]
            acc = acc + val
        return acc

    den = cleared(f.den)
    if den.is_zero():
        raise DegenerateError("zero denominator")
    return RatFunc(cleared(f.num), den)


def per_variable_compose(f, subst):
    """f at subst through Poly arithmetic, each d_i^(M_i - e_i) cleared on
    its own, as if no two denominators were equal."""
    out_vars = subst[0].vars
    top = [max(e[i] for p in (f.num, f.den) for e, _ in p.items())
           for i in range(len(f.vars))]

    def cleared(poly):
        acc = Poly(out_vars, {})
        for exps, c in poly.items():
            val = Poly.const(out_vars, c)
            for s, e, m in zip(subst, exps, top):
                val = val * s.num ** e * s.den ** (m - e)
            acc = acc + val
        return acc
    return RatFunc(cleared(f.num), cleared(f.den))


def outcome(fn, *args):
    """fn(*args), or the message of the TermBudgetError it raises."""
    try:
        return fn(*args)
    except TermBudgetError as exc:
        return f"TermBudgetError: {exc}"


def assert_same_under_budgets(want_fn, got_fn, *args):
    """Both raise the same TermBudgetError at every budget from 1 up to the
    first one under which both pass; returns the two results there."""
    budget = 1
    while True:
        with term_budget(budget):
            want, got = outcome(want_fn, *args), outcome(got_fn, *args)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want, budget
            budget += 1
            continue
        return want, got


def st_rf(num, den):
    return RatFunc(Poly(ST, num), Poly(ST, den))


def xyz_rf(num, den):
    return RatFunc(Poly(XYZ, num), Poly(XYZ, den))


S_PLUS_1 = st_rf({(1, 0): 1, (0, 0): 1}, {(0, 0): 1})
T_PLUS_1 = st_rf({(0, 1): 1, (0, 0): 1}, {(0, 0): 1})
S_T_1 = st_rf({(1, 0): 1, (0, 1): 1, (0, 0): 1}, {(0, 0): 1})


D_ST = {(1, 0): 1, (0, 1): 1, (0, 0): 1}       # s + t + 1, a shared denominator
E_ST = {(1, 0): 2, (0, 0): -1}                 # 2s - 1, another


@st.composite
def substitutions(draw, d):
    """Entries over ST for XYZ whose denominators are drawn from a pool of
    three, so that entries often share one, each entry its own equal copy."""
    pool = [draw(nonzero_polys(d, ST, 2, 1)) for _ in XYZ]
    picks = draw(st.tuples(*[st.integers(0, 2) for _ in XYZ]))
    return tuple(RatFunc(draw(polys(d, ST, 3, 1)), Poly(ST, dict(pool[k].items())))
                 for k in picks)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda d: st.tuples(
    ratfuncs(d, XYZ, 3, 2), substitutions(d))))
# one shared denominator and f homogeneous: no power of it in the result
@example((xyz_rf({(2, 0, 0): 1, (0, 1, 1): 1}, {(1, 1, 0): 1, (0, 0, 2): 1}),
          (st_rf({(1, 0): 1}, D_ST), st_rf({(0, 1): 2}, D_ST),
           st_rf({(1, 1): 1, (0, 0): 3}, D_ST))))
# mixed groups {x, z} and {y}: the group {x, z} has degree 2 in the
# denominator of f and 0 in its numerator
@example((xyz_rf({(0, 1, 0): 1, (0, 0, 0): 1}, {(1, 0, 1): 1, (0, 1, 0): 1}),
          (st_rf({(0, 1): 1}, D_ST), st_rf({(1, 0): 1, (0, 1): -1}, E_ST),
           st_rf({(1, 0): 3}, D_ST))))
@example((xyz_rf({(2, 1, 0): 1, (0, 0, 1): 2}, {(1, 0, 0): 1, (0, 0, 0): 1}),
          (st_rf({(0, 1): 1}, E_ST), st_rf({(1, 0): 1}, D_ST), st_rf({(0, 0): 5}, E_ST))))
# several constant-1 denominators, one group
@example((xyz_rf({(2, 1, 0): 1, (0, 0, 1): 1}, {(0, 1, 1): 1, (0, 0, 0): 1}),
          (S_PLUS_1, st_rf({(0, 1): 2}, {(0, 0): 1}), S_T_1)))
# budget 1: the numerator row of x fails first, with 3 terms, not the
# denominator row with 2
@example((xyz_rf({(1, 0, 0): 1}, {(0, 0, 0): 1}),
          (st_rf({(1, 0): 1, (0, 1): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): 1}),) * 3))
# budget 3: the rows pass and the cleared denominator x*y + 1 fails first,
# with 4 terms, not the numerator x*z + 1 with 5
@example((xyz_rf({(1, 0, 1): 1, (0, 0, 0): 1}, {(1, 1, 0): 1, (0, 0, 0): 1}),
          (S_PLUS_1, T_PLUS_1, S_T_1)))
# int coefficients only: the result is still Fraction, by the Fraction(1) seed
@example((xyz_rf({(0, 0, 0): 3}, {(0, 0, 0): 1}), (st_rf({(1, 0): 2}, {(0, 1): 1}),) * 3))
@example((xyz_rf({(1, 0, 0): 2, (0, 0, 0): 1}, {(0, 2, 0): 1}),
          (st_rf({(1, 0): 2}, {(0, 1): 1}),) * 3))
# one-term rows on both sides of the many-term row of y: 2s, then s + 1, then 3t
@example((xyz_rf({(1, 1, 1): 1, (0, 0, 0): 2}, {(1, 0, 0): 1}),
          (st_rf({(1, 0): 2}, {(0, 1): 1}), S_PLUS_1, st_rf({(0, 1): 3}, {(0, 0): 1}))))
# a zero substitution numerator, then the one-term row of y
@example((xyz_rf({(1, 1, 0): 1, (0, 0, 0): 1}, {(0, 0, 0): 1}),
          (st_rf({}, {(0, 0): 1}), st_rf({(1, 0): 2}, {(0, 1): 1}), T_PLUS_1)))
# budget 3: the denominator row of x (4 terms) fails before the square of
# its numerator row (6 terms), since the two rows of a block grow in step
@example((xyz_rf({(2, 0, 0): 1}, {(0, 0, 0): 1}),
          (st_rf({(1, 0): 1, (0, 1): 1, (0, 0): 1},
                 {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1}), T_PLUS_1, S_PLUS_1)))
def test_compose_matches_ratfunc_arithmetic(case):
    f, subst = case
    try:
        reference_compose(f, subst)
    except DegenerateError:
        with pytest.raises(DegenerateError):
            ratfunc_compose(f, subst)
        return
    want, got = assert_same_under_budgets(reference_compose, ratfunc_compose, f, subst)
    assert got.num.terms == want.num.terms and got.den.terms == want.den.terms
    assert list(got.num.terms) == list(want.num.terms)
    assert list(got.den.terms) == list(want.den.terms)
    if got.is_zero():
        return
    seed = Poly.const(ST, Fraction(1))
    kind, d = expected_domain(f.num, f.den, *(p for s in subst for p in (s.num, s.den)),
                              seed)
    for c in (*got.num.terms.values(), *got.den.terms.values()):
        assert type(c) is kind and getattr(c, "d", None) == d


def test_compose_over_one_shared_denominator_adds_no_power_of_it():
    a, b, c = (st_rf({(1, 0): 1}, D_ST), st_rf({(0, 1): 2}, D_ST),
               st_rf({(1, 1): 1, (0, 0): 3}, D_ST))
    assert a.den == b.den == c.den and a.den is not b.den
    # (x^2 + y*z) / (x*y + z^2) at (a, b, c) / D is (a^2 + b*c) / (a*b + c^2)
    f = xyz_rf({(2, 0, 0): 1, (0, 1, 1): 1}, {(1, 1, 0): 1, (0, 0, 2): 1})
    got = ratfunc_compose(f, (a, b, c))
    want = RatFunc(a.num ** 2 + b.num * c.num, a.num * b.num + c.num ** 2)
    assert got.num.terms == want.num.terms and got.den.terms == want.den.terms
    # cleared per variable, both sides carry D^3 more
    per_variable = per_variable_compose(f, (a, b, c))
    assert ratfunc_equal(got, per_variable)
    assert per_variable.num.terms == (want.num * a.den ** 3).terms


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda d: st.tuples(
    ratfuncs(d, XYZ, 3, 2), substitutions(d))))
def test_compose_equals_the_per_variable_clearing(case):
    f, subst = case
    try:
        want = per_variable_compose(f, subst)
    except DegenerateError:
        with pytest.raises(DegenerateError):
            ratfunc_compose(f, subst)
        return
    got = ratfunc_compose(f, subst)
    assert ratfunc_equal(got, want)
    # with no two denominators equal, term for term
    if all(s.den != t.den for i, s in enumerate(subst) for t in subst[i + 1:]):
        assert got.num.terms == want.num.terms and got.den.terms == want.den.terms


def reference_cross(a, b, c, d):
    cross = a * d - c * b
    return cross.is_zero(), len(cross.num.terms) + len(cross.den.terms)


X = RatFunc.variable(XYZ, "x")
Y = RatFunc.variable(XYZ, "y")
ZERO = RatFunc.const(XYZ, 0)
W = 1 / (X + Y + RatFunc.variable(XYZ, "z") + 1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
    lambda d: st.tuples(*[ratfuncs(d, XYZ, 3, 2) for _ in range(4)])))
@example((X, X * 2, Y, Y * 2))                      # proportional: zero
@example((X / Y, X / Y, X / Y, X / Y))              # one value four times: zero
@example((ZERO, Y, ZERO, X))                        # both products zero
@example((ZERO, Y + 1, X / (Y + 2), X + Y))         # a*d zero, c*b not
@example((X + 1, Y, X, ZERO))                       # c*b zero, a*d not
@example((W, W, W, W))      # zero, and the denominator product is the largest
# a, c over one denominator and b, d over another, so an*dn = cn*bn decides a
# zero cross alone once the budget covers the skipped products; below that
# (from budget 1 on) the full products trip first
@example((X * W, (X * Y + X) / (X + 2), Y * W, (Y * Y + Y) / (X + 2)))  # zero
@example((X * W, (Y + 1) / (X + 2), Y * W, (X * Y + 1) / (X + 2)))     # not zero
@example((W, 2 * W, (X - Y) * W, (2 * X - 2 * Y) * W))                  # zero
def test_cross_matches_ratfunc_arithmetic(abcd):
    want, got = assert_same_under_budgets(reference_cross, _cross, *abcd)
    assert got == want
    a, b, c, d = abcd
    assert ratfunc_equal(a * d, c * b) is got[0]


def reference_equal(f, g):
    return (f.num * g.den - g.num * f.den).is_zero()


D1 = X * Y + X + 2          # a denominator of three terms
D2 = Y * Y - 3


@pytest.mark.parametrize("f, g", [
    ((X * X - 1) / D1, (X - 1) * (X + 1) / D1),
    ((X * X - 1) / D1, (X * X + 1) / D1),
    ((X + Y) / (D1 * D2), (Y + X) / (D2 * D1)),
    ((X + Y) / (D1 * D2), (X + Y + 1) / (D2 * D1)),
    (ZERO / D1, ZERO / D2),
], ids=["equal", "unequal", "product-denominator", "product-unequal", "zero"])
def test_equal_over_a_shared_denominator_matches_full_expansion(f, g):
    assert f.den == g.den
    if not f.is_zero():         # the full expansion trips at budget 1
        with term_budget(1):
            assert isinstance(outcome(reference_equal, f, g), str)
    want, got = assert_same_under_budgets(reference_equal, ratfunc_equal, f, g)
    assert got is want


def test_a_shared_denominator_keeps_the_overflow_of_the_full_products():
    # degree 2^14 + 1 per denominator: the numerator products fit, the
    # cross of the two denominators has degree 2^16 and overflows
    big = X ** (2 ** 14) * Y + 1
    a, c = X / big, Y / big
    want = outcome(reference_cross, a, a, c, c)
    assert want.startswith("TermBudgetError: product of degree 65540 exceeds")
    assert outcome(_cross, a, a, c, c) == want
    # f = g over a denominator of degree 2^15 + 1: fn * gd overflows
    f = X ** (2 ** 15) * Y / (X ** (2 ** 15) * Y + 1)
    want = outcome(reference_equal, f, f)
    assert want.startswith("TermBudgetError: product of degree 65538 exceeds")
    assert outcome(ratfunc_equal, f, f) == want


def test_cross_zero_counts_the_constant_denominator():
    assert _cross(X, X * 2, Y, Y * 2) == (True, 1)
    assert _cross(ZERO, Y, ZERO, X) == (True, 1)
    # x*(y+1) - y*y: three numerator terms over the denominator 1
    assert _cross(X, Y, Y, Y + 1) == (False, 4)


def test_compose_and_cross_reject_irrational_coefficients_of_two_fields():
    s3, s5 = QuadExt(0, 1, -3), QuadExt(1, 1, 5)
    subst = RatFunc.variables(ST) + (RatFunc.variable(ST, "s"),)
    for f_c, s_c in ((s3, s5), (s5, s3)):
        f = X * f_c + Y
        with pytest.raises(FieldMismatchError):
            ratfunc_compose(f, tuple(s * s_c for s in subst))
        with pytest.raises(FieldMismatchError):
            _cross(f, X, Y, Y * s_c)
        with pytest.raises(FieldMismatchError):
            ratfunc_equal(f, X * s_c)
        # a rational QuadExt of the other field crosses over
        r_c = QuadExt(3, 0, s_c.d)
        got = ratfunc_compose(f, tuple(s * r_c for s in subst))
        assert got == reference_compose(f, tuple(s * r_c for s in subst))
        assert _cross(f, X, Y, Y * r_c) == reference_cross(f, X, Y, Y * r_c)


# -- the scalar paths of RatFunc against the constant RatFunc they skip -----

QUAD = QuadExt(0, 1, -3)
SCALARS = [3, Fraction(-2, 3), QUAD + 1, QuadExt(Fraction(1, 2), 0, -3), 0]


def exact_terms(f):
    """Terms of numerator and denominator in stored order, with each
    coefficient's type and field."""
    return [[(e, c, type(c), getattr(c, "d", None)) for e, c in p.terms.items()]
            for p in (f.num, f.den)]


@pytest.mark.parametrize("c", SCALARS, ids=["int", "Fraction", "QuadExt",
                                            "rational-QuadExt", "zero"])
@pytest.mark.parametrize("f", [
    RatFunc(Poly(XYZ, {(1, 0, 0): 2, (0, 0, 0): 1}), Poly(XYZ, {(0, 1, 0): 1})),
    (X * X / 3 + Y) / (Y * 2 + 3),
    X * QUAD / (Y + QUAD),
    RatFunc(Poly(XYZ, {(1, 0, 1): QuadExt(2, 0, 5)}), Poly(XYZ, {(0, 2, 0): 1, (0, 0, 0): 4})),
    ZERO,
], ids=["int", "Fraction", "QuadExt", "rational-QuadExt", "zero"])
def test_scalar_ops_match_the_constant_route(f, c):
    k = RatFunc.const(f.vars, c)
    assert exact_terms(f * c) == exact_terms(f * k)
    assert exact_terms(c * f) == exact_terms(k * f)
    if f.is_zero():
        with pytest.raises(DegenerateError) as got:
            c / f
        with pytest.raises(DegenerateError) as want:
            k / f
        assert str(got.value) == str(want.value) == "division by the zero rational function"
    else:
        assert exact_terms(c / f) == exact_terms(k / f)


def test_scalar_ops_reject_an_irrational_scalar_of_another_field():
    f = X * QUAD / (Y + 1)
    for op in (lambda c: f * c, lambda c: c * f, lambda c: c / f):
        with pytest.raises(FieldMismatchError):
            op(QuadExt(1, 1, 5))


# -- one stored form per Poly: the integer form, and its dict as a cache ------
#
# The kernel makes a Poly's integer form directly; the public constructor
# builds it from a coefficient dict at once.  Either way the dict is built
# only when read.  A kernel-made Poly and its twin, rebuilt from its items(),
# are one value: equal both ways, with one hash, one str, one items() and the
# same coefficients of the same types, and the twin's integer form, built by
# the constructor, is the kernel's.


def assert_views_agree(p):
    form = p._int
    assert p._terms is None and form is not None        # no dict read yet
    fresh = _wrap(p.vars, form)                         # the same form, no dict yet
    twin = Poly(p.vars, dict(_wrap(p.vars, form).items()))
    assert twin._terms is None and twin._int == form    # the form at once, no dict
    assert fresh == twin and twin == fresh and fresh == p
    assert hash(fresh) == hash(twin) and str(fresh) == str(twin)
    assert fresh.items() == twin.items()
    assert [(e, c, type(c), getattr(c, "d", None)) for e, c in fresh.terms.items()] == \
           [(e, c, type(c), getattr(c, "d", None)) for e, c in twin.terms.items()]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda d: st.tuples(
    polys(d, XYZ, 4, 2), nonzero_polys(d, XYZ, 3, 2), coefficients(d), substitutions(d))))
@example((Poly(XYZ, {(1, 0, 0): 2, (0, 0, 0): Fraction(1, 2)}), Poly(XYZ, {(0, 1, 0): 4}), 3,
          (S_PLUS_1, T_PLUS_1, S_T_1)))
def test_kernel_made_values_agree_with_their_dict_twins(case):
    p, q, c, subst = case
    made = [p * q, p + q, p - q, q - q, -p, p.conj_coeffs(), p * c, c * p, p + c,
            p * q + p, p ** 2, p.derivative("x"), Poly.const(XYZ, c), Poly.variable(XYZ, "y")]
    for k in made:
        if k is not p and k is not q:       # a sum with 0 is the other term itself
            assert_views_agree(k)
    g = RatFunc(p * q, q * q)
    funcs = [g, g * c, c * g, g + g, g - 1, -g, g.conj_coeffs(), g * g]
    if not g.is_zero():
        funcs += [c / g, 1 / g]
    try:
        funcs.append(ratfunc_compose(g, subst))
    except DegenerateError:
        pass
    for k in (k for f in funcs for k in (f.num, f.den)):
        assert_views_agree(k)
    for f in funcs:
        twin = RatFunc(*(Poly(f.vars, dict(k.items())) for k in (f.num, f.den)))
        assert exact_terms(twin) == exact_terms(f) and str(twin) == str(f) and twin == f


V2 = ("x", "y")
X2, Y2 = Poly.variable(V2, "x"), Poly.variable(V2, "y")
ONE_INT = Poly(V2, {(0, 0): 1}) * Poly(V2, {(0, 0): 1})        # the int 1, from the kernel


@pytest.mark.parametrize("num, den", [
    (X2 ** 2 * Y2, X2 * Y2 ** 2 * 3 + X2 * Y2),                     # strips x*y
    (X2 + 1, 2 - Y2),                                               # a negative lead
    (ONE_INT * Poly(V2, {(1, 0): 3, (0, 0): 1}), ONE_INT * Poly(V2, {(0, 1): 2})),
    (X2 * QuadExt(1, 2, -3), Y2 * QUAD + 1),                        # an irrational lead
    (X2 * QuadExt(1, 0, 5), Y2 * QuadExt(2, 0, 5) + 1),             # a rational QuadExt lead
    (X2 - X2, Y2 + 1),                                              # a zero numerator
], ids=["monomial", "negative-lead", "int-lead", "irrational-lead", "rational-quadext-lead",
        "zero"])
def test_ratfunc_normalises_on_integers_as_by_coefficient_division(num, den):
    got = RatFunc(num, den)
    for k in (got.num, got.den):
        assert_views_agree(k)
    # the same values from the public constructor give the same result
    twin = RatFunc(Poly(V2, dict(num.items())), Poly(V2, dict(den.items())))
    assert exact_terms(twin) == exact_terms(got) and str(twin) == str(got)
    # and both are what dividing each coefficient by the lead gives
    for k, want in zip((got.num, got.den), reference_ratfunc(num, den)):
        assert [(e, c, type(c), getattr(c, "d", None)) for e, c in k.items()] == \
               [(e, want[e], type(want[e]), getattr(want[e], "d", None))
                for e in graded_order(want)]


def test_int_lead_makes_fraction_coefficients():
    f = RatFunc(ONE_INT * Poly(V2, {(1, 0): 3, (0, 0): 1}), ONE_INT * Poly(V2, {(0, 1): 2}))
    assert [type(c) for _, c in f.num.items() + f.den.items()] == [Fraction] * 3
    assert str(f) == "(3/2*x + 1/2)/(y)"


def test_equal_integers_in_two_fields_compare_unequal():
    # (p + q*sqrt(d))/n: one p, q and n, two fields
    a, b = X2 * QuadExt(1, 2, -3), X2 * QuadExt(1, 2, -1)
    assert a._int[:2] == b._int[:2] and a != b and b != a
    assert a != Poly(V2, dict(b.items())) and Poly(V2, dict(a.items())) != b
    # a rational value crosses fields, in either view
    c, e = X2 * QuadExt(3, 0, -3), X2 * QuadExt(3, 0, 5)
    assert c == e == X2 * 3 == Poly(V2, dict(e.items()))
    assert hash(c) == hash(e) == hash(X2 * 3)


def test_rational_functions_over_two_fields_compare_like_polys():
    a, b = X2 * QuadExt(1, 2, -3), X2 * QuadExt(1, 2, -1)
    f, g = RatFunc(a), RatFunc(b)
    # every operand order and kind answers as Poly.__eq__ does
    assert (f == g, g == f, f == b, b == f, g == a, a == g) == (False,) * 6
    assert f != QuadExt(1, 2, -1) and QuadExt(1, 2, -1) != f
    assert f == a and f == RatFunc(X2 * QuadExt(1, 2, -3))
    # ratfunc_equal itself still refuses the pair, as certificates call it
    with pytest.raises(FieldMismatchError, match="mixed discriminants"):
        ratfunc_equal(f, g)
    # unreduced forms over two fields can hold one rational value: y, and
    # 1, compared in their rational forms; x is not y
    r3, r1 = X2 + QuadExt(0, 1, -3), X2 + QuadExt(0, 1, -1)
    assert RatFunc(r3 * Y2, r3) == RatFunc(r1 * Y2, r1) == Y2
    assert RatFunc(r3, r3) == RatFunc(r1, r1) == 1
    assert RatFunc(r3 * Y2, r3) != RatFunc(r1 * X2, r1)
    assert RatFunc(r3 * Y2, r3) != RatFunc(r1 * Y2, X2 + QuadExt(0, 2, -1))
    assert RatFunc(r1 * Y2, X2 + QuadExt(0, 2, -1)) != RatFunc(r3 * Y2, r3)


def test_a_bool_constant_is_stored_as_an_int():
    x = Poly.variable(("x",), "x")
    root_x = QuadExt(0, 1, -3) * x
    for c in (True, False):
        k = Poly.const(("x",), c)
        assert k == Poly.const(("x",), int(c)) and all(type(v) is int for v in k.terms.values())
    assert Poly.const(("x",), True) * root_x == root_x
    assert str(Poly.const(("x",), True) * root_x) == "(sqrt(-3))*x"
    assert str(Poly.const(("x",), True) + root_x) == "(sqrt(-3))*x + 1"
    assert str(root_x * True) == str(root_x + False) == "(sqrt(-3))*x"
    assert RatFunc(root_x) * True == RatFunc(root_x)


def test_the_constructor_takes_its_kind_from_the_nonzero_coefficients():
    # a zero Fraction or QuadExt is dropped, and gives the kind nothing
    for zero in (Fraction(0), QuadExt(0, 0, -3)):
        p = Poly(("x",), {(1,): 1, (0,): zero})
        assert [(e, c, type(c)) for e, c in p.items() + (p * p).items()] == \
               [((1,), 1, int), ((2,), 1, int)]


def test_a_dict_over_two_fields_raises_at_construction():
    root3, golden = QuadExt(0, 1, -3), QuadExt(1, 1, 5)
    with pytest.raises(FieldMismatchError, match="mixed discriminants"):
        Poly(("x",), {(1,): root3, (0,): golden})
    # a rational QuadExt of the other field crosses over, into the field of sqrt(-3)
    p = Poly(("x",), {(1,): root3, (0,): QuadExt(1, 0, 5)})
    assert p._int[2:] == (QuadExt, -3)
    assert p.items() == [((1,), root3), ((0,), 1)]


def test_a_link_certificate_builds_no_coefficient_dict(monkeypatch):
    links = su3.build_su3_chain()
    calls = []
    built, init = poly_module._built, Poly.__init__
    monkeypatch.setattr(poly_module, "_built", lambda *a: calls.append("_built") or built(*a))
    monkeypatch.setattr(Poly, "__init__",
                        lambda self, *a: calls.append("Poly.__init__") or init(self, *a))
    for pair in links:
        assert su3.link_certificate(pair, 23, 5).ok
    assert calls == []


# -- one plan for many functions against one plan per function -------------

def compose_each(compose, funcs):
    """compose(f) for each f in turn up to the first error: the results so
    far, and that error's type and message (None when nothing raised)."""
    out = []
    for f in funcs:
        try:
            out.append(compose(f))
        except (TermBudgetError, DegenerateError) as exc:
            return out, f"{type(exc).__name__}: {exc}"
    return out, None


def assert_plan_matches_one_at_a_time(funcs, subst):
    """At every budget from 1 up to the first under which no TermBudgetError
    is raised, a plan over subst composes funcs term for term as
    ratfunc_compose does one function at a time, and fails with the same
    error at the same function.  Returns the last error."""
    budget = 1
    while True:
        with term_budget(budget):
            want = compose_each(lambda f: ratfunc_compose(f, subst), funcs)
            got = compose_each(ComposePlan(subst).compose, funcs)
        assert got[1] == want[1], budget
        assert [exact_terms(g) for g in got[0]] == [exact_terms(w) for w in want[0]]
        if not (want[1] or "").startswith("TermBudgetError"):
            return want[1]
        budget += 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda d: st.tuples(
    st.tuples(ratfuncs(d, XYZ, 3, 1), ratfuncs(d, XYZ, 3, 3), ratfuncs(d, XYZ, 2, 2)),
    substitutions(d))))
# each function needs higher powers than the ones before it, of a numerator
# and of a shared denominator
@example(((xyz_rf({(1, 0, 0): 1}, {(0, 0, 0): 1}),
           xyz_rf({(3, 1, 0): 1, (0, 0, 1): 2}, {(0, 1, 0): 1, (0, 0, 0): 1}),
           xyz_rf({(0, 0, 0): 1}, {(2, 0, 2): 1, (0, 3, 0): 1})),
          (st_rf({(1, 0): 1}, D_ST), st_rf({(0, 1): 1, (0, 0): 1}, E_ST),
           st_rf({(1, 1): 1}, D_ST))))
# kept products: x^2*y is a term of the first numerator and its denominator,
# and of the second numerator and the third denominator; x*z of the first
# and the second denominator; the third needs a higher power of x as well
@example(((xyz_rf({(2, 1, 0): 1, (0, 0, 1): 1}, {(2, 1, 0): 2, (1, 0, 1): 1, (0, 0, 0): 1}),
           xyz_rf({(2, 1, 0): 3, (0, 0, 0): 2}, {(1, 0, 1): 1}),
           xyz_rf({(3, 0, 1): 1}, {(2, 1, 0): 1, (0, 1, 0): -1})),
          (st_rf({(1, 0): 1, (0, 0): 1}, D_ST), st_rf({(0, 1): 1, (1, 0): -1}, D_ST),
           st_rf({(1, 1): 1, (0, 0): 2}, E_ST))))
def test_a_plan_composes_each_function_as_a_plan_of_it_alone(case):
    assert_plan_matches_one_at_a_time(*case)


def test_a_plan_overflows_at_the_function_that_first_needs_the_power():
    t = Poly.variable(("t",), "t")
    x, y = RatFunc.variables(("x", "y"))
    subst = (RatFunc(t ** 20000 + 1), RatFunc(t))
    funcs = (x * y, x ** 3 + y, x ** 4 * y, x)
    error = assert_plan_matches_one_at_a_time(funcs, subst)
    assert error == ("ExponentOverflowError: product of degree 80000 exceeds "
                     "the 16-bit exponent field")
    assert len(compose_each(ComposePlan(subst).compose, funcs)[0]) == 2


# polynomial entries of two and three terms, so every row is a product; every
# term of the second function has the index tuple of a term of the first,
# x*y or z^2 with the power 0 of the shared denominator 1
PLAIN = (S_PLUS_1, T_PLUS_1, S_T_1)
PLAIN_FUNCS = (xyz_rf({(1, 1, 0): 1, (0, 0, 2): 1}, {(1, 0, 0): 1, (0, 0, 0): 1}),
               xyz_rf({(0, 0, 2): 2}, {(1, 1, 0): 1}),
               xyz_rf({(2, 1, 0): 1, (0, 1, 2): 3}, {(1, 1, 1): 1, (0, 0, 0): 2}))


def test_a_plan_makes_each_product_of_rows_once(monkeypatch):
    f, g, _ = PLAIN_FUNCS
    calls = []
    mul = poly_module._mul
    monkeypatch.setattr(poly_module, "_mul", lambda *a: calls.append(a) or mul(*a))
    plan = ComposePlan(PLAIN)
    assert plan.compose(f) == ratfunc_compose(f, PLAIN)
    calls.clear()
    got = plan.compose(g)
    assert calls == []
    assert exact_terms(got) == exact_terms(ratfunc_compose(g, PLAIN))


def test_a_plan_keeps_at_most_the_budget_in_terms():
    kept = {}
    for budget in range(1, 41):
        with term_budget(budget):
            plan = ComposePlan(PLAIN)

            def compose(f):
                got = plan.compose(f)
                assert plan.held == sum(len(t) for t, _ in plan.chains.values()) <= budget
                return got
            got = compose_each(compose, PLAIN_FUNCS)
            want = compose_each(lambda f: ratfunc_compose(f, PLAIN), PLAIN_FUNCS)
        assert got[1] == want[1], budget
        assert [exact_terms(g) for g in got[0]] == [exact_terms(w) for w in want[0]]
        kept[budget] = len(plan.chains), got[1]
    # from budget 9 on nothing raises, and the cap leaves products unkept
    assert kept[8][1] and not kept[9][1]
    assert kept[9][0] < kept[40][0]


def test_a_plan_makes_its_rows_and_products_again_under_another_budget():
    plan = ComposePlan(PLAIN)
    for f in PLAIN_FUNCS:
        plan.compose(f)
    assert plan.held
    for budget in (3, 7):
        with term_budget(budget):
            want = compose_each(lambda f: ratfunc_compose(f, PLAIN), PLAIN_FUNCS)
            assert want[1].startswith("TermBudgetError")
            assert compose_each(plan.compose, PLAIN_FUNCS)[1] == want[1]
            assert plan.held <= budget


def test_a_plan_keeps_the_field_of_every_entry():
    # an irrational QuadExt of Q(sqrt(-3)), then a rational one
    subst = (RatFunc.variable(ST, "t") * QUAD, RatFunc.variable(ST, "s") * QuadExt(2, 0, -3),
             RatFunc.variable(ST, "s"))
    plan = ComposePlan(subst)
    with pytest.raises(FieldMismatchError):
        plan.compose(X * QuadExt(1, 1, 5) + Y)
    f = X * QuadExt(3, 0, 5) + Y
    got = plan.compose(f)
    assert got == reference_compose(f, subst)
    assert {(type(c), c.d) for p in (got.num, got.den) for c in p.terms.values()} == \
        {(QuadExt, -3)}


def test_a_plan_checks_its_substitution_once_and_each_arity():
    with pytest.raises(StructureError, match="empty substitution"):
        ComposePlan(())
    with pytest.raises(StructureError, match="mixed variables"):
        ComposePlan((X, RatFunc.variable(ST, "s")))
    plan = ComposePlan(RatFunc.variables(ST))
    assert plan.compose(RatFunc.variable(ST, "t") / 2) == RatFunc.variable(ST, "t") / 2
    with pytest.raises(StructureError, match="substitution arity 2 != 3"):
        plan.compose(X)


# -- the compose caches: per plan, and per function and layout ---------------

def fresh(f):
    """f as a new RatFunc over the same Polys, with nothing kept on it."""
    return RatFunc(f.num, f.den)


def forms(f):
    return f.num._int, f.den._int


def composed(plan, f):
    try:
        return forms(plan.compose(f))
    except DegenerateError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda d: st.tuples(
    ratfuncs(d, XYZ, 3, 2), substitutions(d), substitutions(d))))
# two layouts: groups {x, y}, {z} and each variable its own
@example((xyz_rf({(2, 1, 0): 1, (0, 0, 1): 2}, {(1, 0, 1): 1, (0, 0, 0): 1}),
          (st_rf({(1, 0): 1}, D_ST), st_rf({(0, 1): 2}, D_ST), st_rf({(1, 1): 1}, E_ST)),
          (st_rf({(0, 1): 1}, E_ST), st_rf({(1, 0): 1}, D_ST), S_PLUS_1)))
# one layout, {x, z} and {y}, under two substitutions
@example((xyz_rf({(2, 1, 0): 1, (0, 0, 1): 2}, {(1, 0, 1): 1, (0, 1, 0): 1}),
          (st_rf({(1, 0): 1}, D_ST), st_rf({(0, 1): 2}, E_ST), st_rf({(1, 1): 1}, D_ST)),
          (st_rf({(0, 1): 3}, E_ST), st_rf({(1, 0): 1, (0, 0): 1}, D_ST),
           st_rf({(0, 0): 2}, E_ST))))
def test_a_function_composes_alike_under_plans_of_two_substitutions(case):
    f, s1, s2 = case
    want = [composed(ComposePlan(s), fresh(f)) for s in (s1, s2)]
    for first, second in ((0, 1), (1, 0)):
        g = fresh(f)
        got = [None, None]
        for i in (first, second):
            got[i] = composed(ComposePlan((s1, s2)[i]), g)
        assert got == want


def reference_index(f, plan):
    """The index tuples and column tops of f under plan, from exponent tuples."""
    n, layout = len(f.vars), plan.layout
    exps = [e for p in (f.num, f.den) for e, _ in p.items()]
    tops = [max(e[i] for e in exps) for i in range(n)]
    tops += [max(sum(e[i] for i in m) for e in exps) for m in layout]
    index = tuple(tuple(e[j] if j < n else tops[j] - sum(e[i] for i in layout[j - n])
                        for j in plan.order) for e in exps)
    return index, tuple(tops)


def test_a_function_keeps_its_index_tuples_per_layout():
    f = PLAIN_FUNCS[2]
    shared = (st_rf({(1, 0): 1}, D_ST), st_rf({(0, 1): 2}, E_ST), st_rf({(1, 1): 1}, D_ST))
    other = (st_rf({(0, 1): 3}, E_ST), S_PLUS_1, st_rf({(0, 0): 2}, E_ST))
    apart = (st_rf({(1, 0): 1}, D_ST), st_rf({(0, 1): 1}, E_ST), S_PLUS_1)
    plans = [ComposePlan(s) for s in (PLAIN, apart, shared, other)]
    assert len({p.layout for p in plans}) == 3 and plans[2].layout == plans[3].layout
    for plan in plans:
        plan.compose(f)
        got = f._index(plan.layout)
        assert got == reference_index(f, plan)
        assert f._index(plan.layout) is got
    # the two plans of one layout read one kept entry
    assert f._index(plans[2].layout) is f._index(plans[3].layout)


def test_a_plan_whose_rows_reach_the_tops_grows_no_row(monkeypatch):
    calls = []
    mul = poly_module._mul
    monkeypatch.setattr(poly_module, "_mul", lambda *a: calls.append(a) or mul(*a))
    plan = ComposePlan(PLAIN)

    def growth():
        return [a for a in calls if any(a[1] is b for b in plan.bases)]
    f = PLAIN_FUNCS[2]
    plan.compose(f)
    assert growth()
    lengths = [len(r) for r in plan.pows]
    calls.clear()
    # lower tops than f's, and index tuples f did not have
    g = xyz_rf({(2, 0, 0): 1, (0, 0, 1): 1}, {(0, 1, 0): 1, (1, 0, 0): 2})
    got = plan.compose(g)
    assert calls and not growth()
    assert [len(r) for r in plan.pows] == lengths
    assert forms(got) == forms(ratfunc_compose(fresh(g), PLAIN))


def test_ratfunc_and_poly_refuse_every_attribute_write():
    f = PLAIN_FUNCS[0]
    ComposePlan(PLAIN).compose(f)
    assert f._index(ComposePlan(PLAIN).layout)
    for value, names in ((f, ("num", "den", "_layouts", "vars", "other")),
                         (f.num, ("vars", "_terms", "_int", "other"))):
        for name in names:
            with pytest.raises(AttributeError, match="values are immutable"):
                setattr(value, name, None)


def test_ratfunc_and_poly_refuse_every_attribute_delete():
    # a deleted slot would break the value at its next use
    f = PLAIN_FUNCS[0]
    ComposePlan(PLAIN).compose(f)
    for value, kind in ((f, "RatFunc"), (f.num, "Poly")):
        for name in (*type(value).__slots__, "other"):
            with pytest.raises(AttributeError, match=f"^{kind} values are immutable$"):
                delattr(value, name)
    assert f.num.terms and f.den.terms and f._layouts


# -- the scalar steps of RatFunc against the constant Polys they skip --------

def constant_route(f, c, op):
    """f * c or c / f as the products by ``Poly.const`` that they replace."""
    vs = f.vars
    if op == "/":
        if f.num.is_zero():
            raise DegenerateError("division by the zero rational function")
        return forms(RatFunc(_times(Poly.const(vs, c), f.den),
                             _times(Poly.const(vs, Fraction(1)), f.num)))
    num = _times(f.num, Poly.const(vs, c))
    den = _times(f.den, Poly.const(vs, Fraction(1)))
    return forms(RatFunc(num, den)) if not c else (num._int, den._int)


def outcome_of(fn):
    try:
        return fn()
    except (TermBudgetError, FieldMismatchError, DegenerateError) as exc:
        return f"{type(exc).__name__}: {exc}"


WIDE = RatFunc(Poly(XYZ, {(i, 0, 0): 1 for i in range(20)}), Poly(XYZ, {(0, 1, 0): 1}))


@pytest.mark.parametrize("c", [3, Fraction(-2, 3), QUAD + 1, QuadExt(Fraction(1, 2), 0, -3),
                               QuadExt(1, 1, 5), 0, True, Fraction(1)],
                         ids=["int", "Fraction", "QuadExt", "rational-QuadExt",
                              "QuadExt-5", "zero", "True", "one"])
@pytest.mark.parametrize("f", [
    RatFunc(Poly(XYZ, {(1, 0, 0): 2, (0, 0, 0): 1}), Poly(XYZ, {(0, 1, 0): 1, (0, 0, 0): 3})),
    (X * X / 3 + Y) / (Y * 2 + 3),
    X * QUAD / (Y + QUAD),
    RatFunc(Poly(XYZ, {(1, 0, 1): QuadExt(2, 0, 5)}), Poly(XYZ, {(0, 2, 0): 1, (0, 0, 0): 4})),
    WIDE,
    RatFunc(Poly(XYZ, {})),
], ids=["Q-int", "Q", "Q(sqrt-3)", "rational-QuadExt-5", "wide", "zero"])
def test_scalar_steps_form_the_constant_route(f, c):
    for budget in (1, 2, 3, 25, None):
        with term_budget(budget) if budget else contextlib.nullcontext():
            for op, got in (("*", lambda: forms(f * c)), ("*", lambda: forms(c * f)),
                            ("/", lambda: forms(c / f))):
                assert outcome_of(got) == outcome_of(lambda: constant_route(f, c, op)), budget


@pytest.fixture(scope="module")
def sympy_field():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.fields import field

    class SympyField:
        """sympy's field of rational functions in ``names`` over Q (d is
        None) or QQ<sqrt(d)>, and the conversion of our values into it."""

        def __init__(self, d, names):
            if d is None:
                self.K, self.root = sympy.QQ, None
            else:
                self.K = sympy.QQ.algebraic_field(sympy.sqrt(d))
                self.root = self.K.from_sympy(sympy.sqrt(d))
            self.F, *self.gens = field(",".join(names), self.K)

        def rational(self, x):
            return self.K.convert(sympy.Rational(x.numerator, x.denominator))

        def scalar(self, c):
            if isinstance(c, QuadExt):
                c = self.rational(c.a) + self.rational(c.b) * self.root
            else:
                c = self.rational(c)
            return self.F.one * c

        def substitute(self, p, images):
            """p with images[i] for its i-th variable."""
            acc = self.F.zero
            for exps, c in p.items():
                term = self.scalar(c)
                for img, e in zip(images, exps):
                    if e:
                        term *= img ** e
                acc += term
            return acc

        def ratfunc(self, f):
            return (self.substitute(f.num, self.gens)
                    / self.substitute(f.den, self.gens))

    return SympyField


@st.composite
def compositions(draw):
    d = draw(st.sampled_from(FIELDS))
    f = draw(ratfuncs(d, XYZ, 3, 2))
    subst = tuple(draw(ratfuncs(d, ST, 2, 1)) for _ in XYZ)
    return d, f, subst


@settings(max_examples=40, deadline=None)
@given(compositions())
def test_compose_matches_sympy(sympy_field, case):
    d, f, subst = case
    K = sympy_field(d, ST)
    images = [K.ratfunc(s) for s in subst]
    den = K.substitute(f.den, images)
    if den == 0:
        with pytest.raises(DegenerateError):
            ratfunc_compose(f, subst)
        return
    want = K.substitute(f.num, images) / den
    assert K.ratfunc(ratfunc_compose(f, subst)) - want == 0


@st.composite
def charts(draw):
    d = draw(st.sampled_from(FIELDS))
    f = draw(ratfuncs(d, XYZ, 4, 2))
    relation = draw(st.sampled_from(("torus-product", "linear-sum")))
    if relation == "linear-sum":
        return d, f, relation, None
    return d, f, relation, (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)),
                            draw(st.sampled_from((1, -1))))


@settings(max_examples=40, deadline=None)
@given(charts())
def test_chart_restrict_matches_sympy(sympy_field, case):
    d, f, relation, exps = case
    K = sympy_field(d, ("x", "y"))
    x, y = K.gens
    if relation == "linear-sum":
        z = -x - y
    else:
        ex, ey, ez = exps                  # x^ex * y^ey * z^ez = 1
        z = (x ** -ex * y ** -ey) ** ez
    den = K.substitute(f.den, (x, y, z))
    if den == 0:
        with pytest.raises(DegenerateError):
            chart_restrict(f, relation, "z", exponents=exps)
        return
    want = K.substitute(f.num, (x, y, z)) / den
    assert K.ratfunc(chart_restrict(f, relation, "z", exponents=exps)) - want == 0


# -- evaluation at points of scalars against ring arithmetic ----------------
#
# RatFunc.eval and ratmap.map_of_point run the integer kernel of EvalPlan.
# The reference is the ring arithmetic it replaces: one scalar multiply per
# factor, one add per term, and one division of the two values (through
# Fraction(1), so that two ints divide exactly).

EVAL_FIELDS = (None, -3, -1)
Z = RatFunc.variable(XYZ, "z")


def reference_poly_eval(p, point):
    acc = 0
    for exps, c in p.items():
        val = c
        for x, e in zip(point, exps):
            for _ in range(e):
                val = val * x
        acc = acc + val
    return acc


def reference_eval(f, point):
    den = reference_poly_eval(f.den, point)
    if not den:
        raise DegenerateError("denominator vanishes at the point")
    return Fraction(1) * reference_poly_eval(f.num, point) / den


def entries(d):
    """Point entries: ints, Fractions and QuadExts of the field, of
    Q(sqrt(-3)) for coefficients in Q; small, so denominators vanish."""
    root = -3 if d is None else d
    small = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
    return st.one_of(st.integers(-2, 2), small, rationals,
                     st.builds(lambda a, b: QuadExt(a, b, root), small, small))


def assert_same(got, want):
    """Equal values of one type, in one field when irrational."""
    assert got == want and type(got) is type(want)
    if isinstance(want, QuadExt) and want.b:
        assert got.d == want.d


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(EVAL_FIELDS).flatmap(lambda d: st.tuples(
    ratfuncs(d, XYZ, 4, 2), st.tuples(*[entries(d)] * 3))))
@example((1 / (X - Y), (2, 2, 0)))                       # vanishes at the point
@example((X / (X + 1), (2, 0, 0)))                       # two ints: 2/3, not 0.666...
@example((RatFunc(Poly(XYZ, {(2, 0, 0): 1}), Poly(XYZ, {(0, 0, 0): 1})), (3, 0, 0)))
@example((X * QuadExt(0, 1, -3) / (Y + 1), (1, 0, QuadExt(0, 1, -1))))  # z is not used
@example((ZERO, (QuadExt(0, 1, -3), 1, 1)))
@example((X / Y, (1, QuadExt(0, 1, -3), 0)))             # an irrational denominator
@example((X / (Y + 1), (1, 2, QuadExt(0, 1, -3))))      # Q coefficients, z not used
# squares of an irrational entry, coefficient denominators 6 and 2
@example(((X * X / 3 + Y) / (Y * 2 + 3), (QuadExt(1, 1, -3), Fraction(1, 2), 0)))
@example(((X * X / 3 + Y) / (Y * 2 + 3), (Fraction(1, 3), Fraction(1, 2), 0)))
def test_eval_matches_ring_arithmetic(case):
    f, point = case
    for p in map(RatFunc, (f.num, f.den)):
        assert_same(p.eval(point), reference_eval(p, point))
    try:
        want = reference_eval(f, point)
    except DegenerateError:
        with pytest.raises(DegenerateError, match="^denominator vanishes at the point$"):
            f.eval(point)
        return
    assert_same(f.eval(point), want)


def test_poly_and_ratfunc_mix_in_either_order():
    x = Poly.variable(("x",), "x")
    X = RatFunc.variable(("x",), "x")
    want = {"+": RatFunc(x * 2), "-": RatFunc.const(("x",), 0), "*": RatFunc(x * x)}
    for a, b in ((x, X), (X, x)):
        for op, got in (("+", a + b), ("-", a - b), ("*", a * b)):
            assert type(got) is RatFunc and got == want[op]
            assert str(got) == str(want[op])
        assert a == b and not a != b


@pytest.mark.parametrize("other", [0.5, "x", None, [1]])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
def test_ratfunc_arithmetic_refuses_an_operand_that_is_no_scalar(op, other):
    X = RatFunc.variable(("x",), "x")
    with pytest.raises(TypeError):
        op(X, other)
    with pytest.raises(TypeError):
        op(other, X)
    # a scalar still coerces on either side
    two = RatFunc.const(("x",), 2)
    assert op(X, 2) == op(X, two) and op(2, X) == op(two, X)


def test_int_ratfunc_evaluates_to_a_fraction():
    f = RatFunc(Poly(("x",), {(1,): 1}), Poly(("x",), {(0,): 1, (1,): 1}))
    assert_same(f.eval((2,)), Fraction(2, 3))
    g = RatFunc(Poly(("x",), {(2,): 1}), Poly(("x",), {(0,): 1}))
    assert_same(g.eval((3,)), Fraction(9))


@pytest.mark.parametrize("d1, d2", [(-3, -1), (-1, -3)])
def test_eval_rejects_irrational_values_of_two_fields(d1, d2):
    f = (X + QuadExt(0, 1, d1)) / (Y + 2)
    m = EquivMap("m", VarietySpec("A", (Block("affine", XYZ),)),
                 VarietySpec("B", (Block("affine", ("u", "v")),)), (Y / (Y + 2), f))
    point = (QuadExt(0, 1, d2), 1, 0)
    for evaluate in (f.eval, RatFunc(f.num).eval, lambda pt: map_of_point(m, pt)):
        with pytest.raises(FieldMismatchError):
            evaluate(point)
    # a rational value of the other field crosses over, an unused entry is not read
    for point in ((QuadExt(2, 0, d2), 1, 0), (1, 1, QuadExt(0, 1, d2))):
        assert_same(f.eval(point), reference_eval(f, point))
        assert map_of_point(m, point) == (reference_eval(Y / (Y + 2), point),
                                          reference_eval(f, point))


def test_eval_at_a_generic_point_raises():
    # a generic point is ratfunc_compose's, which agrees with ring arithmetic
    f = (X * Y + QuadExt(0, 1, -3)) / (Z + 1)
    point = (Y, X, Z * 2)
    assert ratfunc_compose(f, point) == reference_eval(f, point)
    for generic, kind in (((X, Y, Z), "RatFunc"), (point, "RatFunc"), ((1, 2, Z.num), "Poly")):
        with pytest.raises(StructureError, match=re.escape(
                f"with a {kind} entry: substitute a generic point with ratfunc_compose")):
            f.eval(generic)


@pytest.mark.parametrize("entry", [0.5, "1", None, True])
def test_eval_at_an_entry_that_is_no_scalar_says_so(entry):
    f = (X * Y + 1) / (Z + 1)
    with pytest.raises(StructureError, match=re.escape(
            f"entry that is not a scalar: {entry!r}")) as got:
        f.eval((1, entry, 2))
    assert "ratfunc_compose" not in str(got.value)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(EVAL_FIELDS).flatmap(lambda d: st.tuples(
    st.lists(ratfuncs(d, XYZ, 4, 2), min_size=1, max_size=4),
    st.tuples(*[entries(d)] * 3))))
@example(([X / (Y + 1), Z], (1, 2, QuadExt(0, 1, -3))))  # a Fraction and a QuadExt
def test_map_of_point_is_each_component_at_the_point(case):
    comps, point = case
    target = tuple(f"u{i}" for i in range(len(comps)))
    m = EquivMap("m", VarietySpec("A", (Block("affine", XYZ),)),
                 VarietySpec("B", (Block("affine", target),)), comps)
    try:
        want = tuple(reference_eval(f, point) for f in comps)
    except DegenerateError:
        with pytest.raises(DegenerateError, match="^denominator vanishes at the point$"):
            map_of_point(m, point)
        return
    got = map_of_point(m, point)
    for g, f, w in zip(got, comps, want):
        assert_same(g, w)
        assert_same(f.eval(point), w)
