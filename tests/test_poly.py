import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cayleycert.errors import (DegenerateError, ExponentOverflowError, FieldMismatchError,
                               StructureError, TermBudgetError)
from cayleycert.field import QuadExt, QuadField
from cayleycert.poly import (EvalPlan, Poly, RatFunc, Relation, _cross, chart_restrict,
                             ratfunc_compose, ratfunc_equal, term_budget)
from cayleycert.ratmap import Block, EquivMap, VarietySpec, map_of_point

F = QuadField(-3)
ZETA = F.zeta()
V3 = ("x1", "x2", "x3")


def rf(name):
    return RatFunc.variable(V3, name)


def test_eval_cube_roots_sum_to_zero():
    p = sum((Poly.variable(V3, v) for v in V3), Poly.zero(V3))
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


def test_int_denominator_normalises_exactly():
    f = RatFunc(Poly.const(V3, 1), Poly.const(V3, 3))
    assert dict(f.num.items()) == {(0, 0, 0): Fraction(1, 3)}
    assert type(f.num.lead_coeff()) is Fraction and f.den == Poly.const(V3, 1)
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
# same TermBudgetError at every budget.


def reference_compose(f, subst):
    """ratfunc_compose product by product through Poly arithmetic: the
    power rows n_i^k, d_i^k, then each term's chain c * n_i^e_i *
    d_i^(M_i - e_i) variable by variable, summed term by term."""
    out_vars = subst[0].vars
    top = [max((e[i] for p in (f.num, f.den) for e, _ in p.items()), default=0)
           for i in range(len(f.vars))]
    one = Poly.const(out_vars, Fraction(1))
    rows = []
    for s, m in zip(subst, top):
        nrow, drow = [one], [one]
        for _ in range(m):
            nrow.append(nrow[-1] * s.num)
            drow.append(drow[-1] * s.den)
        rows.append((nrow, drow))

    def cleared(poly):
        acc = Poly.zero(out_vars)
        for exps, c in poly.items():
            val = Poly.const(out_vars, c)
            for (nrow, drow), e, m in zip(rows, exps, top):
                if e:
                    val = val * nrow[e]
                if m - e:
                    val = val * drow[m - e]
            acc = acc + val
        return acc

    den = cleared(f.den)
    if den.is_zero():
        raise DegenerateError("zero denominator")
    return RatFunc(cleared(f.num), den)


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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda d: st.tuples(
    ratfuncs(d, XYZ, 3, 2), st.tuples(*[ratfuncs(d, ST, 3, 1) for _ in XYZ]))))
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
    for generic in ((X, Y, Z), point, (1, 2, Z.num)):
        with pytest.raises(StructureError, match="ratfunc_compose"):
            f.eval(generic)


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
