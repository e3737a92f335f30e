import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cayleycert.errors import (DegenerateError, FieldMismatchError, StructureError,
                               TermBudgetError)
from cayleycert.field import QuadExt, QuadField
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


def test_int_denominator_normalises_exactly():
    f = RatFunc(Poly.const(V3, 1), Poly.const(V3, 3))
    assert f.num.terms == {(0, 0, 0): Fraction(1, 3)}
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
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
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
    assert got.terms == want
    assert list(got.terms) == graded_order(want)
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
    ratq = Poly(XYZ, {e: QuadExt(c, 0, d1) for e, c in p.terms.items()})
    irrq = Poly(XYZ, {e: QuadExt(c, c, d2) for e, c in q.terms.items()})
    assert_product(ratq, irrq)
    assert_product(irrq, ratq)
    assert_product(ratq, q)


def test_int_product_keeps_int_coefficients():
    p = Poly(("x", "y"), {(1, 0): 3, (0, 2): -2, (0, 0): 5})
    q = Poly(("x", "y"), {(0, 1): 7, (1, 0): 1})
    pq = p * q
    assert pq.terms == {(2, 0): 3, (1, 1): 21, (1, 2): -2, (0, 3): -14,
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
    one = (p ** 0).terms
    assert one == {(0,) * len(p.vars): 1} and type(one[(0,) * len(p.vars)]) is int


def test_irrational_coefficients_of_two_fields_raise():
    p = Poly.variable(V3, "x1") + QuadExt(0, 1, -3)
    q = Poly.const(V3, QuadExt(1, 1, 5))
    for a, b in ((p, q), (q, p)):
        with pytest.raises(FieldMismatchError):
            a * b
    # rational values of another field are fine
    assert_product(p, Poly.const(V3, QuadExt(2, 0, 5)))


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
            for exps, c in p.terms.items():
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
