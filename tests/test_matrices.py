"""The integer kernels of ``matrices``: products and fraction-free inverses.

``mat_mul`` and ``mat_inverse`` are checked against a textbook
Gauss-Jordan reference written here on the scalars' own field arithmetic
(values and entry types), and ``mat_inverse`` against sympy.  So are the
operations of the integer form ``_IntMat`` that they convert through.  A
product with ``Poly`` entries is checked against the sum of ``Poly``
products that its kernel replaces: values, term budget, exponent field
and variable mismatches.
"""

import re
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from cayleycert import poly
from cayleycert.classical import generic_matrices
from cayleycert.errors import (DegenerateError, ExponentOverflowError, FieldMismatchError,
                               StructureError, TermBudgetError)
from cayleycert.field import QuadExt, QuadField, _domain
from cayleycert.matrices import (_IntMat, identity, mat_add, mat_eq, mat_inverse, mat_mul,
                                 mat_sub)
from cayleycert.poly import Poly, term_budget

DISCRIMINANTS = (-3, -1, 2, 5)
FIELDS = (None,) + DISCRIMINANTS          # None: plain Fraction matrices


def reference_inverse(a):
    """Gauss-Jordan with one field division per entry, on [a | 1]."""
    n = len(a)
    zero = a[0][0] * 0
    aug = [list(row) + [zero + int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c]), None)
        if p is None:
            raise DegenerateError("singular matrix")
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [x / piv for x in aug[c]]
        for r in range(n):
            if r != c:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def reference_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def kinds(m):
    """Shape and entry types; QuadExt entries also carry their field."""
    assert type(m) is tuple and all(type(r) is tuple for r in m)
    return [[(type(x), x.d if isinstance(x, QuadExt) else None) for x in r] for r in m]


# zeros are drawn often, so pivots vanish and rows must be swapped
rationals = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)))


def scalars(d):
    if d == "int":
        return st.integers(-6, 6)
    if d is None:
        return rationals
    return st.builds(lambda p, q: QuadExt(p, q, d), rationals, rationals)


@st.composite
def matrices(draw, d, rows, cols):
    entry = scalars(d)
    return tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows))


@st.composite
def square(draw):
    d = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 5))
    return draw(matrices(d, n, n))


@settings(max_examples=100, deadline=None)
@given(square())
def test_inverse_matches_gauss_jordan_reference(a):
    try:
        want = reference_inverse(a)
    except DegenerateError:
        with pytest.raises(DegenerateError, match="singular matrix"):
            mat_inverse(a)
        return
    got = mat_inverse(a)
    assert got == want
    assert kinds(got) == kinds(want)
    assert mat_mul(a, got) == identity(len(a))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mul_matches_reference(data):
    d = data.draw(st.sampled_from(("int",) + FIELDS))
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = data.draw(matrices(d, n, k))
    b = data.draw(matrices(d, k, m))
    got = mat_mul(a, b)
    want = reference_mul(a, b)
    assert got == want
    assert kinds(got) == kinds(want)


@st.composite
def form_operands(draw):
    """Two square matrices over Q or Q(sqrt(-3)), whose entries over
    Q(sqrt(-3)) mix QuadExt and Fraction values."""
    d = draw(st.sampled_from((None, -3)))
    n = draw(st.integers(1, 4))
    entry = rationals if d is None else st.one_of(rationals, scalars(d))
    return tuple(tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
                 for _ in "ab")


@settings(max_examples=150, deadline=None)
@given(form_operands())
def test_integer_form_matches_the_reference(case):
    # both forms over the d that field._domain gives a and b, as in mat_mul;
    # their scalars have the entry kinds that the rule gives
    a, b = case
    kind, d = _domain(*a, *b)
    want_kinds = [[(QuadExt, d) if kind is QuadExt else (Fraction, None)] * len(a)] * len(a)
    fa, fb = _IntMat.of(a, d), _IntMat.of(b, d)
    assert fa.den > 0 and fa.scalars() == a
    assert kinds(fa.scalars()) == want_kinds
    prod = fa @ fb
    assert prod.scalars() == reference_mul(a, b)
    assert kinds(prod.scalars()) == want_kinds
    # equality cross-multiplies: the product is over den(a) * den(b)
    assert prod == _IntMat.of(reference_mul(a, b), d) and not prod.shift(1) == prod
    assert fa.shift(2).scalars() == mat_add(a, identity(len(a), 2))
    assert fa.over(3).scalars() == tuple(tuple(x / 3 for x in r) for r in a)
    assert (-fa).scalars() == tuple(tuple(-x for x in r) for r in a)
    assert bool(fa) == any(map(any, a))
    try:
        want = reference_inverse(a)
    except DegenerateError:
        with pytest.raises(DegenerateError, match="singular matrix"):
            fa.inverse()
        return
    inv = fa.inverse()
    assert inv.scalars() == want
    assert kinds(inv.scalars()) == want_kinds
    # one content gcd: numerators and denominator share no factor
    assert inv.den > 0 and gcd(inv.den, *chain(*inv.p), *chain(*(inv.q or ()))) == 1


SHIFT_OPERANDS = {
    # 3x3 forms over a denominator D != 1, with zeros on and off the diagonal
    None: ((Fraction(1, 2), Fraction(-2, 3), 0), (Fraction(5, 6), 0, 1),
           (2, Fraction(1, 4), Fraction(-7, 12))),
    -3: ((QuadExt(Fraction(1, 2), 1, -3), 0, QuadExt(0, Fraction(1, 3), -3)),
         (Fraction(3, 5), QuadExt(2, Fraction(-1, 4), -3), 1),
         (0, QuadExt(0, 1, -3), QuadExt(Fraction(-1, 6), 0, -3))),
    2: ((QuadExt(0, Fraction(1, 2), 2), 1, 0),
        (QuadExt(Fraction(2, 3), -1, 2), 0, Fraction(1, 7)),
        (0, 0, QuadExt(1, Fraction(1, 5), 2))),
}


@pytest.mark.parametrize("k", [-2, -1, 1, 2])
@pytest.mark.parametrize("d", list(SHIFT_OPERANDS))
def test_shift_matches_an_entrywise_reference(d, k):
    a = SHIFT_OPERANDS[d]
    m = _IntMat.of(a, d)
    p, q = [list(r) for r in m.p], m.q and [list(r) for r in m.q]
    assert m.den != 1
    s = m.shift(k)
    # entry (i, j) is (P_ij + k D [i = j] + Q_ij sqrt(d))/D
    assert (s.den, s.d, s.q) == (m.den, d, m.q)
    assert s.p == [[x + k * m.den * (i == j) for j, x in enumerate(r)]
                   for i, r in enumerate(p)]
    assert s.scalars() == tuple(tuple(x + k if i == j else x for j, x in enumerate(r))
                                for i, r in enumerate(a))
    assert kinds(s.scalars()) == kinds(m.scalars())
    # P's rows are new lists, and an edit of the result leaves the operand
    assert not any(r is t for r in s.p for t in m.p)
    s.p[0][0] += 1
    assert m.p == p and (m.q and [list(r) for r in m.q]) == q


@pytest.fixture(scope="module")
def sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def rational(x):
        return sympy.Rational(x.numerator, x.denominator)

    def inverse(a):
        """sympy's inverse of ``a`` and ``a``'s converter into its domain."""
        n = len(a)
        if not isinstance(a[0][0], QuadExt):
            return sympy.Matrix([[rational(x) for x in r] for r in a]).inv().tolist(), rational
        # Matrix.inv over expressions in sqrt(d) leaves unsimplified radicals;
        # the same inverse over the domain QQ<sqrt(d)> compares exactly
        K = sympy.QQ.algebraic_field(sympy.sqrt(a[0][0].d))
        root = K.from_sympy(sympy.sqrt(a[0][0].d))

        def convert(x):
            return K.convert(x.a) + K.convert(x.b) * root
        rows = [[convert(x) for x in r] for r in a]
        return DomainMatrix(rows, (n, n), K).inv().to_list(), convert

    return inverse


@settings(max_examples=60, deadline=None)
@given(square())
def test_inverse_matches_sympy(sympy_oracle, a):
    try:
        got = mat_inverse(a)
    except DegenerateError:
        with pytest.raises(Exception):
            sympy_oracle(a)
        return
    want, convert = sympy_oracle(a)
    assert [[convert(x) for x in r] for r in got] == want


ROW_SWAP_CASES = [
    # zero leading pivot, and rows over different denominators: the
    # denominators must follow the rows they came from, not the swaps
    ((0, Fraction(1, 2)), (Fraction(1, 3), 0)),
    ((0, Fraction(1, 2), Fraction(1, 3)),
     (Fraction(2, 5), Fraction(1, 7), 0),
     (Fraction(1), Fraction(3, 4), Fraction(5, 6))),
    # the second pivot vanishes only after the first elimination step
    ((Fraction(1, 2), Fraction(1, 2), 0),
     (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
     (0, Fraction(1, 5), Fraction(1, 5))),
]


@pytest.mark.parametrize("d", FIELDS)
@pytest.mark.parametrize("rows", ROW_SWAP_CASES)
def test_zero_pivot_row_swap_inverts(rows, d):
    if d is None:
        a = tuple(tuple(Fraction(x) for x in r) for r in rows)
    else:
        a = tuple(tuple(QuadExt(x, x, d) for x in r) for r in rows)
    inv = mat_inverse(a)
    one = identity(len(a))
    assert mat_mul(a, inv) == one and mat_mul(inv, a) == one
    assert inv == reference_inverse(a)
    assert kinds(inv) == kinds(reference_inverse(a))


def test_row_swap_inverse_pinned():
    a = ((0, Fraction(1, 2)), (Fraction(1, 3), 0))
    assert mat_inverse(a) == ((0, 3), (2, 0))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_singular_matrix_raises(data):
    d = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(2, 5))
    rows = list(data.draw(matrices(d, n - 1, n)))
    coeffs = data.draw(matrices(d, 1, n - 1))[0]
    dependent = tuple(sum((c * x for c, x in zip(coeffs, col)), Fraction(0))
                      for col in zip(*rows))
    rows.insert(data.draw(st.integers(0, n - 1)), dependent)
    with pytest.raises(DegenerateError, match="singular matrix"):
        mat_inverse(tuple(rows))


def test_int_product_keeps_int_entries():
    got = mat_mul(((1, 2), (3, 4)), ((5, 6), (7, 8)))
    assert got == ((19, 22), (43, 50))
    assert all(type(x) is int for r in got for x in r)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mixed_fraction_quadext_values(data):
    # no library path mixes the two, so only the values are pinned
    d = data.draw(st.sampled_from(DISCRIMINANTS))
    entry = st.one_of(rationals, scalars(d))
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    a = tuple(tuple(data.draw(entry) for _ in range(n)) for _ in range(n))
    b = tuple(tuple(data.draw(entry) for _ in range(m)) for _ in range(n))
    assert mat_mul(a, b) == reference_mul(a, b)
    try:
        want = reference_inverse(a)
    except DegenerateError:
        with pytest.raises(DegenerateError):
            mat_inverse(a)
        return
    assert mat_inverse(a) == want


def test_irrational_entries_of_two_fields_raise():
    a = ((QuadExt(1, 1, -3), QuadExt(1, 1, -1)),)
    with pytest.raises(FieldMismatchError):
        mat_mul(a, ((1,), (1,)))
    # rational values of any field mix with one field's irrational values
    b = ((QuadExt(2, 0, -1), QuadExt(1, 1, -3)), (QuadExt(0, 0, 5), QuadExt(1, 0, 2)))
    same = ((Fraction(2), QuadExt(1, 1, -3)), (Fraction(0), Fraction(1)))
    assert mat_mul(b, b) == reference_mul(same, same)
    assert mat_inverse(b) == reference_inverse(same)


MISSHAPEN = [((1, 2),), ((1,), (3,)), ((1, 2), (3,))]


@pytest.mark.parametrize("b", MISSHAPEN)
def test_add_and_sub_refuse_mismatched_shapes(b):
    a = ((1, 2), (3, 4))
    for op in (mat_add, mat_sub):
        with pytest.raises(StructureError, match="cannot"):
            op(a, b)
    assert mat_sub(mat_add(a, a), a) == a


@pytest.mark.parametrize("b", MISSHAPEN)
def test_matrices_of_different_shapes_are_not_equal(b):
    a = ((1, 2), (3, 4))
    assert not mat_eq(a, b) and not mat_eq(b, a)


@pytest.mark.parametrize("a, message", [
    (((1, 2, 3), (3, 4, 5)), "cannot invert a 2x3 matrix"),
    (((1, 2), (3, 4), (5, 6)), "cannot invert a 3x2 matrix"),
    (((1, 2), (3,)), "ragged matrix: row lengths [2, 1]"),
])
def test_inverse_refuses_non_square_and_ragged_input(a, message):
    with pytest.raises(StructureError, match=re.escape(message)):
        mat_inverse(a)


@pytest.mark.parametrize("a, b", [
    (((1, 2), (3,)), identity(2)),
    (identity(2), ((1, 2), (3,))),
    (((Fraction(1), 2), (QuadExt(0, 1, -3),)), identity(2)),
])
def test_mul_refuses_a_ragged_factor(a, b):
    with pytest.raises(StructureError, match="ragged matrix"):
        mat_mul(a, b)


# -- entries that are no scalar of the kernels ------------------------------

NOT_ENTRIES = [0.5, "1", None, complex(1, 1)]


@pytest.mark.parametrize("x", NOT_ENTRIES)
def test_mul_names_an_entry_that_is_no_scalar_or_poly(x):
    with pytest.raises(StructureError, match=re.escape(f"matrix entry {x!r}: not an int")):
        mat_mul(((x,),), ((2,),))
    with pytest.raises(StructureError, match=re.escape(f"matrix entry {x!r}: not an int")):
        mat_mul(((Poly.variable(("x",), "x"),),), ((x,),))


@pytest.mark.parametrize("x", NOT_ENTRIES)
def test_inverse_names_an_entry_that_is_no_scalar(x):
    with pytest.raises(StructureError, match=re.escape(f"matrix entry {x!r}: not an int")):
        mat_inverse(((x,),))
    with pytest.raises(StructureError, match="cannot invert a matrix with a Poly entry"):
        mat_inverse(((Poly.variable(("x",), "x"),),))


@pytest.mark.parametrize("x", NOT_ENTRIES)
def test_add_names_an_entry_that_is_no_scalar_or_poly(x):
    with pytest.raises(StructureError, match=re.escape(f"matrix entry {x!r}: not an int")):
        mat_add(((1, x),), ((2, 3),))


@pytest.mark.parametrize("x", NOT_ENTRIES)
def test_sub_names_an_entry_that_is_no_scalar_or_poly(x):
    with pytest.raises(StructureError, match=re.escape(f"matrix entry {x!r}: not an int")):
        mat_sub(((2, 3),), ((1, x),))


def test_a_bool_entry_counts_as_an_int():
    assert mat_mul(((True, 2),), ((3,), (False,))) == ((3,),)
    assert mat_add(((True,),), ((1,),)) == ((2,),)
    assert mat_inverse(((True,),)) == ((Fraction(1),),)
    x = Poly.variable(("x",), "x")
    assert mat_mul(((True, x),), ((x,), (True,))) == ((2 * x,),)


# -- symbolic products -------------------------------------------------------

XY = ("x", "y")


def reference_symbolic(a, b):
    """The sum of Poly products that the symbolic kernel replaces, in the
    same order: row, column, then k."""
    return tuple(tuple(sum(map(mul, r, c)) for c in zip(*b)) for r in a)


def outcome(f, *args):
    """("ok", value) or (error type, message) for the errors a product raises."""
    try:
        return "ok", f(*args)
    except (TermBudgetError, StructureError) as e:
        return type(e), str(e)


def coefficients(d):
    """Nonzero coefficients: ints only, or ints, Fractions and QuadExts of
    one field d (None: no QuadExt)."""
    ints = st.integers(-5, 5).filter(bool)
    if d == "int":
        return ints
    fracs = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
    if d is None:
        return st.one_of(ints, fracs)
    return st.one_of(ints, fracs, st.builds(lambda p, q: QuadExt(p, q, d), rationals,
                                            rationals.filter(bool)))


def symbolic_entries(d):
    """Polys over XY with up to six terms (the zero Poly among them), and
    scalars (0 among them)."""
    c = coefficients(d)
    polys = st.builds(lambda t: Poly(XY, t), st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), c, max_size=6))
    return st.one_of(polys, st.just(Poly(XY, {})), c, st.just(0))


@st.composite
def symbolic_operands(draw):
    d = draw(st.sampled_from(("int", None, -3, -1, 2)))
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    entry = symbolic_entries(d)
    a = tuple(tuple(draw(entry) for _ in range(k)) for _ in range(n))
    b = tuple(tuple(draw(entry) for _ in range(m)) for _ in range(k))
    if not any(isinstance(x, Poly) for x in chain(*a, *b)):
        a = ((Poly.variable(XY, "x"),) + a[0][1:],) + a[1:]
    return a, b


def coefficient_types(m):
    """(type, field) of every coefficient of a Poly entry and of every scalar entry."""
    vals = chain.from_iterable((c for _, c in x.items()) if isinstance(x, Poly) else (x,)
                               for x in chain.from_iterable(m))
    return {(type(c), c.d if isinstance(c, QuadExt) else None) for c in vals}


@settings(max_examples=150, deadline=None)
@given(symbolic_operands())
def test_symbolic_product_matches_the_sum_of_poly_products(case):
    a, b = case
    got, want = mat_mul(a, b), reference_symbolic(a, b)
    assert got == want
    assert [[isinstance(x, Poly) for x in r] for r in got] == \
        [[isinstance(x, Poly) for x in r] for r in want]
    # every coefficient has the one kind of field._domain over the inputs
    kind, d = _domain(*(x.terms.values() if isinstance(x, Poly) else (x,)
                        for x in chain(*a, *b)))
    assert coefficient_types(got) <= {(kind, d if kind is QuadExt else None)}
    for budget in (1, 2, 3, 5, 9, 20):
        with term_budget(budget):
            assert outcome(mat_mul, a, b) == outcome(reference_symbolic, a, b)


def test_a_budget_sweep_reaches_both_budget_checks():
    # 6 x 6 term pairs over budget 2 fail before the work, 36 terms after it
    p = Poly(XY, {(i, j): 1 for i in range(3) for j in range(2)})
    q = Poly(XY, {(i, j): 1 for i in range(0, 9, 3) for j in range(0, 4, 2)})
    for budget, message in ((2, "product of 6 x 6 terms exceeds budget 2"),
                            (35, "36 terms exceed budget 35")):
        with term_budget(budget):
            for f in (mat_mul, reference_symbolic):
                with pytest.raises(TermBudgetError, match=re.escape(message)):
                    f(((1, p),), ((p * 0,), (q,)))
    with term_budget(36):
        assert mat_mul(((1, p),), ((p,), (q,))) == ((p + p * q,),)


def test_symbolic_product_overflows_at_the_same_product():
    high = Poly(XY, {(2 ** 15, 0): 1})
    a, b = ((3, high),), ((high,), (high,))
    for f in (mat_mul, reference_symbolic):
        with pytest.raises(ExponentOverflowError,
                           match="product of degree 65536 exceeds the 16-bit exponent field"):
            f(a, b)
    # a scalar factor moves no key
    assert mat_mul(((3,),), ((high,),)) == ((3 * high,),)


U = ("u",)


@pytest.mark.parametrize("a, b", [
    (((Poly.variable(XY, "x"),),), ((Poly.variable(U, "u"),),)),
    (((Poly.variable(XY, "x"), Poly.variable(U, "u")),), ((1,), (1,))),
    (((2, Poly.variable(U, "u"), Poly.variable(XY, "y")),), ((1,), (0,), (1,))),
    (((Poly(XY, {}), Poly(U, {})),), ((0,), (Poly(U, {}),))),
])
def test_symbolic_product_raises_the_variable_mismatch_of_the_sum(a, b):
    want = outcome(reference_symbolic, a, b)
    assert want[0] is StructureError and want[1].startswith("variable mismatch")
    assert outcome(mat_mul, a, b) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_symbolic_product_accumulates_each_entry_once(monkeypatch, n):
    a, b = generic_matrices(n, "ab", QuadField(-3).sqrt)
    calls = {"_mul": 0, "_poly": 0}

    def count(name):
        real = getattr(poly, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(poly, name, counted)

    def no_add(*args):
        raise AssertionError("a Poly sum ran")

    count("_mul")
    count("_poly")
    monkeypatch.setattr(Poly, "__add__", no_add)
    monkeypatch.setattr(Poly, "__radd__", no_add)
    got = mat_mul(a, b)
    assert calls["_mul"] <= n ** 3 and calls["_poly"] == n * n
    monkeypatch.undo()
    assert got == reference_symbolic(a, b)
