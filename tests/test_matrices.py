"""The integer kernels of ``matrices``: products and fraction-free inverses.

``mat_mul`` and ``mat_inverse`` are checked against a textbook
Gauss-Jordan reference written here on the scalars' own field arithmetic
(values and entry types), and ``mat_inverse`` against sympy.  So are the
operations of the integer form ``_IntMat`` that they convert through.
"""

import re
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cayleycert.errors import DegenerateError, FieldMismatchError, StructureError
from cayleycert.field import QuadExt, _domain
from cayleycert.matrices import (_IntMat, identity, mat_add, mat_eq, mat_inverse, mat_mul,
                                 mat_sub)

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
