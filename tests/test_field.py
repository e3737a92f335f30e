import operator
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cayleycert.errors import DegenerateError, FieldMismatchError, StructureError
from cayleycert.field import QuadExt, QuadField, below, conj, random_rational, scalar_str

F = QuadField(-3)
ZETA = F.zeta()


SIZES = (1, 2, 7, 9, 19, 64, 2 ** 70 + 3)


@pytest.mark.skipif(not (3, 10) <= sys.version_info[:2] <= (3, 13),
                    reason="below reproduces randint on CPython 3.10 to 3.13")
@pytest.mark.parametrize("n", SIZES)
def test_below_draws_the_stream_of_randint(n):
    # one call over mixed bounds, n first, the seven sizes interleaved with
    # the bounds of the skew draw (7, 2) and of random_rational (19, 9)
    bounds = [b for size in SIZES for b in (n, size, 7, 2, 19, 9)] * 20
    ours, theirs = random.Random(n), random.Random(n)
    assert below(ours, bounds) == [theirs.randint(0, b - 1) for b in bounds]
    assert ours.getstate() == theirs.getstate()


@pytest.mark.skipif(not (3, 10) <= sys.version_info[:2] <= (3, 13),
                    reason="below reproduces randint on CPython 3.10 to 3.13")
def test_random_rational_draws_the_stream_of_randint():
    ours, theirs = random.Random(5), random.Random(5)
    assert ([random_rational(ours) for _ in range(200)]
            == [Fraction(theirs.randint(-9, 9), theirs.randint(1, 9)) for _ in range(200)])
    assert ours.getstate() == theirs.getstate()


def test_conjugate_sum_is_rational():
    a = F.of(1, 1)
    assert a + a.conj() == 2


def test_conjugate_product_expands():
    # (1 + r)(1 - r) = 1 - r^2 = 1 - (-3) = 4
    assert F.of(1, 1) * F.of(1, -1) == 4


def test_zeta_is_primitive_cube_root():
    assert ZETA != 1
    assert ZETA ** 3 == 1
    assert ZETA * ZETA * ZETA == 1
    assert 1 + ZETA + ZETA ** 2 == 0


def test_inverse_of_one():
    assert F.one.inverse() == 1


def test_inverse_conjugate_over_norm():
    x = F.of(1, 1)
    assert x.inverse() == F.of(Fraction(1, 4), Fraction(-1, 4))
    assert x * x.inverse() == 1


def test_zeta_inverse_is_zeta_squared():
    assert ZETA.inverse() == ZETA ** 2
    assert ZETA ** -1 == ZETA ** 2


def test_conjugation_definition():
    assert conj(F.sqrt) == -F.sqrt
    assert conj(ZETA) == ZETA.conj() == ZETA ** 2


def test_conjugation_involution_random():
    rng = random.Random(1)
    for _ in range(50):
        x = F.of(random_rational(rng), random_rational(rng))
        assert conj(conj(x)) == x


def test_zero_inverse_raises():
    with pytest.raises(DegenerateError):
        F.zero.inverse()


def test_mismatched_discriminants_raise():
    with pytest.raises(FieldMismatchError):
        QuadExt(1, 1, -3) + QuadExt(1, 1, -1)


def test_rational_embeds_across_discriminants():
    # a value with zero irrational part is plain rational
    assert QuadExt(5, 0, -3) == QuadExt(5, 0, -1)
    assert QuadExt(5, 0, -3) + QuadExt(2, 0, -1) == 7


def test_bad_discriminant_rejected():
    for d in (0, 1, 4, 12):
        with pytest.raises(StructureError):
            QuadExt(1, 1, d)


@pytest.mark.parametrize("d", [0, 1, 4, -8, -3.0, Fraction(-3), "-3"])
def test_both_constructors_check_the_discriminant_alike(d):
    # unchecked, a float or Fraction d builds a value whose product raises TypeError
    for build in (lambda: QuadExt(1, 1, d), lambda: QuadField(d)):
        with pytest.raises(StructureError, match="^discriminant must be a squarefree int"):
            build()


def test_serialization_format():
    assert scalar_str(Fraction(3, 4)) == "3/4"
    assert scalar_str(F.of(Fraction(1, 2), Fraction(1, 2))) == "1/2+1/2*sqrt(-3)"
    assert scalar_str(F.of(0, -1)) == "-sqrt(-3)"
    assert scalar_str(F.of(5)) == "5"


small_rats = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def qext_values(draw, d=-3):
    return QuadExt(draw(small_rats), draw(small_rats), d)


@settings(max_examples=60, deadline=None)
@given(qext_values(), qext_values(), qext_values())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@settings(max_examples=60, deadline=None)
@given(qext_values(), qext_values())
def test_conjugation_is_ring_homomorphism(x, y):
    assert conj(x * y) == conj(x) * conj(y)
    assert conj(x + y) == conj(x) + conj(y)


@settings(max_examples=40, deadline=None)
@given(qext_values())
def test_inverse_round_trip(x):
    if x:
        assert x * x.inverse() == 1


def test_quadfield_other_discriminants():
    for d in (-1, 2, 5):
        K = QuadField(d)
        r = K.sqrt
        assert r * r == d
        assert conj(r) == -r
        x = K.of(3, 2)
        assert x * x.inverse() == 1


# -- oracles for the integer representation ----------------------------------
#
# QuadExt stores (p + q*sqrt(d))/n as canonical integers.  Its arithmetic is
# checked against two independent references: a pair of Fractions (a, b)
# with the textbook formulas, always available, and sympy's algebraic
# field Q(sqrt(d)) when sympy is installed.

DISCRIMINANTS = (-3, -1, 2, 5)


class PairModel:
    """a + b*sqrt(d) as two Fractions, computed with the textbook formulas."""

    def __init__(self, a, b, d):
        self.a, self.b, self.d = Fraction(a), Fraction(b), d

    def __add__(self, o):
        return PairModel(self.a + o.a, self.b + o.b, self.d)

    def __sub__(self, o):
        return PairModel(self.a - o.a, self.b - o.b, self.d)

    def __mul__(self, o):
        return PairModel(self.a * o.a + self.d * self.b * o.b,
                         self.a * o.b + self.b * o.a, self.d)

    def norm(self):
        return self.a * self.a - self.d * self.b * self.b

    def inverse(self):
        n = self.norm()
        return PairModel(self.a / n, -self.b / n, self.d)

    def __truediv__(self, o):
        return self * o.inverse()

    def conj(self):
        return PairModel(self.a, -self.b, self.d)

    def __eq__(self, o):
        return (self.a, self.b) == (o.a, o.b)

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b, self.d))

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.d})"
        tail = {1: root, -1: f"-{root}"}.get(self.b, f"{self.b}*{root}")
        if self.a == 0:
            return tail
        return f"{self.a}{'+' if self.b > 0 else ''}{tail}"


def assert_canonical(x: QuadExt):
    p, q, n = x._pqn
    assert all(type(v) is int for v in (p, q, n))
    assert n > 0
    assert gcd(p, q, n) == 1


def assert_matches(x: QuadExt, m: PairModel):
    assert_canonical(x)
    assert (x.a, x.b, x.d) == (m.a, m.b, m.d)
    assert hash(x) == hash(m)
    assert scalar_str(x) == str(m)


@st.composite
def qext_pairs(draw):
    """Two values of one field, and the same two values as PairModels."""
    d = draw(st.sampled_from(DISCRIMINANTS))
    parts = [(draw(small_rats), draw(small_rats)) for _ in range(2)]
    return (tuple(QuadExt(a, b, d) for a, b in parts),
            tuple(PairModel(a, b, d) for a, b in parts))


BINARY_OPS = (operator.add, operator.sub, operator.mul)


@settings(max_examples=150, deadline=None)
@given(qext_pairs(), small_rats, st.integers(-9, 9))
def test_arithmetic_matches_fraction_pair_model(pairs, r, k):
    (x, y), (mx, my) = pairs
    assert_matches(x, mx)
    for op in BINARY_OPS:
        assert_matches(op(x, y), op(mx, my))
        # rational operands on either side
        for c in (r, k):
            mc = PairModel(c, 0, x.d)
            assert_matches(op(x, c), op(mx, mc))
            assert_matches(op(c, x), op(mc, mx))
    assert_matches(-x, PairModel(0, 0, x.d) - mx)
    assert_matches(conj(x), mx.conj())
    assert_matches(x * x.conj(), mx * mx.conj())
    assert (x == y) == (mx == my)
    assert (x == r) == (mx == PairModel(r, 0, x.d))
    if y:
        assert_matches(y.inverse(), my.inverse())
        assert_matches(x / y, mx / my)
        assert_matches(r / y, PairModel(r, 0, x.d) / my)
        assert_matches(x / y * y, mx)
    else:
        with pytest.raises(DegenerateError):
            y.inverse()
        with pytest.raises(DegenerateError):
            x / y


@pytest.fixture(scope="module")
def sympy_fields():
    sympy = pytest.importorskip("sympy")
    fields = {}
    for d in DISCRIMINANTS:
        K = sympy.QQ.algebraic_field(sympy.sqrt(d))
        root = K.from_sympy(sympy.sqrt(d))
        assert root.to_list() == [K.dom.one, K.dom.zero]   # generator is sqrt(d)
        fields[d] = (K, root)
    t = sympy.Symbol("t")

    def norm(x):
        # resultant of the monic minimal polynomial t^2 - d and b*t + a
        # is the product of a + b*r over both roots r = +-sqrt(d)
        res = sympy.resultant(t ** 2 - x.d, x.b * t + x.a, t)
        return Fraction(int(res.p), int(res.q))

    return fields, norm


def _in_sympy(fields, x):
    """x (a QuadExt or PairModel) as an element of sympy's Q(sqrt(d))."""
    K, root = fields[x.d]
    return K.convert(x.a) + K.convert(x.b) * root


@settings(max_examples=60, deadline=None)
@given(qext_pairs())
def test_arithmetic_matches_sympy_algebraic_field(sympy_fields, pairs):
    fields, sympy_norm = sympy_fields
    (x, y), (mx, my) = pairs
    K = fields[x.d][0]
    sx, sy = _in_sympy(fields, mx), _in_sympy(fields, my)
    for op in BINARY_OPS:
        assert _in_sympy(fields, op(x, y)) == op(sx, sy)
    assert _in_sympy(fields, -x) == -sx
    assert (x == y) == (sx == sy)
    n = sympy_norm(mx)
    assert x * x.conj() == n
    if x:
        assert _in_sympy(fields, x.inverse()) == K.one / sx
        # conj(x) is the unique y with x * y = N(x)
        assert _in_sympy(fields, conj(x)) == K.convert(n) / sx
    if y:
        assert _in_sympy(fields, x / y) == sx / sy
        q = x * y / y
        assert q == x and hash(q) == hash(x) and scalar_str(q) == scalar_str(x)


@settings(max_examples=60, deadline=None)
@given(small_rats, st.sampled_from(DISCRIMINANTS))
def test_rational_hash_and_equality_match_fraction(r, d):
    x = QuadExt(r, 0, d)
    assert hash(x) == hash(r)
    assert x == r and r == x
    if r.denominator == 1:
        assert hash(x) == hash(int(r)) and x == int(r)
    assert_canonical(x)


def test_zero_is_canonical():
    for d in DISCRIMINANTS:
        K = QuadField(d)
        zeros = (K.zero, K.of(0, 0), K.sqrt - K.sqrt, K.of(3, 1) * 0,
                 QuadExt(Fraction(0, 5), Fraction(0, 7), d))
        for z in zeros:
            assert z._pqn == (0, 0, 1)
            assert not z and z == 0 and hash(z) == hash(0)


def test_rational_crosses_fields_in_either_order():
    # a rational value of one field combines with an irrational value of
    # another, on either side of the operator, and the result lives in the
    # irrational value's field; it equals the same operation with a Fraction
    r = Fraction(5, 2)
    for d_rat in DISCRIMINANTS:
        rational = QuadExt(r, 0, d_rat)
        for d in DISCRIMINANTS:
            if d == d_rat:
                continue
            irrational = QuadExt(Fraction(1, 3), -2, d)
            for op in BINARY_OPS + (operator.truediv,):
                for got, want in ((op(rational, irrational), op(r, irrational)),
                                  (op(irrational, rational), op(irrational, r))):
                    assert type(got) is QuadExt and got.d == d
                    assert got._pqn == want._pqn
                    assert_canonical(got)
            assert rational != irrational and irrational != rational


def test_irrational_values_of_two_fields_raise():
    # whichever side of the operator each one is on
    for x, y in ((QuadExt(1, 1, -3), QuadExt(1, 1, -1)),
                 (QuadExt(1, 1, -1), QuadExt(1, 1, -3)),
                 (QuadExt(0, 2, 5), QuadExt(Fraction(1, 2), 1, 2))):
        for op in BINARY_OPS + (operator.truediv,):
            with pytest.raises(FieldMismatchError):
                op(x, y)
        assert x != y
