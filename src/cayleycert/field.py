"""Exact scalars: rationals and quadratic extensions Q(sqrt(d)).

Everything in this package is computed over Q or over a quadratic
extension Q(sqrt(d)) with d a fixed squarefree integer (default -3, which
hosts the primitive cube root of unity zeta = (-1+sqrt(-3))/2).  Rationals
are plain ``fractions.Fraction`` values, which are always stored reduced
with a positive denominator.

Extension elements are ``QuadExt`` values stored as an integer triple
(p, q, n) meaning (p + q*sqrt(d))/n, the integral representation of
Cohen, *A Course in Computational Algebraic Number Theory*, section 4.2.
The triple is kept canonical, n > 0 and gcd(p, q, n) = 1, so equality is
tuple equality and field arithmetic is integer arithmetic plus one gcd,
with no ``Fraction`` built in between.  The discriminant d is validated
where it enters from outside (the public ``QuadExt`` constructor and
``QuadField``), once per field and not once per value: arithmetic results
inherit an already validated d.  The Galois involution
sqrt(d) -> -sqrt(d) is available on every value through :func:`conj`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd

from .errors import DegenerateError, FieldMismatchError, StructureError


def _check_discriminant(d) -> None:
    """Raise :class:`StructureError` unless d is a squarefree int other than 1."""
    squarefree = isinstance(d, int) and d not in (0, 1)
    n, p = abs(d) if squarefree else 0, 2
    while squarefree and p * p <= n:
        squarefree = n % (p * p) != 0
        while n % p == 0:
            n //= p
        p += 1
    if not squarefree:
        raise StructureError(f"discriminant must be a squarefree int other than 0, 1: {d!r}")


def _triple(a, b):
    """(p, q, n) with (p + q*sqrt(d))/n = a + b*sqrt(d), not yet reduced."""
    if not isinstance(a, (int, Fraction)) or not isinstance(b, (int, Fraction)):
        raise TypeError(f"cannot interpret {a!r}, {b!r} as exact rationals")
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    return an * bd, bn * ad, ad * bd


class QuadExt:
    """Element (p + q*sqrt(d))/n of the quadratic field Q(sqrt(d)).

    The integers p, q, n are kept canonical: n > 0 and gcd(p, q, n) = 1.
    ``QuadExt(a, b, d)`` builds a + b*sqrt(d) from ints or Fractions and
    validates d; arithmetic results skip that check, because their d comes
    from a value that was validated when it was built.  ``a``, ``b`` and
    ``d`` are read-only.  A value with b = 0 is a rational and moves freely
    between fields: combined with an irrational value of another field, in
    either order, it gives a value in the irrational one's field.  Mixing
    irrational values of different discriminants raises
    :class:`FieldMismatchError`.
    """

    __slots__ = ("_pqn", "_d")

    def __init__(self, a, b=0, d: int = -3):
        _check_discriminant(d)
        p, q, n = _triple(a, b)
        g = gcd(p, q, n)
        self._pqn = (p, q, n) if g == 1 else (p // g, q // g, n // g)
        self._d = d

    @property
    def a(self) -> Fraction:
        """Rational part."""
        p, _, n = self._pqn
        return Fraction(p, n)

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt(d)."""
        _, q, n = self._pqn
        return Fraction(q, n)

    @property
    def d(self) -> int:
        return self._d

    def _operand(self, other):
        """(p, q, n) of ``other``; None for a non-scalar.

        The result of an operation lives in this field, unless this value
        is rational and ``other`` irrational: then it lives in other's.  So
        the operations take d = self._d if q1 or not q2 else other._d, where
        q2 != 0 makes ``other`` a QuadExt.
        """
        if isinstance(other, QuadExt):
            if other._d != self._d and other._pqn[1] and self._pqn[1]:
                raise FieldMismatchError(
                    f"mixed discriminants: sqrt({self._d}) vs sqrt({other._d})")
            return other._pqn
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p1, q1, n1 = self._pqn
        p2, q2, n2 = o
        d = self._d if q1 or not q2 else other._d
        if n1 == n2:
            return _make(p1 + p2, q1 + q2, n1, d)
        return _make(p1 * n2 + p2 * n1, q1 * n2 + q2 * n1, n1 * n2, d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p1, q1, n1 = self._pqn
        p2, q2, n2 = o
        d = self._d if q1 or not q2 else other._d
        if n1 == n2:
            return _make(p1 - p2, q1 - q2, n1, d)
        return _make(p1 * n2 - p2 * n1, q1 * n2 - q2 * n1, n1 * n2, d)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p1, q1, n1 = self._pqn
        p2, q2, n2 = o
        d = self._d if q1 or not q2 else other._d
        return _make(p1 * p2 + d * q1 * q2, p1 * q2 + q1 * p2, n1 * n2, d)

    __rmul__ = __mul__

    def __neg__(self):
        p, q, n = self._pqn
        return _make(-p, -q, n, self._d)

    def conj(self) -> "QuadExt":
        """Galois conjugate a - b*sqrt(d)."""
        p, q, n = self._pqn
        return _make(p, -q, n, self._d)

    def inverse(self) -> "QuadExt":
        return _quotient((1, 0, 1), self._pqn, self._d)

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        d = self._d if self._pqn[1] or not o[1] else other._d
        return _quotient(self._pqn, o, d)

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _quotient(o, self._pqn, self._d)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = _make(1, 0, 1, self._d)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self):
        return self._pqn != (0, 0, 1)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            if self._d != other._d and self._pqn[1]:
                return False
            return self._pqn == other._pqn
        if isinstance(other, int):
            return self._pqn == (other, 0, 1)
        if isinstance(other, Fraction):
            return self._pqn == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        p, q, n = self._pqn
        if not q:
            return hash(Fraction(p, n))
        return hash((self.a, self.b, self._d))

    def __str__(self):
        return scalar_str(self)

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, d={self.d})"


_new = object.__new__
_SCALARS = frozenset((int, Fraction, QuadExt))


def _make(p: int, q: int, n: int, d: int) -> QuadExt:
    """(p + q*sqrt(d))/n for n > 0 and an already validated d, reduced."""
    g = gcd(p, q, n)
    if g != 1:
        p //= g
        q //= g
        n //= g
    x = _new(QuadExt)
    x._pqn = (p, q, n)
    x._d = d
    return x


def _quotient(x, y, d: int) -> QuadExt:
    """x / y for triples x, y of Q(sqrt(d)): multiply through by conj(y)."""
    p1, q1, n1 = x
    p2, q2, n2 = y
    den = n1 * (p2 * p2 - d * q2 * q2)
    if not den:
        raise DegenerateError("division by zero in Q(sqrt(%d))" % d)
    p = n2 * (p1 * p2 - d * q1 * q2)
    q = n2 * (q1 * p2 - p1 * q2)
    if den < 0:
        return _make(-p, -q, -den, d)
    return _make(p, q, den, d)


def _scalar_triple(x):
    """(p, q, n) with x = (p + q*sqrt(d))/n for an int, Fraction or QuadExt.

    Package-private: the integer kernels of ``matrices`` and ``poly`` read
    scalars through this, so only this module knows how a QuadExt is stored.
    """
    if isinstance(x, QuadExt):
        return x._pqn
    return x.numerator, 0, x.denominator


def _domain(*groups):
    """(kind, d) of the result of an integer kernel over the scalars in
    ``groups`` (re-iterable collections of int, Fraction or QuadExt).

    Package-private: the one rule of the ``matrices`` and ``poly`` kernels.
    kind is QuadExt if any scalar is a QuadExt, int if every scalar is an
    int, else Fraction.  d is the discriminant for QuadExt, else None: the
    field of the irrational values (rational values cross fields; with none
    irrational, the least d present).  Irrational values of two fields raise
    :class:`FieldMismatchError`.  A value that is not a scalar (a ``Poly``
    matrix entry) gives (None, None): no integer kernel applies.
    """
    kinds = set(map(type, chain.from_iterable(groups)))
    if not kinds <= _SCALARS:
        return None, None
    if QuadExt not in kinds:
        return (int if kinds <= {int} else Fraction), None
    ds = {x._d for x in chain.from_iterable(groups) if type(x) is QuadExt}
    if len(ds) > 1:
        irrational = sorted({x._d for x in chain.from_iterable(groups)
                             if type(x) is QuadExt and x._pqn[1]})
        if len(irrational) > 1:
            raise FieldMismatchError(
                f"mixed discriminants: sqrt({irrational[0]}) vs sqrt({irrational[1]})")
        ds = irrational or ds
    return QuadExt, min(ds)


def conj(x):
    """Galois conjugate of a scalar, rationals being fixed, or of a symbolic
    value (``Poly``, ``RatFunc``), whose coefficients it conjugates."""
    if isinstance(x, QuadExt):
        return x.conj()
    if isinstance(x, (int, Fraction)):
        return x
    if hasattr(x, "conj_coeffs"):
        return x.conj_coeffs()
    raise TypeError(f"cannot conjugate {x!r}")


def scalar_str(x) -> str:
    """Report form: "a/b" for rationals, "a/b+c/e*sqrt(d)" for extensions."""
    if isinstance(x, (int, Fraction)):
        return str(x)
    if isinstance(x, QuadExt):
        if x.b == 0:
            return str(x.a)
        root = f"sqrt({x.d})"
        if x.b == 1:
            tail = root
        elif x.b == -1:
            tail = f"-{root}"
        else:
            tail = f"{x.b}*{root}"
        if x.a == 0:
            return tail
        sign = "+" if x.b > 0 else ""
        return f"{x.a}{sign}{tail}"
    raise TypeError(f"not a scalar: {x!r}")


class QuadField:
    """Factory fixing one discriminant, so call sites stay uncluttered.

    The discriminant is validated here, once; values built by the factory
    do not check it again.
    """

    def __init__(self, d: int = -3):
        _check_discriminant(d)
        self.d = d

    def of(self, a, b=0) -> QuadExt:
        return _make(*_triple(a, b), self.d)

    @property
    def sqrt(self) -> QuadExt:
        return _make(0, 1, 1, self.d)

    @property
    def one(self) -> QuadExt:
        return _make(1, 0, 1, self.d)

    @property
    def zero(self) -> QuadExt:
        return _make(0, 0, 1, self.d)

    def zeta(self) -> QuadExt:
        """Primitive cube root of unity; only lives in Q(sqrt(-3))."""
        if self.d != -3:
            raise StructureError("zeta requires d = -3")
        return _make(-1, 1, 2, -3)

    def __repr__(self):
        return f"QuadField(d={self.d})"


def below(rng, bounds) -> list:
    """One int uniform in [0, n) per bound n > 0 of ``bounds``, in order,
    from ``rng.getrandbits`` alone: the bits of n are drawn again while
    they read n or more.  Each draw is the stream of
    ``rng.randint(a, a + n - 1) - a`` on CPython 3.10 to 3.13
    (``Random._randbelow_with_getrandbits``), fixed here so that a seed's
    draws do not depend on the interpreter's ``randint``."""
    bits, out = rng.getrandbits, []
    for n in bounds:
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        out.append(r)
    return out


def random_rational(rng, nonzero: bool = False) -> Fraction:
    """r/s with r uniform in [-9, 9] and s uniform in [1, 9], drawn from
    ``rng`` by :func:`below`; with ``nonzero``, a draw with r = 0 is drawn
    again."""
    while True:
        r, s = below(rng, (19, 9))
        x = Fraction(r - 9, s + 1)
        if not nonzero or x != 0:
            return x
