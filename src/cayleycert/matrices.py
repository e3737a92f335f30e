"""Small exact matrices over Q or Q(sqrt(d)), as tuples of row tuples.

Scalar matrices are computed on one integer form, ``_IntMat``: integer
matrices P and Q over one denominator D > 0, entry (i, j) being
(P_ij + Q_ij*sqrt(d))/D (the integral representation of Cohen, *A Course
in Computational Algebraic Number Theory*, 4.2, for a whole matrix).  A
product is integer dot products, over Z[sqrt(d)] the pair
(P P' + d Q Q', P Q' + Q P'); an inverse is fraction-free Gauss-Jordan
elimination (Bareiss 1968, :func:`_bareiss`) and one content gcd; a sum
and equality cross-multiply the denominators; a diagonal shift by k*1
copies the rows of P, adds k*D on the diagonal and shares Q.  So a chain of steps builds
no ``Fraction`` or ``QuadExt`` in between: ``classical`` runs its spot
check on forms from draw to verdict, and ``mat_mul`` and ``mat_inverse``
convert once.

Entry types follow the one rule of ``field._domain``, which ``poly``
shares: a product of two int matrices has int entries; a product or
inverse with any ``QuadExt`` entry has ``QuadExt`` entries in that field;
everything else has ``Fraction`` entries.  Irrational entries from two
different fields raise :class:`FieldMismatchError`.  A product with a
symbolic (``Poly``) entry runs on ``poly``'s integer kernel
(``poly._mat_product``): each entry read in its integer form, one integer
accumulation and one ``Poly`` per output entry.  Every entry must be an int (a bool is
one), ``Fraction``, ``QuadExt`` or ``Poly`` (``mat_inverse`` takes no
``Poly``); any other entry raises :class:`StructureError` that names it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub

from .errors import DegenerateError, StructureError
from .field import QuadExt, _domain, _make, _scalar_triple
from .field import conj as scalar_conj
from .poly import Poly, _mat_product

_ENTRY_TYPES = (int, Fraction, QuadExt, Poly)


def mat_shape(a):
    """(rows, columns); a matrix whose rows differ in length raises
    :class:`StructureError`."""
    lengths = set(map(len, a))
    if len(lengths) > 1:
        raise StructureError(f"cannot use a ragged matrix: row lengths {list(map(len, a))}")
    return len(a), lengths.pop() if lengths else 0


def identity(n: int, one=Fraction(1)):
    zero = one - one
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _same_shape(a, b) -> bool:
    return list(map(len, a)) == list(map(len, b))


def _check_entries(*mats) -> bool:
    """Whether an entry of ``mats`` is a ``Poly``; an entry that is not an
    int, ``Fraction``, ``QuadExt`` or ``Poly`` raises :class:`StructureError`."""
    types = set(map(type, chain.from_iterable(chain.from_iterable(mats))))
    if not types.issubset(_ENTRY_TYPES):       # a bool, or no entry of a kernel
        for x in chain.from_iterable(chain.from_iterable(mats)):
            if not isinstance(x, _ENTRY_TYPES):
                raise StructureError(f"cannot use the matrix entry {x!r}: not an int, "
                                     f"Fraction, QuadExt or Poly")
    return Poly in types


def _entrywise(op, a, b):
    if not _same_shape(a, b):
        raise StructureError(f"cannot combine shapes {mat_shape(a)} and {mat_shape(b)}")
    _check_entries(a, b)
    return tuple(tuple(map(op, ra, rb)) for ra, rb in zip(a, b))


def mat_add(a, b):
    return _entrywise(add, a, b)


def mat_sub(a, b):
    return _entrywise(sub, a, b)


def mat_neg(a):
    return tuple(tuple(-x for x in r) for r in a)


def mat_mul(a, b):
    n, k = mat_shape(a)
    k2, m = mat_shape(b)
    if k != k2:
        raise StructureError(f"cannot multiply {n}x{k} by {k2}x{m}")
    if _check_entries(a, b):
        return _mat_product(a, b)
    kind, d = _domain(*a, *b)
    if kind is int or kind is None:     # int entries (None: a bool among them)
        return tuple(tuple(sum(map(mul, r, c)) for c in zip(*b)) for r in a)
    return (_IntMat.of(a, d) @ _IntMat.of(b, d)).scalars()


def transpose(a):
    return tuple(zip(*a))


def conj_entries(a):
    return tuple(tuple(scalar_conj(x) for x in r) for r in a)


def conj_transpose(a):
    return transpose(conj_entries(a))


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def _pivot_row(w, k, order, nonzero):
    """Swap the first row at or below k with a nonzero entry in column k
    into row k, record the swap in ``order`` and return that row."""
    for r in range(k, len(w)):
        if nonzero(w[r][k]):
            w[k], w[r] = w[r], w[k]
            order[k], order[r] = order[r], order[k]
            return w[k]
    raise DegenerateError("singular matrix")


def mat_inverse(a):
    """The inverse, on the integer form; singular ``a`` raises DegenerateError."""
    n, k = mat_shape(a)
    if n != k:
        raise StructureError(f"cannot invert a {n}x{k} matrix")
    if _check_entries(a):
        raise StructureError("cannot invert a matrix with a Poly entry")
    return _IntMat.of(a, _domain(*a)[1]).inverse().scalars()


def _bareiss(w):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of the square
    integer matrix w, in place: returns the last pivot c and ``order``,
    column l of w being then column ``order[l]`` of c w^-1.

    The elimination is Gauss-Jordan on [w | 1].  Step k swaps a row with
    a nonzero entry in column k into row k; with that pivot c and the
    previous pivot c' (1 before the first step), every other row becomes
    (c * row - row[k] * pivot_row) / c'.  The division is exact: by
    Sylvester's identity each entry after step k is a (k+1)-minor of the
    augmented integer matrix, so it stays integral.

    The work is done on the one n x n array.  Before step k the columns
    k.. of the right block are still c' times unit columns, and after it
    column k of the left block is c times a unit column, so step k stores
    the new right column k (-row[k] in the other rows, c' in the pivot
    row) where the left column k was.  The last step leaves c (P w)^-1,
    with P the product of the row swaps, and w^-1 = (P w)^-1 P.  Raises
    :class:`DegenerateError` when w is singular.
    """
    order = list(range(len(w)))
    prev = 1
    for k in range(len(w)):
        rk = _pivot_row(w, k, order, bool)
        piv = rk[k]
        for i, ri in enumerate(w):
            if i != k:
                f = ri[k]
                w[i] = [(piv * x - f * y) // prev for x, y in zip(ri, rk)]
                w[i][k] = -f
        rk[k] = prev
        prev = piv
    return prev, order


def _bareiss_quad(w, d):
    """:func:`_bareiss` over Z[sqrt(d)], entries p + q*sqrt(d) held as
    pairs (p, q); the exact division by c' multiplies by conj(c') and
    divides by the integer norm c' * conj(c')."""
    order = list(range(len(w)))
    vp, vq = 1, 0
    for k in range(len(w)):
        rk = _pivot_row(w, k, order, any)
        cp, cq = rk[k]
        norm = vp * vp - d * vq * vq
        for i, ri in enumerate(w):
            if i != k:
                fp, fq = ri[k]
                s = [(cp * xp - fp * yp + d * (cq * xq - fq * yq),
                      cp * xq + cq * xp - fp * yq - fq * yp)
                     for (xp, xq), (yp, yq) in zip(ri, rk)]
                w[i] = [((sp * vp - d * sq * vq) // norm, (sq * vp - sp * vq) // norm)
                        for sp, sq in s]
                w[i][k] = (-fp, -fq)
        rk[k] = (vp, vq)
        vp, vq = cp, cq
    return (vp, vq), order


class _IntMat:
    """(P + Q*sqrt(d))/D with integer row lists P, Q and D > 0; Q and d are
    None over Q.  Operands share d, and no operation edits one in place."""

    __slots__ = ("p", "q", "den", "d")

    def __init__(self, p, q, den, d):
        self.p, self.q, self.den, self.d = p, q, den, d

    @classmethod
    def of(cls, a, d=None):
        """The form of the scalar matrix ``a`` over the lcm of its
        denominators; with d None, ``a`` must be rational."""
        t = [list(map(_scalar_triple, r)) for r in a]
        den = lcm(*[n for r in t for _, _, n in r])
        p = [[x * (den // n) for x, _, n in r] for r in t]
        return cls(p, d and [[y * (den // n) for _, y, n in r] for r in t], den, d)

    def scalars(self):
        """The tuple matrix: ``Fraction`` entries over Q, else ``QuadExt``."""
        den, d = self.den, self.d
        if self.q is None:
            return tuple(tuple(Fraction(x, den) for x in r) for r in self.p)
        return tuple(tuple(_make(x, y, den, d) for x, y in zip(rp, rq))
                     for rp, rq in zip(self.p, self.q))

    def __matmul__(self, other):
        cols, den = list(zip(*other.p)), self.den * other.den
        if self.q is None:
            return _IntMat([[sum(map(mul, r, c)) for c in cols] for r in self.p],
                           None, den, None)
        d, pairs, rows = self.d, list(zip(cols, zip(*other.q))), list(zip(self.p, self.q))
        p = [[sum(map(mul, rp, cp)) + d * sum(map(mul, rq, cq)) for cp, cq in pairs]
             for rp, rq in rows]
        return _IntMat(p, [[sum(map(mul, rp, cq)) + sum(map(mul, rq, cp)) for cp, cq in pairs]
                           for rp, rq in rows], den, d)

    def __add__(self, other):
        a, b = other.den, self.den

        def cross(m1, m2):
            return [[x * a + y * b for x, y in zip(r, s)] for r, s in zip(m1, m2)]
        return _IntMat(cross(self.p, other.p), self.q and cross(self.q, other.q), a * b,
                       self.d)

    def __neg__(self):
        return _IntMat(*[m and [[-x for x in r] for r in m] for m in (self.p, self.q)],
                       self.den, self.d)

    def __bool__(self):
        """False exactly for the zero matrix."""
        return any(map(any, self.p)) or bool(self.q) and any(map(any, self.q))

    def __eq__(self, other):
        """Equal values: self - other, over both denominators, is zero."""
        return not self + -other

    def shift(self, k):
        """self + k*1, for an int k: P's rows copied with k*D added on the
        diagonal, Q shared."""
        kd, p = k * self.den, list(map(list, self.p))
        for i, r in enumerate(p):
            r[i] += kd
        return _IntMat(p, self.q, self.den, self.d)

    def over(self, k):
        """self / k, for an int k > 0."""
        return _IntMat(self.p, self.q, k * self.den, self.d)

    def inverse(self):
        """By :func:`_bareiss` on P, or :func:`_bareiss_quad` on the pairs
        (P_ij, Q_ij): with c the last pivot, (P/D)^-1 = D rows / c, over
        Z[sqrt(d)] D rows conj(c) / (c conj(c)), then one content gcd."""
        den, d = self.den, self.d
        if self.q is None:
            w = [list(r) for r in self.p]
            c, order = _bareiss(w)
        else:
            w = [list(zip(*r)) for r in zip(self.p, self.q)]
            (cp, cq), order = _bareiss_quad(w, d)
            c = cp * cp - d * cq * cq
        if c < 0:
            c, den = -c, -den
        rows = list(zip(*[col for _, col in sorted(zip(order, zip(*w)))]))
        if self.q is None:
            p, q = [[den * x for x in r] for r in rows], None
        else:
            p = [[den * (xp * cp - d * xq * cq) for xp, xq in r] for r in rows]
            q = [[den * (xq * cp - xp * cq) for xp, xq in r] for r in rows]
        g = gcd(c, *chain.from_iterable(p), *chain.from_iterable(q or ()))
        if g != 1:
            p, q = [m and [[x // g for x in r] for r in m] for m in (p, q)]
        return _IntMat(p, q, c // g, d)


def mat_eq(a, b) -> bool:
    return _same_shape(a, b) and all(x == y for ra, rb in zip(a, b)
                                     for x, y in zip(ra, rb))


def mat_str(a) -> str:
    from .field import scalar_str
    return "[" + "; ".join(", ".join(scalar_str(x) for x in r) for r in a) + "]"
