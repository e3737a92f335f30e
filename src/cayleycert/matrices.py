"""Small exact matrices over Q or Q(sqrt(d)), as tuples of row tuples.

``mat_mul`` and ``mat_inverse`` run on integers.  They put each row (and
each column of the right factor of a product) over one denominator, the
lcm of its entries' denominators, so a rational matrix becomes an integer
matrix and a matrix over Q(sqrt(d)) one over Z[sqrt(d)], whose entries
p + q*sqrt(d) are held as integer pairs (the integral representation of
Cohen, *A Course in Computational Algebraic Number Theory*, 4.2).  A
product entry is an integer dot product, over Z[sqrt(d)] the pair
(sum p*p' + d*sum q*q', sum p*q' + q*p'), normalised once into a
``Fraction`` or a ``QuadExt``.  An inverse is fraction-free Gauss-Jordan
elimination (Bareiss 1968) on the integer matrix; see :func:`mat_inverse`.

Entry types follow the one rule of ``field._domain``, which ``poly``
shares: a product of two int matrices has int entries; a product or
inverse with any ``QuadExt`` entry has ``QuadExt`` entries in that field;
everything else has ``Fraction`` entries.  Irrational entries from two
different fields raise :class:`FieldMismatchError`.  A product with
symbolic (``Poly``) entries is a plain sum of products, as for ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul, sub

from .errors import DegenerateError, StructureError
from .field import QuadExt, _domain, _make, _quotient, _scalar_triple
from .field import conj as scalar_conj


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


def _entrywise(op, a, b):
    if not _same_shape(a, b):
        raise StructureError(f"cannot combine shapes {mat_shape(a)} and {mat_shape(b)}")
    return tuple(tuple(map(op, ra, rb)) for ra, rb in zip(a, b))


def mat_add(a, b):
    return _entrywise(add, a, b)


def mat_sub(a, b):
    return _entrywise(sub, a, b)


def mat_neg(a):
    return tuple(tuple(-x for x in r) for r in a)


def mat_scale(c, a):
    return tuple(tuple(c * x for x in r) for r in a)


def _over_lcm(row):
    """A row of rationals as integers over their least common denominator."""
    ratios = [x.as_integer_ratio() for x in row]
    den = lcm(*[n for _, n in ratios])
    return [p * (den // n) for p, n in ratios], den


def _over_lcm_quad(row):
    """A row of Q(sqrt(d)) as integer lists p, q over one denominator n,
    entry j being (p[j] + q[j]*sqrt(d))/n."""
    t = [_scalar_triple(x) for x in row]
    den = lcm(*[n for _, _, n in t])
    return [p * (den // n) for p, _, n in t], [q * (den // n) for _, q, n in t], den


def mat_mul(a, b):
    n, k = mat_shape(a)
    k2, m = mat_shape(b)
    if k != k2:
        raise StructureError(f"cannot multiply {n}x{k} by {k2}x{m}")
    kind, d = _domain(*a, *b)
    if kind is QuadExt:
        rows = [_over_lcm_quad(r) for r in a]
        cols = [_over_lcm_quad(c) for c in zip(*b)]
        return tuple(tuple(_make(sum(map(mul, rp, cp)) + d * sum(map(mul, rq, cq)),
                                 sum(map(mul, rp, cq)) + sum(map(mul, rq, cp)),
                                 rn * cn, d)
                           for cp, cq, cn in cols) for rp, rq, rn in rows)
    if kind is int or kind is None:     # int or symbolic (Poly) entries
        return tuple(tuple(sum(map(mul, r, c)) for c in zip(*b)) for r in a)
    rows = [_over_lcm(r) for r in a]
    cols = [_over_lcm(c) for c in zip(*b)]
    return tuple(tuple(Fraction(sum(map(mul, r, c)), rn * cn) for c, cn in cols)
                 for r, rn in rows)


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
    """Inverse by fraction-free Gauss-Jordan elimination (Bareiss 1968).

    With L_i the common denominator of row i of ``a``, M = diag(L) a is
    an integer matrix (over Z[sqrt(d)] when ``a`` has QuadExt entries).
    The elimination is Gauss-Jordan on [M | 1].  Step k swaps a row with
    a nonzero entry in column k into row k; with that pivot c and the
    previous pivot c' (1 before the first step), every other row becomes
    (c * row - row[k] * pivot_row) / c'.  The division is exact: by
    Sylvester's identity each entry after step k is a (k+1)-minor of the
    augmented integer matrix, so it stays integral.  Over Z[sqrt(d)] it
    multiplies by conj(c') and divides by the integer norm c' * conj(c').

    The work is done in place on one n x n array.  Before step k the
    columns k.. of the right block are still c' times unit columns, and
    after it column k of the left block is c times a unit column, so step
    k stores the new right column k (-row[k] in the other rows, c' in the
    pivot row) where the left column k was.  The last step leaves
    W = c (P M)^-1 with c the last pivot and P the product of the row
    swaps, and a^-1 = M^-1 diag(L) = (P M)^-1 P diag(L): column l of W is
    column ``order[l]`` of the inverse, scaled by L of that original row
    and divided by c.  Raises :class:`DegenerateError` when ``a`` is
    singular.
    """
    n, k = mat_shape(a)
    if n != k:
        raise StructureError(f"cannot invert a {n}x{k} matrix")
    order = list(range(n))
    kind, d = _domain(*a)
    if kind is not QuadExt:
        rows = [_over_lcm(r) for r in a]
        w = [r for r, _ in rows]
        prev = 1
        for k in range(n):
            rk = _pivot_row(w, k, order, bool)
            piv = rk[k]
            for i, ri in enumerate(w):
                if i != k:
                    f = ri[k]
                    w[i] = [(piv * x - f * y) // prev for x, y in zip(ri, rk)]
                    w[i][k] = -f
            rk[k] = prev
            prev = piv
        cols = sorted(zip(order, zip(*w)))     # column j of the inverse
        return tuple(zip(*[[Fraction(x * rows[j][1], prev) for x in col]
                           for j, col in cols]))
    rows = [_over_lcm_quad(r) for r in a]
    w = [list(zip(p, q)) for p, q, _ in rows]
    vp, vq = 1, 0
    for k in range(n):
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
    cols = sorted(zip(order, zip(*w)))         # column j of the inverse
    return tuple(zip(*[[_quotient((xp * rows[j][2], xq * rows[j][2], 1), (vp, vq, 1), d)
                        for xp, xq in col] for j, col in cols]))


def mat_eq(a, b) -> bool:
    return _same_shape(a, b) and all(x == y for ra, rb in zip(a, b)
                                     for x, y in zip(ra, rb))


def mat_str(a) -> str:
    from .field import scalar_str
    return "[" + "; ".join(", ".join(scalar_str(x) for x in r) for r in a) + "]"
