"""Small exact matrices over Q or Q(sqrt(d)), as tuples of row tuples."""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateError, StructureError
from .field import conj as scalar_conj


def mat(rows):
    return tuple(tuple(r) for r in rows)


def mat_shape(a):
    return len(a), len(a[0]) if a else 0


def identity(n: int, one=Fraction(1)):
    zero = one - one
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a):
    return tuple(tuple(-x for x in r) for r in a)


def mat_scale(c, a):
    return tuple(tuple(c * x for x in r) for r in a)


def mat_mul(a, b):
    n, k = mat_shape(a)
    k2, m = mat_shape(b)
    if k != k2:
        raise StructureError(f"cannot multiply {n}x{k} by {k2}x{m}")
    bt = list(zip(*b))
    out = []
    for row in a:
        out.append(tuple(sum(x * y for x, y in zip(row, col)) for col in bt))
    return tuple(out)


def transpose(a):
    return tuple(zip(*a))


def conj_entries(a):
    return tuple(tuple(scalar_conj(x) for x in r) for r in a)


def conj_transpose(a):
    return transpose(conj_entries(a))


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def mat_inverse(a):
    """Gauss-Jordan inverse; raises DegenerateError when singular."""
    n = len(a)
    aug = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if aug[r][col]:
                pivot = r
                break
        if pivot is None:
            raise DegenerateError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv_inv = 1 / aug[col][col]   # one inversion per pivot, then multiply
        aug[col] = [x * pv_inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_str(a) -> str:
    from .field import scalar_str
    return "[" + "; ".join(", ".join(scalar_str(x) for x in r) for r in a) + "]"
