"""Microbenchmarks of the scalar, matrix and polynomial layers.

The operands come from a fixed seed, not from the run's seed, so every
commit times the same operations and the per-call figures compare
directly across commits.  Each figure is the median of several repeats
of a ``timeit`` loop sized to take about 20 ms.
"""

from __future__ import annotations

import random
import statistics
import timeit
from fractions import Fraction

from cayleycert.errors import DegenerateError
from cayleycert.field import QuadExt
from cayleycert.matrices import mat_inverse, mat_mul
from cayleycert.poly import Poly, RatFunc, chart_restrict, ratfunc_compose

OPERAND_SEED = 1212_1065
REPEAT_SECONDS = 0.02
REPEATS = 5


def per_call_us(fn) -> float:
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < REPEAT_SECONDS:
        number *= 2
    return 1e6 * statistics.median(timer.repeat(REPEATS, number)) / number


def _fraction(rng, span=999):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def _qext(rng, span=999):
    return QuadExt(_fraction(rng, span), _fraction(rng, span), -3)


def _invertible(rng, n, entry):
    # entries like MatrixAlg.random_entry: small numerators, halves
    while True:
        a = tuple(tuple(entry(rng) for _ in range(n)) for _ in range(n))
        try:
            mat_inverse(a)
            return a
        except DegenerateError:
            continue


def _small_fraction(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 2))


def _small_qext(rng):
    return QuadExt(_small_fraction(rng), _small_fraction(rng), -3)


def _poly(rng, variables, terms, coeff, top=3):
    out = {}
    while len(out) < terms:
        exps = tuple(rng.randint(0, top) for _ in variables)
        out[exps] = coeff(rng)
    return Poly(variables, out)


def operations(rng) -> dict:
    """name -> zero-argument callable, built from ``rng`` in a fixed order."""
    x, y = _fraction(rng), _fraction(rng)
    qa, qb = _fraction(rng), _fraction(rng)
    u, w = _qext(rng), _qext(rng)
    m = {f"q{n}": _invertible(rng, n, _small_fraction) for n in (3, 4)}
    m.update({f"qext{n}": _invertible(rng, n, _small_qext) for n in (3, 4)})
    xyz = ("x", "y", "z")
    pq = (_poly(rng, xyz, 12, _fraction), _poly(rng, xyz, 12, _fraction))
    pe = (_poly(rng, xyz, 12, _qext), _poly(rng, xyz, 12, _qext))
    f = RatFunc(_poly(rng, xyz, 4, _qext, 2), _poly(rng, xyz, 3, _fraction, 1))
    st = ("s", "t")
    subst = tuple(RatFunc(_poly(rng, st, 2, _fraction, 1), _poly(rng, st, 2, _fraction, 1))
                  for _ in xyz)
    g = RatFunc(_poly(rng, xyz, 6, _qext), _poly(rng, xyz, 4, _fraction))
    return {
        "field.fraction_mul_us": lambda: x * y,
        "field.quadext_new_us": lambda: QuadExt(qa, qb, -3),
        "field.quadext_add_us": lambda: u + w,
        "field.quadext_mul_us": lambda: u * w,
        "field.quadext_inverse_us": u.inverse,
        "matrices.inverse_us.q3": lambda: mat_inverse(m["q3"]),
        "matrices.inverse_us.q4": lambda: mat_inverse(m["q4"]),
        "matrices.inverse_us.qext3": lambda: mat_inverse(m["qext3"]),
        "matrices.inverse_us.qext4": lambda: mat_inverse(m["qext4"]),
        "matrices.mul_us.qext4": lambda: mat_mul(m["qext4"], m["qext4"]),
        "poly.mul_us.q": lambda: pq[0] * pq[1],
        "poly.mul_us.qext": lambda: pe[0] * pe[1],
        "poly.compose_us": lambda: ratfunc_compose(f, subst),
        "poly.chart_restrict_us": lambda: chart_restrict(g, "torus-product", "z"),
    }


def layer_micro() -> dict:
    ops = operations(random.Random(OPERAND_SEED))
    return {name: per_call_us(fn) for name, fn in ops.items()}
