"""Sparse multivariate polynomials and rational functions, exact throughout.

A ``Poly`` is one value over a fixed ordered variable tuple, stored in one
form that is never changed: its integer form (the integral representation
of Cohen, *A Course in Computational Algebraic Number Theory*, 4.2, as in
``matrices``), terms (key, p, q) over packed monomials (below), the
largest key first, each the nonzero coefficient (p + q*sqrt(d))/den over
one denominator den > 0 whose gcd with every p and q is 1, and the (kind,
d) that every coefficient shares: kind int, Fraction or QuadExt, d the
discriminant of a QuadExt kind.  The form is canonical: den is the lcm of
the coefficients' denominators.

The public constructor ``Poly(variables, terms)`` checks a dict of
coefficients (it refuses any type but int, Fraction and
:class:`~cayleycert.field.QuadExt` with :class:`StructureError`) and builds
the form at once, kind and d by the rule of ``field._domain`` over the
nonzero coefficients; a dict whose irrational coefficients lie in two
fields raises :class:`FieldMismatchError` there.  :meth:`Poly.variable`
and :meth:`Poly.generic` (the generic matrix entries x or
x + sqrt(d)*x') build their forms at once from the variables' positions,
with no dict and no Poly arithmetic.  The kernel reads and makes integer
forms only: products, sums, negation, conjugation, scalar
multiples, derivatives, compositions, evaluation plans, the equality tests,
``RatFunc`` normalisation and the symbolic matrix products of
``matrices``.  Each coefficient is built, of the form's kind, only when
one is read: ``terms``, the coefficient dict, is a cache that the first
read through it, :meth:`Poly.items`, ``str`` or ``hash`` fills.  Two Polys
are equal exactly when their integer forms are (equal integers with
irrational parts in two fields are not).

``RatFunc`` is a numerator/denominator pair that is *not* kept in lowest
terms: there is no multivariate GCD here.  Its constructor normalises on
integer forms: it strips the common monomial (one key subtraction per
term) and makes the denominator monic, multiplying by n0/p0 for a
rational lead p0/n0 and by the conjugate over the norm for an irrational
one.  The coefficient types are those of c / lead: an int becomes a
``Fraction`` on a lead other than 1, and the result is a ``QuadExt`` if c
or the lead is one, in the field of c unless only the lead is irrational.
Equality is decided exactly by cross multiplication and full expansion,
after a shared denominator cancels (see below).
A variety relation is a :class:`Relation`, the one reader of its two
forms, which solves it for one coordinate in any ring;
:func:`chart_restrict` substitutes that solution into a function.

A monomial is one packed int (Monagan and Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007):
each exponent gets a ``WIDTH`` = 16-bit field, the first variable the most
significant, and the total degree sits in the top field.  The int order
is then the graded order (highest total degree first, then
lexicographic), a monomial product is one int addition and dividing out a
common monomial is one subtraction.  ``Poly(variables, terms)`` takes
exponent tuples and checks them (each a non-negative ``int``, else
:class:`StructureError`); :meth:`Poly.items` reads them back, and only
evaluation, derivatives, rendering, monomial stripping and composition
read exponents out of a key.  A total degree of 2^16 or more does not
fit: :class:`ExponentOverflowError`, a :class:`TermBudgetError`, is raised
at the constructor, and a product checks the sum of its factors' largest
keys before it forms any key.  There is no wider fallback.

A product sums the products of term pairs as integers, over Z[sqrt(d)] as
the pairs (p*p' + d*q*q', p*q' + q*p'), over the product of the two
denominators, and reduces the content of the result once.  A factor with
one term takes a fast path that shifts the other factor's keys and
accumulates nothing.  A result is sorted once, by its int keys.

Composition and the exact equality tests stay on integers from input to
verdict.  A :class:`ComposePlan`, the one composition, prepares a
substitution once for all the functions composed with it
(:func:`ratfunc_compose` is a plan of one): it reads its layout (the
denominator groups below) once, and a function's index tuples and
column tops are made once per layout and kept on the function.  It
clears the substituted denominators by groups: entries whose
denominators are equal share one group g with denominator D_g, and a
term c*x^e of f picks up D_g^(M_g - sum_{i in g} e_i), M_g being the
largest such sum over the terms of f's numerator and denominator.  So (a/D, b/D, c/D) adds no
common power of D to the result, which nothing here could cancel later,
and with no two denominators equal each variable is its own group.  The
integer power rows of the substituted numerators and of each group's
denominator grow only when a function first needs a higher power (no
row is looked at while every top is within its row), in the order a
fresh plan builds them.  A term's index tuple k is its power in
each row of its chain (a group's row right after the numerator row of its
last variable).  The plan makes the product of the rows k picks once,
with coefficient 1, for every term with that k in the numerator or the
denominator of any function it composes; each term adds c times its
product into one exact integer sum over the lcm denominator, reduced
once.  A nonzero scalar changes no term count and no key, so a product
the plan skips is one it already made, with the same operand sizes and
leading keys, under the same budget: a budget check or an overflow fails
at the same function, with the same message, as in a plan of that
function alone.  The kept products hold at most the term budget in
terms (a product past that is made and not kept), and under another
budget the plan makes its rows and products again.  A kept product
serves every function: a row with an irrational coefficient fixes d for
all of them, and rational rows give the same products under every d.
The one-term rows of a chain fold into
a pending monomial (one key addition and one coefficient product each),
which multiplies into the running product only just before a many-term
row and once at the end.  :func:`ratfunc_equal` and ``_cross`` (the
projective 2x2 test of ``ratmap``) count the nonzero terms of a difference
of integer cross products, formed in the order of the ``RatFunc``
arithmetic they stand for.  A shared denominator cancels first: f = g
when f and g have one denominator is fn = gn, and a*d - c*b is zero when
a, c and b, d share denominators exactly when an*dn = cn*bn (a nonzero
difference there falls through to the full products, which give the term
count).  A product is skipped only when its operands' term counts and
leading keys prove it could not raise :class:`TermBudgetError`: at most
the budget in term pairs, and a degree that fits.  So the term budget
trips at the same product with the same message as the full expansion.
A fold keeps that too: a one-term factor never changes a term count, the
many-term products keep their operand sizes and order, and a fold raises
the :class:`ExponentOverflowError` of the product it replaces, with its
message.

The kind of a kernel result follows the one rule of ``field._domain``,
shared with ``matrices``, over all the coefficients and scalars of its
operands: ``QuadExt`` in the field of the irrational values if any is a
``QuadExt``, ``int`` if all are ints, else ``Fraction``; irrational values
from two fields raise :class:`FieldMismatchError`.  It is read from each
operand's (kind, d) while every ``QuadExt`` lies in one field, and from
the values (one per kind, field and irrationality) where two fields meet.
So a rational coefficient of a sum or product whose operands mix
``Fraction`` and ``QuadExt`` is a rational ``QuadExt``, with the same
value, hash, ``==`` and ``scalar_str`` as the ``Fraction``.  For f a
``RatFunc`` and c a scalar, f * c and c * f are f's numerator times c
over f's denominator, and c / f is f's denominator times c over f's
numerator, each int kind made ``Fraction``: the forms, kinds and term
budget checks of the ``RatFunc.const(c)`` route, with no constant Poly.
A composition's kind also counts the substitution and the ``Fraction(1)`` that seeds the
power rows, so a nonzero result is never ``int`` (a zero result is 0/1).
A matrix product with a ``Poly`` entry (``matrices.mat_mul``) is
:func:`_mat_product`: each output entry sums its products as integers
over one lcm denominator and is built once, and one kind, over every
coefficient and scalar entry of both factors, holds for every entry of
the result.

Evaluation at a point of scalars (``int``, ``Fraction``, ``QuadExt``) is
:class:`EvalPlan`'s alone, planned once per set of functions and run on
integer forms (``ratmap`` keeps one plan per map; :meth:`RatFunc.eval` is
a plan of one function).  With M_i the largest power of variable i in any of them
and x_i = (p_i + q_i*sqrt(d))/n_i, a term c*x^e is
c * prod (p_i + q_i*sqrt(d))^e_i * n_i^(M_i - e_i) over prod n_i^M_i, the
row trick of :class:`ComposePlan`.  The rows are built once per point,
each distinct monomial once across all the functions, and each numerator
or denominator is a sum of the integer pairs of its form over its den.  The factor prod n_i^M_i cancels in a
quotient, so it is never formed, and a value costs one ``_quotient`` or
one ``Fraction``; the cleared denominator is zero exactly when the
denominator vanishes at the point.  A value is a ``QuadExt`` if a
coefficient of its function or an entry the function uses is one, else a
``Fraction``.  Irrational coefficients or used entries from two fields
raise :class:`FieldMismatchError` through ``field._domain``.  There is no
evaluation at a generic point (a used ``Poly`` or ``RatFunc`` entry): it
raises :class:`StructureError` that names :func:`ratfunc_compose`, whose
plan is the one substitution of generic points.  A used entry of any
other type is not a scalar, and raises :class:`StructureError` that says
so.

Every product passes through a term budget, so that a runaway expansion
fails loudly instead of thrashing.  :class:`TermBudgetError` is raised
before the work when the factors have more than 16 times the budget in
term pairs, and after it when the product has more nonzero terms than the
budget.  The budget is 10^6 terms unless a ``with term_budget(n):`` block
scopes a different one; it is a context variable, so it never outlives
the block.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import ge, getitem, itemgetter, mul
from struct import unpack

from .errors import (DegenerateError, ExponentOverflowError, FieldMismatchError,
                     StructureError, TermBudgetError)
from .field import QuadExt, _domain, _make, _quotient, _scalar_triple, scalar_str

_new = object.__new__
_set = object.__setattr__
_SCALAR_TYPES = (int, Fraction, QuadExt)      # the coefficients and constants
_KEY = itemgetter(0)                          # a term's packed key
_ZERO = ([], 1, int, None)                    # the integer form of every zero Poly

DEFAULT_TERM_BUDGET = 10 ** 6
_term_budget = ContextVar("term_budget", default=DEFAULT_TERM_BUDGET)


@contextlib.contextmanager
def term_budget(n: int):
    """Cap every polynomial product made inside the block at ``n`` terms."""
    if n < 1:
        raise StructureError("term budget must be positive")
    token = _term_budget.set(n)
    try:
        yield
    finally:
        _term_budget.reset(token)


WIDTH = 16                  # bits per exponent field of a packed key
_FIELD = 1 << WIDTH         # every exponent and total degree is below this


def _pack(exps) -> int:
    """The packed key of a checked exponent vector."""
    key = sum(exps)
    for e in exps:
        key = key << WIDTH | e
    return key


def _ceiling(n: int) -> int:
    """The least key of total degree 2^WIDTH over ``n`` variables."""
    return _FIELD << (WIDTH * n)


def _exponents(n: int, keys) -> list:
    """The exponent tuples of packed keys over ``n`` variables."""
    # one 16-bit field per exponent, after the total degree
    fmt, size = f">{n + 1}H", 2 * n + 2
    return [unpack(fmt, key.to_bytes(size, "big"))[1:] for key in keys]


def _wrap(variables, form) -> "Poly":
    """The Poly of a canonical integer form, its coefficient dict not built."""
    p = _new(Poly)
    _set(p, "vars", variables)
    _set(p, "_terms", None)
    _set(p, "_int", form)
    return p


def _poly(variables, terms, den, kind, d) -> "Poly":
    """The Poly made by the kernel of nonzero ``terms`` [(key, p, q)], the
    largest key first, over ``den`` > 0, every coefficient of the one
    ``kind`` (in Q(sqrt(d)) for QuadExt); the content is reduced here."""
    if not terms:
        return _wrap(variables, _ZERO)
    if den != 1:
        g = den
        for _, p, q in terms:
            g = gcd(g, p, q)
            if g == 1:
                break
        if g != 1:
            terms = [(e, p // g, q // g) for e, p, q in terms]
            den //= g
    return _wrap(variables, (terms, den, kind, d))


def _sorted(terms) -> list:
    """Terms [(key, p, q)] with distinct keys, the largest key first."""
    return sorted(terms, key=_KEY, reverse=True)


def _built(terms, den, kind, d):
    """Term dict of integer ``terms`` over ``den``, each coefficient built once."""
    if kind is QuadExt:
        return {e: _make(p, q, den, d) for e, p, q in terms}
    if kind is int:
        return {e: p for e, p, _ in terms}
    return {e: Fraction(p, den) for e, p, _ in terms}


def _scalar_kind(c) -> tuple:
    """(kind, d) of one scalar, a bool counting as an int."""
    if isinstance(c, QuadExt):
        return QuadExt, c.d
    return (Fraction if isinstance(c, Fraction) else int), None


def _quad_marks(forms) -> tuple:
    """One QuadExt per field and irrationality of the QuadExt coefficients
    of integer ``forms``: ``field._domain`` over these marks and other
    scalars gives the field it gives over the coefficients themselves."""
    found = dict.fromkeys((d, any(q for _, _, q in t)) for t, _, kind, d in forms
                          if kind is QuadExt)
    return tuple(_make(0, 1, 1, d) if irrational else _make(1, 0, 1, d)
                 for d, irrational in found)


def _kind(polys, scalars=()) -> tuple:
    """(kind, d) of a kernel result over the coefficients of ``polys`` and
    the ``scalars``: the rule of ``field._domain``, read from each Poly's
    (kind, d) while every QuadExt lies in one field, and from the QuadExt
    marks of the Polys where two fields meet: ``_domain`` then gives a
    QuadExt kind or raises, so no other coefficient counts."""
    kinds = {p._int[2:] for p in polys}
    kinds.update(map(_scalar_kind, scalars))
    ds = {d for k, d in kinds if k is QuadExt}
    if len(ds) > 1:
        return _domain(_quad_marks(p._int for p in polys), scalars)
    if ds:
        return QuadExt, ds.pop()
    return (Fraction if (Fraction, None) in kinds else int), None


def _check_vars(v1, v2):
    """Raise StructureError unless the variable tuples v1 and v2 are equal."""
    if v1 is not v2 and v1 != v2:
        raise StructureError(f"variable mismatch: {v1} vs {v2}")


def _overflow(k1, k2, ceiling):
    """The error for a product whose leading keys k1 and k2 overflow."""
    low = ceiling.bit_length() - 1 - WIDTH          # lowest bit of the degree field
    return ExponentOverflowError(f"product of degree {(k1 >> low) + (k2 >> low)} "
                                 f"exceeds the {WIDTH}-bit exponent field")


def _shift(terms, mono, d):
    """Integer ``terms`` times the one term ``mono`` = (key, p, q): each key
    shifts and no term meets another, so none cancels."""
    e1, p1, q1 = mono
    if d is None:
        return [(e1 + e2, p1 * p2, 0) for e2, p2, _ in terms]
    dq1 = d * q1
    return [(e1 + e2, p1 * p2 + dq1 * q2, p1 * q2 + q1 * p2) for e2, p2, q2 in terms]


def _mul(x, y, d, ceiling):
    """Product of two scaled polys x and y, each (terms, den, ...) with
    terms [(key, p, q)] the largest key first, as an integer form is, on
    integers and not normalised: the nonzero terms over the product of the
    denominators, the largest key first and the rest unsorted.  d is the
    discriminant of the QuadExt kind, None over Q (every q is 0), and
    ``ceiling`` the :func:`_ceiling` of the variable count.  The term budget
    is checked before and after, as described in the module docstring.

    Over an integral domain the product of the leading terms is the nonzero
    leading term of the product, so the sum of the first keys is the
    product's largest key and reaches ``ceiling`` exactly when its total
    degree overflows.
    """
    a, da, b, db = x[0], x[1], y[0], y[1]
    budget = _term_budget.get()
    if len(a) * len(b) > 16 * budget:
        raise TermBudgetError(
            f"product of {len(a)} x {len(b)} terms exceeds budget {budget}")
    if not a or not b:
        return [], da * db
    if a[0][0] + b[0][0] >= ceiling:
        raise _overflow(a[0][0], b[0][0], ceiling)
    if len(a) == 1 or len(b) == 1:
        out = _shift(b, a[0], d) if len(a) == 1 else _shift(a, b[0], d)
    elif d is None:
        acc = {}
        for e1, p1, _ in a:
            for e2, p2, _ in b:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + p1 * p2
        out = [(e, p, 0) for e, p in acc.items() if p]
    else:
        acc = {}
        for e1, p1, q1 in a:
            dq1 = d * q1
            for e2, p2, q2 in b:
                e = e1 + e2
                s = acc.get(e)
                if s is None:
                    acc[e] = [p1 * p2 + dq1 * q2, p1 * q2 + q1 * p2]
                else:
                    s[0] += p1 * p2 + dq1 * q2
                    s[1] += p1 * q2 + q1 * p2
        out = [(e, p, q) for e, (p, q) in acc.items() if p or q]
    if len(out) > budget:
        raise TermBudgetError(f"{len(out)} terms exceed budget {budget}")
    return out, da * db


def _nonzero_difference(x, y):
    """Number of nonzero terms of x - y for scaled polys (terms, den, ...)."""
    acc = {}
    for terms, k in ((x[0], y[1]), (y[0], -x[1])):
        for e, p, q in terms:
            s = acc.setdefault(e, [0, 0])
            s[0] += k * p
            s[1] += k * q
    return sum(1 for p, q in acc.values() if p or q)


def _times(a, b) -> "Poly":
    """The product of two Polys over one variable tuple, through :func:`_mul`."""
    x, y = a._int, b._int
    kind, d = (x[2], x[3]) if x[2] is y[2] and x[3] == y[3] else _kind((a, b))
    t, den = _mul(x, y, d, _ceiling(len(a.vars)))
    return _poly(a.vars, _sorted(t), den, kind, d)


def _scale(a, c, charge=None) -> "Poly":
    """a * c for a Poly a and a scalar c (a bool counts as an int): the form
    and kind that :func:`_times` gives a and ``Poly.const(a.vars, c)``, with
    no constant Poly made.  A zero a or c gives the one zero form; a c of
    1 keeps a's terms and den, an int kind made ``Fraction`` by a
    ``Fraction`` 1.  With ``charge`` "right" (the
    constant the second factor) or "left" (the first), the term budget is
    checked as :func:`_mul` checks that product, with its messages."""
    x = a._int
    t, den, own = x[0], x[1], x[2:]
    kind, d = own if own == _scalar_kind(c) else _kind((a,), (c,))
    if charge is not None:
        n, budget = len(t) if c else 0, _term_budget.get()
        if n > 16 * budget:
            pair = f"1 x {n}" if charge == "left" else f"{n} x 1"
            raise TermBudgetError(f"product of {pair} terms exceeds budget {budget}")
        if n > budget:
            raise TermBudgetError(f"{n} terms exceed budget {budget}")
    if not (c and t):
        return _wrap(a.vars, _ZERO)
    p, q, n = _scalar_triple(c)
    if (p, q, n) == (1, 0, 1):
        return a if own == (kind, d) else _wrap(a.vars, (t, den, kind, d))
    return _poly(a.vars, _shift(t, (0, p, q), d), den * n, kind, d)


class Poly:
    """Sparse polynomial over an ordered variable tuple.

    One value in one stored form, its integer form (see the module
    docstring), which the constructor builds from a coefficient dict and
    the kernel makes directly, and which never changes.  No zero
    coefficient is stored, and the terms run from the largest packed key
    down, so ``str()`` is canonical.  ``terms``, the coefficient dict, is
    built from the form on its first read and kept; :meth:`items` reads
    the terms with exponent tuples.
    """

    __slots__ = ("vars", "_terms", "_int")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        clean = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise StructureError(
                    f"exponent vector {exps} does not match variables {variables}")
            if any(type(e) is not int or e < 0 for e in exps):
                raise StructureError(
                    f"exponent vector {exps} has an exponent that is not a "
                    f"non-negative int")
            if sum(exps) >= _FIELD:
                raise ExponentOverflowError(
                    f"exponent vector {exps} of degree {sum(exps)} exceeds the "
                    f"{WIDTH}-bit exponent field")
            if type(c) not in _SCALAR_TYPES:
                raise StructureError(
                    f"coefficient {c!r} of {exps} is not an int, Fraction or QuadExt")
            if c:
                clean[_pack(exps)] = c
        t = _sorted([(e, *_scalar_triple(c)) for e, c in clean.items()])
        den = lcm(*[n for _, _, _, n in t])
        form = ([(e, p * (den // n), q * (den // n)) for e, p, q, n in t], den,
                *_domain(clean.values()))
        _set(self, "vars", variables)
        _set(self, "_terms", None)
        _set(self, "_int", form)

    def __setattr__(self, *args):
        raise AttributeError("Poly values are immutable")

    @property
    def terms(self) -> dict:
        """The coefficient dict {packed key: coefficient}, the largest key
        first: built from the integer form on the first read, and kept."""
        terms = self._terms
        if terms is None:
            terms = _built(*self._int)
            _set(self, "_terms", terms)
        return terms

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, variables, c):
        """The constant ``c``, of ``c``'s kind (a bool's is int)."""
        variables = tuple(variables)
        if not isinstance(c, _SCALAR_TYPES):
            raise StructureError(f"coefficient {c!r} of {(0,) * len(variables)} is not "
                                 f"an int, Fraction or QuadExt")
        if not c:
            return _wrap(variables, _ZERO)
        p, q, n = _scalar_triple(c)
        return _wrap(variables, ([(0, p, q)], n, *_scalar_kind(c)))

    @classmethod
    def variable(cls, variables, name):
        """The coordinate ``name``, built from its packed key; a name that is
        not in ``variables``, or is in it twice, raises StructureError."""
        variables = tuple(variables)
        count = variables.count(name)
        if count != 1:
            raise StructureError(f"unknown variable {name!r} in {variables}" if not count
                                 else f"variable {name!r} repeats in {variables}")
        n = len(variables)
        key = 1 << WIDTH * n | 1 << WIDTH * (n - 1 - variables.index(name))
        return _wrap(variables, ([(key, 1, 0)], 1, Fraction, None))

    @classmethod
    def generic(cls, variables, d=None) -> list:
        """Generic entries over ``variables``, each form built at once from
        the variables' positions: with d None the variables in order, each
        the ``Fraction``-kind form of :meth:`variable`; else x + sqrt(d)*x'
        for each pair (x, x') of variables in order, of ``QuadExt`` kind in
        Q(sqrt(d)), the form of ``x + QuadField(d).sqrt * x'``.  A name that
        repeats raises StructureError, as does an odd count with d."""
        variables = tuple(variables)
        n = len(variables)
        if len(set(variables)) != n:
            name = next(v for v in variables if variables.count(v) > 1)
            raise StructureError(f"variable {name!r} repeats in {variables}")
        top = 1 << WIDTH * n
        keys = [top | 1 << WIDTH * i for i in reversed(range(n))]
        if d is None:
            return [_wrap(variables, ([(k, 1, 0)], 1, Fraction, None)) for k in keys]
        if n % 2:
            raise StructureError(f"cannot pair an odd count of variables: {variables}")
        return [_wrap(variables, ([(x, 1, 0), (y, 0, 1)], 1, QuadExt, d))
                for x, y in zip(keys[::2], keys[1::2])]

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, _SCALAR_TYPES):
                return NotImplemented
            other = Poly.const(self.vars, other)
        _check_vars(self.vars, other.vars)
        x, y = self._int, other._int
        if not y[0]:
            return self
        if not x[0]:
            return other
        kind, d = (x[2], x[3]) if x[2] is y[2] and x[3] == y[3] else _kind((self, other))
        den = lcm(x[1], y[1])
        acc = {}
        f = den // x[1]
        for e, p, q in x[0]:
            acc[e] = [p * f, q * f]
        f = den // y[1]
        for e, p, q in y[0]:
            s = acc.get(e)
            if s is None:
                acc[e] = [p * f, q * f]
            else:
                s[0] += p * f
                s[1] += q * f
        return _poly(self.vars, _sorted([(e, p, q) for e, (p, q) in acc.items() if p or q]),
                     den, kind, d)

    __radd__ = __add__

    def __neg__(self):
        t, den, kind, d = self._int
        return _wrap(self.vars, ([(e, -p, -q) for e, p, q in t], den, kind, d))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, _SCALAR_TYPES):
                return NotImplemented
            return _scale(self, other)
        _check_vars(self.vars, other.vars)
        return _times(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        """p ** k by squaring, starting from p itself, so its coefficients
        have the types of p * ... * p; p ** 0 is the constant int 1."""
        if k < 0:
            raise StructureError("negative power of a polynomial")
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            base = base * base if k > 1 else base
            k >>= 1
        return Poly.const(self.vars, 1) if out is None else out

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._int[0]

    def term_count(self) -> int:
        """The number of terms."""
        return len(self._int[0])

    def items(self) -> list:
        """(exponent tuple, coefficient) for each term, in stored order."""
        terms = self.terms
        return list(zip(_exponents(len(self.vars), terms), terms.values()))

    def derivative(self, name: str) -> "Poly":
        if name not in self.vars:
            raise StructureError(f"unknown variable {name!r} in {self.vars}")
        n = len(self.vars)
        shift = WIDTH * (n - 1 - self.vars.index(name))
        # one less in the variable's field and in the total degree
        step = (1 << shift) + (1 << WIDTH * n)
        t, den, kind, d = self._int
        return _poly(self.vars, [(key - step, p * e, q * e) for key, p, q in t
                                 if (e := key >> shift & (_FIELD - 1))], den, kind, d)

    def conj_coeffs(self) -> "Poly":
        t, den, kind, d = self._int
        return _wrap(self.vars, ([(e, p, -q) for e, p, q in t], den, kind, d))

    # -- rendering and equality -----------------------------------------

    def __eq__(self, other):
        """Equal integer forms; the fields count only where a coefficient
        is irrational."""
        if isinstance(other, Poly):
            if self.vars != other.vars:
                return False
        elif isinstance(other, _SCALAR_TYPES):
            other = Poly.const(self.vars, other)
        else:
            return NotImplemented
        x, y = self._int, other._int
        return x[1] == y[1] and x[0] == y[0] and (x[3] == y[3] or not any(
            q for _, _, q in x[0]))

    def __hash__(self):
        terms = self.terms
        if not terms.keys() - {0}:     # a constant equals its scalar
            return hash(terms.get(0, 0))
        return hash((self.vars, tuple(terms.items())))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for exps, c in self.items():
            factors = []
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            cs = scalar_str(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]) or "sqrt" in cs:
                cs = f"({cs})"
            if factors and cs == "1":
                parts.append("*".join(factors))
            elif factors and cs == "-1":
                parts.append("-" + "*".join(factors))
            elif factors:
                parts.append(cs + "*" + "*".join(factors))
            else:
                parts.append(cs)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"Poly({self})"


# -- symbolic matrix products ------------------------------------------------

def _mat_product(a, b):
    """The product of tuple matrices ``a`` (n x k) and ``b`` (k x m), of
    checked shapes, with Poly and scalar entries (a bool is an int): the
    symbolic branch of ``matrices.mat_mul``.

    Each Poly entry is read in its integer form, a scalar as one term of
    key 0 (none when zero).  Entry (i, j) forms a_ik * b_kj in the order
    row, column, then k, as a sum of ``Poly`` products would: two Polys
    through :func:`_mul`, so the term budget and the exponent field raise at
    the same product with the same message, and a scalar factor with no key
    moved and no budget charged, as ``Poly.__mul__`` does.  The products
    are summed as integers over the lcm of their denominators, and the
    entry is built once: a Poly over the variables of its first product
    with a Poly factor, else a scalar.  Two variable tuples, in one
    product or one sum, raise ``Poly``'s :class:`StructureError`.
    """
    polys, scalars = [], []

    def entry(x):
        """(variables, integer form, ceiling); variables None for a scalar."""
        if isinstance(x, Poly):
            polys.append(x)
            return x.vars, x._int, _ceiling(len(x.vars))
        x = int(x) if type(x) is bool else x
        scalars.append(x)
        p, q, n = _scalar_triple(x)
        return None, ([(0, p, q)] if p or q else [], n), None

    rows = [[entry(x) for x in r] for r in a]
    cols = [[entry(x) for x in c] for c in zip(*b)]
    kind, d = _kind(polys, scalars)
    return tuple(tuple(_dot(r, c, kind, d) for c in cols) for r in rows)


def _dot(row, col, kind, d):
    """One entry of :func:`_mat_product`: the products of a row and a
    column of prepared entries, accumulated once and built once."""
    vs, parts = None, []
    for (xv, x, top), (yv, y, _) in zip(row, col):
        if xv is not None and yv is not None:
            _check_vars(xv, yv)
            if x[0] and y[0]:
                parts.append(_mul(x, y, d, top))
        elif x[0] and y[0]:
            terms = _shift(x[0], y[0][0], d) if yv is None else _shift(y[0], x[0][0], d)
            parts.append((terms, x[1] * y[1]))
        pv = xv if xv is not None else yv
        if pv is not None and pv is not vs:
            if vs is None:
                vs = pv
            else:
                _check_vars(vs, pv)
    den = lcm(*[n for _, n in parts])
    acc = {}
    for terms, n in parts:
        f = den // n
        for e, p, q in terms:
            s = acc.get(e)
            if s is None:
                acc[e] = [p * f, q * f]
            else:
                s[0] += p * f
                s[1] += q * f
    out = [(e, p, q) for e, (p, q) in acc.items() if p or q]
    if vs is None:                  # no Poly factor: a scalar, of key 0
        return _built(out or [(0, 0, 0)], den, kind, d)[0]
    return _poly(vs, _sorted(out), den, kind, d)


def _common_monomial(x, y, n: int) -> int:
    """The packed key of the largest monomial that divides every key of the
    nonempty terms x and y over ``n`` variables (0 when none)."""
    if not x[-1][0] or not y[-1][0]:        # the smallest key is a constant's
        return 0
    keys = [e for e, _, _ in x] + [e for e, _, _ in y]
    strip = 0
    for s in range(0, WIDTH * n, WIDTH):
        m = min(k >> s & (_FIELD - 1) for k in keys)
        strip += (m << s) + (m << WIDTH * n)        # the field and the degree
    return strip


def _over(terms, den, lead, d):
    """Integer ``terms`` over ``den`` divided by the scalar ``lead`` = (p0,
    q0, n0) on integers, as (terms, den) with den > 0 and not reduced: a
    rational lead multiplies by n0/p0, an irrational one by its conjugate
    over its norm p0^2 - d*q0^2."""
    p0, q0, n0 = lead
    if not q0:
        if p0 < 0:
            n0, p0 = -n0, -p0
        return [(e, p * n0, q * n0) for e, p, q in terms], den * p0
    norm = p0 * p0 - d * q0 * q0
    if norm < 0:
        n0, norm = -n0, -norm
    dq0 = d * q0
    return [(e, (p * p0 - dq0 * q) * n0, (q * p0 - p * q0) * n0) for e, p, q in terms], \
        den * norm


class RatFunc:
    """Quotient of two sparse polynomials over the same variables.

    Not reduced to lowest terms; the only normalisations applied are exact
    and cheap, and run on integer forms (common monomial factors are
    stripped and the denominator is made monic in the canonical order), so
    results stay deterministic.
    """

    __slots__ = ("num", "den", "_layouts")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.const(num.vars, Fraction(1))
        if num.vars != den.vars:
            raise StructureError("numerator/denominator variable mismatch")
        if den.is_zero():
            raise DegenerateError("identically zero denominator")
        a, na, ka, da = num._int
        if not a:
            den = Poly.const(den.vars, Fraction(1))
        else:
            b, nb, kb, db = den._int
            strip = _common_monomial(a, b, len(num.vars))
            if strip:
                a = [(e - strip, p, q) for e, p, q in a]
                b = [(e - strip, p, q) for e, p, q in b]
            _, p0, q0 = b[0]
            if q0 or p0 != nb:                  # the lead is not 1: divide by it
                # the types of c / lead: Fraction for two rationals, else a
                # QuadExt, in the field of c unless only the lead is irrational
                if ka is not QuadExt:
                    ka, da = (QuadExt, db) if kb is QuadExt else (Fraction, None)
                elif kb is QuadExt and da != db and q0:
                    if any(q for _, _, q in a):
                        raise FieldMismatchError(
                            f"mixed discriminants: sqrt({da}) vs sqrt({db})")
                    da = db
                a, na = _over(a, na, (p0, q0, nb), db)
                b, nb = _over(b, nb, (p0, q0, nb), db)
                kb = QuadExt if kb is QuadExt else Fraction
            elif not strip:
                a = None                        # already normal: keep both Polys
            if a is not None:
                num = _poly(num.vars, a, na, ka, da)
                den = _poly(den.vars, b, nb, kb, db)
        _set(self, "num", num)
        _set(self, "den", den)
        _set(self, "_layouts", None)

    def __setattr__(self, *args):
        raise AttributeError("RatFunc values are immutable")

    def _index(self, layout) -> tuple:
        """(index tuples, column tops) of this function in a composition
        over the denominator groups ``layout`` (see :class:`ComposePlan`):
        made from the integer forms for the first plan of that layout, and
        kept for every later one."""
        layouts = self._layouts
        if layouts is None:
            layouts = {}
            _set(self, "_layouts", layouts)
        got = layouts.get(layout)
        if got is None:
            got = layouts[layout] = _index_tuples(self.num._int, self.den._int, layout)
        return got

    # -- constructors --------------------------------------------------

    @classmethod
    def const(cls, variables, c):
        return cls(Poly.const(variables, c))

    @classmethod
    def variable(cls, variables, name):
        return cls(Poly.variable(variables, name))

    @classmethod
    def variables(cls, names):
        """All coordinate functions of a variable tuple at once."""
        names = tuple(names)
        return tuple(cls.variable(names, n) for n in names)

    @property
    def vars(self):
        return self.num.vars

    # -- field operations ----------------------------------------------

    def _coerce(self, other):
        """other as a RatFunc over self's variables; None when it is not a
        RatFunc, a Poly or a scalar, so the operators return NotImplemented."""
        if isinstance(other, Poly):
            other = RatFunc(other)
        if isinstance(other, RatFunc):
            _check_vars(self.vars, other.vars)
            return other
        if isinstance(other, _SCALAR_TYPES):
            return RatFunc.const(self.vars, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else (-self) + o

    def __mul__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            # the products of the RatFunc.const(other) route, by one term each
            num = _scale(self.num, other, "right")
            den = _scale(self.den, Fraction(1), "right")
            if not other:
                return RatFunc(num, den)
            out = _new(RatFunc)     # nothing to strip, and den stays monic
            _set(out, "num", num)
            _set(out, "den", den)
            _set(out, "_layouts", None)
            return out
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise DegenerateError("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            if self.num.is_zero():
                raise DegenerateError("division by the zero rational function")
            return RatFunc(_scale(self.den, other, "left"),
                           _scale(self.num, Fraction(1), "left"))
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, k: int):
        if k < 0:
            if self.num.is_zero():
                raise DegenerateError("negative power of zero")
            return RatFunc(self.den, self.num) ** (-k)
        return RatFunc(self.num ** k, self.den ** k)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def eval(self, point):
        """Exact value at a point: see :class:`EvalPlan`."""
        return EvalPlan((self,)).eval(point)[0]

    def conj_coeffs(self) -> "RatFunc":
        return RatFunc(self.num.conj_coeffs(), self.den.conj_coeffs())

    def __eq__(self, other):
        if not isinstance(other, (RatFunc, Poly, *_SCALAR_TYPES)):
            return NotImplemented
        other = self._coerce(other)
        try:
            return ratfunc_equal(self, other)
        except FieldMismatchError:
            # irrational coefficients in two fields: equal values lie in Q(vars),
            # where n conj(d) / (d conj(d)) has rational coefficients
            f, g = (RatFunc(h.num * h.den.conj_coeffs(), h.den * h.den.conj_coeffs())
                    for h in (self, other))
            return all(h.num == h.num.conj_coeffs() for h in (f, g)) and ratfunc_equal(f, g)

    def __str__(self):
        if self.den == Poly.const(self.vars, Fraction(1)):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


# -- evaluation at points of scalars ---------------------------------------

def _sum_at(vp, vq, d, idx, cp, cq, n):
    """(p, q, n) with (p + q*sqrt(d))/n the value of one planned sum, where
    monomial k of the plan takes the value vp[k] + vq[k]*sqrt(d) (vq None
    when every vq[k] is 0)."""
    ap = list(map(vp.__getitem__, idx))
    p = sum(map(mul, cp, ap))
    q = sum(map(mul, cq, ap)) if cq else 0
    if vq is not None:
        aq = list(map(vq.__getitem__, idx))
        if cq:
            p += d * sum(map(mul, cq, aq))
        q += sum(map(mul, cp, aq))
    return p, q, n


class EvalPlan:
    """RatFuncs over one variable tuple, planned once for evaluation at
    many points of scalars: the package's one evaluator at points (see the
    module docstring).

    :meth:`eval` gives the value of every function at a point at once, and
    raises :class:`DegenerateError` at the first function whose denominator
    vanishes there.  A point of the wrong arity, or a used entry that is no
    scalar (a generic point: :func:`ratfunc_compose` substitutes those),
    raises :class:`StructureError`.

    ``tops[i]`` is M_i, the largest power of variable i in any numerator or
    denominator, ``used`` the variables with M_i > 0 and ``monos`` the
    distinct exponent tuples.  A numerator or denominator is planned as one
    sum: (its indices into ``monos``, its coefficients as integers p and q
    over one denominator n, q None when all are 0, n).  Each function is one
    part: (its numerator's sum, its denominator's sum, whether a coefficient
    is a QuadExt, the variables it has).  ``marks`` holds one QuadExt per
    field and irrationality of the QuadExt coefficients, so ``_domain`` over
    the marks and the point's entries gives the field.
    """

    __slots__ = ("arity", "tops", "used", "monos", "parts", "marks")

    def __init__(self, funcs):
        funcs = tuple(funcs)
        self.arity = len(funcs[0].vars) if funcs else 0
        for f in funcs:
            _check_vars(funcs[0].vars, f.vars)
        forms = [p._int for f in funcs for p in (f.num, f.den)]
        exps = [_exponents(self.arity, [e for e, _, _ in t]) for t, _, _, _ in forms]
        self.monos = list(dict.fromkeys(e for es in exps for e in es))
        self.tops = [max(col) for col in zip(*self.monos)] or [0] * self.arity
        self.used = [i for i, top in enumerate(self.tops) if top]
        index = dict(zip(self.monos, range(len(self.monos))))
        sums = []
        for (t, n, kind, _), es in zip(forms, exps):
            cq = [q for _, _, q in t]
            sums.append(((list(map(index.__getitem__, es)), [p for _, p, _ in t],
                          cq if any(cq) else None, n), kind is QuadExt,
                         {i for i, col in enumerate(zip(*es)) if any(col)}))
        self.parts = [(num, den, nquad or dquad, nhas | dhas)
                      for (num, nquad, nhas), (den, dquad, dhas) in zip(sums[::2], sums[1::2])]
        self.marks = _quad_marks(forms)

    def eval(self, point) -> tuple:
        if not self.parts:
            return ()
        if len(point) != self.arity:
            raise StructureError(
                f"point arity {len(point)} does not match {self.arity} variables")
        used = self.used
        entries = [point[i] for i in used]
        kind, d = _domain(entries, self.marks)
        if kind is None:
            bad = next(x for x in entries if type(x) not in _SCALAR_TYPES)
            if isinstance(bad, (Poly, RatFunc)):
                raise StructureError(f"cannot evaluate at a point with a {type(bad).__name__} "
                                     f"entry: substitute a generic point with ratfunc_compose")
            raise StructureError(f"cannot evaluate at a point with an entry that is not "
                                 f"a scalar: {bad!r}")
        # row i holds (x_i numerator)^e * (x_i denominator)^(M_i - e)
        rows = [[1]] * self.arity
        qrows = None
        for i, x in zip(used, entries):
            p, q, n = _scalar_triple(x)
            top = self.tops[i]
            dens = [1]
            for _ in range(top):
                dens.append(dens[-1] * n)
            if q and qrows is None:
                qrows = [[0] * len(r) for r in rows]
            xp, xq = [1], [0]
            for _ in range(top):
                a, b = xp[-1], xq[-1]
                xp.append(a * p + d * b * q if q else a * p)
                xq.append(a * q + b * p)
            rows[i] = [a * m for a, m in zip(xp, reversed(dens))]
            if qrows is not None:
                qrows[i] = [b * m for b, m in zip(xq, reversed(dens))]
        if qrows is None:
            vp = [prod(map(getitem, rows, e)) for e in self.monos]
            vq = None
        else:
            vp, vq = [], []
            for e in self.monos:
                a, b = 1, 0
                for rp, rq, k in zip(rows, qrows, e):
                    x, y = rp[k], rq[k]
                    a, b = (a * x + d * b * y, a * y + b * x) if y else (a * x, b * x)
                vp.append(a)
                vq.append(b)
        quads = {i for i, x in zip(used, entries) if type(x) is QuadExt}
        out = []
        # the factor prod n_i^M_i of numerator and denominator cancels
        for num, den, quad, has in self.parts:
            dp, dq, dn = _sum_at(vp, vq, d, *den)
            if not dp and not dq:
                raise DegenerateError("denominator vanishes at the point")
            np_, nq, nn = _sum_at(vp, vq, d, *num)
            if quad or not quads.isdisjoint(has):
                out.append(_quotient((np_, nq, nn), (dp, dq, dn), d))
            else:
                out.append(Fraction(np_ * dn, dp * nn))
        return tuple(out)


def _scaled_parts(*fs):
    """The discriminant d of the coefficients of RatFuncs ``fs`` over one
    variable tuple, the key ceiling of that tuple, and the integer forms of
    the numerator and denominator of each."""
    for f in fs:
        _check_vars(fs[0].vars, f.vars)
    polys = [p for f in fs for p in (f.num, f.den)]
    return (_kind(polys)[1], _ceiling(len(fs[0].vars)),
            [p._int for p in polys])


def _lead(x) -> int:
    """The largest key of a scaled poly, 0 for the zero poly."""
    return x[0][0][0] if x[0] else 0


def _skippable(top, *products) -> bool:
    """Whether no product, given as (term pairs, sum of leading keys), can
    raise :class:`TermBudgetError`: each has at most the budget in term
    pairs and a key below ``top``, the ceiling of the variable count."""
    budget = _term_budget.get()
    return all(n <= budget and k < top for n, k in products)


def ratfunc_equal(f: RatFunc, g: RatFunc) -> bool:
    """Exact equality via cross multiplication and full expansion; over a
    shared denominator the numerators are compared directly when no cross
    product it skips could exceed the term budget."""
    d, top, (fn, fd, gn, gd) = _scaled_parts(f, g)
    if f.den == g.den and _skippable(
            top, (len(fn[0]) * len(gd[0]), _lead(fn) + _lead(gd)),
            (len(gn[0]) * len(fd[0]), _lead(gn) + _lead(fd))):
        return not _nonzero_difference(fn, gn)
    return not _nonzero_difference(_mul(fn, gd, d, top), _mul(gn, fd, d, top))


def _cross(a: RatFunc, b: RatFunc, c: RatFunc, d: RatFunc) -> tuple:
    """(a*d - c*b is zero, the term count of the RatFunc a*d - c*b).

    Forms the products that ``RatFunc.__mul__`` and ``__sub__`` form, in
    their order and under the term budget, on integers and without
    normalising.  Stripping a monomial or making a denominator monic does
    not change a term count; a RatFunc with a zero numerator has the
    denominator 1, so the count is 1 when the difference is zero.  When a
    and c share a denominator and so do b and d, the cross is zero exactly
    when an*dn = cn*bn, and those two products decide a zero cross alone
    if no product they skip could exceed the term budget.
    """
    disc, top, (an, ad, bn, bd, cn, cd, dn, dd) = _scaled_parts(a, b, c, d)
    one = [(0, 1, 0)], 1
    xn = yn = None
    if a.den == c.den and b.den == d.den:
        pairs, key = len(ad[0]) * len(bd[0]), _lead(ad) + _lead(bd)
        if _skippable(top, (len(an[0]) * len(dn[0]) * pairs, _lead(an) + _lead(dn) + key),
                      (len(cn[0]) * len(bn[0]) * pairs, _lead(cn) + _lead(bn) + key),
                      (pairs * pairs, 2 * key)):
            xn, yn = _mul(an, dn, disc, top), _mul(cn, bn, disc, top)
            if not _nonzero_difference(xn, yn):
                return True, 1
    xn = xn or _mul(an, dn, disc, top)
    xd = _mul(ad, dd, disc, top)
    yn = yn or _mul(cn, bn, disc, top)
    yd = _mul(cd, bd, disc, top)
    xd = xd if xn[0] else one
    yd = yd if yn[0] else one
    terms = _nonzero_difference(_mul(xn, yd, disc, top), _mul(yn, xd, disc, top))
    den = _mul(xd, yd, disc, top)
    return (False, terms + len(den[0])) if terms else (True, 1)


def _blocks(layout) -> list:
    """The blocks of a chain over the denominator groups ``layout``: each
    variable's numerator row, with a group's row (n + g) right after the
    row of its last member.  They fix the chain order."""
    n = sum(map(len, layout))
    ends = {m[-1]: n + g for g, m in enumerate(layout)}
    return [(i, ends[i]) if i in ends else (i,) for i in range(n)]


def _index_tuples(fn, fd, layout) -> tuple:
    """The index tuples of the terms of the numerator form ``fn``, then of
    the denominator form ``fd``, in a composition over the denominator
    groups ``layout``, and the tops of the columns."""
    # one column per variable, its exponent in each term, and one per group
    # (column n + g), the sum of its members' columns; tops holds each
    # column's largest
    n = sum(map(len, layout))
    cols = list(zip(*_exponents(n, [e for e, _, _ in fn[0] + fd[0]])))
    cols += [[sum(t) for t in zip(*(cols[i] for i in m))] for m in layout]
    tops = tuple(max(col) for col in cols)
    # a term's index into each row of a chain: e_i for a numerator, and
    # M_g - sum_{i in g} e_i for a group's denominator
    return tuple(zip(*(cols[j] if j < n else [tops[j] - e for e in cols[j]]
                       for b in _blocks(layout) for j in b))), tops


class ComposePlan:
    """A substitution of RatFuncs over one variable tuple, planned once for
    every RatFunc composed with it (see the module docstring): ``compose(f)``
    substitutes subst[i] for the i-th variable of f.

    The plan reads its ``layout`` once: the denominator groups, which fix
    the variable count and the chain ``order``.  A function's index tuples
    and column tops are made once per layout and kept on the function
    (``RatFunc._index``), so every plan of that layout reads them.
    ``pows`` keeps the power rows, grown only when a top reaches past its
    row, and ``chains`` each index tuple's product of rows (coefficient 1)
    with the product of the row denominators, made for the first term that
    needs it and read by every later one.  At most the term budget in terms
    is kept (``held`` counts them).  Both are made under one ``budget``,
    and made again under another."""

    __slots__ = ("subst", "marks", "ceiling", "layout", "blocks", "order", "bases", "pows",
                 "chains", "budget", "held")

    def __init__(self, subst):
        subst = tuple(subst)
        if not subst:
            raise StructureError("empty substitution")
        out_vars = subst[0].vars
        for s in subst:
            if not isinstance(s, RatFunc) or s.vars != out_vars:
                raise StructureError("substitution entries over mixed variables")
        self.subst = subst
        self.marks = (*_quad_marks(p._int for s in subst for p in (s.num, s.den)), Fraction(1))
        self.ceiling = _ceiling(len(out_vars))
        # members[g] lists the entries that share the denominator dens[g]
        dens, members = [], []
        for i, s in enumerate(subst):
            if s.den not in dens:
                dens.append(s.den)
                members.append([])
            members[dens.index(s.den)].append(i)
        self.layout = tuple(map(tuple, members))
        self.blocks = _blocks(self.layout)
        self.order = [j for block in self.blocks for j in block]
        # the powers of each entry's numerator and each group's denominator
        self.bases = [p._int for p in [s.num for s in subst] + dens]
        self.budget = None          # compose makes pows and chains under one

    def compose(self, f: RatFunc) -> RatFunc:
        n = len(self.subst)
        if n != len(f.vars):
            raise StructureError(f"substitution arity {n} != {len(f.vars)}")
        kind, d = _kind((f.num, f.den), self.marks)
        budget = _term_budget.get()
        if budget != self.budget:
            # rows and products made under another budget are made again
            self.pows = [[(((0, 1, 0),), 1)] for _ in self.bases]
            self.chains, self.budget, self.held = {}, budget, 0
        ceiling, pows, chains, out_vars = self.ceiling, self.pows, self.chains, self.subst[0].vars
        index, tops = f._index(self.layout)
        # rows missing a power f needs grow block by block, in step
        if any(map(ge, tops, map(len, pows))):
            for block in self.blocks:
                for k in range(min(len(pows[j]) for j in block) - 1,
                               max(tops[j] for j in block)):
                    for j in block:
                        if len(pows[j]) == k + 1 and k < tops[j]:
                            pows[j].append(_mul(pows[j][-1], self.bases[j], d, ceiling))
        chain_rows = [pows[j] for j in self.order]

        def times(val, mono):
            # val times a monomial (key, p, q), where val None stands for 1
            if val is None:
                return [mono], 1
            return val if mono == (0, 1, 0) else (_shift(val[0], mono, d), 1)

        def chain(k):
            # the product of the rows a term's index tuple k picks, with
            # coefficient 1, and the product of their denominators
            rows = [r[e] for r, e in zip(chain_rows, k) if e]
            # one-term rows fold into the pending monomial (key, p, q); val,
            # the product of the rest, meets it only before a many-term row
            val, key, p, q = None, 0, 1, 0
            for r in rows:
                if len(r[0]) == 1:
                    (e, x, y), = r[0]
                    lead = key if val is None else key + val[0][0][0]
                    if lead + e >= ceiling:
                        raise _overflow(lead, e, ceiling)
                    key += e
                    p, q = (p * x, 0) if d is None else (p * x + d * q * y, p * y + q * x)
                    continue
                val = _mul(times(val, (key, p, q)), r, d, ceiling)
                if not val[0]:
                    break                   # a zero row: so is the term
                key, p, q = 0, 1, 0
            else:
                val = times(val, (key, p, q))
            made = val[0], prod(r[1] for r in rows)
            if self.held + len(made[0]) <= budget:
                chains[k] = made
                self.held += len(made[0])
            return made

        def cleared(form, index):
            # each term's product of rows, scaled onto the lcm of their
            # denominators, times the term's coefficient
            made = [chains.get(k) or chain(k) for k in index]
            big = lcm(*[m for _, m in made])
            acc = {}
            for (_, p, q), (terms, m) in zip(form[0], made):
                s = big // m
                p, q = p * s, q * s
                for e, x, y in terms:
                    if d is None:
                        x *= p
                    else:
                        x, y = p * x + d * q * y, p * y + q * x
                    t = acc.get(e)
                    if t is None:
                        acc[e] = [x, y]
                    else:
                        t[0] += x
                        t[1] += y
            return _poly(out_vars, _sorted([(e, p, q) for e, (p, q) in acc.items() if p or q]),
                         form[1] * big, kind, d)

        fn, fd = f.num._int, f.den._int
        den = cleared(fd, index[len(fn[0]):])
        if den.is_zero():
            raise DegenerateError("composition produced an identically zero denominator")
        return RatFunc(cleared(fn, index), den)


def ratfunc_compose(f: RatFunc, subst) -> RatFunc:
    """Substitute subst[i] for the i-th variable of f, clearing denominators:
    a :class:`ComposePlan` of one function."""
    return ComposePlan(subst).compose(f)


@dataclass(frozen=True)
class Relation:
    """One relation among coordinates, solved for one of them.

    kind "torus-product": prod v_i^e_i = 1 over ``variables`` (exponents
    default to all 1), and ``solve_for`` occurs with exponent +-1.
    kind "linear-sum": sum v_i = 0, with no exponents.

    This class is the one reader of the two forms: every check of a
    relation is made on construction, and :meth:`solve` writes the solved
    coordinate in any ring.
    """

    kind: str
    variables: tuple
    solve_for: str
    exponents: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("torus-product", "linear-sum"):
            raise StructureError(f"unsupported relation form {self.kind!r}")
        if self.solve_for not in self.variables:
            raise StructureError(f"{self.solve_for!r} does not occur in the relation")
        if self.exponents is None:
            return
        if self.kind == "linear-sum":
            raise StructureError("linear-sum relation takes no exponents")
        if len(self.exponents) != len(self.variables):
            raise StructureError("exponent vector does not match relation variables")
        e_s = self.exponents[self.variables.index(self.solve_for)]
        if e_s not in (1, -1):
            raise StructureError(
                f"cannot solve for {self.solve_for!r}: exponent {e_s} is not unit")

    def solve(self, values, one):
        """The solved coordinate, from ``values`` (a mapping from the other
        variables to ring elements, Fractions or RatFuncs) and the ring's 1."""
        s = self.solve_for
        if self.kind == "linear-sum":
            acc = one - one
            for v in self.variables:
                if v != s:
                    acc = acc - values[v]
            return acc
        exps = self.exponents or (1,) * len(self.variables)
        e_s = exps[self.variables.index(s)]
        acc = one
        for v, e in zip(self.variables, exps):
            if v != s:
                acc = acc * values[v] ** (-e * e_s)
        return acc


def chart_restrict(f: RatFunc, relation: str, eliminated: str,
                   variables=None, exponents=None) -> RatFunc:
    """Substitute the chart of a variety relation, removing one variable.

    ``relation``, ``variables`` (default: all of f's), ``eliminated`` and
    ``exponents`` make a :class:`Relation` solved for ``eliminated``; the
    result is f with the solved expression substituted, a RatFunc over
    the remaining free variables.  No certificate calls this (``ratmap``
    builds a variety's chart from its relations itself); it stays as the
    public one-relation form that demo 02 shows and perfbench's per-layer
    timings read.
    """
    if eliminated not in f.vars:
        raise StructureError(f"{eliminated!r} is not a variable of {f.vars}")
    rel = Relation(relation, tuple(variables) if variables is not None else f.vars,
                   eliminated, None if exponents is None else tuple(exponents))
    for v in rel.variables:
        if v not in f.vars:
            raise StructureError(f"relation variable {v!r} unknown")
    out_vars = tuple(v for v in f.vars if v != eliminated)
    if not out_vars:
        raise StructureError("cannot eliminate the only variable")
    coords = dict(zip(out_vars, RatFunc.variables(out_vars)))
    coords[eliminated] = rel.solve(coords, RatFunc.const(out_vars, Fraction(1)))
    return ratfunc_compose(f, tuple(coords[v] for v in f.vars))
