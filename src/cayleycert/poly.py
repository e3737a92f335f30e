"""Sparse multivariate polynomials and rational functions, exact throughout.

``Poly`` stores a map from monomials, packed as below, to nonzero
coefficients over a fixed ordered variable tuple; coefficients are ints, Fractions or
:class:`~cayleycert.field.QuadExt` values.  ``RatFunc`` is a
numerator/denominator pair that is *not* kept in lowest terms: there is
no multivariate GCD here.
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

Products run on integers (the integral representation of Cohen, *A Course
in Computational Algebraic Number Theory*, 4.2, as in ``matrices``): the
kernel puts each factor's coefficients over one denominator, the lcm of
theirs, sums the products of term pairs as integers, over Z[sqrt(d)] as
the pairs (p*p' + d*q*q', p*q' + q*p'), and normalises each output
coefficient once.  A factor with one term takes a fast path that shifts
the other factor's keys and accumulates nothing.  A result is sorted once,
by its int keys.

Composition and the exact equality tests stay on integers from input to
verdict.  :func:`ratfunc_compose` scales the powers of the substituted
numerators and denominators to integer rows once per call, runs each
term's chain of products on integers over one lcm denominator, and builds
each output coefficient once.  The one-term rows of a chain fold into a
pending monomial (one key addition and one coefficient product each),
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

Coefficient types of a product follow the one rule of ``field._domain``,
shared with ``matrices``: ``QuadExt`` in the field of the irrational
coefficients if either factor has a ``QuadExt`` coefficient, ``int`` if
both factors are int-only, else ``Fraction``; irrational coefficients from
two fields raise :class:`FieldMismatchError`.  So a rational coefficient
of a product whose factors mix ``Fraction`` and ``QuadExt`` is a rational
``QuadExt``, with the same value, hash, ``==`` and ``scalar_str`` as the
``Fraction``.  A composition makes one ``_domain`` call, over the
coefficients of f, of the substitution and the ``Fraction(1)`` that seeds
the power rows: every coefficient of a nonzero result has that one type,
never ``int`` (a zero result is 0/1, as every zero ``RatFunc``).  The two
equality tests make one ``_domain`` call over all their coefficients.
Either way, irrational coefficients from two fields anywhere in the input
raise :class:`FieldMismatchError`.

Evaluation at a point of scalars (``int``, ``Fraction``, ``QuadExt``) is
:class:`EvalPlan`'s alone, planned once per set of functions and run on
integers (``ratmap`` keeps one plan per map; :meth:`RatFunc.eval` is a plan
of one function).  With M_i the largest power of variable i in any of them
and x_i = (p_i + q_i*sqrt(d))/n_i, a term c*x^e is
c * prod (p_i + q_i*sqrt(d))^e_i * n_i^(M_i - e_i) over prod n_i^M_i, the
row trick of :func:`ratfunc_compose`.  The rows are built once per point,
each distinct monomial once across all the functions, and each numerator
or denominator is a sum of integer pairs over one lcm of its
coefficients' denominators.  The factor prod n_i^M_i cancels in a
quotient, so it is never formed, and a value costs one ``_quotient`` or
one ``Fraction``; the cleared denominator is zero exactly when the
denominator vanishes at the point.  A value is a ``QuadExt`` if a
coefficient of its function or an entry the function uses is one, else a
``Fraction``.  Irrational coefficients or used entries from two fields
raise :class:`FieldMismatchError` through ``field._domain``.  There is no
evaluation at a generic point (a used ``Poly`` or ``RatFunc`` entry): it
raises :class:`StructureError`, as substitution is
:func:`ratfunc_compose`'s alone.

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
from math import lcm, prod
from operator import getitem, mul
from struct import unpack

from .errors import DegenerateError, ExponentOverflowError, StructureError, TermBudgetError
from .field import QuadExt, _domain, _make, _quotient, _scalar_triple, scalar_str
from .field import conj as scalar_conj

_new = object.__new__
_set = object.__setattr__
_SCALAR_TYPES = (int, Fraction, QuadExt)      # the coefficients and constants

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


def _poly(variables, terms) -> "Poly":
    """The Poly of nonzero, packed ``terms`` over a variable tuple, sorted once."""
    p = _new(Poly)
    _set(p, "vars", variables)
    _set(p, "terms", {e: terms[e] for e in sorted(terms, reverse=True)})
    return p


def _scaled(terms):
    """Coefficients of a term dict over one denominator, the lcm of theirs:
    ([(key, p, q)], n) with coefficient (p + q*sqrt(d))/n, q = 0 for
    rationals.  The largest key comes first, as in a Poly."""
    if len(terms) == 1:
        (e, c), = terms.items()
        p, q, n = _scalar_triple(c)
        return [(e, p, q)], n
    t = [(e, _scalar_triple(c)) for e, c in terms.items()]
    den = lcm(*[n for _, (_, _, n) in t])
    return [(e, p * (den // n), q * (den // n)) for e, (p, q, n) in t], den


def _overflow(k1, k2, ceiling):
    """The error for a product whose leading keys k1 and k2 overflow."""
    low = ceiling.bit_length() - 1 - WIDTH          # lowest bit of the degree field
    return ExponentOverflowError(f"product of degree {(k1 >> low) + (k2 >> low)} "
                                 f"exceeds the {WIDTH}-bit exponent field")


def _shift(terms, mono, d):
    """Scaled ``terms`` times the one term ``mono`` = (key, p, q): each key
    shifts and no term meets another, so none cancels."""
    e1, p1, q1 = mono
    if d is None:
        return [(e1 + e2, p1 * p2, 0) for e2, p2, _ in terms]
    dq1 = d * q1
    return [(e1 + e2, p1 * p2 + dq1 * q2, p1 * q2 + q1 * p2) for e2, p2, q2 in terms]


def _mul(x, y, d, ceiling):
    """Product of two scaled polys (terms, den), terms [(key, p, q)] as
    from :func:`_scaled`, on integers and not normalised: the nonzero terms
    over the product of the denominators, the largest key first.  d is the
    discriminant of the QuadExt kind, None over Q (every q is 0), and
    ``ceiling`` the :func:`_ceiling` of the variable count.  The term budget
    is checked before and after, as described in the module docstring.

    Each factor lists its largest key first, and over an integral domain
    the product of the leading terms is the nonzero leading term of the
    product, so the sum of the first keys is the product's largest key and
    reaches ``ceiling`` exactly when its total degree overflows.
    """
    (a, da), (b, db) = x, y
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


def _built(terms, den, kind, d):
    """Term dict of scaled ``terms`` over ``den``, each coefficient built once."""
    if kind is QuadExt:
        return {e: _make(p, q, den, d) for e, p, q in terms}
    if kind is int:
        return {e: p for e, p, _ in terms}
    return {e: Fraction(p, den) for e, p, _ in terms}


def _product(t1, t2, ceiling):
    """Product of two term dicts as a dict of nonzero terms, computed on
    integers with the coefficient types and term budget checks described
    in the module docstring."""
    kind, d = _domain(t1.values(), t2.values())
    return _built(*_mul(_scaled(t1), _scaled(t2), d, ceiling), kind, d)


def _nonzero_difference(x, y):
    """Number of nonzero terms of x - y for scaled polys (terms, den)."""
    acc = {}
    for (terms, _), k in ((x, y[1]), (y, -x[1])):
        for e, p, q in terms:
            s = acc.setdefault(e, [0, 0])
            s[0] += k * p
            s[1] += k * q
    return sum(1 for p, q in acc.values() if p or q)


class Poly:
    """Sparse polynomial over an ordered variable tuple.

    Invariant: no zero coefficients are stored and ``terms`` maps packed
    keys (see the module docstring) to coefficients, sorted by key from the
    largest down, so dict equality is mathematical equality and ``str()``
    is canonical.  :meth:`items` reads the terms with exponent tuples.
    """

    __slots__ = ("vars", "terms")

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
            if c:
                clean[_pack(exps)] = c
        _set(self, "vars", variables)
        _set(self, "terms", {e: clean[e] for e in sorted(clean, reverse=True)})

    def __setattr__(self, *args):
        raise AttributeError("Poly values are immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def const(cls, variables, c):
        return _poly(tuple(variables), {0: c} if c else {})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise StructureError(f"unknown variable {name!r} in {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: Fraction(1)})

    # -- ring operations ----------------------------------------------

    def _check_same(self, other):
        if self.vars != other.vars:
            raise StructureError(
                f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, _SCALAR_TYPES):
                return NotImplemented
            other = Poly.const(self.vars, other)
        self._check_same(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e, 0) + c
            if acc:
                terms[e] = acc
            else:
                terms.pop(e, None)
        return _poly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, _SCALAR_TYPES):
                return NotImplemented
            return _poly(self.vars, {e: v for e, c in self.terms.items()
                                     if (v := c * other)})
        self._check_same(other)
        return _poly(self.vars, _product(self.terms, other.terms,
                                         _ceiling(len(self.vars))))

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
        return not self.terms

    def lead_coeff(self):
        if not self.terms:
            return 0
        return next(iter(self.terms.values()))

    def items(self) -> list:
        """(exponent tuple, coefficient) for each term, in stored order."""
        n = len(self.vars)
        # one 16-bit field per exponent, after the total degree
        fmt, size = f">{n + 1}H", 2 * n + 2
        return [(unpack(fmt, key.to_bytes(size, "big"))[1:], c)
                for key, c in self.terms.items()]

    def derivative(self, name: str) -> "Poly":
        if name not in self.vars:
            raise StructureError(f"unknown variable {name!r} in {self.vars}")
        n = len(self.vars)
        shift = WIDTH * (n - 1 - self.vars.index(name))
        # one less in the variable's field and in the total degree
        step = (1 << shift) + (1 << WIDTH * n)
        terms = {}
        for key, c in self.terms.items():
            e = key >> shift & (_FIELD - 1)
            if e:
                terms[key - step] = c * e
        return _poly(self.vars, terms)

    def conj_coeffs(self) -> "Poly":
        return _poly(self.vars, {e: scalar_conj(c) for e, c in self.terms.items()})

    # -- rendering and equality -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.vars == other.vars and self.terms == other.terms
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        return self.terms == Poly.const(self.vars, other).terms

    def __hash__(self):
        return hash((self.vars, tuple(self.terms.items())))

    def __str__(self):
        if not self.terms:
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


class RatFunc:
    """Quotient of two sparse polynomials over the same variables.

    Not reduced to lowest terms; the only normalisations applied are exact
    and cheap (common monomial factors are stripped and the denominator is
    made monic in the canonical order), so results stay deterministic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.const(num.vars, Fraction(1))
        if num.vars != den.vars:
            raise StructureError("numerator/denominator variable mismatch")
        if den.is_zero():
            raise DegenerateError("identically zero denominator")
        num, den = self._strip_monomial(num, den)
        lead = den.lead_coeff()
        if lead != 1:
            if isinstance(lead, int):
                lead = Fraction(lead)       # int / int would be a float
            num = _poly(num.vars, {e: c / lead for e, c in num.terms.items()})
            den = _poly(den.vars, {e: c / lead for e, c in den.terms.items()})
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("RatFunc values are immutable")

    @staticmethod
    def _strip_monomial(num: Poly, den: Poly):
        if num.is_zero():
            return num, Poly.const(den.vars, Fraction(1))
        # the smallest key comes last, and key 0 is a constant term
        if not next(reversed(num.terms)) or not next(reversed(den.terms)):
            return num, den
        mins = tuple(map(min, zip(*(exps for poly in (num, den)
                                    for exps, _ in poly.items()))))
        if not any(mins):
            return num, den
        # each field of each key is at least strip's, so nothing borrows
        strip = _pack(mins)
        num = _poly(num.vars, {e - strip: c for e, c in num.terms.items()})
        den = _poly(den.vars, {e - strip: c for e, c in den.terms.items()})
        return num, den

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
            if other.vars != self.vars:
                raise StructureError(
                    f"variable mismatch: {self.vars} vs {other.vars}")
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
        if isinstance(other, (RatFunc, Poly, *_SCALAR_TYPES)):
            return ratfunc_equal(self, self._coerce(other))
        return NotImplemented

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
            if f.vars != funcs[0].vars:
                raise StructureError(f"variable mismatch: {funcs[0].vars} vs {f.vars}")
        polys = [p for f in funcs for p in (f.num, f.den)]
        exps = [[e for e, _ in poly.items()] for poly in polys]
        self.monos = list(dict.fromkeys(e for es in exps for e in es))
        self.tops = [max(col) for col in zip(*self.monos)] or [0] * self.arity
        self.used = [i for i, top in enumerate(self.tops) if top]
        index = dict(zip(self.monos, range(len(self.monos))))
        marks, sums = {}, []
        for poly, es in zip(polys, exps):
            kind, d = _domain(poly.terms.values())
            t = list(map(_scalar_triple, poly.terms.values()))
            n = lcm(*[m for _, _, m in t])
            cq = [q * (n // m) for _, q, m in t]
            irrational = any(cq)
            if kind is QuadExt:
                marks.setdefault((d, irrational), _make(0, 1, 1, d) if irrational
                                 else _make(1, 0, 1, d))
            sums.append(((list(map(index.__getitem__, es)), [p * (n // m) for p, _, m in t],
                          cq if irrational else None, n), kind is QuadExt,
                         {i for i, col in enumerate(zip(*es)) if any(col)}))
        self.parts = [(num, den, nquad or dquad, nhas | dhas)
                      for (num, nquad, nhas), (den, dquad, dhas) in zip(sums[::2], sums[1::2])]
        self.marks = tuple(marks.values())

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
            raise StructureError("cannot evaluate at a point with an entry that is not "
                                 "an int, Fraction or QuadExt: substitute a generic "
                                 "point with ratfunc_compose")
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
    variable tuple, the key ceiling of that tuple, and the scaled
    numerator and denominator of each."""
    for f in fs:
        if f.vars != fs[0].vars:
            raise StructureError(f"variable mismatch: {fs[0].vars} vs {f.vars}")
    terms = [p.terms for f in fs for p in (f.num, f.den)]
    return (_domain(*(t.values() for t in terms))[1], _ceiling(len(fs[0].vars)),
            [_scaled(t) for t in terms])


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


def ratfunc_compose(f: RatFunc, subst) -> RatFunc:
    """Substitute subst[i] for the i-th variable of f, clearing denominators.

    The substitution tuple entries are RatFuncs over a common variable
    tuple; the result lives over that tuple.  Denominators are cleared
    analytically: with subst_i = n_i/d_i and M_i the largest power of the
    i-th variable in f, each term picks up the complementary d_i^(M_i - e_i),
    so the whole computation stays in integer polynomial arithmetic, as
    described in the module docstring.
    """
    subst = tuple(subst)
    if len(subst) != len(f.vars):
        raise StructureError(
            f"substitution arity {len(subst)} != {len(f.vars)}")
    if not subst:
        raise StructureError("empty substitution")
    out_vars = subst[0].vars
    for s in subst:
        if not isinstance(s, RatFunc) or s.vars != out_vars:
            raise StructureError("substitution entries over mixed variables")
    # one coefficient type for the result; the Fraction(1) seeds the power rows
    kind, d = _domain(f.num.terms.values(), f.den.terms.values(),
                      *(p.terms.values() for s in subst for p in (s.num, s.den)),
                      (Fraction(1),))

    # f's terms with exponent tuples, and each variable's largest power
    fn, fd = f.num.items(), f.den.items()
    maxdeg = [max(col) for col in zip(*(exps for exps, _ in fn + fd))]
    # powers of the substituted numerators and denominators, scaled once
    ceiling = _ceiling(len(out_vars))
    unit = [(0, 1, 0)], 1
    num_pows, den_pows = [], []
    for s, top in zip(subst, maxdeg):
        sn, sd = _scaled(s.num.terms), _scaled(s.den.terms)
        nrow, drow = [unit], [unit]
        for _ in range(top):
            nrow.append(_mul(nrow[-1], sn, d, ceiling))
            drow.append(_mul(drow[-1], sd, d, ceiling))
        num_pows.append(nrow)
        den_pows.append(drow)

    def times(val, mono):
        # val times a monomial (key, p, q), where val None stands for 1
        if val is None:
            return [mono], 1
        return val if mono == (0, 1, 0) else (_shift(val[0], mono, d), 1)

    def cleared(terms):
        # each term's chain of rows, and its denominator before the products
        chains = []
        for exps, c in terms:
            rows = [r for i, e in enumerate(exps)
                    for r in (num_pows[i][e], den_pows[i][maxdeg[i] - e])
                    if r is not unit]
            p, q, m = _scalar_triple(c)
            chains.append((p, q, m * prod(r[1] for r in rows), rows))
        # seed each chain over the lcm, so every product lands on it
        den = lcm(*[m for _, _, m, _ in chains])
        acc = {}
        for p, q, m, rows in chains:
            # one-term rows fold into the pending monomial (key, p, q); val,
            # the product of the rest, meets it only before a many-term row
            val, key, p, q = None, 0, p * (den // m), q * (den // m)
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
                    break               # a zero row: so is the term
                key, p, q = 0, 1, 0
            else:
                val = times(val, (key, p, q))
            for e, x, y in val[0]:
                s = acc.get(e)
                if s is None:
                    acc[e] = [x, y]
                else:
                    s[0] += x
                    s[1] += y
        return _poly(out_vars, _built(((e, p, q) for e, (p, q) in acc.items()
                                       if p or q), den, kind, d))

    den = cleared(fd)
    if den.is_zero():
        raise DegenerateError("composition produced an identically zero denominator")
    return RatFunc(cleared(fn), den)


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
