"""Sparse multivariate polynomials and rational functions, exact throughout.

``Poly`` stores a map from exponent vectors to nonzero coefficients over a
fixed ordered variable tuple; coefficients are ints, Fractions or
:class:`~cayleycert.field.QuadExt` values.  Evaluation needs only ring
arithmetic of the point's entries, so a ``Poly`` can be evaluated at
``RatFunc`` points too.  ``RatFunc`` is a numerator/denominator pair that
is *not* kept in lowest terms: there is no multivariate GCD here.
Equality is decided exactly by cross multiplication and full expansion,
and identities modulo a variety relation are decided by
:func:`chart_restrict`, which substitutes the relation's chart into the
function.

Products run on integers (the integral representation of Cohen, *A Course
in Computational Algebraic Number Theory*, 4.2, as in ``matrices``): the
kernel puts each factor's coefficients over one denominator, the lcm of
theirs, sums the products of term pairs as integers, over Z[sqrt(d)] as
the pairs (p*p' + d*q*q', p*q' + q*p'), and normalises each output
coefficient once.  A result is sorted once, in the graded order: highest
total degree first, then lexicographic.  :func:`ratfunc_compose` runs the
kernel on raw term dicts and builds each cleared polynomial once.

Coefficient types of a product follow the one rule of ``field._domain``,
shared with ``matrices``: ``QuadExt`` in the field of the irrational
coefficients if either factor has a ``QuadExt`` coefficient, ``int`` if
both factors are int-only, else ``Fraction``; irrational coefficients from
two fields raise :class:`FieldMismatchError`.  So a rational coefficient
of a product whose factors mix ``Fraction`` and ``QuadExt`` is a rational
``QuadExt``, with the same value, hash, ``==`` and ``scalar_str`` as the
``Fraction``.

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
from fractions import Fraction
from math import lcm
from operator import add

from .errors import DegenerateError, StructureError, TermBudgetError
from .field import QuadExt, _domain, _make, _scalar_triple, scalar_str
from .field import conj as scalar_conj

_new = object.__new__
_set = object.__setattr__

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


def _order(term):
    # graded order, sorted descending: highest total degree first, then
    # lexicographic; exponent vectors are distinct, so there are no ties
    return sum(term[0]), term[0]


def _poly(variables, terms) -> "Poly":
    """The Poly of checked, nonzero ``terms`` over a variable tuple, sorted once."""
    p = _new(Poly)
    _set(p, "vars", variables)
    _set(p, "terms", dict(sorted(terms.items(), key=_order, reverse=True)))
    return p


def _scaled(terms):
    """Coefficients of a term dict over one denominator, the lcm of theirs:
    ([(exps, p, q)], n) with coefficient (p + q*sqrt(d))/n, q = 0 for rationals."""
    if len(terms) == 1:
        (e, c), = terms.items()
        p, q, n = _scalar_triple(c)
        return [(e, p, q)], n
    t = [(e, _scalar_triple(c)) for e, c in terms.items()]
    den = lcm(*[n for _, (_, _, n) in t])
    return [(e, p * (den // n), q * (den // n)) for e, (p, q, n) in t], den


def _product(t1, t2):
    """Product of two term dicts as a dict of nonzero terms, computed on
    integers with the coefficient types and term budget checks described
    in the module docstring."""
    budget = _term_budget.get()
    if len(t1) * len(t2) > 16 * budget:
        raise TermBudgetError(
            f"product of {len(t1)} x {len(t2)} terms exceeds budget {budget}")
    kind, d = _domain(t1.values(), t2.values())
    a, da = _scaled(t1)
    b, db = _scaled(t2)
    den = da * db
    acc = {}
    if kind is QuadExt:
        for e1, p1, q1 in a:
            dq1 = d * q1
            for e2, p2, q2 in b:
                e = tuple(map(add, e1, e2))
                s = acc.get(e)
                if s is None:
                    acc[e] = [p1 * p2 + dq1 * q2, p1 * q2 + q1 * p2]
                else:
                    s[0] += p1 * p2 + dq1 * q2
                    s[1] += p1 * q2 + q1 * p2
        out = {e: _make(p, q, den, d) for e, (p, q) in acc.items() if p or q}
    else:
        for e1, p1, _ in a:
            for e2, p2, _ in b:
                e = tuple(map(add, e1, e2))
                acc[e] = acc.get(e, 0) + p1 * p2
        if kind is int:
            out = {e: c for e, c in acc.items() if c}
        else:
            out = {e: Fraction(c, den) for e, c in acc.items() if c}
    if len(out) > budget:
        raise TermBudgetError(f"{len(out)} terms exceed budget {budget}")
    return out


class Poly:
    """Sparse polynomial over an ordered variable tuple.

    Invariant: no zero coefficients are stored and terms are kept sorted in
    a fixed monomial order, so dict equality is mathematical equality and
    ``str()`` is canonical.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        object.__setattr__(self, "vars", tuple(variables))
        clean = {}
        for exps, c in terms.items():
            if len(exps) != len(self.vars):
                raise StructureError(
                    f"exponent vector {exps} does not match variables {self.vars}")
            if c:
                clean[tuple(exps)] = c
        ordered = dict(sorted(clean.items(), key=_order, reverse=True))
        object.__setattr__(self, "terms", ordered)

    def __setattr__(self, *args):
        raise AttributeError("Poly values are immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def const(cls, variables, c):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise StructureError(f"unknown variable {name!r} in {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, variables, exps, coeff=Fraction(1)):
        return cls(variables, {tuple(exps): coeff})

    # -- ring operations ----------------------------------------------

    def _check_same(self, other):
        if self.vars != other.vars:
            raise StructureError(
                f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, Poly):
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
        if not isinstance(other, Poly):
            other = Poly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.vars, {e: c * other for e, c in self.terms.items()})
        self._check_same(other)
        return _poly(self.vars, _product(self.terms, other.terms))

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

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        idx = self.vars.index(name)
        if not self.terms:
            return 0
        return max(e[idx] for e in self.terms)

    def lead_coeff(self):
        if not self.terms:
            return 0
        return next(iter(self.terms.values()))

    def eval(self, point):
        """Exact evaluation; point entries only need ring arithmetic, so
        substituting RatFunc values is legal and is how composition works."""
        if len(point) != len(self.vars):
            raise StructureError(
                f"point arity {len(point)} does not match {len(self.vars)} variables")
        if not self.terms:
            return 0
        # cache powers of each coordinate up to the degree that occurs
        maxdeg = [0] * len(self.vars)
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e > maxdeg[i]:
                    maxdeg[i] = e
        powers = []
        for x, top in zip(point, maxdeg):
            row = [1]
            for _ in range(top):
                row.append(row[-1] * x)
            powers.append(row)
        acc = 0
        for exps, c in self.terms.items():
            val = c
            for i, e in enumerate(exps):
                if e:
                    val = val * powers[i][e]
            acc = acc + val
        return acc

    def derivative(self, name: str) -> "Poly":
        idx = self.vars.index(name)
        terms = {}
        for exps, c in self.terms.items():
            e = exps[idx]
            if e == 0:
                continue
            new = list(exps)
            new[idx] = e - 1
            terms[tuple(new)] = c * e
        return Poly(self.vars, terms)

    def conj_coeffs(self) -> "Poly":
        return Poly(self.vars, {e: scalar_conj(c) for e, c in self.terms.items()})

    # -- rendering and equality -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.vars == other.vars and self.terms == other.terms
        return self.terms == Poly.const(self.vars, other).terms

    def __hash__(self):
        return hash((self.vars, tuple(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.terms.items():
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
        n = len(num.vars)
        mins = [None] * n
        for poly in (num, den):
            for exps in poly.terms:
                for i, e in enumerate(exps):
                    if mins[i] is None or e < mins[i]:
                        mins[i] = e
        if not any(mins):
            return num, den
        strip = tuple(mins)
        num = _poly(num.vars, {tuple(e - s for e, s in zip(exps, strip)): c
                               for exps, c in num.terms.items()})
        den = _poly(den.vars, {tuple(e - s for e, s in zip(exps, strip)): c
                               for exps, c in den.terms.items()})
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
        if isinstance(other, RatFunc):
            if other.vars != self.vars:
                raise StructureError(
                    f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        return RatFunc.const(self.vars, other)

    def __add__(self, other):
        o = self._coerce(other)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.num.is_zero():
            raise DegenerateError("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

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
        d = self.den.eval(point)
        if not d:
            raise DegenerateError("denominator vanishes at the point")
        return self.num.eval(point) / d

    def conj_coeffs(self) -> "RatFunc":
        return RatFunc(self.num.conj_coeffs(), self.den.conj_coeffs())

    def __eq__(self, other):
        if isinstance(other, (RatFunc, int, Fraction, QuadExt)):
            return ratfunc_equal(self, self._coerce(other))
        return NotImplemented

    def __str__(self):
        if self.den == Poly.const(self.vars, Fraction(1)):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def ratfunc_equal(f: RatFunc, g: RatFunc) -> bool:
    """Exact equality via cross multiplication and full expansion."""
    if f.vars != g.vars:
        raise StructureError(f"variable mismatch: {f.vars} vs {g.vars}")
    return (f.num * g.den - g.num * f.den).is_zero()


def ratfunc_compose(f: RatFunc, subst) -> RatFunc:
    """Substitute subst[i] for the i-th variable of f, clearing denominators.

    The substitution tuple entries are RatFuncs over a common variable
    tuple; the result lives over that tuple.  Denominators are cleared
    analytically: with subst_i = n_i/d_i and M_i the largest power of the
    i-th variable in f, each term picks up the complementary d_i^(M_i - e_i),
    so the whole computation stays in polynomial arithmetic and the result
    is normalised once.
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

    n = len(f.vars)
    maxdeg = [0] * n
    for poly in (f.num, f.den):
        for exps in poly.terms:
            for i, e in enumerate(exps):
                if e > maxdeg[i]:
                    maxdeg[i] = e
    # powers of the substituted numerators and denominators, as term dicts
    origin = (0,) * len(out_vars)
    num_pows, den_pows = [], []
    for s, top in zip(subst, maxdeg):
        nrow, drow = [{origin: Fraction(1)}], [{origin: Fraction(1)}]
        for _ in range(top):
            nrow.append(_product(nrow[-1], s.num.terms))
            drow.append(_product(drow[-1], s.den.terms))
        num_pows.append(nrow)
        den_pows.append(drow)

    def cleared(poly):
        acc = {}
        for exps, c in poly.terms.items():
            val = {origin: c}
            for i, e in enumerate(exps):
                if e:
                    val = _product(val, num_pows[i][e])
                if maxdeg[i] - e:
                    val = _product(val, den_pows[i][maxdeg[i] - e])
            for e, x in val.items():
                x = acc.get(e, 0) + x
                if x:
                    acc[e] = x
                else:
                    del acc[e]
        return _poly(out_vars, acc)

    den = cleared(f.den)
    if den.is_zero():
        raise DegenerateError("composition produced an identically zero denominator")
    return RatFunc(cleared(f.num), den)


def chart_restrict(f: RatFunc, relation: str, eliminated: str,
                   variables=None, exponents=None) -> RatFunc:
    """Substitute the chart of a variety relation, removing one variable.

    relation "torus-product": the coordinates ``variables`` satisfy
    prod v_i^e_i = 1 (exponents default to all 1); ``eliminated`` must
    occur with exponent +-1 and is replaced by the solved monomial.

    relation "linear-sum": the coordinates satisfy sum v_i = 0 and
    ``eliminated`` is replaced by minus the sum of the others.

    The result is a RatFunc over the remaining free variables.
    """
    if eliminated not in f.vars:
        raise StructureError(f"{eliminated!r} is not a variable of {f.vars}")
    involved = tuple(variables) if variables is not None else f.vars
    if eliminated not in involved:
        raise StructureError(f"{eliminated!r} does not occur in the relation")
    for v in involved:
        if v not in f.vars:
            raise StructureError(f"relation variable {v!r} unknown")
    out_vars = tuple(v for v in f.vars if v != eliminated)
    if not out_vars:
        raise StructureError("cannot eliminate the only variable")
    coords = {v: RatFunc.variable(out_vars, v) for v in out_vars}

    if relation == "torus-product":
        exps = tuple(exponents) if exponents is not None else (1,) * len(involved)
        if len(exps) != len(involved):
            raise StructureError("exponent vector does not match relation variables")
        e_s = exps[involved.index(eliminated)]
        if e_s not in (1, -1):
            raise StructureError(
                f"cannot solve for {eliminated!r}: exponent {e_s} is not unit")
        solved = RatFunc.const(out_vars, Fraction(1))
        for v, e in zip(involved, exps):
            if v == eliminated:
                continue
            solved = solved * coords[v] ** (-e * e_s)
    elif relation == "linear-sum":
        if exponents is not None:
            raise StructureError("linear-sum relation takes no exponents")
        solved = RatFunc.const(out_vars, Fraction(0))
        for v in involved:
            if v != eliminated:
                solved = solved - coords[v]
    else:
        raise StructureError(f"unsupported relation form {relation!r}")

    subst = tuple(solved if v == eliminated else coords[v] for v in f.vars)
    return ratfunc_compose(f, subst)
