"""Classical transforms between matrix groups and their skew spaces.

For an associative matrix algebra with an involution iota, the group
G = {a : iota(a) a = 1} and the skew space {x : iota(x) = -x} are related
by the self-inverse birational transform a -> (1 - a)(1 + a)^-1.  The
involution is iota(a) = H^-1 core(a) H, with core(a) the transpose of a
against a symmetric form H, the conjugate transpose against a Hermitian
form H over Q(sqrt(d)), and the transpose against an antisymmetric J (the
symplectic case).

Forms must be monomial: row l of H has one nonzero entry h_l, in column
sigma(l).  Over Q this loses nothing, as every symmetric or Hermitian form
is congruent to a diagonal one and every symplectic form to J.  Then iota
is a gather, iota(a)[i][j] = (h_q / h_p) core(a)[p][q] with p = sigma^-1(i)
and q = sigma^-1(j), read from a table built once: a factor of +-1 is a
sign, any other (as for diag(1, 2, -3)) one scalar product, and the
conjugation is applied to each gathered entry.  The transform uses
(1 - a)(1 + a)^-1 = 2(1 + a)^-1 - 1: one inverse of a with its diagonal
shifted by 1, then a doubling, with no matrix product.

The projective variant for the quotient of the full matrix group by
scalars is built here too: [a] -> (n / tr a) a - 1 with inverse
x -> [x + 1], exposed as symbolic maps on matrix coordinates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import attrgetter

from .errors import DegenerateError, PreconditionError, StructureError
from .field import QuadExt, QuadField, _domain, random_rational
from .field import conj as scalar_conj
from .group import GroupSpec
from .matrices import (conj_transpose, identity, mat_add, mat_eq, mat_inverse,
                       mat_mul, mat_neg, mat_scale, mat_str, mat_sub, transpose)
from .poly import RatFunc
from .ratmap import (Certificate, EquivMap, MapPair, Relation, VarietySpec, Block,
                     projective_space)

_field_d = attrgetter("d")

INVOLUTIONS = ("symplectic", "transpose-form", "hermitian-form")
FORM_KINDS = {"symplectic": "antisymmetric", "transpose-form": "symmetric",
              "hermitian-form": "Hermitian"}
MONOMIAL_RULE = ("form must be monomial, with one nonzero entry in each row and "
                 "column: over Q every symmetric or Hermitian form is congruent to a "
                 "diagonal one, and every symplectic form to J")


@dataclass
class MatrixAlg:
    """A full matrix algebra with a fixed involution.

    ``form`` must be monomial (module docstring), else the constructor
    raises :class:`StructureError`.  ``one`` is the identity matrix over
    the algebra's scalars, built once.
    """

    n: int
    involution: str
    form: tuple                  # H (symmetric or Hermitian) or J (antisymmetric)
    field: QuadField | None = None   # None means plain rationals

    def __post_init__(self):
        if self.involution not in INVOLUTIONS:
            raise StructureError(f"unknown involution {self.involution!r}")
        H = self.form
        self._conj = self.involution == "hermitian-form"
        if self._conj and self.field is None:
            raise StructureError("hermitian involution needs a quadratic field")
        core = conj_transpose(H) if self._conj else transpose(H)
        if not mat_eq(core, mat_neg(H) if self.involution == "symplectic" else H):
            raise StructureError(f"form must be {FORM_KINDS[self.involution]}")
        # row l of H holds h_l in column sigma(l); Fraction(1) * h_l keeps
        # h_l / h_l' from being a float for int forms.  As H is (anti)symmetric
        # or Hermitian, one entry per row makes sigma its own inverse.
        cells = [[(j, Fraction(1) * x) for j, x in enumerate(row) if x] for row in H]
        if any(len(c) != 1 for c in cells):
            raise StructureError(MONOMIAL_RULE)
        sigma = [c[0][0] for c in cells]
        h = [c[0][1] for c in cells]
        # entry (i, j) is f * core(a)[p][q] = f * a[q][p] with p = sigma[i],
        # q = sigma[j] and f = h_q / h_p; s is f when f = +-1, else 0
        self._gather = tuple(tuple((q, p, f, (f == 1) - (f == -1))
                                   for q in sigma for f in (h[q] / h[p],)) for p in sigma)
        kind, d = _domain(*H)
        self._kind = (QuadExt if kind is QuadExt else Fraction), d
        self.one = identity(self.n, self.field.one if self.field is not None else Fraction(1))

    def involute(self, a):
        """iota(a) = H^-1 core(a) H; an anti-automorphism with iota^2 = id.

        A gather of signed entries (module docstring).  The entries have
        the type that the product H^-1 core(a) H has under the rule of
        ``field._domain``, as if it were multiplied out.
        """
        if self._conj:
            # the inner loop binds c to the conjugated entry once
            m = tuple(tuple(c if s == 1 else -c if s else f * c
                            for q, p, f, s in row for c in (scalar_conj(a[q][p]),))
                      for row in self._gather)
        else:
            m = tuple(tuple(a[q][p] if s == 1 else -a[q][p] if s else f * a[q][p]
                            for q, p, f, s in row)
                      for row in self._gather)
        return self._retype(m, a)

    def _retype(self, m, a):
        """m with the entry type of H^-1 core(a) H.  Entries of ``a`` over
        the form's own scalars already have it; others (ints, a field not
        the form's) are converted by multiplying with the result's one."""
        kind, d = self._kind
        if (set(map(type, chain.from_iterable(a))) == {kind}
                and (d is None or set(map(_field_d, chain.from_iterable(a))) == {d})):
            return m
        kind, d = _domain(*a, *self.form)
        return mat_scale(QuadExt(1, 0, d) if kind is QuadExt else Fraction(1), m)

    def group_residual(self, a):
        """iota(a) a - 1; zero exactly when a is a group point."""
        return mat_sub(mat_mul(self.involute(a), a), self.one)

    def is_group_point(self, a) -> bool:
        return all(not x for r in self.group_residual(a) for x in r)

    def is_skew(self, x) -> bool:
        s = mat_add(self.involute(x), x)
        return all(not v for r in s for v in r)

    def random_entry(self, rng, span=3):
        # small numerators over 1 or 2 keep the integers of mat_mul and the
        # fraction-free mat_inverse short
        if self.field is not None:
            return self.field.of(Fraction(rng.randint(-span, span), rng.randint(1, 2)),
                                 Fraction(rng.randint(-span, span), rng.randint(1, 2)))
        return Fraction(rng.randint(-span, span), rng.randint(1, 2))

    def random_skew(self, rng):
        """x - iota(x) is skew for any x; halving keeps it exact."""
        raw = tuple(tuple(self.random_entry(rng) for _ in range(self.n))
                    for _ in range(self.n))
        return mat_scale(Fraction(1, 2), mat_sub(raw, self.involute(raw)))

    def random_group_point(self, rng, retries=32):
        """Group points come from the inverse transform of random skews."""
        for _ in range(retries):
            x = self.random_skew(rng)
            try:
                return cayley_transform_of_skew(self, x)
            except DegenerateError:
                continue
        raise DegenerateError("could not sample a group point")


def cayley_transform(alg: MatrixAlg, a):
    """(1 - a)(1 + a)^-1 for a group point a; lands in the skew space."""
    res = alg.group_residual(a)
    if any(x for r in res for x in r):
        raise PreconditionError(
            f"not a group point; residual iota(a)a - 1 = {mat_str(res)}")
    return _transform(alg, a)


def cayley_transform_of_skew(alg: MatrixAlg, x):
    """The same formula sends a skew element back into the group."""
    if not alg.is_skew(x):
        raise PreconditionError("input is not skew for the involution")
    return _transform(alg, x)


def _transform(alg, a):
    """(1 - a)(1 + a)^-1 = 2(1 + a)^-1 - 1, an identity in any ring where
    1 + a is invertible (1 - a = 2 - (1 + a)): one inverse, no product."""
    one = alg.one[0][0]
    try:
        inv = mat_inverse(tuple(tuple(x + one if i == j else x for j, x in enumerate(r))
                                for i, r in enumerate(a)))
    except DegenerateError:
        raise DegenerateError("1 + a is singular (exceptional locus)")
    return tuple(tuple(2 * x - 1 if i == j else 2 * x for j, x in enumerate(r))
                 for i, r in enumerate(inv))


def cayley_conjugation_equivariance(alg: MatrixAlg, a, g) -> bool:
    """transform(g a g^-1) == g transform(a) g^-1, exactly."""
    if not alg.is_group_point(g):
        raise PreconditionError("g is not a group point")
    ginv = mat_inverse(g)
    lhs = cayley_transform(alg, mat_mul(g, mat_mul(a, ginv)))
    rhs = mat_mul(g, mat_mul(cayley_transform(alg, a), ginv))
    return mat_eq(lhs, rhs)


# -- standard algebras -----------------------------------------------------

def symplectic_alg(n: int) -> MatrixAlg:
    if n % 2:
        raise StructureError("symplectic size must be even")
    h = n // 2
    J = [[Fraction(0)] * n for _ in range(n)]
    for i in range(h):
        J[i][h + i] = Fraction(1)
        J[h + i][i] = Fraction(-1)
    return MatrixAlg(n=n, involution="symplectic", form=tuple(map(tuple, J)))


def orthogonal_alg(n: int, signs=None) -> MatrixAlg:
    signs = signs or (1,) * n
    H = tuple(tuple(Fraction(signs[i]) if i == j else Fraction(0) for j in range(n))
              for i in range(n))
    return MatrixAlg(n=n, involution="transpose-form", form=H)


def unitary_alg(n: int, d: int = -3, signs=None) -> MatrixAlg:
    F = QuadField(d)
    signs = signs or (1,) * n
    H = tuple(tuple(F.of(signs[i]) if i == j else F.zero for j in range(n))
              for i in range(n))
    return MatrixAlg(n=n, involution="hermitian-form", form=H, field=F)


def full_linear_certificate(n: int, seed: int, trials: int = 25,
                            name: str | None = None) -> Certificate:
    """The unit-group transform a -> a - 1 with inverse x -> x + 1,
    conjugation-equivariant for trivial reasons but checked anyway."""
    cert = Certificate(construction=name or f"gl{n}", seed=seed)
    rng = random.Random(seed)
    ok = True
    one = identity(n)
    for _ in range(trials):
        a = tuple(tuple(random_rational(rng, span=4) for _ in range(n)) for _ in range(n))
        ginv = tuple(tuple(random_rational(rng, span=3) for _ in range(n))
                     for _ in range(n))
        try:
            g = mat_inverse(ginv)
        except DegenerateError:
            continue
        x = mat_sub(a, one)
        if not (mat_eq(mat_add(x, one), a)
                and mat_eq(mat_sub(mat_mul(g, mat_mul(a, ginv)), one),
                           mat_mul(g, mat_mul(x, ginv)))):
            ok = False
            break
    cert.add("shift-round-trip-and-equivariance", "pass" if ok else "fail",
             f"{trials} random points")
    return cert


def classical_certificate(name: str, alg: MatrixAlg, seed: int,
                          trials: int = 100) -> Certificate:
    """Round trips, image skewness, and conjugation equivariance, all exact."""
    cert = Certificate(construction=name, seed=seed)
    rng = random.Random(seed)

    anti_ok = True
    for _ in range(min(trials, 20)):
        a = tuple(tuple(alg.random_entry(rng) for _ in range(alg.n))
                  for _ in range(alg.n))
        b = tuple(tuple(alg.random_entry(rng) for _ in range(alg.n))
                  for _ in range(alg.n))
        if not (mat_eq(alg.involute(mat_mul(a, b)),
                       mat_mul(alg.involute(b), alg.involute(a)))
                and mat_eq(alg.involute(alg.involute(a)), a)):
            anti_ok = False
            break
    cert.add("involution-anti-automorphism", "pass" if anti_ok else "fail")

    trips = skews = equivs = 0
    witness = None
    for _ in range(trials):
        try:
            a = alg.random_group_point(rng)
            x = cayley_transform(alg, a)
        except DegenerateError:
            continue
        if alg.is_skew(x):
            skews += 1
        else:
            witness = mat_str(a)
            break
        try:
            back = cayley_transform_of_skew(alg, x)
        except DegenerateError:
            continue
        if mat_eq(back, a):
            trips += 1
        else:
            witness = mat_str(a)
            break
        try:
            g = alg.random_group_point(rng)
            ginv = mat_inverse(g)
            lhs = cayley_transform(alg, mat_mul(g, mat_mul(a, ginv)))
            rhs = mat_mul(g, mat_mul(x, ginv))
            if mat_eq(lhs, rhs):
                equivs += 1
            else:
                witness = mat_str(g)
                break
        except DegenerateError:
            continue
    if witness is not None:
        cert.add("transform-suite", "fail", "exact identity violated", witness)
    else:
        cert.add("image-skewness", "pass", f"{skews} samples")
        cert.add("round-trip", "pass", f"{trips} samples")
        cert.add("conjugation-equivariance", "pass", f"{equivs} samples")
    return cert


# -- the projective quotient map ------------------------------------------

def _matrix_vars(prefix: str, n: int):
    return tuple(f"{prefix}{i + 1}{j + 1}" for i in range(n) for j in range(n))


def pgl_cayley(n: int) -> MapPair:
    """Symbolic transform pair for the matrix group modulo scalars.

    Forward: [a] -> (n / tr a) a - 1, landing in the traceless slice.
    Inverse: x -> [x + 1].  The forward map is invariant under rescaling
    a -> lambda a, which :func:`pgl_scalar_invariance` certifies.
    """
    avars = _matrix_vars("a", n)
    xvars = _matrix_vars("x", n)
    diag = range(0, n * n, n + 1)          # row-major positions of a_ii
    diag_x = tuple(xvars[k] for k in diag)
    source = projective_space(f"pgl{n}-matrices", avars, multiplicative=False)
    target = VarietySpec(f"sl{n}-traceless", (Block(
        "affine", xvars, (Relation("linear-sum", diag_x, diag_x[-1]),)),))
    a = RatFunc.variables(avars)
    tr = sum(a[::n + 1], RatFunc.const(avars, Fraction(0)))
    comps = tuple(n * f / tr - 1 if k in diag else n * f / tr for k, f in enumerate(a))
    forward = EquivMap(name=f"pgl{n}-forward", source=source, target=target,
                       components=comps, group=_trivial_group())
    inv_comps = tuple(f + 1 if k in diag else f
                      for k, f in enumerate(RatFunc.variables(xvars)))
    inverse = EquivMap(name=f"pgl{n}-inverse", source=target, target=source,
                       components=inv_comps, group=_trivial_group())
    return MapPair(forward, inverse)


def _trivial_group() -> GroupSpec:
    return GroupSpec(name="trivial", generators=(), order=1)


def pgl_scalar_invariance(n: int) -> bool:
    """Forward components are unchanged under a -> lambda a, symbolically."""
    avars = _matrix_vars("a", n) + ("lam",)
    *a, lam = RatFunc.variables(avars)
    tr = sum(a[::n + 1], RatFunc.const(avars, Fraction(0)))
    for k, f in enumerate(a):
        shift = 1 if k % (n + 1) == 0 else 0
        plain = n * f / tr - shift
        scaled = n * (lam * f) / (lam * tr) - shift
        if not (plain - scaled).is_zero():
            return False
    return True


def pgl_certificate(n: int, seed: int, trials: int = 100,
                    name: str | None = None) -> Certificate:
    from .ratmap import check_inverse_pair
    cert = Certificate(construction=name or f"pgl{n}", seed=seed)
    cert.add("scalar-invariance", "pass" if pgl_scalar_invariance(n) else "fail",
             "forward map composed with a -> lambda a")
    pair = pgl_cayley(n)
    cert.extend(check_inverse_pair(pair.forward, pair.inverse, seed=seed,
                                   trials=trials))
    return cert
