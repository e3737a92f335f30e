"""Classical transforms between matrix groups and their skew spaces.

For an associative matrix algebra with an involution iota, the group
G = {a : iota(a) a = 1} and the skew space {x : iota(x) = -x} are related
by the self-inverse birational transform a -> (1 - a)(1 + a)^-1.  The
supported involutions are transpose against a symmetric form H, conjugate
transpose against a Hermitian form H over Q(sqrt(d)), and transpose
against an invertible antisymmetric J (the symplectic case).

The projective variant for the quotient of the full matrix group by
scalars is built here too: [a] -> (n / tr a) a - 1 with inverse
x -> [x + 1], exposed as symbolic maps on matrix coordinates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateError, PreconditionError, StructureError
from .field import QuadField, random_rational
from .group import GroupSpec
from .matrices import (conj_transpose, identity, mat_add, mat_eq, mat_inverse,
                       mat_mul, mat_neg, mat_scale, mat_str, mat_sub, transpose)
from .poly import RatFunc
from .ratmap import (Certificate, EquivMap, MapPair, Relation, VarietySpec, Block,
                     projective_space)

INVOLUTIONS = ("symplectic", "transpose-form", "hermitian-form")


@dataclass
class MatrixAlg:
    """A full matrix algebra with a fixed involution."""

    n: int
    involution: str
    form: tuple                  # H (symmetric or Hermitian) or J (antisymmetric)
    field: QuadField | None = None   # None means plain rationals

    def __post_init__(self):
        if self.involution not in INVOLUTIONS:
            raise StructureError(f"unknown involution {self.involution!r}")
        H = self.form
        if self.involution == "transpose-form":
            if not mat_eq(H, transpose(H)):
                raise StructureError("form must be symmetric")
        elif self.involution == "hermitian-form":
            if self.field is None:
                raise StructureError("hermitian involution needs a quadratic field")
            if not mat_eq(H, conj_transpose(H)):
                raise StructureError("form must be Hermitian")
        else:
            if not mat_eq(H, mat_neg(transpose(H))):
                raise StructureError("form must be antisymmetric")
        self._form_inv = mat_inverse(H)

    @property
    def one(self):
        if self.field is not None:
            return identity(self.n, self.field.one)
        return identity(self.n)

    def involute(self, a):
        """iota(a); an anti-automorphism with iota^2 = id."""
        if self.involution == "hermitian-form":
            core = conj_transpose(a)
        else:
            core = transpose(a)
        return mat_mul(self._form_inv, mat_mul(core, self.form))

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
    try:
        inv = mat_inverse(mat_add(alg.one, a))
    except DegenerateError:
        raise DegenerateError("1 + a is singular (exceptional locus)")
    return mat_mul(mat_sub(alg.one, a), inv)


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
    for _ in range(trials):
        a = tuple(tuple(random_rational(rng, span=4) for _ in range(n)) for _ in range(n))
        ginv = tuple(tuple(random_rational(rng, span=3) for _ in range(n))
                     for _ in range(n))
        try:
            g = mat_inverse(ginv)
        except DegenerateError:
            continue
        one = identity(n)
        x = mat_sub(a, one)
        if not mat_eq(mat_add(x, one), a):
            ok = False
            break
        lhs = mat_sub(mat_mul(g, mat_mul(a, ginv)), one)
        rhs = mat_mul(g, mat_mul(x, ginv))
        if not mat_eq(lhs, rhs):
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
        if not mat_eq(alg.involute(mat_mul(a, b)),
                      mat_mul(alg.involute(b), alg.involute(a))):
            anti_ok = False
            break
        if not mat_eq(alg.involute(alg.involute(a)), a):
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
    diag_x = tuple(f"x{i + 1}{i + 1}" for i in range(n))
    source = projective_space(f"pgl{n}-matrices", avars, multiplicative=False)
    target = VarietySpec(f"sl{n}-traceless", (Block(
        "affine", xvars, (Relation("linear-sum", diag_x, diag_x[-1]),)),))

    a = {v: RatFunc.variable(avars, v) for v in avars}
    tr = sum((a[f"a{i + 1}{i + 1}"] for i in range(n)),
             RatFunc.const(avars, Fraction(0)))
    comps = []
    for i in range(n):
        for j in range(n):
            f = n * a[f"a{i + 1}{j + 1}"] / tr
            if i == j:
                f = f - 1
            comps.append(f)
    forward = EquivMap(name=f"pgl{n}-forward", source=source, target=target,
                       components=tuple(comps), group=_trivial_group())

    x = {v: RatFunc.variable(xvars, v) for v in xvars}
    inv_comps = []
    for i in range(n):
        for j in range(n):
            f = x[f"x{i + 1}{j + 1}"]
            if i == j:
                f = f + 1
            inv_comps.append(f)
    inverse = EquivMap(name=f"pgl{n}-inverse", source=target, target=source,
                       components=tuple(inv_comps), group=_trivial_group())
    return MapPair(forward, inverse)


def _trivial_group() -> GroupSpec:
    return GroupSpec(name="trivial", generators=(), order=1)


def pgl_scalar_invariance(n: int) -> bool:
    """Forward components are unchanged under a -> lambda a, symbolically."""
    avars = _matrix_vars("a", n) + ("lam",)
    a = {v: RatFunc.variable(avars, v) for v in avars}
    lam = a["lam"]
    tr = sum((a[f"a{i + 1}{i + 1}"] for i in range(n)),
             RatFunc.const(avars, Fraction(0)))
    for i in range(n):
        for j in range(n):
            plain = n * a[f"a{i + 1}{j + 1}"] / tr - (1 if i == j else 0)
            scaled = n * (lam * a[f"a{i + 1}{j + 1}"]) / (lam * tr) - (1 if i == j else 0)
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
