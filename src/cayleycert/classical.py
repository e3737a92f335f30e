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

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import attrgetter

from .errors import DegenerateError, PreconditionError, StructureError
from .field import QuadExt, QuadField, _domain, conj
from .matrices import (conj_transpose, identity, mat_add, mat_eq, mat_inverse,
                       mat_mul, mat_neg, mat_scale, mat_str, mat_sub, transpose)
from .poly import Poly, RatFunc, ratfunc_compose, ratfunc_equal
from .ratmap import (Certificate, EquivMap, MapPair, Relation, VarietySpec, Block,
                     projective_space, sample)

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
        if len(H) != self.n or any(len(row) != self.n for row in H):
            raise StructureError(f"form must be {self.n}x{self.n}")
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

        A gather of signed entries (module docstring), of scalars or of
        ``Poly`` entries alike.  Scalar entries have the type that the
        product H^-1 core(a) H has under the rule of ``field._domain``, as
        if it were multiplied out.
        """
        if self._conj:
            # the inner loop binds c to the conjugated entry once
            m = tuple(tuple(c if s == 1 else -c if s else f * c
                            for q, p, f, s in row for c in (conj(a[q][p]),))
                      for row in self._gather)
        else:
            m = tuple(tuple(a[q][p] if s == 1 else -a[q][p] if s else f * a[q][p]
                            for q, p, f, s in row)
                      for row in self._gather)
        return self._retype(m, a)

    def _retype(self, m, a):
        """m with the entry type of H^-1 core(a) H.  Entries of ``a`` over
        the form's own scalars already have it; others (ints, a field not
        the form's) are converted by multiplying with the result's one.
        Symbolic entries keep their coefficients."""
        kind, d = self._kind
        if (set(map(type, chain.from_iterable(a))) == {kind}
                and (d is None or set(map(_field_d, chain.from_iterable(a))) == {d})):
            return m
        kind, d = _domain(*a, *self.form)
        if kind is None:
            return m
        return mat_scale(QuadExt(1, 0, d) if kind is QuadExt else Fraction(1), m)

    def group_residual(self, a):
        """iota(a) a - 1; zero exactly when a is a group point."""
        return mat_sub(mat_mul(self.involute(a), a), self.one)

    def is_group_point(self, a) -> bool:
        return all(not x for r in self.group_residual(a) for x in r)

    def is_skew(self, x) -> bool:
        s = mat_add(self.involute(x), x)
        return all(not v for r in s for v in r)

    def random_entry(self, rng):
        # numerators in [-3, 3] over 1 or 2 keep the integers of mat_mul and
        # the fraction-free mat_inverse short
        if self.field is not None:
            return self.field.of(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                                 Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    def random_skew(self, rng):
        """x - iota(x) is skew for any x; halving keeps it exact."""
        raw = tuple(tuple(self.random_entry(rng) for _ in range(self.n))
                    for _ in range(self.n))
        return mat_scale(Fraction(1, 2), mat_sub(raw, self.involute(raw)))

    def random_group_point(self, rng):
        """Group points come from the inverse transform of random skews; 32
        skews that all hit the exceptional locus raise DegenerateError."""
        for _ in range(32):
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


def generic_matrices(n: int, names, root=None):
    """One n x n matrix per name, whose entries are independent ``Poly``
    variables over one variable tuple: entry (i, j) of matrix "a" is a_ij,
    or a_ij + root * a_ij' for a root sqrt(d) of a quadratic field."""
    parts = ("", "'") if root is not None else ("",)
    coords = tuple(f"{m}{i + 1}{j + 1}{s}"
                   for m in names for i in range(n) for j in range(n) for s in parts)
    xs = iter([Poly.variable(coords, c) for c in coords])

    def entry():
        x = next(xs)
        return x if root is None else x + root * next(xs)
    return [tuple(tuple(entry() for _ in range(n)) for _ in range(n)) for _ in names]


def full_linear_certificate(n: int) -> Certificate:
    """The unit-group transform a -> a - 1 with inverse x -> x + 1, decided
    on generic matrices a, g: (a - 1) + 1 = a, and g(a - 1) = ga - g, which
    is conjugation equivariance g(a - 1)g^-1 = gag^-1 - 1 multiplied
    through by g."""
    cert = Certificate(construction=f"gl{n}")
    a, g = generic_matrices(n, "ag")
    one = identity(n)
    x = mat_sub(a, one)
    ok = mat_eq(mat_add(x, one), a) and mat_eq(mat_mul(g, x), mat_sub(mat_mul(g, a), g))
    cert.add("shift-round-trip-and-equivariance", "pass" if ok else "fail",
             "exact on generic a, g: (a - 1) + 1 = a and g(a - 1) = ga - g")
    return cert


def classical_certificate(name: str, alg: MatrixAlg, seed: int,
                          trials: int = 100) -> Certificate:
    """The involution, then round trips, image skewness and conjugation
    equivariance of the transform.

    ``involution-anti-automorphism`` is exact: iota(ab) = iota(b) iota(a)
    and iota(iota(a)) = a on generic matrices a, b.  When it fails, the
    transform identities, which rest on it, are not run.  The other three
    verdicts share one count from one :func:`cayleycert.ratmap.sample` loop
    of ``trials`` attempts, each drawing group points a, then g: a must map
    to a skew x that maps back to a, and g must conjugate a and x alike.
    Their details state the count, and they fail when it is 0.  A failed
    identity fails ``transform-suite`` instead, with a (or g for the
    conjugation) as its witness.  ``trials`` must be at least 1.
    """
    if trials < 1:
        raise StructureError(f"trials must be positive: {trials}")
    cert = Certificate(construction=name, seed=seed)
    a, b = generic_matrices(alg.n, "ab", alg.field.sqrt if alg._conj else None)
    if not (mat_eq(alg.involute(mat_mul(a, b)), mat_mul(alg.involute(b), alg.involute(a)))
            and mat_eq(alg.involute(alg.involute(a)), a)):
        cert.add("involution-anti-automorphism", "fail",
                 "identity fails on generic matrices a, b")
        return cert
    cert.add("involution-anti-automorphism", "pass",
             "exact on generic a, b: iota(ab) = iota(b) iota(a), iota(iota(a)) = a")

    def draw(rng):
        return alg.random_group_point(rng), alg.random_group_point(rng)

    def check(pair):
        a, g = pair
        x = cayley_transform(alg, a)
        # x is checked to be skew before _transform sends it back
        if not (alg.is_skew(x) and mat_eq(_transform(alg, x), a)):
            return mat_str(a)
        ginv = mat_inverse(g)
        lhs = cayley_transform(alg, mat_mul(g, mat_mul(a, ginv)))
        return None if mat_eq(lhs, mat_mul(g, mat_mul(x, ginv))) else mat_str(g)

    count, _, witness = sample(seed, draw, check, trials, trials)
    if witness is not None:
        cert.add("transform-suite", "fail", "exact identity violated", witness)
    else:
        for vname in ("image-skewness", "round-trip", "conjugation-equivariance"):
            cert.add(vname, "pass" if count else "fail", f"{count} samples")
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
                       components=comps)
    inv_comps = tuple(f + 1 if k in diag else f
                      for k, f in enumerate(RatFunc.variables(xvars)))
    inverse = EquivMap(name=f"pgl{n}-inverse", source=target, target=source,
                       components=inv_comps)
    return MapPair(forward, inverse)


def pgl_scalar_invariance(n: int) -> bool:
    """The forward components of :func:`pgl_cayley` composed with
    a -> lambda a equal themselves, symbolically."""
    forward = pgl_cayley(n).forward
    *a, lam = RatFunc.variables(forward.source.coords + ("lam",))
    scaled = tuple(lam * x for x in a)
    return all(ratfunc_equal(ratfunc_compose(f, scaled), ratfunc_compose(f, a))
               for f in forward.components)


def pgl_certificate(n: int, seed: int, trials: int = 100) -> Certificate:
    from .ratmap import check_inverse_pair
    cert = Certificate(construction=f"pgl{n}", seed=seed)
    cert.add("scalar-invariance", "pass" if pgl_scalar_invariance(n) else "fail",
             "forward map composed with a -> lambda a")
    pair = pgl_cayley(n)
    cert.extend(check_inverse_pair(pair.forward, pair.inverse, seed=seed,
                                   trials=trials))
    return cert
