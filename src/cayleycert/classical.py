"""Classical transforms between matrix groups and their skew spaces.

For an associative matrix algebra with an involution iota, the group
G = {a : iota(a) a = 1} and the skew space {x : iota(x) = -x} are related
by the self-inverse birational transform a -> (1 - a)(1 + a)^-1.  The
involution is iota(a) = H^-1 core(a) H, with core(a) the transpose of a
against a symmetric form H, the conjugate transpose against a Hermitian
form H over Q(sqrt(d)), and the transpose against an antisymmetric J (the
symplectic case).  The algebra's field is its form's: Q(sqrt(d)) when the
form has ``QuadExt`` entries, else Q.

Forms must be monomial: row l of H has one nonzero entry h_l, in column
sigma(l).  Over Q this loses nothing, as every symmetric or Hermitian form
is congruent to a diagonal one and every symplectic form to J.  Then iota
is a gather, iota(a)[i][j] = g core(a)[p][q] with p = sigma^-1(i),
q = sigma^-1(j) and g = h_q / h_p, read from one table built once: cell
(i, j) holds (q, p, u, v), g being (u + v*sqrt(d))/L over one common
integer L, and the conjugation is applied to each gathered entry.  The
table is read on generic matrices by :meth:`MatrixAlg.involute`, where a
factor of +-1 is a sign and any other (as for diag(1, 2, -3)) one scalar
product, and on the integer form of ``matrices`` (``_IntMat``), on which
all scalar work runs, by :meth:`MatrixAlg._involute_int`, and by the
spot check's draw and skew test in one integer pass each.  The transform
uses (1 - a)(1 + a)^-1 = 2(1 + a)^-1 - 1: one inverse, of
(1 + a)/2, then a diagonal shift by -1, with no matrix product.

:func:`classical_certificate` ties the table to its form by an exact
check and derives the transform's verdicts by a stated ring rule; its
spot check stays on integer forms from draw to verdict, and builds
scalars only for a witness; the public functions convert scalar matrices
in and out.

The projective variant for the quotient of the full matrix group by
scalars is built here too: [a] -> (n / tr a) a - 1 with inverse
x -> [x + 1], exposed as symbolic maps on matrix coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat

from .errors import DegenerateError, PreconditionError, StructureError
from .field import QuadExt, QuadField, _domain, below, conj
from .matrices import (_IntMat, conj_transpose, identity, mat_add, mat_eq, mat_mul,
                       mat_neg, mat_str, mat_sub, transpose)
from .poly import ComposePlan, Poly, RatFunc, ratfunc_equal
from .ratmap import (Certificate, EquivMap, MapPair, Relation, VarietySpec, Block,
                     check_inverse_pair, projective_space, spot_check)

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
    raises :class:`StructureError`.  The algebra's field is its form's:
    ``field`` is the :class:`QuadField` of the form's ``QuadExt`` entries
    (by ``field._domain``), or None when the form is rational, and a
    Hermitian form needs one.
    """

    n: int
    involution: str
    form: tuple                  # H (symmetric or Hermitian) or J (antisymmetric)

    def __post_init__(self):
        if self.involution not in INVOLUTIONS:
            raise StructureError(f"unknown involution {self.involution!r}")
        if self.n < 1:
            raise StructureError(f"size must be at least 1: {self.n}")
        H = self.form
        if len(H) != self.n or any(len(row) != self.n for row in H):
            raise StructureError(f"form must be {self.n}x{self.n}")
        _, self._d = _domain(*H)        # the field's d, None over Q
        self.field = QuadField(self._d) if self._d else None
        self._conj = self.involution == "hermitian-form"
        if self._conj and self.field is None:
            raise StructureError("hermitian involution needs a form over a quadratic field")
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
        # cell (i, j) reads a[q][p] = core(a)[p][q] with p = sigma[i],
        # q = sigma[j], times h_q / h_p = (u + v*sqrt(d))/L over one
        # L = self._den
        k = _IntMat.of([[h[q] / h[p] for q in sigma] for p in sigma], self._d)
        self._den = k.den
        self._gather = tuple(
            tuple(zip(sigma, repeat(p), ur, vr))
            for p, ur, vr in zip(sigma, k.p, k.q or [[0] * self.n] * self.n))

    def involute(self, a):
        """iota(a) = H^-1 core(a) H on a generic matrix (``Poly``
        entries); an anti-automorphism with iota^2 = id.  A gather of
        signed entries (module docstring).  Scalar matrices take
        :meth:`_involute_int`, on their integer form."""
        take = conj if self._conj else lambda c: c
        return tuple(tuple(self._times(u, v, take(a[q][p])) for q, p, u, v in row)
                     for row in self._gather)

    def _times(self, u, v, c):
        """c times the cell factor (u + v*sqrt(d))/L: a sign when that is
        +-1, else one product by a scalar of the algebra's field."""
        L, K = self._den, self.field
        if not v and abs(u) == L:
            return c if u > 0 else -c
        return (K.of(Fraction(u, L), Fraction(v, L)) if K else Fraction(u, L)) * c

    def _involute_int(self, m):
        """iota on an integer form: the gather of :meth:`involute` with the
        integer factors u + v*sqrt(d), over the denominator L * m.den."""
        a, b, den = m.p, m.q, self._den * m.den
        if b is None:
            return _IntMat([[u * a[q][p] for q, p, u, _ in row]
                            for row in self._gather], None, den, None)
        c, cd = (-1, -m.d) if self._conj else (1, m.d)
        return _IntMat([[u * a[q][p] + cd * v * b[q][p] for q, p, u, v in row]
                        for row in self._gather],
                       [[c * u * b[q][p] + v * a[q][p] for q, p, u, v in row]
                        for row in self._gather], den, m.d)

    def _int(self, *mats):
        """Integer forms of scalar matrices, all over the field that
        ``field._domain`` gives them together with the form."""
        d = _domain(*chain.from_iterable(mats), *self.form)[1]
        return [_IntMat.of(m, d) for m in mats]

    def _residual(self, a):
        """iota(a) a - 1 on an integer form: zero exactly on group points."""
        return (self._involute_int(a) @ a).shift(-1)

    def _is_skew(self, x):
        """iota(x) = -x on an integer form, in one pass over the gather and
        no matrix built: L x[i][j] + (u + v*sqrt(d)) c(x[q][p]) = 0."""
        a, b, L = x.p, x.q, self._den
        if b is None:
            return not any(L * e + u * a[q][p] for ra, g in zip(a, self._gather)
                           for e, (q, p, u, _) in zip(ra, g))
        c, cd = (-1, -x.d) if self._conj else (1, x.d)
        return not any(L * e + u * a[q][p] + cd * v * b[q][p]
                       or L * f + c * u * b[q][p] + v * a[q][p]
                       for ra, rb, g in zip(a, b, self._gather)
                       for e, f, (q, p, u, v) in zip(ra, rb, g))

    def is_group_point(self, a) -> bool:
        return not self._residual(*self._int(a))

    def is_skew(self, x) -> bool:
        return self._is_skew(*self._int(x))

    def _random_skew(self, rng):
        """(y - iota(y))/2, skew for any y, as an integer form over 4L.
        Entries r/s of y (a + b*sqrt(d) with such a, b over a field), r in
        [-3, 3] and s in {1, 2}, are held as Y = r*(2 // s) = 2y and drawn
        by one :func:`~cayleycert.field.below` call, row by row, a before
        b, r before s.  One pass over the gather builds x[i][j] = (L Y[i][j]
        - (u + v*sqrt(d)) c(Y[q][p]))/(4L), c conjugating for a Hermitian form."""
        n, d, L, g = self.n, self._d, self._den, self._gather
        w = 2 if d else 1
        m = w * n
        t = below(rng, (7, 2) * (m * n))
        y = [(r - 3) * (2 - s) for r, s in zip(t[::2], t[1::2])]
        a = [y[k:k + m:w] for k in range(0, m * n, m)]
        if not d:
            return _IntMat([[L * e - u * a[q][p] for e, (q, p, u, _) in zip(ra, gr)]
                            for ra, gr in zip(a, g)], None, 4 * L, None)
        b = [y[k + 1:k + m:w] for k in range(0, m * n, m)]
        c, cd = (-1, -d) if self._conj else (1, d)
        return _IntMat([[L * e - u * a[q][p] - cd * v * b[q][p]
                         for e, (q, p, u, v) in zip(ra, gr)] for ra, gr in zip(a, g)],
                       [[L * f - c * u * b[q][p] - v * a[q][p]
                         for f, (q, p, u, v) in zip(rb, gr)] for rb, gr in zip(b, g)],
                       4 * L, d)

    def random_group_point(self, rng):
        """A group point: the transform of one random skew, checked skew
        first.  An exceptional skew (1 + x singular) raises DegenerateError."""
        x = self._random_skew(rng)
        if not self._is_skew(x):
            raise PreconditionError(f"drawn skew is not skew: {mat_str(x.scalars())}")
        return _transform(x).scalars()


def cayley_transform(alg: MatrixAlg, a):
    """(1 - a)(1 + a)^-1 for a group point a; lands in the skew space."""
    return _to_skew(alg, *alg._int(a)).scalars()


def cayley_transform_of_skew(alg: MatrixAlg, x):
    """The same formula sends a skew element back into the group."""
    if not alg.is_skew(x):
        raise PreconditionError("input is not skew for the involution")
    return _transform(*alg._int(x)).scalars()


def _to_skew(alg, a):
    """:func:`cayley_transform` on an integer form."""
    res = alg._residual(a)
    if res:
        raise PreconditionError(
            f"not a group point; residual iota(a)a - 1 = {mat_str(res.scalars())}")
    return _transform(a)


def _transform(a):
    """(1 - a)(1 + a)^-1 = 2(1 + a)^-1 - 1 on an integer form, an identity
    in any ring where 1 + a is invertible (1 - a = 2 - (1 + a)): one
    inverse, of (1 + a)/2, and no product."""
    try:
        inv = a.shift(1).over(2).inverse()
    except DegenerateError:
        raise DegenerateError("1 + a is singular (exceptional locus)")
    return inv.shift(-1)


def cayley_conjugation_equivariance(alg: MatrixAlg, a, g) -> bool:
    """transform(g a g^-1) == g transform(a) g^-1, exactly."""
    if not alg.is_group_point(g):
        raise PreconditionError("g is not a group point")
    a, g = alg._int(a, g)
    x, ginv = _to_skew(alg, a), g.inverse()
    return _to_skew(alg, g @ a @ ginv) == g @ x @ ginv


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


def _diagonal(n: int, signs, of):
    """diag(signs), all 1 by default, with entries made by ``of``."""
    if signs is not None and len(signs) != n:
        raise StructureError(f"need one sign per row: {len(signs)} signs for size {n}")
    signs = signs or (1,) * n
    return tuple(tuple(of(signs[i] if i == j else 0) for j in range(n)) for i in range(n))


def orthogonal_alg(n: int, signs=None) -> MatrixAlg:
    return MatrixAlg(n=n, involution="transpose-form", form=_diagonal(n, signs, Fraction))


def unitary_alg(n: int, d: int = -3, signs=None) -> MatrixAlg:
    return MatrixAlg(n=n, involution="hermitian-form",
                     form=_diagonal(n, signs, QuadField(d).of))


def generic_matrices(n: int, names, root=None):
    """One n x n matrix per name, whose entries are independent ``Poly``
    variables over one variable tuple: entry (i, j) of matrix "a" is a_ij,
    or a_ij + root * a_ij' for the root sqrt(d) of a quadratic field (any
    other root raises :class:`StructureError`).  The entries come from
    :meth:`Poly.generic`, each built at once on the integer form."""
    if root is not None and not (isinstance(root, QuadExt)
                                 and root == QuadField(root.d).sqrt):
        raise StructureError(f"root must be sqrt(d) of a quadratic field: {root!r}")
    parts = ("", "'") if root is not None else ("",)
    coords = tuple(f"{m}{i + 1}{j + 1}{s}"
                   for m in names for i in range(n) for j in range(n) for s in parts)
    xs = iter(Poly.generic(coords, None if root is None else root.d))
    return [tuple(tuple(next(xs) for _ in range(n)) for _ in range(n)) for _ in names]


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
    """Image skewness, round trips and conjugation equivariance of the
    transform T(a) = (1 - a)(1 + a)^-1, exactly, then one spot check.

    Two checks are exact on generic matrices a, b, and a failed one
    returns the certificate: ``involution-anti-automorphism`` (iota(ab) =
    iota(b) iota(a), iota(a + b) = iota(a) + iota(b), iota(iota(a)) = a)
    and ``involution-of-form`` (H iota(a) = core(a) H, core(a) being the
    conjugate transpose for a Hermitian form and the transpose otherwise,
    chosen by ``alg.involution``).  As H is invertible, the second pins
    iota to H^-1 core(a) H, the involution whose group and skew space the
    verdicts speak of, and the spot check's integer gather reads the same
    table.  The three transform verdicts follow from the anti-automorphism
    by this rule.  iota(1) iota(a) = iota(a) and iota is onto, so
    iota(1) = 1 and iota(B^-1) = iota(B)^-1.  For skew x (iota(x) = -x)
    with 1 + x invertible, iota(1 + x) = 1 - x by additivity, so 1 - x is
    invertible and iota(T(x)) T(x) = (1 - x)^-1 (1 + x)(1 - x)(1 + x)^-1
    = 1.  For a group point a, iota(T(a)) = (1 + a^-1)^-1 (1 - a^-1) =
    -T(a).  T(T(a)) = a and T(g a g^-1) = g T(a) g^-1 are ring identities.

    ``spot-check[<trials> points]`` (:func:`cayleycert.ratmap.spot_check`)
    draws skew x with :meth:`MatrixAlg._random_skew`, over 4L from one
    draw call and one pass over the gather, and tests it skew with
    :meth:`MatrixAlg._is_skew`, one pass over the gather; x agrees when
    a = T(x), on integer forms, is a group point with (1 + a)(1 + x) = 2,
    which is T(a) = x but ties a to the formula, not to a second call of
    it.  Else x is the witness; a drawn skew that is not skew fails with
    its text.  ``trials`` must be at least 1.
    """
    if trials < 1:
        raise StructureError(f"trials must be positive: {trials}")
    cert = Certificate(construction=name, seed=seed)
    a, b = generic_matrices(alg.n, "ab", alg.field.sqrt if alg.field else None)
    ia, ib = alg.involute(a), alg.involute(b)
    if not (mat_eq(alg.involute(mat_mul(a, b)), mat_mul(ib, ia))
            and mat_eq(alg.involute(mat_add(a, b)), mat_add(ia, ib))
            and mat_eq(alg.involute(ia), a)):
        cert.add("involution-anti-automorphism", "fail",
                 "identity fails on generic matrices a, b")
        return cert
    cert.add("involution-anti-automorphism", "pass",
             "exact on generic a, b: iota(ab) = iota(b) iota(a), "
             "iota(a + b) = iota(a) + iota(b), iota(iota(a)) = a")
    H = alg.form
    core, said = ((conj_transpose(a), "conj(a)^T") if alg.involution == "hermitian-form"
                  else (transpose(a), "a^T"))
    if not mat_eq(mat_mul(H, ia), mat_mul(core, H)):
        cert.add("involution-of-form", "fail", f"H iota(a) != {said} H on generic a")
        return cert
    cert.add("involution-of-form", "pass",
             f"exact on generic a: H iota(a) = {said} H for the invertible form H")
    cert.add("image-skewness", "pass",
             "from the anti-automorphism: iota(1) = 1, so for a group point a, "
             "iota(T(a)) = (1 + a^-1)^-1 (1 - a^-1) = -T(a)")
    cert.add("round-trip", "pass",
             "from the anti-automorphism: for skew x, iota(T(x)) T(x) = "
             "(1 - x)^-1 (1 + x)(1 - x)(1 + x)^-1 = 1, and T(T(a)) = a is a ring identity")
    cert.add("conjugation-equivariance", "pass",
             "ring identity: T(g a g^-1) = g T(a) g^-1")

    def check(x):
        if not alg._is_skew(x):
            return f"drawn skew is not skew: {mat_str(x.scalars())}"
        a = _transform(x)             # DegenerateError: x on the exceptional locus
        # T(a) = 2(1 + a)^-1 - 1, so T(a) = x exactly when (1 + a)(1 + x) = 2
        ok = not alg._residual(a) and not (a.shift(1) @ x.shift(1)).shift(-2)
        return None if ok else mat_str(x.scalars())

    spot_check(cert, seed, alg._random_skew, check, trials,
               "the integer transform disagrees with the exact identities")
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
    source = projective_space(f"pgl{n}-matrices", avars)
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
    """:func:`_scalar_invariant` on the forward map of :func:`pgl_cayley`."""
    return _scalar_invariant(pgl_cayley(n).forward)


def _scalar_invariant(forward: EquivMap) -> bool:
    """The components of ``forward`` composed with a -> lambda a equal
    themselves, symbolically."""
    *a, lam = RatFunc.variables(forward.source.coords + ("lam",))
    scaled, plain = ComposePlan(lam * x for x in a), ComposePlan(a)
    return all(ratfunc_equal(scaled.compose(f), plain.compose(f))
               for f in forward.components)


def pgl_certificate(n: int, seed: int, trials: int = 100) -> Certificate:
    """Scalar invariance of the forward map of :func:`pgl_cayley`, built
    once, then the checks of :func:`check_inverse_pair` on that pair."""
    cert = Certificate(construction=f"pgl{n}", seed=seed)
    pair = pgl_cayley(n)
    cert.add("scalar-invariance", "pass" if _scalar_invariant(pair.forward) else "fail",
             "forward map composed with a -> lambda a")
    cert.extend(check_inverse_pair(pair.forward, pair.inverse, seed=seed,
                                   trials=trials))
    return cert
