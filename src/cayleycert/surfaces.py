"""Conic parameterization, its group law, and the compactification surfaces.

The circle conic C in the plane is rationally parameterized by
f([u, v]) = [u^2 - v^2, 2uv, u^2 + v^2] and carries the group law
[u, v] * [u', v'] = [uu' - vv', uv' + u'v] on parameters.  Both the
parameterization identity and the fact that f is a homomorphism onto the
conic's law are exact polynomial identities, expanded and certified here.

The surface X in the triple product of projective lines is cut out by the
trilinear equation saying the three conic points multiply to the identity;
the cubic Y with equation t1 t2 t3 = t0^3 compactifies the diagonal torus
and has exactly three singular points, detected by exact gradient
evaluation.  Points of scalars are evaluated by one
:class:`~cayleycert.poly.EvalPlan` per set of polynomials.  Membership of
the torus points is decided on generic points, substituted by
:func:`~cayleycert.poly.ratfunc_compose`: X's equation vanishes as a
function of two free parameters x, y with z the inverse of x*y, and Y's
at (1, a, b, 1/(ab)).  Every point of Y on the chart t0 = 1 is smooth,
because dF/dt0 = -3 there.  No verdict here rests on a sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, StructureError
from .poly import EvalPlan, Poly, RatFunc, ratfunc_compose
from .ratmap import (Block, Certificate, VarietySpec, projective_space)

UV = ("u", "v")
UV2 = ("u", "v", "u2", "v2")


def conic_param_components():
    """[u, v] -> [u^2 - v^2, 2uv, u^2 + v^2], returned as polynomials."""
    u = Poly.variable(UV, "u")
    v = Poly.variable(UV, "v")
    return (u * u - v * v, 2 * u * v, u * u + v * v)


def parameter_law(a, b):
    """The group law on parameters: (u, v) * (u', v') = (uu'-vv', uv'+u'v).

    Works on any ring elements, scalars and polynomials alike.
    """
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def parameter_inverse(a):
    return (a[0], -a[1])


def conic_law(p, q):
    """The induced law on conic triples (t1, t2, t0) order: complex
    multiplication on the first two coordinates, product on the last."""
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0], p[2] * q[2])


@dataclass
class SurfaceSpec:
    """A hypersurface in a product of projective blocks."""

    name: str
    ambient: VarietySpec
    equation: Poly

    def __post_init__(self):
        if self.equation.vars != self.ambient.coords:
            raise StructureError("equation variables must match the ambient")
        for block, start, stop in self.ambient.block_slices():
            idx = range(start, stop)
            degs = set()
            for exps, _ in self.equation.items():
                degs.add(sum(exps[i] for i in idx))
            if len(degs) > 1:
                raise StructureError(
                    f"{self.name}: equation is not homogeneous in block "
                    f"{block.coords}")


def surface_membership(s: SurfaceSpec, point) -> bool:
    """Exact: the defining polynomial vanishes at the point; a point of the
    wrong arity raises :class:`StructureError`."""
    return not RatFunc(s.equation).eval(point)


def singular_points(s: SurfaceSpec, candidates):
    """Flag each on-surface candidate singular iff the full gradient
    vanishes there; off-surface candidates are precondition errors."""
    grads = EvalPlan([RatFunc(s.equation.derivative(v)) for v in s.ambient.coords])
    verdicts = []
    for p in candidates:
        if not surface_membership(s, p):
            raise PreconditionError(f"candidate {p} is not on {s.name}")
        verdicts.append(not any(grads.eval(p)))
    return verdicts


def surface_X() -> SurfaceSpec:
    """Type (1,1,1) hypersurface in (P^1)^3: the triple product is trivial."""
    coords = ("u1", "v1", "u2", "v2", "u3", "v3")
    blocks = tuple(Block("projective", (f"u{i}", f"v{i}")) for i in (1, 2, 3))
    ambient = VarietySpec("P1xP1xP1", blocks)
    c = {n: Poly.variable(coords, n) for n in coords}
    eq = (c["u1"] * c["u2"] * c["v3"] - c["v1"] * c["v2"] * c["v3"]
          + c["u1"] * c["v2"] * c["u3"] + c["u2"] * c["v1"] * c["u3"])
    return SurfaceSpec("X", ambient, eq)


def surface_Y() -> SurfaceSpec:
    """The cubic t1 t2 t3 = t0^3 in P^3."""
    coords = ("t0", "t1", "t2", "t3")
    ambient = projective_space("P3", coords)
    c = {n: Poly.variable(coords, n) for n in coords}
    eq = c["t1"] * c["t2"] * c["t3"] - c["t0"] ** 3
    return SurfaceSpec("Y", ambient, eq)


def surface_Q() -> SurfaceSpec:
    """The Segre quadric a11 a22 = a12 a21 in P^3."""
    coords = ("a11", "a12", "a21", "a22")
    ambient = projective_space("P3", coords)
    c = {n: Poly.variable(coords, n) for n in coords}
    eq = c["a11"] * c["a22"] - c["a12"] * c["a21"]
    return SurfaceSpec("Q", ambient, eq)


def surface_C() -> SurfaceSpec:
    """The plane conic t1^2 + t2^2 = t0^2."""
    coords = ("t0", "t1", "t2")
    ambient = projective_space("P2", coords)
    c = {n: Poly.variable(coords, n) for n in coords}
    eq = c["t1"] ** 2 + c["t2"] ** 2 - c["t0"] ** 2
    return SurfaceSpec("C", ambient, eq)


# -- certificates ------------------------------------------------------------

def conic_certificate() -> Certificate:
    """All the conic identities, as exact polynomial expansions."""
    cert = Certificate(construction="appendix.conic")

    t1, t2, tt0 = conic_param_components()
    on_c = t1 * t1 + t2 * t2 - tt0 * tt0
    cert.add("parameterization-on-conic", "pass" if on_c.is_zero() else "fail",
             "(u^2-v^2)^2 + (2uv)^2 = (u^2+v^2)^2")

    a = (Poly.variable(UV2, "u"), Poly.variable(UV2, "v"))
    b = (Poly.variable(UV2, "u2"), Poly.variable(UV2, "v2"))

    def param_image(p):
        return (p[0] * p[0] - p[1] * p[1], 2 * p[0] * p[1],
                p[0] * p[0] + p[1] * p[1])

    lhs = param_image(parameter_law(a, b))
    rhs = conic_law(param_image(a), param_image(b))
    homo = all((l - r).is_zero() for l, r in zip(lhs, rhs))
    cert.add("homomorphism-identity", "pass" if homo else "fail",
             "f([u,v]*[u',v']) = f([u,v]) * f([u',v']), coordinatewise in 4 variables")

    ident = EvalPlan(map(RatFunc, conic_param_components())).eval((Fraction(1), Fraction(0)))
    cert.add("identity-element", "pass" if ident == (1, 0, 1) else "fail",
             "f([1,0]) = [1, 0, 1]")

    inv = parameter_law(a[:2], (a[0], -a[1]))
    inv_ok = inv[1].is_zero() and not inv[0].is_zero()
    cert.add("inverse-law", "pass" if inv_ok else "fail",
             "[u,v]*[u,-v] = [u^2+v^2, 0] ~ [1, 0]")

    six = ("u", "v", "u2", "v2", "u3", "v3")
    av = (Poly.variable(six, "u"), Poly.variable(six, "v"))
    bv = (Poly.variable(six, "u2"), Poly.variable(six, "v2"))
    cv = (Poly.variable(six, "u3"), Poly.variable(six, "v3"))
    assoc = parameter_law(parameter_law(av, bv), cv)
    assoc2 = parameter_law(av, parameter_law(bv, cv))
    cert.add("associativity",
             "pass" if all((x - y).is_zero() for x, y in zip(assoc, assoc2))
             else "fail")
    comm = parameter_law(a, b)
    comm2 = parameter_law(b, a)
    cert.add("commutativity",
             "pass" if all((x - y).is_zero() for x, y in zip(comm, comm2))
             else "fail")
    return cert


def x_membership_certificate() -> Certificate:
    """Torus triples (x, y, z) with z = (x*y)^-1 lie on X: X's equation at
    generic x = (u, v), y = (u2, v2) is the zero polynomial."""
    cert = Certificate(construction="appendix.X")
    sX = surface_X()
    x = (Poly.variable(UV2, "u"), Poly.variable(UV2, "v"))
    y = (Poly.variable(UV2, "u2"), Poly.variable(UV2, "v2"))
    z = parameter_inverse(parameter_law(x, y))
    ok = ratfunc_compose(RatFunc(sX.equation), map(RatFunc, x + y + z)).is_zero()
    cert.add("triple-product-membership", "pass" if ok else "fail",
             "F_X(x, y, (x*y)^-1) = 0 for generic x = (u, v), y = (u2, v2)")
    base = surface_membership(sX, (Fraction(1), Fraction(0)) * 3)
    cert.add("identity-triple", "pass" if base else "fail",
             "((1,0),(1,0),(1,0)) lies on X")
    return cert


def y_singular_certificate() -> Certificate:
    """The cubic has exactly the three coordinate singular points; every
    point of it on the chart t0 = 1, the torus included, is smooth."""
    cert = Certificate(construction="appendix.Y.singular")
    sY = surface_Y()
    zero, one = Fraction(0), Fraction(1)
    trio = [(zero, one, zero, zero), (zero, zero, one, zero),
            (zero, zero, zero, one)]
    flags = singular_points(sY, trio)
    cert.add("three-singular-points", "pass" if all(flags) else "fail",
             "all coordinate candidates have vanishing gradient")
    t = RatFunc.variables(("t1", "t2", "t3"))
    smooth = ratfunc_compose(RatFunc(sY.equation.derivative("t0")),
                             (RatFunc.const(t[0].vars, 1), *t)) == -3
    cert.add("smooth-on-chart[t0=1]", "pass" if smooth else "fail",
             "dF/dt0 = -3 at every point with t0 = 1")

    sQ = surface_Q()
    q_pt = (one, Fraction(2), Fraction(3), Fraction(6))
    q_ok = surface_membership(sQ, q_pt) and not singular_points(sQ, [q_pt])[0]
    cert.add("quadric-smooth-point", "pass" if q_ok else "fail")
    sC = surface_C()
    c_ok = not singular_points(sC, [(one, one, zero)])[0]
    cert.add("conic-smooth-point", "pass" if c_ok else "fail",
             "gradient (-2, 2, 0) at [1, 1, 0]")
    return cert


def y_membership_certificate() -> Certificate:
    """The torus lies on Y: F_Y(1, a, b, 1/(ab)) is the zero rational
    function of a, b."""
    cert = Certificate(construction="appendix.Y")
    a, b = RatFunc.variables(("a", "b"))
    one = RatFunc.const(("a", "b"), 1)
    ok = ratfunc_compose(RatFunc(surface_Y().equation), (one, a, b, 1 / (a * b))).is_zero()
    cert.add("torus-membership", "pass" if ok else "fail",
             "F_Y(1, a, b, 1/(ab)) = 0 for generic a, b")
    return cert
