"""The equivariant birational chain from the norm-one torus to its Lie algebra.

Over L = Q(sqrt(-3)) the chain certifies, link by link, that the twisted
torus T' (coordinates multiplying to 1, Galois acting by conjugate
inverse) is equivariantly birational to the twisted Lie slice t'
(coordinates summing to 0, Galois acting by minus conjugate), with the
symmetric group on three letters acting throughout.  The five links:

  1. quotient:  Gm^3 / Gm (sign-twisted classes) -> T',
                [x] -> (x2/x3, x3/x1, x1/x2)
  2. phi:       [x] -> ([x - tau(x) 1], [x^-1 - tau(x^-1) 1]) into
                P(t) x P(t); inverse by a 2x2 linear solve
  3. segre:     ([y],[z]) -> [y (x) z], written in the eigenbasis
                D1 = diag(1, zeta, zeta^2), D2 = diag(1, zeta^2, zeta);
                the image is the quadric a11 a22 = a12 a21
  4. stereo:    projection of the quadric from (0:0:1:0) onto the plane
                a21 = 0 followed by dehomogenisation at the fixed
                coordinate a12; inverse (v1, v2) -> (v1 : 1 : v1 v2 : v2)
  5. linear:    the basis map D11 -> D2, D22 -> D1 followed by scaling
                with sqrt(-3), landing in t'

In the eigenbasis coordinates the three-cycle acts by fixed zeta scalings
rather than permutations, which is why :class:`~cayleycert.group.ActionGen`
carries an optional scale component.
"""

from __future__ import annotations

from fractions import Fraction

from .field import QuadField
from .group import ActionGen, GroupSpec, cycle, identity_perm, perm_inverse, transposition
from .poly import RatFunc
from .ratmap import (Block, Certificate, EquivMap, MapPair, Relation, VarietySpec,
                     check_equivariance, check_group_relations, check_inverse_pair,
                     check_target_relations, compose_pair, linear_slice,
                     projective_space, torus)

F3 = QuadField(-3)
ZETA = F3.zeta()
ZETA2 = ZETA * ZETA
ROOT = F3.sqrt          # sqrt(-3)
ONE = F3.one

T12 = "(1 2)"
C123 = "(1 2 3)"
GAMMA = "gamma"

_S3 = {T12: transposition(3, 0, 1), C123: cycle(3, (0, 1, 2))}

S3_GAMMA_RELATIONS = (
    (T12, T12),
    (C123, C123, C123),
    (C123, T12, C123, T12),
    (GAMMA, GAMMA),
    (GAMMA, T12, GAMMA, T12),
    (GAMMA, C123, GAMMA, C123, C123),
)


def s3_gamma_action(t12: ActionGen, c123: ActionGen, gamma: ActionGen) -> GroupSpec:
    """S3 x Galois acting on one variety through the three given generators."""
    return GroupSpec("S3xGamma", ((T12, t12), (C123, c123), (GAMMA, gamma)),
                     S3_GAMMA_RELATIONS)


def pair_perm(sigma: tuple, swap: bool) -> tuple:
    """The 6-permutation acting on a pair of 3-blocks as (sigma y, sigma z),
    or as (sigma z, sigma y) when swap is set."""
    n = len(sigma)
    sinv = perm_inverse(sigma)
    pinv = [0] * (2 * n)
    for i in range(n):
        pinv[i] = (n if swap else 0) + sinv[i]
        pinv[n + i] = (0 if swap else n) + sinv[i]
    return perm_inverse(tuple(pinv))


# -- the varieties of the chain, each with its S3 x Galois action ---------

def quotient_variety():
    spec = projective_space("Gm3-mod-Gm", ("x1", "x2", "x3"), multiplicative=True)
    return spec, s3_gamma_action(
        ActionGen(perm=_S3[T12], twist="invert"),     # the sign twist of an odd sigma
        ActionGen(perm=_S3[C123]),
        ActionGen(perm=identity_perm(3), twist="invert", conjugate=True))


def torus_variety():
    spec = torus("T-twisted", ("t1", "t2", "t3"))
    return spec, s3_gamma_action(
        ActionGen(perm=_S3[T12]),
        ActionGen(perm=_S3[C123]),
        ActionGen(perm=identity_perm(3), twist="invert", conjugate=True))


def pp_variety():
    yb = Block("projective", ("y1", "y2", "y3"),
               (Relation("linear-sum", ("y1", "y2", "y3"), "y3"),))
    zb = Block("projective", ("z1", "z2", "z3"),
               (Relation("linear-sum", ("z1", "z2", "z3"), "z3"),))
    spec = VarietySpec("P(t)xP(t)", (yb, zb))
    return spec, s3_gamma_action(
        ActionGen(perm=pair_perm(_S3[T12], swap=True)),
        ActionGen(perm=pair_perm(_S3[C123], swap=False)),
        ActionGen(perm=pair_perm(identity_perm(3), swap=True), conjugate=True))


def quadric_variety():
    coords = ("a11", "a12", "a21", "a22")
    rel = Relation("torus-product", coords, "a21", exponents=(1, -1, -1, 1))
    spec = projective_space("Q", coords, relations=(rel,), multiplicative=True)
    swap_ends = transposition(4, 0, 3)
    scale = (ZETA, ONE, ONE, ZETA2)
    return spec, s3_gamma_action(
        ActionGen(perm=swap_ends, scale=scale),
        ActionGen(perm=identity_perm(4), scale=scale),
        ActionGen(perm=swap_ends, conjugate=True))


def diagonal_plane_variety():
    spec = VarietySpec("V11-22", (Block("affine", ("v1", "v2")),))
    scale = (ZETA, ZETA2)
    return spec, s3_gamma_action(
        ActionGen(perm=transposition(2, 0, 1), scale=scale),
        ActionGen(perm=identity_perm(2), scale=scale),
        ActionGen(perm=transposition(2, 0, 1), conjugate=True))


def lie_variety():
    spec = linear_slice("t-twisted", ("u1", "u2", "u3"))
    return spec, s3_gamma_action(
        ActionGen(perm=_S3[T12]),
        ActionGen(perm=_S3[C123]),
        ActionGen(perm=identity_perm(3), conjugate=True, scale=(-1, -1, -1)))


# -- the links -------------------------------------------------------------

def link_quotient() -> MapPair:
    """[x] -> (x2/x3, x3/x1, x1/x2), with the chart-x1 section as inverse."""
    qspec, qact = quotient_variety()
    tspec, tact = torus_variety()
    x1, x2, x3 = RatFunc.variables(qspec.coords)
    forward = EquivMap("su3.quotient", qspec, tspec,
                       (x2 / x3, x3 / x1, x1 / x2),
                       qact, tact)
    t1, t2, t3 = RatFunc.variables(tspec.coords)
    one = RatFunc.const(tspec.coords, Fraction(1))
    inverse = EquivMap("su3.quotient.inv", tspec, qspec,
                       (one, 1 / t3, t2),
                       tact, qact)
    return MapPair(forward, inverse)


def link_phi() -> MapPair:
    """[x] -> ([x - tau(x) 1], [x^-1 - tau(x^-1) 1]); inverse is psi."""
    qspec, qact = quotient_variety()
    pspec, pact = pp_variety()
    x1, x2, x3 = RatFunc.variables(qspec.coords)
    tau = (x1 + x2 + x3) / 3
    taui = (1 / x1 + 1 / x2 + 1 / x3) / 3
    comps = (x1 - tau, x2 - tau, x3 - tau,
             1 / x1 - taui, 1 / x2 - taui, 1 / x3 - taui)
    forward = EquivMap("su3.phi", qspec, pspec, comps, qact, pact)
    return MapPair(forward, phi_inverse())


def phi_inverse() -> EquivMap:
    """psi: generic ([y],[z]) -> [y + t 1], where (t, s) solve the 2x2 system

        (y_i z_i - y_j z_j) + t (z_i - z_j) + s (y_i - y_j) = 0

    for the index pairs (1,2) and (1,3).  Projectively x must be y + t 1
    with x^-1 proportional to z + s 1, which forces (y_i + t)(z_i + s) to
    be constant in i; differencing eliminates the constant and leaves this
    linear system.
    """
    qspec, qact = quotient_variety()
    pspec, pact = pp_variety()
    y1, y2, y3, z1, z2, z3 = RatFunc.variables(pspec.coords)
    b1 = -(y1 * z1 - y2 * z2)
    b2 = -(y1 * z1 - y3 * z3)
    a11, a12 = z1 - z2, y1 - y2
    a21, a22 = z1 - z3, y1 - y3
    det = a11 * a22 - a12 * a21
    t = (b1 * a22 - b2 * a12) / det
    return EquivMap("su3.phi.inv", pspec, qspec,
                    (y1 + t, y2 + t, y3 + t),
                    pact, qact)


def link_segre() -> MapPair:
    """([y],[z]) -> [y (x) z] in the D_ij eigenbasis coordinates."""
    pspec, pact = pp_variety()
    qspec, qact = quadric_variety()
    y1, y2, y3, z1, z2, z3 = RatFunc.variables(pspec.coords)
    yd1 = y1 + ZETA2 * y2 + ZETA * y3      # D1-coordinate of y, up to 1/3
    yd2 = y1 + ZETA * y2 + ZETA2 * y3
    zd1 = z1 + ZETA2 * z2 + ZETA * z3
    zd2 = z1 + ZETA * z2 + ZETA2 * z3
    forward = EquivMap("su3.segre", pspec, qspec,
                       (yd1 * zd1, yd1 * zd2, yd2 * zd1, yd2 * zd2),
                       pact, qact)

    a11, a12, a21, a22 = RatFunc.variables(qspec.coords)
    # rank-one tensors factor: column 1 carries [y], row 1 carries [z]
    inverse = EquivMap(
        "su3.segre.inv", qspec, pspec,
        (a11 + a21, ZETA * a11 + ZETA2 * a21, ZETA2 * a11 + ZETA * a21,
         a11 + a12, ZETA * a11 + ZETA2 * a12, ZETA2 * a11 + ZETA * a12),
        qact, pact)
    return MapPair(forward, inverse)


def link_stereo() -> MapPair:
    """Project the quadric from the fixed point (0:0:1:0) onto the plane
    a21 = 0, then dehomogenise at the fixed coordinate a12."""
    qspec, qact = quadric_variety()
    vspec, vact = diagonal_plane_variety()
    a11, a12, a21, a22 = RatFunc.variables(qspec.coords)
    forward = EquivMap("su3.stereo", qspec, vspec,
                       (a11 / a12, a22 / a12),
                       qact, vact)
    v1, v2 = RatFunc.variables(vspec.coords)
    one = RatFunc.const(vspec.coords, Fraction(1))
    inverse = EquivMap("su3.stereo.inv", vspec, qspec,
                       (v1, one, v1 * v2, v2),
                       vact, qact)
    return MapPair(forward, inverse)


def link_linear() -> MapPair:
    """D11 -> D2, D22 -> D1 written in ambient coordinates, then the
    sqrt(-3) scaling that swaps plain conjugation for minus conjugation."""
    vspec, vact = diagonal_plane_variety()
    lspec, lact = lie_variety()
    v1, v2 = RatFunc.variables(vspec.coords)
    forward = EquivMap(
        "su3.linear", vspec, lspec,
        (ROOT * (v1 + v2),
         ROOT * (ZETA2 * v1 + ZETA * v2),
         ROOT * (ZETA * v1 + ZETA2 * v2)),
        vact, lact)
    u1, u2, u3 = RatFunc.variables(lspec.coords)
    c = -ROOT / 9                      # (1/sqrt(-3)) / 3
    inverse = EquivMap(
        "su3.linear.inv", lspec, vspec,
        (c * (u1 + ZETA * u2 + ZETA2 * u3),
         c * (u1 + ZETA2 * u2 + ZETA * u3)),
        lact, vact)
    return MapPair(forward, inverse)


def build_su3_chain() -> list:
    """The five links in order; link 1 is oriented quotient -> T'."""
    return [link_quotient(), link_phi(), link_segre(), link_stereo(), link_linear()]


def end_to_end(links) -> MapPair:
    """The composed map T' -> t' with its composed inverse, from the five
    ``links`` of :func:`build_su3_chain`."""
    chain = links[0].reversed()
    for link in links[1:]:
        chain = compose_pair(chain, link)
    return chain


def link_certificate(pair: MapPair, seed: int, trials: int) -> Certificate:
    """The certificate of one map pair, named after its forward map: target
    relations, equivariance both ways, and an exact two-sided inverse."""
    cert = Certificate(construction=pair.forward.name, seed=seed)
    cert.extend(check_target_relations(pair.forward))
    cert.extend(check_equivariance(pair.forward, seed=seed), prefix="fwd.")
    cert.extend(check_equivariance(pair.inverse, seed=seed), prefix="inv.")
    cert.extend(check_inverse_pair(pair.forward, pair.inverse, seed=seed,
                                   trials=trials))
    return cert


def chain_certificate(seed: int = 42, trials: int = 100) -> Certificate:
    """Per-link and end-to-end certificates for the whole chain.  The group
    relations are decided on the tables the links carry: the first link's
    source, then each link's target, with their actions."""
    cert = Certificate(construction="su3.chain", seed=seed)
    links = build_su3_chain()
    for pair in links:
        sub = link_certificate(pair, seed=seed, trials=max(10, trials // 5))
        cert.extend(sub, prefix=f"{pair.forward.name}.")
    # the tables the links carry: the first source, then each link's target
    first = links[0].forward
    tables = [(first.source, first.source_action)] + [
        (pair.forward.target, pair.forward.target_action) for pair in links]
    for (spec, group), tag in zip(tables, ("quotient", "torus", "pp", "quadric", "plane",
                                           "lie")):
        cert.extend(check_group_relations(spec, group, seed=seed),
                    prefix=f"group[{tag}].")
    e2e = end_to_end(links)
    stages = [links[0].reversed()] + links[1:]
    cert.extend(check_equivariance(e2e.forward, seed=seed), prefix="end-to-end.")
    cert.extend(check_equivariance(e2e.inverse, seed=seed), prefix="end-to-end-inv.")
    cert.extend(check_inverse_pair(e2e.forward, e2e.inverse, seed=seed,
                                   trials=trials, stages=stages),
                prefix="end-to-end.")
    return cert

