import random
from dataclasses import replace
from fractions import Fraction

import pytest

from cayleycert import surfaces
from cayleycert.errors import PreconditionError, StructureError
from cayleycert.poly import Poly
from cayleycert.surfaces import (SurfaceSpec, conic_certificate,
                                 conic_param_components, parameter_inverse,
                                 parameter_law, singular_points, surface_C,
                                 surface_Q, surface_X, surface_Y,
                                 surface_membership, x_membership_certificate,
                                 y_membership_certificate, y_singular_certificate)


def frac(a, b=1):
    return Fraction(a, b)


def param_image(p):
    return tuple(c.eval(p) for c in conic_param_components())


def test_parameterization_identity_point():
    assert param_image((frac(1), frac(0))) == (1, 0, 1)


def test_parameterization_lands_on_conic():
    t1, t2, t0 = conic_param_components()
    assert (t1 * t1 + t2 * t2 - t0 * t0).is_zero()


def test_law_inverse_gives_identity_class():
    u, v = frac(3), frac(5)
    w = parameter_law((u, v), parameter_inverse((u, v)))
    assert w[1] == 0 and w[0] == u * u + v * v


def test_homomorphism_at_random_parameters():
    rng = random.Random(2)
    for _ in range(25):
        a = (frac(rng.randint(-9, 9)), frac(rng.randint(1, 9)))
        b = (frac(rng.randint(-9, 9)), frac(rng.randint(1, 9)))
        lhs = param_image(parameter_law(a, b))
        pa, pb = param_image(a), param_image(b)
        rhs = (pa[0] * pb[0] - pa[1] * pb[1],
               pa[0] * pb[1] + pa[1] * pb[0],
               pa[2] * pb[2])
        assert lhs == rhs


def test_conic_certificate_green():
    cert = conic_certificate()
    assert cert.ok, [v.name for v in cert.failing()]


def test_x_membership_identity_triple():
    sX = surface_X()
    one_zero = (frac(1), frac(0))
    assert surface_membership(sX, one_zero * 3)


def test_x_membership_random_torus_triples():
    sX = surface_X()
    rng = random.Random(4)
    for _ in range(50):
        x = (frac(rng.randint(-9, 9)), frac(rng.randint(1, 9)))
        y = (frac(rng.randint(-9, 9)), frac(rng.randint(1, 9)))
        z = parameter_inverse(parameter_law(x, y))
        assert surface_membership(sX, x + y + z)


def test_x_certificate_green():
    cert = x_membership_certificate()
    assert cert.ok


def test_y_membership_of_torus_points():
    sY = surface_Y()
    assert surface_membership(sY, (frac(1), frac(2), frac(3), frac(1, 6)))
    assert not surface_membership(sY, (frac(1), frac(2), frac(3), frac(1)))
    assert y_membership_certificate().ok


def test_y_singular_trio():
    sY = surface_Y()
    zero, one = frac(0), frac(1)
    trio = [(zero, one, zero, zero), (zero, zero, one, zero),
            (zero, zero, zero, one)]
    assert singular_points(sY, trio) == [True, True, True]


def test_y_smooth_points_flagged_nonsingular():
    sY = surface_Y()
    rng = random.Random(6)
    for _ in range(20):
        a = frac(rng.randint(1, 9), rng.randint(1, 9))
        b = frac(rng.randint(1, 9), rng.randint(1, 9))
        assert singular_points(sY, [(frac(1), a, b, 1 / (a * b))]) == [False]


def test_singular_check_requires_membership():
    sY = surface_Y()
    with pytest.raises(PreconditionError):
        singular_points(sY, [(frac(1), frac(1), frac(1), frac(2))])


def test_quadric_smooth_away_from_origin():
    sQ = surface_Q()
    assert not singular_points(sQ, [(frac(1), frac(2), frac(3), frac(6))])[0]


def test_conic_smooth_point():
    sC = surface_C()
    assert not singular_points(sC, [(frac(1), frac(1), frac(0))])[0]


def test_y_singular_certificate_green():
    cert = y_singular_certificate()
    assert cert.ok, [v.name for v in cert.failing()]


def test_multihomogeneity_validated():
    coords = ("u1", "v1", "u2", "v2", "u3", "v3")
    amb = surface_X().ambient
    bad = Poly.variable(coords, "u1") + Poly.variable(coords, "u2")
    with pytest.raises(StructureError):
        SurfaceSpec("bad", amb, bad)


def test_membership_arity_checked():
    with pytest.raises(StructureError):
        surface_membership(surface_Y(), (frac(1), frac(1)))


def flipped(surface, exps):
    """``surface`` with the sign of one term of its equation flipped."""
    eq = surface.equation
    return replace(surface, equation=eq - 2 * Poly(eq.vars, {exps: dict(eq.items())[exps]}))


def test_flipped_x_equation_fails_triple_product_membership(monkeypatch):
    sX = surface_X()
    u2v1u3 = (0, 1, 1, 0, 1, 0)
    monkeypatch.setattr(surfaces, "surface_X", lambda: flipped(sX, u2v1u3))
    cert = x_membership_certificate()
    assert [v.name for v in cert.failing()] == ["triple-product-membership"]


def test_flipped_y_equation_fails_torus_membership(monkeypatch):
    sY = surface_Y()
    monkeypatch.setattr(surfaces, "surface_Y", lambda: flipped(sY, (3, 0, 0, 0)))
    cert = y_membership_certificate()
    assert [v.name for v in cert.failing()] == ["torus-membership"]
