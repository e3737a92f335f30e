from fractions import Fraction

from cayleycert import su3
from cayleycert.field import QuadField
from cayleycert.group import apply_action
from cayleycert.poly import ComposePlan
from cayleycert.ratmap import (check_equivariance, check_inverse_pair,
                               check_target_relations, map_of_point,
                               _points_equal)
from cayleycert.su3 import (GAMMA, build_su3_chain, chain_certificate,
                            end_to_end, link_certificate, link_linear, link_phi,
                            link_quotient, link_segre, link_stereo, phi_inverse,
                            quadric_variety, torus_variety)

F = QuadField(-3)
ZETA = F.zeta()
HALF_SEED = 37


def frac(a, b=1):
    return Fraction(a, b)


def test_quotient_link_at_unit_class():
    pair = link_quotient()
    img = map_of_point(pair.forward, (frac(1), frac(1), frac(1)))
    assert img == (1, 1, 1)


def test_phi_sample_point_values():
    # x = (2, 3, 1/6): tau = 31/18, tau(x^-1) = 41/18
    pair = link_phi()
    img = map_of_point(pair.forward, (frac(2), frac(3), frac(1, 6)))
    first, second = img[:3], img[3:]
    assert first == (frac(5, 18), frac(23, 18), frac(-28, 18))
    assert second == (frac(-32, 18), frac(-35, 18), frac(67, 18))
    assert sum(first) == 0 and sum(second) == 0


def test_phi_inverse_recovers_sample_class():
    pair = link_phi()
    x = (frac(2), frac(3), frac(1, 6))
    back = map_of_point(pair.inverse, map_of_point(pair.forward, x))
    assert _points_equal(pair.forward.source, back, x)


def test_phi_inverse_is_equivariant():
    cert = check_equivariance(phi_inverse(), seed=HALF_SEED)
    assert cert.ok


def test_phi_pair_symbolic_and_sampled():
    cert = link_certificate(link_phi(), seed=42, trials=100)
    assert cert.ok, [v.name for v in cert.failing()]
    spot = [v for v in cert.verdicts if v.name.startswith("spot-check")]
    assert spot and spot[0].status == "pass"


def test_segre_image_satisfies_quadric():
    cert = check_target_relations(link_segre().forward)
    assert cert.ok


def test_stereo_inverse_section_example():
    # (1 : 2 : 6) lifts to (1 : 2 : 3 : 6) with a11 a22 = a12 a21
    pair = link_stereo()
    lifted = map_of_point(pair.inverse, (frac(1), frac(6)))
    # inverse takes the dehomogenised plane point (v1, v2) = (a11/a12, a22/a12)
    assert lifted == (1, 1, 6, 6)
    v = map_of_point(pair.inverse, (frac(1, 2), frac(3)))
    assert v[0] * v[3] == v[1] * v[2]


def test_stereo_round_trip_on_quadric_points():
    pair = link_stereo()
    spec, _ = quadric_variety()
    pt = (frac(1), frac(2), frac(3), frac(6))    # 1*6 = 2*3
    down = map_of_point(pair.forward, pt)
    up = map_of_point(pair.inverse, down)
    assert _points_equal(spec, up, pt)


def test_linear_link_lands_on_sum_zero():
    pair = link_linear()
    img = map_of_point(pair.forward, (F.of(1), F.of(2)))
    assert sum(img, F.zero) == 0
    back = map_of_point(pair.inverse, img)
    assert back == (1, 2)


def test_every_link_certified():
    for pair in build_su3_chain():
        assert check_equivariance(pair.forward, seed=5).ok, pair.forward.name
        assert check_equivariance(pair.inverse, seed=5).ok, pair.inverse.name
        cert = check_inverse_pair(pair.forward, pair.inverse, seed=5, trials=20)
        assert cert.ok, (pair.forward.name, [v.name for v in cert.failing()])


def test_gamma_fixed_point_on_twisted_torus():
    _, action = torus_variety()
    assert apply_action(action.action(GAMMA), (ZETA, ZETA, ZETA)) == (ZETA, ZETA, ZETA)


def test_end_to_end_composition():
    links = build_su3_chain()
    e2e = end_to_end(links)
    assert e2e.forward.source.name == "T-twisted"
    assert e2e.forward.target.name == "t-twisted"
    cert = check_equivariance(e2e.forward, seed=8)
    assert cert.ok
    stages = [links[0].reversed()] + links[1:]
    pair_cert = check_inverse_pair(e2e.forward, e2e.inverse, seed=8, trials=30,
                                   stages=stages)
    assert pair_cert.ok, [v.name for v in pair_cert.failing()]


def test_end_to_end_point_round_trip():
    e2e = end_to_end(build_su3_chain())
    x = (frac(2), frac(3), frac(1, 6))
    u = map_of_point(e2e.forward, x)
    assert sum(u, F.zero) == 0
    back = map_of_point(e2e.inverse, u)
    assert back == x


def test_chain_certificate_all_green(monkeypatch):
    built = []

    def recording():
        built.append(build_su3_chain())
        return built[-1]

    monkeypatch.setattr(su3, "build_su3_chain", recording)
    cert = chain_certificate(seed=42, trials=40)
    assert cert.ok, [v.name for v in cert.failing()]
    # the links are built once, for their certificates and the end-to-end map
    assert len(built) == 1
    labels = {v.name for v in cert.verdicts}
    # three generators certified on every link, forward and inverse
    for link in ("su3.quotient", "su3.phi", "su3.segre", "su3.stereo", "su3.linear"):
        for gen in ("(1 2)", "(1 2 3)", "gamma"):
            assert f"{link}.fwd.equivariance[{gen}]" in labels
    assert "end-to-end.round-trip[source]" in labels
    assert "end-to-end.round-trip[target]" in labels


def test_chain_compositions_clear_a_shared_denominator_once(monkeypatch):
    # the terms of every composition result in one chain run; clearing each
    # substituted denominator on its own gave 4,591
    terms = []
    compose = ComposePlan.compose

    def counting(plan, f):
        got = compose(plan, f)
        terms.append(len(got.num.terms) + len(got.den.terms))
        return got

    monkeypatch.setattr(ComposePlan, "compose", counting)
    assert chain_certificate(seed=23, trials=20).ok
    assert (len(terms), sum(terms)) == (298, 2580)


def test_chain_certificate_checks_the_group_tables_its_links_carry(monkeypatch):
    links = su3.build_su3_chain()
    calls = []
    check = su3.check_group_relations
    monkeypatch.setattr(su3, "build_su3_chain", lambda: links)
    monkeypatch.setattr(su3, "check_group_relations",
                        lambda spec, group, **k: calls.append((spec, group)) or
                        check(spec, group, **k))
    assert su3.chain_certificate(seed=23, trials=10).ok
    maps = [m for pair in links for m in (pair.forward, pair.inverse)]
    tables = [(m.source, m.source_action) for m in maps] + \
        [(m.target, m.target_action) for m in maps]
    assert len(calls) == 6
    assert all(any(spec is s and group is g for s, g in tables) for spec, group in calls)
    assert [spec.name for spec, _ in calls] == [
        "Gm3-mod-Gm", "T-twisted", "P(t)xP(t)", "Q", "V11-22", "t-twisted"]
