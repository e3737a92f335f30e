from fractions import Fraction

import pytest

from cayleycert.errors import StructureError
from cayleycert.field import QuadField
from cayleycert.group import ActionGen, apply_action
from cayleycert.poly import RatFunc
from cayleycert.ratmap import EquivMap, MapPair, map_of_point
from cayleycert.rank2 import (EPS, GAMMA, T12, C123, base_lie_group,
                              base_torus_group, certify_external_g2,
                              g2_interface, g2_group, g2_slot_certificate,
                              gamma_twisted_expected, pgu3_certificate,
                              pgu3_differential, pgu3_lie_certificate,
                              pgu3_torus_map, pullback_group, rank2_torus_suite,
                              twist_certificate, twisted_torus_group)

F = QuadField(-3)
ZETA = F.zeta()


def frac(a, b=1):
    return Fraction(a, b)


def test_eps_inverts_torus_points():
    eps = base_torus_group().action(EPS)
    assert apply_action(eps, (frac(2), frac(3), frac(1, 6))) == \
        (frac(1, 2), frac(1, 3), frac(6))


def test_eps_negates_lie_points():
    eps = base_lie_group().action(EPS)
    assert apply_action(eps, (frac(5), frac(-2), frac(-3))) == \
        (frac(-5), frac(2), frac(3))


def test_twisted_gamma_matches_closed_form():
    got = twisted_torus_group().action(GAMMA)
    assert got == gamma_twisted_expected("torus")
    # fixed point of the twisted action
    assert apply_action(got, (ZETA, ZETA, ZETA)) == (ZETA, ZETA, ZETA)


def test_twist_certificate_green():
    cert = twist_certificate(seed=42, trials=40)
    assert cert.ok, [v.name for v in cert.failing()]


def test_pullback_groups_differ_on_odd_elements():
    st = pullback_group("St", "torus")
    tw = pullback_group("Tw", "torus")
    assert st.action(T12) == ActionGen(perm=st.action(T12).perm)
    pt = (frac(2), frac(3), frac(1, 6))
    st_img = apply_action(st.action(T12), pt)
    tw_img = apply_action(tw.action(T12), pt)
    assert st_img == (frac(3), frac(2), frac(1, 6))
    assert tw_img == (frac(1, 3), frac(1, 2), frac(6))
    # even generator agrees in both embeddings
    assert apply_action(st.action(C123), pt) == apply_action(tw.action(C123), pt)


def test_pgu3_map_at_unit_class():
    pair = pgu3_torus_map()
    assert map_of_point(pair.forward, (frac(1), frac(1), frac(1))) == (1, 1, 1)


def test_pgu3_certificates():
    cert = pgu3_certificate(seed=42, trials=60)
    assert cert.ok, [v.name for v in cert.failing()]


def test_differential_sample_value():
    pair = pgu3_differential()
    img = map_of_point(pair.forward, (frac(1), frac(0), frac(-1)))
    assert img == (1, -2, 1)
    assert sum(img) == 0


def test_differential_round_trip_on_slice():
    pair = pgu3_differential()
    x = (frac(5), frac(-2), frac(-3))
    back = map_of_point(pair.inverse, map_of_point(pair.forward, x))
    assert back == x


def test_differential_certificates():
    cert = pgu3_lie_certificate(seed=42, trials=60)
    assert cert.ok, [v.name for v in cert.failing()]


def test_g2_slot_reports_missing_input():
    cert = g2_slot_certificate(seed=1, trials=5)
    assert cert.ok
    assert any(v.status == "skip" and "external input missing" in v.detail
               for v in cert.verdicts)


def test_g2_interface_shapes():
    src, src_act, tgt, tgt_act = g2_interface()
    assert src.coords == ("t1", "t2", "t3", "s1", "s2")
    assert tgt.coords == ("u1", "u2", "u3", "w1", "w2")
    for table in (src_act, tgt_act):
        assert set(table) == {T12, C123, EPS, GAMMA}
        assert all(g.arity == 5 for g in table.values())


def test_external_g2_wrong_map_is_rejected():
    # a deliberately wrong candidate: collapses the torus factor
    src, src_act, tgt, tgt_act = g2_interface()
    group = g2_group()
    ones = RatFunc.variables(src.coords)
    comps = (ones[0] - 1, ones[1] - 1, 2 - ones[0] - ones[1],
             ones[3], ones[4])
    fwd = EquivMap("wrong-g2", src, tgt, comps, group, src_act, tgt_act)
    uvars = RatFunc.variables(tgt.coords)
    inv = EquivMap("wrong-g2-inv", tgt, src,
                   (uvars[0] + 1, uvars[1] + 1, uvars[2] + 1, uvars[3], uvars[4]),
                   group, tgt_act, src_act)
    cert = certify_external_g2(MapPair(fwd, inv), seed=3, trials=10)
    assert not cert.ok


def test_external_g2_shape_mismatch_is_structural():
    pair = pgu3_torus_map()
    with pytest.raises(StructureError):
        certify_external_g2(pair, seed=3, trials=5)


def test_full_suite_green_with_missing_slot():
    cert = rank2_torus_suite(seed=42, trials=40)
    assert cert.ok, [v.name for v in cert.failing()]
