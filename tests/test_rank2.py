from dataclasses import replace
from fractions import Fraction

import pytest

from cayleycert.errors import FieldMismatchError, StructureError
from cayleycert.field import QuadField
from cayleycert.group import ActionGen, apply_action, identity_perm, same_action
from cayleycert.poly import RatFunc
from cayleycert.ratmap import (NO_ACTION, EquivMap, MapPair, check_group_relations,
                               map_of_point)
from cayleycert.rank2 import (EPS, GAMMA, T12, C123,
                              base_group, certify_external_g2, g2_interface,
                              g2_slot_certificate,
                              gamma_twisted_expected, pgu3_differential,
                              pgu3_torus_map, pullback_group,
                              twist_certificate, twisted_group)
from cayleycert.su3 import (build_su3_chain, lie_variety, link_certificate,
                            quadric_variety, torus_variety)

F = QuadField(-3)
ZETA = F.zeta()


def frac(a, b=1):
    return Fraction(a, b)


def test_eps_inverts_torus_points():
    eps = base_group("torus").action(EPS)
    assert apply_action(eps, (frac(2), frac(3), frac(1, 6))) == \
        (frac(1, 2), frac(1, 3), frac(6))


def test_eps_negates_lie_points():
    eps = base_group("lie").action(EPS)
    assert apply_action(eps, (frac(5), frac(-2), frac(-3))) == \
        (frac(-5), frac(2), frac(3))


def test_twisted_gamma_matches_closed_form():
    got = twisted_group("torus").action(GAMMA)
    assert got == gamma_twisted_expected("torus")
    # fixed point of the twisted action
    assert apply_action(got, (ZETA, ZETA, ZETA)) == (ZETA, ZETA, ZETA)


def test_groups_keep_their_names_per_kind():
    assert base_group("torus").name == "S3xS2xGamma[T]"
    assert base_group("lie").name == "S3xS2xGamma[t]"
    assert twisted_group("torus").name == "S3xS2xGamma[T][twisted]"
    assert twisted_group("lie").action(GAMMA) == gamma_twisted_expected("lie")


def test_action_table_mismatch_of_fields_is_not_a_verdict():
    # an irrational scale from another field cannot be compared with
    # Q(sqrt(-3)) values; that is a bug in the caller, not "tables differ"
    got = quadric_variety()[1].action(T12)
    want = replace(got, scale=(QuadField(5).sqrt, 1, 1, 1))
    with pytest.raises(FieldMismatchError):
        same_action(got, want)


def test_same_action_decides_on_the_generic_tuple():
    tor = base_group("torus")
    assert same_action(twisted_group("torus").action(GAMMA),
                       gamma_twisted_expected("torus"))
    # equal actions written differently: a scale of ones is no scale
    cyc = tor.action(C123)
    assert same_action(cyc, replace(cyc, scale=(1, 1, 1)))
    assert not same_action(cyc, tor.action(T12))
    assert not same_action(tor.action(GAMMA), ActionGen(perm=identity_perm(3)))


@pytest.mark.parametrize("word", [(GAMMA,), (GAMMA, T12, T12)])
def test_lone_galois_letter_fails_its_relation(word):
    # conjugation fixes every rational point, so no sample can see these
    grp = base_group("torus")
    grp = replace(grp, relations=grp.relations + (word,))
    cert = check_group_relations(torus_variety()[0], grp)
    assert [v.status for v in cert.verdicts] == ["pass"] * 10 + ["fail"]
    assert cert.verdicts[-1].name == "relation[" + "*".join(word) + "]"


def test_twist_certificate_green():
    cert = twist_certificate(seed=42)
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


@pytest.mark.parametrize("kind, table", [("torus", torus_variety()[1]),
                                         ("lie", lie_variety()[1])])
def test_st_pullback_is_su3s_table(kind, table):
    st = pullback_group("St", kind)
    assert st.labels() == table.labels()
    for label in table.labels():
        assert st.action(label) == table.action(label), label


def test_g2_interface_eps_and_twisted_gamma_act_on_all_five_coordinates():
    _, src_act, _, tgt_act = g2_interface()
    pt = (F.of(2, 1), F.of(frac(1, 3), -2), F.of(-5, frac(1, 7)), F.of(3, 4), F.of(-1, 1))
    for label, conj in ((EPS, False), (GAMMA, True)):
        moved = tuple(x.conj() for x in pt) if conj else pt
        assert apply_action(tgt_act.action(label), pt) == tuple(-x for x in moved)
        assert apply_action(src_act.action(label), pt) == tuple(1 / x for x in moved)


def test_pgu3_map_at_unit_class():
    pair = pgu3_torus_map()
    assert map_of_point(pair.forward, (frac(1), frac(1), frac(1))) == (1, 1, 1)


def test_pgu3_certificates():
    cert = link_certificate(pgu3_torus_map(), seed=42, trials=60)
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


MAP_PAIRS = {pair.forward.name: pair
             for pair in build_su3_chain() + [pgu3_torus_map(), pgu3_differential()]}


@pytest.mark.parametrize("name", sorted(MAP_PAIRS))
def test_every_action_table_satisfies_its_relations(name):
    # both tables of each forward map; an inverse carries the same two
    fwd = MAP_PAIRS[name].forward
    for spec, action in ((fwd.source, fwd.source_action), (fwd.target, fwd.target_action)):
        cert = check_group_relations(spec, action, seed=5)
        assert len(cert.verdicts) == 6 and cert.ok, (spec.name, cert.failing())


def test_differential_certificates():
    cert = link_certificate(pgu3_differential(), seed=42, trials=60)
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
    for action in (src_act, tgt_act):
        assert set(action.labels()) == {T12, C123, EPS, GAMMA}
        assert all(g.arity == 5 for _, g in action.generators)


def test_external_g2_wrong_map_is_rejected():
    # a deliberately wrong candidate: collapses the torus factor
    src, src_act, tgt, tgt_act = g2_interface()
    ones = RatFunc.variables(src.coords)
    comps = (ones[0] - 1, ones[1] - 1, 2 - ones[0] - ones[1],
             ones[3], ones[4])
    fwd = EquivMap("wrong-g2", src, tgt, comps, src_act, tgt_act)
    uvars = RatFunc.variables(tgt.coords)
    inv = EquivMap("wrong-g2-inv", tgt, src,
                   (uvars[0] + 1, uvars[1] + 1, uvars[2] + 1, uvars[3], uvars[4]),
                   tgt_act, src_act)
    pair = MapPair(fwd, inv)
    cert = certify_external_g2(pair, seed=3, trials=10)
    assert not cert.ok
    # the slot runs the map-pair recipe of every other pair, target
    # relations included
    assert cert.to_dict() == link_certificate(pair, seed=3, trials=10).to_dict()
    assert cert.verdicts[0].name == "target-relation[linear-slice:u3]"


def _g2_candidate(fwd_tables, inv_tables=None):
    src, src_act, tgt, tgt_act = g2_interface()
    t, s = RatFunc.variables(src.coords), RatFunc.variables(tgt.coords)
    fwd = EquivMap("g2-candidate", src, tgt, t, *fwd_tables)
    inv = EquivMap("g2-candidate-inv", tgt, src, s, *(inv_tables or (tgt_act, src_act)))
    return MapPair(fwd, inv)


def test_external_g2_must_carry_the_interface_tables():
    _, src_act, _, tgt_act = g2_interface()
    dropped = replace(tgt_act, generators=tgt_act.generators[:-1])
    for fwd_tables, inv_tables in (((NO_ACTION, NO_ACTION), None),
                                   ((tgt_act, src_act), None),
                                   ((src_act, NO_ACTION), None),
                                   ((src_act, dropped), None),
                                   ((src_act, tgt_act), (tgt_act, tgt_act))):
        with pytest.raises(StructureError, match="action table"):
            certify_external_g2(_g2_candidate(fwd_tables, inv_tables), seed=3, trials=5)


def test_external_g2_shape_mismatch_is_structural():
    pair = pgu3_torus_map()
    with pytest.raises(StructureError):
        certify_external_g2(pair, seed=3, trials=5)

