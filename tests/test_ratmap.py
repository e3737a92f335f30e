import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

import cayleycert.group
from cayleycert import poly, rank2, ratmap, su3
from cayleycert.catalog import run_construction
from cayleycert.classical import pgl_cayley
from cayleycert.errors import DegenerateError, SamplingError, StructureError
from cayleycert.group import ActionGen, GroupSpec, cycle, identity_perm
from cayleycert.poly import RatFunc, chart_restrict, ratfunc_equal
from cayleycert.ratmap import (NO_ACTION, Block, Certificate, EquivMap, Relation,
                               VarietySpec, check_equivariance, check_group_relations,
                               check_inverse_pair, check_target_relations, compose,
                               compose_pair, linear_slice, map_of_point, product,
                               projective_space, random_point, sample, spot_check,
                               torus, _points_equal, _tuple_equal)
from cayleycert.su3 import (link_phi, link_quotient, link_segre, quotient_variety,
                            torus_variety)


def _shipped_specs():
    """Every variety of su3, rank2 and pgl_cayley(2), pgl_cayley(3)."""
    specs = [build()[0] for build in (
        su3.quotient_variety, su3.torus_variety, su3.pp_variety, su3.quadric_variety,
        su3.diagonal_plane_variety, su3.lie_variety)]
    for pair in (rank2.pgu3_torus_map(), rank2.pgu3_differential(),
                 pgl_cayley(2), pgl_cayley(3)):
        specs += [pair.forward.source, pair.forward.target]
    src, _, tgt, _ = rank2.g2_interface()
    return {spec.name: spec for spec in specs + [src, tgt]}


SHIPPED_SPECS = _shipped_specs()


def test_random_point_torus_satisfies_relation():
    spec = torus("T", ("t1", "t2", "t3"))
    for seed in range(20):
        p = random_point(spec, random.Random(seed))
        assert p[0] * p[1] * p[2] == 1
        assert all(x != 0 for x in p)


def test_random_point_linear_slice_sums_to_zero():
    spec = linear_slice("t", ("u1", "u2", "u3"))
    for seed in range(20):
        p = random_point(spec, random.Random(seed))
        assert sum(p) == 0


def test_random_point_projective_not_zero():
    spec = projective_space("P", ("a", "b", "c"))
    for seed in range(20):
        p = random_point(spec, random.Random(seed))
        assert any(p)


def test_random_point_quadric_relation():
    rel = Relation("torus-product", ("a11", "a12", "a21", "a22"), "a21",
                   exponents=(1, -1, -1, 1))
    spec = projective_space("Q", ("a11", "a12", "a21", "a22"), relations=(rel,),
                            multiplicative=True)
    for seed in range(20):
        p = random_point(spec, random.Random(seed))
        assert p[0] * p[3] == p[1] * p[2]


def _terms(f):
    return [(p.vars, [(e, type(c), c) for e, c in p.items()]) for p in (f.num, f.den)]


@pytest.mark.parametrize("name", sorted(SHIPPED_SPECS))
def test_chart_tuple_matches_one_relation_at_a_time(name):
    # the reference restricts every coordinate to the chart through
    # chart_restrict, one relation after another
    spec = SHIPPED_SPECS[name]
    reference = []
    for f in RatFunc.variables(spec.coords):
        for rel in spec.relations():
            f = chart_restrict(f, rel.kind, rel.solve_for, variables=rel.variables,
                               exponents=rel.exponents)
        reference.append(f)
    assert [_terms(f) for f in spec.chart] == [_terms(f) for f in reference]
    assert spec.chart is spec.chart


@pytest.mark.parametrize("name", sorted(SHIPPED_SPECS))
def test_random_point_satisfies_every_relation(name):
    spec = SHIPPED_SPECS[name]
    for seed in range(10):
        value = dict(zip(spec.coords, random_point(spec, random.Random(seed))))
        for rel in spec.relations():
            if rel.kind == "linear-sum":
                assert sum(value[v] for v in rel.variables) == 0
            else:
                exps = rel.exponents or (1,) * len(rel.variables)
                assert prod(value[v] ** e for v, e in zip(rel.variables, exps)) == 1


def test_relation_may_not_use_a_coordinate_solved_later():
    unit = Relation("torus-product", ("b", "c"), "b")
    total = Relation("linear-sum", ("a", "b", "c"), "a")
    with pytest.raises(StructureError, match="uses 'b', which a later relation solves"):
        Block("affine", ("a", "b", "c"), (total, unit))
    with pytest.raises(StructureError, match="uses 'a', which a later relation solves"):
        Block("affine", ("a", "b", "c"), (total, Relation("linear-sum", ("a", "c"), "a")))
    spec = VarietySpec("abc", (Block("affine", ("a", "b", "c"), (unit, total)),))
    assert all(f.vars == ("c",) for f in spec.chart)


def test_random_point_reject_budget():
    # a torus coordinate whose relation solves it to zero: the first draw
    # raises a named error, and a spot check spends every attempt on it
    spec = VarietySpec("zero", (Block("torus", ("a",),
                                      (Relation("linear-sum", ("a",), "a"),)),))
    with pytest.raises(SamplingError, match="coordinate of zero solves to zero"):
        random_point(spec, random.Random(0))
    cert = Certificate("zero")
    spot_check(cert, 0, lambda rng: random_point(spec, rng), lambda x: None, 5, "")
    assert [(v.status, v.detail) for v in cert.verdicts] == [
        ("fail", "only 0 usable points in 20 attempts; the exceptional locus keeps being hit")]


def test_spot_check_counts_the_redraws_of_a_point():
    # y3 = -(y1 + y2) on a multiplicative block: a draw with y1 = -y2
    # solves y3 to zero, and the spot check counts it as a resample
    ys = ("y1", "y2", "y3")
    spec = VarietySpec("units", (Block("affine", ys, (Relation("linear-sum", ys, "y3"),),
                                       multiplicative=True),))
    ident = EquivMap("id", spec, spec, RatFunc.variables(ys))
    cert = check_inverse_pair(ident, ident, seed=0, trials=100)
    assert cert.verdicts[-1].detail == "100 agreements, 1 exceptional-locus resamples"


def test_sample_stops_at_the_first_disagreement():
    seen = []

    def check(x):
        seen.append(x)
        return f"witness {x}" if len(seen) == 3 else None
    agreements, attempts, witness = sample(5, lambda rng: rng.random(), check, 10, 20)
    assert (agreements, attempts, witness) == (2, 3, f"witness {seen[2]}")
    assert len(seen) == 3


def test_sample_spends_attempts_on_the_exceptional_locus():
    draws = iter(range(100))

    def draw(rng):
        n = next(draws)
        if n % 4 == 1:
            raise DegenerateError("draw on the locus")
        if n % 4 == 2:
            raise SamplingError("draw on the locus")
        return n

    def check(n):
        if n % 4 == 3:
            raise DegenerateError("check on the locus")
        return None
    # draws 0, 4, 8 agree; the three between each pair are spent
    assert sample(0, draw, check, 3, 100) == (3, 9, None)


def test_sample_stops_at_the_limit():
    assert sample(0, lambda rng: 1, lambda x: None, 10, 4) == (4, 4, None)

    def never(rng):
        raise SamplingError("every draw is on the locus")
    assert sample(0, never, lambda x: None, 10, 4) == (0, 4, None)


def test_sample_same_seed_same_stream():
    def stream(seed):
        drawn = []
        sample(seed, lambda rng: rng.random(), drawn.append, 5, 5)
        return drawn
    rng = random.Random(3)
    assert stream(3) == stream(3) == [rng.random() for _ in range(5)] != stream(4)


def test_identity_map_is_equivariant():
    spec, actions = torus_variety()
    ident = EquivMap("id", spec, spec, RatFunc.variables(spec.coords),
                     actions, actions)
    cert = check_equivariance(ident, seed=1)
    assert cert.ok


def test_quotient_link_equivariance_and_mutation():
    pair = link_quotient()
    assert check_equivariance(pair.forward, seed=2).ok
    m = pair.forward
    swapped = EquivMap("broken", m.source, m.target,
                       (m.components[0], m.components[2], m.components[1]),
                       m.source_action, m.target_action)
    cert = check_equivariance(swapped, seed=2)
    assert not cert.ok
    failed = {v.name for v in cert.failing()}
    assert "equivariance[(1 2)]" in failed


def test_failure_carries_witness_point():
    pair = link_quotient()
    m = pair.forward
    swapped = EquivMap("broken", m.source, m.target,
                       (m.components[0], m.components[2], m.components[1]),
                       m.source_action, m.target_action)
    cert = check_equivariance(swapped, seed=2)
    got = [(v.name, v.status, v.witness) for v in cert.verdicts]
    assert got == [("equivariance[(1 2)]", "fail", "(-4, -7/6, -4/5)"),
                   ("equivariance[(1 2 3)]", "fail", "(-4, -7/6, -4/5)"),
                   ("equivariance[gamma]", "pass", None)]


def test_semilinearity_mismatch_is_structural_failure():
    pair = link_quotient()
    m = pair.forward
    src = m.source_action
    g = src.action("gamma")
    src = replace(src, generators=src.generators[:2] + (
        ("gamma", ActionGen(perm=g.perm, twist=g.twist, conjugate=False)),))
    broken = EquivMap("broken", m.source, m.target, m.components,
                      src, m.target_action)
    cert = check_equivariance(broken, seed=2)
    assert any(v.status == "fail" and "semilinearity" in v.detail
               for v in cert.verdicts)


def test_inverse_pair_identity_maps():
    spec, actions = torus_variety()
    ident = EquivMap("id", spec, spec, RatFunc.variables(spec.coords),
                     actions, actions)
    cert = check_inverse_pair(ident, ident, seed=3, trials=10)
    assert cert.ok


def test_inverse_pair_takes_one_trial():
    spec, actions = torus_variety()
    ident = EquivMap("id", spec, spec, RatFunc.variables(spec.coords),
                     actions, actions)
    cert = check_inverse_pair(ident, ident, seed=3, trials=1)
    assert cert.ok
    assert (cert.verdicts[-1].name, cert.verdicts[-1].status) == ("spot-check[1 points]",
                                                                  "pass")


@pytest.mark.parametrize("trials", [0, -3])
def test_inverse_pair_refuses_a_non_positive_trial_count(trials):
    spec, actions = torus_variety()
    ident = EquivMap("id", spec, spec, RatFunc.variables(spec.coords),
                     actions, actions)
    with pytest.raises(StructureError, match=f"trials must be positive: {trials}"):
        check_inverse_pair(ident, ident, seed=3, trials=trials)


def test_compose_requires_matching_interface():
    q = link_quotient()
    s = link_segre()
    with pytest.raises(StructureError):
        compose(q.forward, s.forward)


def test_compose_compares_interface_actions_by_meaning():
    # a scale of ones is no scale, so the rewritten action is the same
    # action and composes; an inverting one does not
    first = link_quotient().reversed().forward
    phi = link_phi().forward

    def rewritten(**changes):
        gens = tuple((label, replace(gen, **changes) if label == su3.C123 else gen)
                     for label, gen in phi.source_action.generators)
        return replace(phi, source_action=replace(phi.source_action, generators=gens))

    assert phi.source_action.action(su3.C123).scale is None
    composed = compose(first, rewritten(scale=(1, 1, 1)))
    assert composed.components == compose(first, phi).components
    with pytest.raises(StructureError, match="differ for generator '\\(1 2 3\\)'"):
        compose(first, rewritten(twist="invert"))


def test_compose_with_identity_is_same_map():
    pair = link_quotient()
    m = pair.forward
    tspec, tactions = torus_variety()
    ident = EquivMap("id", tspec, tspec, RatFunc.variables(tspec.coords),
                     tactions, tactions)
    same = compose(m, ident)
    assert same.source is m.source and same.target.same_shape(m.target)
    for a, b in zip(same.components, m.components):
        assert a == b


def test_composition_of_passes_passes():
    # precomposing with a certified equivariant iso keeps verdicts green
    chain = compose_pair(link_quotient().reversed(), link_phi())
    cert = check_equivariance(chain.forward, seed=4)
    assert cert.ok
    cert2 = check_inverse_pair(chain.forward, chain.inverse, seed=4, trials=25)
    assert cert2.ok


def test_projective_rescaling_does_not_change_verdicts():
    pair = link_phi()
    m = pair.forward
    x1 = RatFunc.variable(m.source.coords, "x1")
    x2 = RatFunc.variable(m.source.coords, "x2")
    scale = x1 + 2 * x2
    # rescale the first projective block by a common polynomial
    comps = tuple((scale * c) if i < 3 else c for i, c in enumerate(m.components))
    rescaled = EquivMap("rescaled", m.source, m.target, comps,
                        m.source_action, m.target_action)
    assert check_equivariance(rescaled, seed=5).ok


def test_target_relation_validation_catches_bad_map():
    spec, actions = torus_variety()
    qspec, qactions = quotient_variety()
    x1, x2, x3 = RatFunc.variables(qspec.coords)
    bad = EquivMap("bad", qspec, spec, (x1, x2, x3), qactions, actions)
    cert = check_target_relations(bad)
    assert not cert.ok


def test_target_relations_reject_zero_multiplicative_components():
    # a/b = 1 solved for b reads b = a, which two zero components satisfy;
    # a zero coordinate of a multiplicative block is off the variety
    rel = Relation("torus-product", ("a", "b"), "b", exponents=(1, -1))
    tgt = projective_space("Q", ("a", "b"), relations=(rel,), multiplicative=True)
    src = VarietySpec("A1", (Block("affine", ("s",)),))
    zero = RatFunc.const(("s",), 0)
    cert = check_target_relations(EquivMap("zero", src, tgt, (zero, zero)))
    assert [(v.name, v.status) for v in cert.verdicts] == [
        ("target-relation[projective:b]", "fail")]
    s = RatFunc.variable(("s",), "s")
    assert check_target_relations(EquivMap("diagonal", src, tgt, (s, s))).ok


def test_inverse_pair_spot_check_counts_locus():
    pair = link_quotient()
    cert = check_inverse_pair(pair.forward, pair.inverse, seed=6, trials=40)
    assert cert.ok
    spot = [v for v in cert.verdicts if v.name.startswith("spot-check")]
    assert spot and "agreements" in spot[0].detail
    pair = link_phi()
    cert = check_inverse_pair(pair.forward, pair.inverse, seed=9, trials=10)
    assert cert.ok
    assert cert.verdicts[-1].detail == "10 agreements, 3 exceptional-locus resamples"


def test_group_relations_state_the_tuples_they_checked():
    # inversion is undefined where an affine coordinate is zero, but the
    # relation is decided on the generic chart tuple, where it holds
    spec = VarietySpec("A2", (Block("affine", ("a", "b")),))
    inv = GroupSpec("inv", (("i", ActionGen(perm=identity_perm(2), twist="invert")),),
                    (("i", "i"),))
    cert = check_group_relations(spec, inv, seed=3)
    assert [v.to_dict() for v in cert.verdicts] == [
        {"name": "relation[i*i]", "status": "pass", "detail": ""}]
    # a coordinate that is zero on the whole chart cannot be inverted
    zero = VarietySpec("A1", (Block("affine", ("a", "b"),
                                    (Relation("linear-sum", ("a",), "a"),)),))
    cert = check_group_relations(zero, inv, seed=3)
    assert [(v.status, v.detail) for v in cert.verdicts] == [
        ("fail", "degenerate action: division by the zero rational function")]


def test_product_variety_flattens_blocks():
    spec = product("TxGm2", torus("T", ("t1", "t2", "t3")),
                   torus("Gm2", ("s1", "s2"), product_one=False))
    assert spec.coords == ("t1", "t2", "t3", "s1", "s2")
    p = random_point(spec, random.Random(9))
    assert p[0] * p[1] * p[2] == 1 and p[3] != 0 and p[4] != 0


def test_duplicate_coordinates_rejected():
    with pytest.raises(StructureError):
        product("bad", torus("A", ("x", "y"), product_one=False),
                torus("B", ("x", "z"), product_one=False))


# The failure paths of the sampling loop.  Witness strings are pinned: they
# show that each check draws the same random points in the same order.

def test_inverse_pair_failures_carry_witnesses():
    pair = link_quotient()
    g = pair.inverse
    comps = (g.components[0], 2 * g.components[1], g.components[2])
    doubled = EquivMap("doubled", g.source, g.target, comps,
                       g.source_action, g.target_action)
    cert = check_inverse_pair(pair.forward, doubled, seed=0, trials=10)
    got = [(v.name, v.status, v.detail, v.witness) for v in cert.verdicts]
    assert got == [
        ("round-trip[source]", "fail", "round trip is not the identity",
         "(3/7, -8/5, 7/8)"),
        ("round-trip[target]", "fail", "round trip is not the identity",
         "(3/7, -8/5, -35/24)"),
        ("spot-check[10 points]", "fail",
         "evaluation disagrees with the symbolic identity", "(3/7, -8/5, 7/8)"),
    ]



def test_degenerate_round_trip_is_a_named_failure():
    # g o f sends (x1, x2) to (1/(x1 - x1), x1): the round trip's
    # composition has an identically zero denominator
    a2 = VarietySpec("A2", (Block("affine", ("x1", "x2")),))
    a2u = VarietySpec("A2u", (Block("affine", ("u1", "u2")),))
    x1, x2 = RatFunc.variables(a2.coords)
    u1, u2 = RatFunc.variables(a2u.coords)
    f = EquivMap("f", a2, a2u, (x1, x1))
    g = EquivMap("g", a2u, a2, (1 / (u1 - u2), u2))
    cert = check_inverse_pair(f, g, seed=1, trials=5)
    got = [(v.name, v.status, v.detail, v.witness) for v in cert.verdicts]
    assert got == [
        ("round-trip[source]", "fail", "degenerate composition: composition "
         "produced an identically zero denominator", None),
        ("round-trip[target]", "fail", "round trip is not the identity",
         "(-5/2, -1/2)"),
        ("spot-check[5 points]", "fail", "only 0 usable points in 20 attempts; "
         "the exceptional locus keeps being hit", None),
    ]

def test_spot_check_reports_a_map_that_never_evaluates():
    pair = link_quotient()
    g = pair.inverse
    t1, t2, t3 = RatFunc.variables(g.source.coords)
    # t1 t2 t3 = 1 on the torus, so this component has no value anywhere
    comps = (g.components[0], g.components[1] / (t1 * t2 * t3 - 1), g.components[2])
    bad = EquivMap("on-locus", g.source, g.target, comps,
                   g.source_action, g.target_action)
    spot = check_inverse_pair(pair.forward, bad, seed=0, trials=5).verdicts[-1]
    assert (spot.name, spot.status, spot.witness) == ("spot-check[5 points]", "fail", None)
    assert spot.detail == ("only 0 usable points in 20 attempts; "
                           "the exceptional locus keeps being hit")


def test_swapped_generators_break_their_relations_with_witnesses():
    from cayleycert.ratmap import check_group_relations
    spec, table = torus_variety()
    (t12, a), (c123, b), gamma = table.generators
    grp = replace(table, name="swapped", generators=((t12, b), (c123, a), gamma))
    cert = check_group_relations(spec, grp, seed=0)
    got = [(v.name, v.status, v.detail, v.witness) for v in cert.verdicts]
    broken = "relation does not act as the identity"
    witness = "(3/7, -8/5, -35/24)"
    assert got == [
        ("relation[(1 2)*(1 2)]", "fail", broken, witness),
        ("relation[(1 2 3)*(1 2 3)*(1 2 3)]", "fail", broken, witness),
        ("relation[(1 2 3)*(1 2)*(1 2 3)*(1 2)]", "pass", "", None),
        ("relation[gamma*gamma]", "pass", "", None),
        ("relation[gamma*(1 2)*gamma*(1 2)]", "fail", broken, witness),
        ("relation[gamma*(1 2 3)*gamma*(1 2 3)*(1 2 3)]", "fail", broken, witness),
    ]
    # the witness is a point of the torus that each failing word moves
    point = (Fraction(3, 7), Fraction(-8, 5), Fraction(-35, 24))
    assert point[0] * point[1] * point[2] == 1
    for word in grp.relations:
        moved = grp.apply_word(word, point) != point
        assert moved == (word in (grp.relations[0], grp.relations[1],
                                  grp.relations[4], grp.relations[5]))


# -- group relations: each word's collapse against its letters ---------------
#
# A word whose collapse is the identity as written passes with no work on
# the chart; every other word is decided letter by letter.  The reference
# is the letter-by-letter decision of every word, kept here.

def letter_by_letter(spec, group, seed):
    cert = Certificate(construction=f"relations[{group.name} on {spec.name}]", seed=seed)
    x = spec.chart
    for word in group.relations:
        vname = "relation[" + "*".join(word) + "]"
        try:
            holds = (sum(group.action(label).conjugate for label in word) % 2 == 0
                     and _tuple_equal(spec, group.apply_word(word, x), x)[0])
        except DegenerateError as exc:
            cert.add(vname, "fail", f"degenerate action: {exc}")
            continue
        if holds:
            cert.add(vname, "pass")
        else:
            witness = ratmap._witness(spec, seed, lambda p: (group.apply_word(word, p), p),
                                      spec)
            cert.add(vname, "fail", "relation does not act as the identity", witness)
    return cert


def relation_outcome(check, spec, group, seed=7):
    """(name, status, detail, witness) of each verdict, or the error raised."""
    try:
        cert = check(spec, group, seed=seed)
    except StructureError as exc:
        return type(exc).__name__, str(exc)
    return [(v.name, v.status, v.detail, v.witness) for v in cert.verdicts]


def catalog_tables():
    """Every table whose relations a catalog certificate decides: su3.chain's
    six, and rank2.twist's base, twisted, St and Tw tables on the torus and
    the Lie slice."""
    tables = [build() for build in (su3.quotient_variety, su3.torus_variety,
                                     su3.pp_variety, su3.quadric_variety,
                                     su3.diagonal_plane_variety, su3.lie_variety)]
    for kind, spec in (("torus", torus("T", ("t1", "t2", "t3"))),
                       ("lie", linear_slice("t", ("u1", "u2", "u3")))):
        tables += [(spec, rank2.base_group(kind)), (spec, rank2.twisted_group(kind)),
                   (spec, rank2.pullback_group("St", kind)),
                   (spec, rank2.pullback_group("Tw", kind))]
    return tables


CATALOG_TABLES = catalog_tables()


def one_site_mutants(gen):
    """A generator replaced by the identity, or with its conjugation, its
    twist, the sign of its scale or its first two permutation entries
    changed."""
    n = gen.arity
    perm = (gen.perm[1], gen.perm[0]) + gen.perm[2:]
    return (ActionGen(perm=identity_perm(n)),
            replace(gen, conjugate=not gen.conjugate),
            replace(gen, twist="none" if gen.twist == "invert" else "invert"),
            replace(gen, scale=tuple(-s for s in gen.scale or (1,) * n)),
            replace(gen, perm=perm))


@pytest.mark.parametrize("i", range(len(CATALOG_TABLES)))
def test_relations_agree_with_the_letter_by_letter_decision(i):
    spec, table = CATALOG_TABLES[i]
    want = relation_outcome(letter_by_letter, spec, table)
    assert relation_outcome(check_group_relations, spec, table) == want
    assert all(status == "pass" for _, status, _, _ in want)
    failed = 0
    for k, (label, gen) in enumerate(table.generators):
        for mutant in one_site_mutants(gen):
            grp = replace(table, generators=table.generators[:k] + ((label, mutant),)
                          + table.generators[k + 1:])
            want = relation_outcome(letter_by_letter, spec, grp)
            assert relation_outcome(check_group_relations, spec, grp) == want, (label, mutant)
            failed += any(status == "fail" for _, status, _, _ in want)
    assert failed


A2 = VarietySpec("A2", (Block("affine", ("a", "b")),))
INVERT2 = ActionGen(perm=identity_perm(2), twist="invert")
FALLBACKS = {
    # an odd number of Galois letters
    "odd-galois": (torus_variety()[0], replace(torus_variety()[1],
                                                relations=(("gamma",),))),
    # a constant scale acts trivially on a projective point
    "projective-scale": (projective_space("P2", ("x1", "x2", "x3")), GroupSpec(
        "scaled", (("s", ActionGen(perm=identity_perm(3), scale=(2, 2, 2))),), (("s",),))),
    # the collapse inverts a zero scale
    "collapse-raises": (A2, GroupSpec(
        "zero", (("z", ActionGen(perm=identity_perm(2), scale=(0, 1))), ("i", INVERT2)),
        (("z", "i"),))),
    "unknown-label": (A2, GroupSpec("inv", (("i", INVERT2),), (("i", "j"),))),
    # a 3-cycle cubed collapses to the identity of arity 3, not the chart's 2
    "arity": (A2, GroupSpec("C3", (("c", ActionGen(perm=cycle(3, (0, 1, 2)))),),
                            (("c", "c", "c"),))),
    "no-generators": (A2, GroupSpec("none", (), ((),))),
    # a coordinate that is zero on the whole chart
    "zero-coordinate": (VarietySpec("A1", (Block("affine", ("a", "b"),
                                                 (Relation("linear-sum", ("a",), "a"),)),)),
                        GroupSpec("inv", (("i", INVERT2),), (("i", "i"),))),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_relations_the_collapse_cannot_pass_are_read_on_the_chart(monkeypatch, case):
    spec, group = FALLBACKS[case]
    want = relation_outcome(letter_by_letter, spec, group)
    applied = []
    apply_action = cayleycert.group.apply_action
    monkeypatch.setattr("cayleycert.group.apply_action",
                        lambda gen, tup, **k: applied.append(gen) or apply_action(gen, tup, **k))
    assert relation_outcome(check_group_relations, spec, group) == want
    # the letters were applied, except where there is none or a label is unknown
    assert bool(applied) == (case not in ("no-generators", "unknown-label"))


def test_relations_that_collapse_to_the_identity_skip_the_chart(monkeypatch):
    symbolic = []
    tuple_equal = ratmap._tuple_equal
    apply_action = cayleycert.group.apply_action

    def counting(function):
        def counted(*args, **kwargs):
            symbolic.extend(a for a in args if isinstance(a, tuple)
                            and any(isinstance(v, RatFunc) for v in a))
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(ratmap, "_tuple_equal", counting(tuple_equal))
    monkeypatch.setattr("cayleycert.group.apply_action", counting(apply_action))
    for spec, table in CATALOG_TABLES:
        identity = ActionGen(perm=identity_perm(len(spec.coords)))
        assert all(table.word_action(word) == identity for word in table.relations)
        cert = check_group_relations(spec, table, seed=7)
        assert cert.ok and len(cert.verdicts) == len(table.relations)
    assert len(CATALOG_TABLES) == 14 and symbolic == []
    # the counters see the letter-by-letter path
    check_group_relations(*FALLBACKS["projective-scale"])
    assert symbolic


# -- the evaluation plan of a map ---------------------------------------------

def test_a_map_cannot_be_edited_in_place():
    m = link_quotient().forward
    with pytest.raises(FrozenInstanceError):
        m.components = m.components[::-1]
    with pytest.raises(FrozenInstanceError):
        m.source_action = NO_ACTION


def test_replace_rebuilds_the_evaluation_plan():
    m = link_quotient().forward
    swapped = replace(m, components=(m.components[0], m.components[2], m.components[1]))
    x = random_point(m.source, random.Random(4))
    a, b, c = map_of_point(m, x)
    assert map_of_point(swapped, x) == (a, c, b)
    assert map_of_point(swapped, x) == tuple(f.eval(x) for f in swapped.components)


def test_swapped_components_fixture_evaluates_the_swapped_map(monkeypatch):
    seen = []
    evaluate = ratmap.map_of_point

    def recording(m, point):
        got = evaluate(m, point)
        seen.append((m.name, m.components, point, got))
        return got

    monkeypatch.setattr(ratmap, "map_of_point", recording)
    cert = run_construction("mutation.swapped-components", seed=7, trials=15)
    assert cert.failing()[0].name == "equivariance[(1 2)]"
    m = link_quotient().forward
    swapped = (m.components[0], m.components[2], m.components[1])
    assert seen and {name for name, *_ in seen} == {"mutation.swapped-components"}
    for _, comps, point, got in seen:
        assert comps == swapped
        a, b, c = evaluate(m, point)
        assert got == (a, c, b)


def test_spot_check_evaluates_through_map_of_point(monkeypatch):
    # perfbench's ratmap.spot_check_s span times ratmap.map_of_point, so the
    # spot check must go through that name: both maps at every agreement
    calls = []
    evaluate = ratmap.map_of_point

    def counting(m, point):
        calls.append(m.name)
        return evaluate(m, point)

    monkeypatch.setattr(ratmap, "map_of_point", counting)
    pair = link_quotient()
    cert = check_inverse_pair(pair.forward, pair.inverse, seed=6, trials=3)
    assert cert.verdicts[-1].detail.startswith("3 agreements")
    assert calls.count(pair.forward.name) >= 3 and calls.count(pair.inverse.name) >= 3


def test_link_certificate_composes_each_map_with_its_chart_once(monkeypatch):
    composed = []

    class RecordingPlan(poly.ComposePlan):
        def compose(self, f):
            composed.append((f, self.subst))
            return super().compose(f)

    monkeypatch.setattr(ratmap, "ComposePlan", RecordingPlan)
    pair = link_quotient()
    assert su3.link_certificate(pair, seed=3, trials=2).ok
    charts = [m.source.chart for m in (pair.forward, pair.inverse)]
    on_chart = [f for f, subst in composed if any(subst is x for x in charts)]
    for m in (pair.forward, pair.inverse):
        assert [sum(f is c for f in on_chart) for c in m.components] == \
            [1] * len(m.components)
        assert m.on_chart is m.on_chart


def test_a_map_builds_its_plan_at_the_first_evaluation(monkeypatch):
    built = []
    plan = ratmap.EvalPlan

    def recording(funcs):
        built.append(funcs)
        return plan(funcs)

    monkeypatch.setattr(ratmap, "EvalPlan", recording)
    pair = link_quotient()
    m = compose(pair.forward, pair.inverse)
    assert not built
    x = random_point(m.source, random.Random(2))
    assert map_of_point(m, x) == map_of_point(m, x)
    assert built == [m.components]


# -- the projective pivot rule ------------------------------------------------
#
# A projective block compares k - 1 cross products against the first nonzero
# coordinate of the left side, after the all-zero guard.  The reference is
# the rule it replaces: the guard and all k(k-1)/2 cross products.

UV = ("u", "v")
U, V = RatFunc.variables(UV)
ENTRIES = tuple(RatFunc.const(UV, c) for c in (0, 0, 1, -2)) + (
    U, V, U + 1, U * V, 1 / (V + 1), (U - V) / (U + 2))
ZERO_UV = ENTRIES[0]
SCALES = (RatFunc.const(UV, 3), U, (V + 2) / U, -1 / (U * V + 1))
POINT = (Fraction(3), Fraction(-5, 2))     # no entry or scale vanishes here
PROJECTIVE = {k: projective_space("P", ("a", "b", "c", "d", "e")[:k]) for k in range(2, 6)}


def all_pairs(a, b, is_zero, same):
    """Projective equality by the guard and every 2x2 cross product."""
    if all(map(is_zero, a)) or all(map(is_zero, b)):
        return False
    return all(same(a[i] * b[j], a[j] * b[i])
               for i in range(len(a)) for j in range(i + 1, len(a)))


def assert_pivot_matches_all_pairs(lhs, rhs):
    spec = PROJECTIVE[len(lhs)]
    want = all_pairs(lhs, rhs, RatFunc.is_zero, ratfunc_equal)
    assert _tuple_equal(spec, lhs, rhs)[0] is want
    # the sampled comparison decides the values at a point by the same rule
    a, b = (tuple(f.eval(POINT) for f in side) for side in (lhs, rhs))
    assert _points_equal(spec, a, b) is all_pairs(a, b, lambda x: x == 0,
                                                  lambda x, y: x == y)
    return want


@st.composite
def projective_pairs(draw):
    """Two representatives: the second a multiple of the first, a multiple
    with one coordinate redrawn, or drawn on its own."""
    k = draw(st.integers(2, 5))
    side = st.lists(st.sampled_from(ENTRIES), min_size=k, max_size=k)
    lhs = draw(side)
    how = draw(st.sampled_from(("scaled", "edited", "free")))
    if how == "free":
        return lhs, draw(side)
    s = draw(st.sampled_from(SCALES))
    rhs = [s * f for f in lhs]
    if how == "edited":
        rhs[draw(st.integers(0, k - 1))] = draw(st.sampled_from(ENTRIES))
    return lhs, rhs


@settings(max_examples=150, deadline=None)
@given(projective_pairs())
@example(([ZERO_UV, U, V], [ZERO_UV, U * 2, V * 2]))
@example(([ZERO_UV, ZERO_UV], [U, V]))
def test_pivot_rule_matches_all_cross_products(pair):
    assert_pivot_matches_all_pairs(*pair)


@pytest.mark.parametrize("lhs, rhs, equal", [
    # a zero first coordinate: the pivot is the second
    ((ZERO_UV, U, V), (ZERO_UV, 2 * U, 2 * V), True),
    ((ZERO_UV, U, V), (ZERO_UV + 1, 2 * U, 2 * V), False),
    ((ZERO_UV, ZERO_UV, U, V), (ZERO_UV, ZERO_UV, U / V, ZERO_UV + 1), True),
    # the all-zero right side, which every cross product would let through
    ((U, V, ZERO_UV + 1), (ZERO_UV, ZERO_UV, ZERO_UV), False),
    ((ZERO_UV, ZERO_UV, ZERO_UV), (U, V, ZERO_UV + 1), False),
    # the two differ only in the pair (1, 2), which leaves out the pivot 0
    ((ZERO_UV + 1, U, V), (ZERO_UV + 1, V, U), False),
    ((U, U + 1, V, U * V), (U, U + 1, V * 2, U * V), False),
], ids=["zero-first", "zero-first-unequal", "two-zeros-first", "rhs-all-zero",
        "lhs-all-zero", "swapped-pair", "one-scaled-coordinate"])
def test_pivot_rule_explicit_cases(lhs, rhs, equal):
    assert assert_pivot_matches_all_pairs(lhs, rhs) is equal


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_a_projective_block_makes_k_minus_1_crosses(monkeypatch, k):
    calls = []
    cross = ratmap._cross

    def counting(*abcd):
        calls.append(abcd)
        return cross(*abcd)

    monkeypatch.setattr(ratmap, "_cross", counting)
    lhs = (ZERO_UV, U, V, U + 1, V * U)[:k]
    rhs = tuple(f * (U + V) for f in lhs)
    assert _tuple_equal(PROJECTIVE[k], lhs, rhs)[0]
    # one cross of the pivot, the first nonzero coordinate, with each other one
    assert [tuple(map(id, abcd)) for abcd in calls] == [
        (id(lhs[1]), id(rhs[1]), id(lhs[j]), id(rhs[j])) for j in range(k) if j != 1]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_a_shared_denominator_zero_cross_makes_2_products(monkeypatch, k):
    # each side's coordinates share one denominator
    lhs = tuple(f / (U * V + 1) for f in (U, V, U + 1, V * U, U - V)[:k])
    rhs = tuple(f * (U + V) / (V + 2) for f in (U, V, U + 1, V * U, U - V)[:k])
    edited = rhs[:-1] + (rhs[-1] * 2,)
    calls = []
    mul = poly._mul

    def counting(*args):
        calls.append(args)
        return mul(*args)

    monkeypatch.setattr(poly, "_mul", counting)
    assert _tuple_equal(PROJECTIVE[k], lhs, rhs)[0]
    assert len(calls) == 2 * (k - 1)
    # a nonzero difference falls through to the 7 products of the full cross
    calls.clear()
    assert not _tuple_equal(PROJECTIVE[k], lhs, edited)[0]
    assert len(calls) == 2 * (k - 2) + 7
