"""Twisted rank-2 torus machinery: cocycle twists, the two embeddings of
the symmetric group into its product with the swap group, and the
projective-unitary quotient-torus map with its differential.

The base object is the norm-one torus with the full S3 x S2 action
(su3's permutations and entrywise inversion) plus plain Galois
conjugation.  Twisting the Galois generator by the cocycle gamma -> eps
produces su3's Galois generator x -> conj(x)^-1.  :func:`twist_certificate`
certifies that the twisted table agrees with that closed form generator by
generator and that the standard and twisted embeddings pull back to
consistent actions.  Groups are built per kind ("torus" or "lie"); every
map pair (the quotient-torus map, its differential, a supplied base map)
is certified as an equivariant isomorphism with an exact inverse by the
chain's recipe, :func:`cayleycert.su3.link_certificate`.

The rank-2 exceptional-group base map (the birational isomorphism between
the torus times a 2-dimensional split torus and its Lie counterpart) is
not constructed here; it is accepted as a pluggable input and certified
when supplied; otherwise :func:`g2_slot_certificate` marks the slot as
missing external input.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .errors import StructureError
from .group import (ActionGen, GroupSpec, compose_actions, identity_perm,
                    same_action, st_tw_embed, twist_action)
from .poly import RatFunc
from .ratmap import (Block, Certificate, EquivMap, MapPair, VarietySpec,
                     check_group_relations, linear_slice, product,
                     projective_space, torus)
from .su3 import (_S3, C123, GAMMA, S3_GAMMA_RELATIONS, T12, lie_variety,
                  link_certificate, link_quotient, torus_variety)

EPS = "eps"

# su3's relations, with eps's copies of the Galois ones between them, and
# the commutator of gamma and eps
_S3S2_RELATIONS = (S3_GAMMA_RELATIONS[:3]
                   + tuple(tuple(EPS if x == GAMMA else x for x in word)
                           for word in S3_GAMMA_RELATIONS[3:])
                   + S3_GAMMA_RELATIONS[3:] + ((GAMMA, EPS, GAMMA, EPS),))


def _su3_group(kind: str) -> GroupSpec:
    """su3's S3 x Galois table on the twisted torus (kind "torus") or on the
    twisted Lie slice (kind "lie")."""
    return (torus_variety if kind == "torus" else lie_variety)()[1]


def base_group(kind: str) -> GroupSpec:
    """S3 x S2 with plain Galois conjugation, acting on the torus; on the
    Lie slice (kind "lie") eps is the scale -1 instead of the inversion."""
    su3 = _su3_group(kind)
    eps = (ActionGen(perm=identity_perm(3), twist="invert") if kind == "torus"
           else ActionGen(perm=identity_perm(3), scale=(-1, -1, -1)))
    return GroupSpec(
        name="S3xS2xGamma[T]" if kind == "torus" else "S3xS2xGamma[t]",
        generators=(
            (T12, su3.action(T12)),
            (C123, su3.action(C123)),
            (EPS, eps),
            (GAMMA, ActionGen(perm=identity_perm(3), conjugate=True)),
        ),
        relations=_S3S2_RELATIONS,
    )


def eps_cocycle() -> dict:
    return {GAMMA: (EPS,)}


def gamma_twisted_expected(kind: str) -> ActionGen:
    """The closed form of the twisted Galois action, su3's Galois generator:
    conjugate inverse on the torus, minus conjugate on the Lie slice."""
    return _su3_group(kind).action(GAMMA)


def twisted_group(kind: str) -> GroupSpec:
    return twist_action(base_group(kind), eps_cocycle())


def pullback_group(mode: str, kind: str) -> GroupSpec:
    """The S3 action on the twisted torus through the St or Tw embedding.

    Tw sends an odd permutation to (sigma, eps), so odd generators pick up
    the inversion (negation on the Lie side); St, and the Galois generator
    (whose permutation is even), keep su3's table.
    """
    su3 = _su3_group(kind)
    eps = base_group(kind).action(EPS)
    return replace(su3, name=f"{mode}-pullback[{kind}]", generators=tuple(
        (label, compose_actions(eps, gen) if st_tw_embed(gen.perm, mode)[1] else gen)
        for label, gen in su3.generators))


# -- the quotient-torus map and its differential ---------------------------

def pgu3_torus_map() -> MapPair:
    """[x] -> (x2/x3, x3/x1, x1/x2) from the Galois-twisted quotient of the
    3-torus by scalars onto the Tw-pulled-back twisted torus: the formulas
    of :func:`cayleycert.su3.link_quotient`, with the twisted torus's table
    on the source."""
    src = projective_space("Gm3-mod-Gm[g-tw]", ("x1", "x2", "x3"),
                           multiplicative=True)
    src_actions = torus_variety()[1]
    tgt = torus("Tw-twisted-T", ("t1", "t2", "t3"))
    tgt_actions = pullback_group("Tw", "torus")
    quotient = link_quotient()
    forward = EquivMap("rank2.pgu3", src, tgt, quotient.forward.components,
                       src_actions, tgt_actions)
    inverse = EquivMap("rank2.pgu3.inv", tgt, src, quotient.inverse.components,
                       tgt_actions, src_actions)
    return MapPair(forward, inverse)


def pgu3_differential() -> MapPair:
    """(x1, x2, x3) -> (x2 - x3, x3 - x1, x1 - x2) on the sum-zero slice,
    with the twisted Lie slice's table on the source."""
    src = linear_slice("lie-quotient[g-tw]", ("x1", "x2", "x3"))
    src_actions = lie_variety()[1]
    tgt = linear_slice("Tw-twisted-t", ("u1", "u2", "u3"))
    tgt_actions = pullback_group("Tw", "lie")
    x1, x2, x3 = RatFunc.variables(src.coords)
    forward = EquivMap("rank2.pgu3.lie", src, tgt,
                       (x2 - x3, x3 - x1, x1 - x2),
                       src_actions, tgt_actions)
    u1, u2, u3 = RatFunc.variables(tgt.coords)
    third = Fraction(1, 3)
    inverse = EquivMap("rank2.pgu3.lie.inv", tgt, src,
                       (-third * (u1 + 2 * u2),
                        -third * (u2 + 2 * u3),
                        -third * (u3 + 2 * u1)),
                       tgt_actions, src_actions)
    return MapPair(forward, inverse)


# -- the pluggable rank-2 base map -----------------------------------------

def g2_interface():
    """Source and target of the pluggable base map, with twisted actions.

    A supplied map must take the twisted torus times a 2-dimensional split
    torus to the twisted Lie slice times the affine plane, equivariantly
    for these tables; the extra factors carry the trivial permutation,
    inversion (negation) under eps, and the twisted Galois action.
    """
    def extend(kind):
        # the two extra coordinates are fixed by every permutation and take
        # the first one's scale (none or a constant -1): eps acts on all five
        group = twisted_group(kind)
        return replace(group, generators=tuple(
            (label, replace(gen, perm=gen.perm + (3, 4),
                            scale=gen.scale and gen.scale + gen.scale[:1] * 2))
            for label, gen in group.generators))

    src = product("TxGm2[twisted]",
                  torus("T", ("t1", "t2", "t3")),
                  torus("Gm2", ("s1", "s2"), product_one=False))
    tgt = product("txA2[twisted]",
                  linear_slice("t", ("u1", "u2", "u3")),
                  VarietySpec("A2", (Block("affine", ("w1", "w2")),)))
    return src, extend("torus"), tgt, extend("lie")


# -- the certificates --------------------------------------------------------

def twist_certificate(seed: int = 42) -> Certificate:
    """Cocycle twisting and the two embeddings, checked generator by generator.

    Every verdict is exact: group relations are decided on the chart, and
    each twisted Galois generator is compared with its closed form by
    :func:`cayleycert.group.same_action`.
    """
    cert = Certificate(construction="rank2.twist", seed=seed)

    tor_spec = torus("T", ("t1", "t2", "t3"))
    lie_spec = linear_slice("t", ("u1", "u2", "u3"))

    specs = {"torus": tor_spec, "lie": lie_spec}
    for build, tag in ((base_group, "base"), (twisted_group, "twisted")):
        for kind, spec in specs.items():
            cert.extend(check_group_relations(spec, build(kind), seed=seed),
                        prefix=f"group[{tag}-{kind}].")

    for kind in specs:
        ok = same_action(twisted_group(kind).action(GAMMA), gamma_twisted_expected(kind))
        cert.add(f"twisted-action-table[{kind}:{GAMMA}]",
                 "pass" if ok else "fail",
                 "cocycle twist against the closed-form generator")

    base = base_group("torus")
    trivial = twist_action(base, {GAMMA: ()})
    cert.add("trivial-cocycle", "pass" if all(
        same_action(trivial.action(label), base.action(label))
        for label in base.labels()) else "fail")
    twice = twist_action(twisted_group("torus"), eps_cocycle())
    cert.add("cocycle-involution",
             "pass" if same_action(twice.action(GAMMA), base.action(GAMMA)) else "fail",
             "twisting twice by eps restores the base action")

    # the embeddings, on the nose
    sig, pw = st_tw_embed(_S3[T12], "Tw")
    ok_tw_odd = (sig == _S3[T12] and pw == 1)
    sig, pw = st_tw_embed(_S3[C123], "Tw")
    ok_tw_even = (sig == _S3[C123] and pw == 0)
    ok_st = all(st_tw_embed(s, "St")[1] == 0 for s in _S3.values())
    cert.add("embed[St]", "pass" if ok_st else "fail")
    cert.add("embed[Tw]", "pass" if (ok_tw_odd and ok_tw_even) else "fail")
    for mode in ("St", "Tw"):
        for kind, spec in specs.items():
            grp = pullback_group(mode, kind)
            cert.extend(check_group_relations(spec, grp, seed=seed),
                        prefix=f"group[{mode}:{kind}].")
    return cert


def g2_slot_certificate(seed: int = 42, trials: int = 100,
                        external_g2: MapPair | None = None) -> Certificate:
    cert = Certificate(construction="rank2.g2-base", seed=seed)
    if external_g2 is None:
        cert.add("g2-base-map", "skip", "external input missing")
    else:
        cert.extend(certify_external_g2(external_g2, seed=seed, trials=trials),
                    prefix="g2-base-map.")
    return cert


def certify_external_g2(pair: MapPair, seed: int = 42, trials: int = 100) -> Certificate:
    """Certificates for a user-supplied rank-2 base map.

    The pair must be presented against the interface of :func:`g2_interface`,
    its four action tables included; shape or table mismatches are
    structural errors, everything else is verified by the map-pair recipe
    of :func:`cayleycert.su3.link_certificate`.
    """
    src, src_act, tgt, tgt_act = g2_interface()
    fwd, inv = pair.forward, pair.inverse
    if not fwd.source.same_shape(src) or not fwd.target.same_shape(tgt):
        raise StructureError("external map does not fit the product interface")
    for got, want in ((fwd.source_action, src_act), (fwd.target_action, tgt_act),
                      (inv.source_action, tgt_act), (inv.target_action, src_act)):
        if (set(got.labels()) != set(want.labels())
                or got.first_difference(want) is not None):
            raise StructureError(
                f"external map's action table {got.name!r} is not the interface's")
    return link_certificate(pair, seed=seed, trials=trials)
