"""Twisted rank-2 torus machinery: cocycle twists, the two embeddings of
the symmetric group into its product with the swap group, and the
projective-unitary quotient-torus map with its differential.

The base object is the norm-one torus with the full S3 x S2 action
(permutations and entrywise inversion) plus plain Galois conjugation.
Twisting the Galois generator by the cocycle gamma -> eps produces the
action x -> conj(x)^-1 entrywise, and the suite certifies that the
twisted table agrees with that closed form generator by generator, that
the standard and twisted embeddings pull back to consistent actions, and
that the quotient-torus map and its differential are equivariant
isomorphisms with exact inverses.

The rank-2 exceptional-group base map (the birational isomorphism between
the torus times a 2-dimensional split torus and its Lie counterpart) is
not constructed here; it is accepted as a pluggable input and certified
when supplied, otherwise the suite marks the slot as missing external
input.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import StructureError
from .field import QuadField
from .group import (ActionGen, Cocycle, GroupSpec, apply_action, compose_actions,
                    cycle, identity_perm, st_tw_embed, transposition,
                    twist_action)
from .poly import RatFunc
from .ratmap import (Block, Certificate, EquivMap, MapPair, VarietySpec,
                     check_equivariance, check_group_relations, check_inverse_pair,
                     check_target_relations, linear_slice, product,
                     projective_space, torus)
from .su3 import C123, GAMMA, T12, s3_gamma_group

EPS = "eps"

_S3 = {T12: transposition(3, 0, 1), C123: cycle(3, (0, 1, 2))}

_S3S2_RELATIONS = (
    (T12, T12),
    (C123, C123, C123),
    (C123, T12, C123, T12),
    (EPS, EPS),
    (EPS, T12, EPS, T12),
    (EPS, C123, EPS, C123, C123),
    (GAMMA, GAMMA),
    (GAMMA, T12, GAMMA, T12),
    (GAMMA, C123, GAMMA, C123, C123),
    (GAMMA, EPS, GAMMA, EPS),
)


def base_torus_group() -> GroupSpec:
    """S3 x S2 with plain Galois conjugation, acting on the torus."""
    return GroupSpec(
        name="S3xS2xGamma[T]",
        generators=(
            (T12, ActionGen(perm=_S3[T12])),
            (C123, ActionGen(perm=_S3[C123])),
            (EPS, ActionGen(perm=identity_perm(3), twist="invert")),
            (GAMMA, ActionGen(perm=identity_perm(3), conjugate=True)),
        ),
        order=24,
        relations=_S3S2_RELATIONS,
        gamma_labels=(GAMMA,),
    )


def base_lie_group() -> GroupSpec:
    """The same group on the Lie slice: inversion becomes negation."""
    return GroupSpec(
        name="S3xS2xGamma[t]",
        generators=(
            (T12, ActionGen(perm=_S3[T12])),
            (C123, ActionGen(perm=_S3[C123])),
            (EPS, ActionGen(perm=identity_perm(3), twist="negate")),
            (GAMMA, ActionGen(perm=identity_perm(3), conjugate=True)),
        ),
        order=24,
        relations=_S3S2_RELATIONS,
        gamma_labels=(GAMMA,),
    )


def eps_cocycle() -> Cocycle:
    return Cocycle.of({GAMMA: (EPS,)})


def gamma_twisted_expected(kind: str) -> ActionGen:
    """The closed form of the twisted Galois action: conjugate inverse on
    the torus, minus conjugate on the Lie slice."""
    twist = "invert" if kind == "torus" else "negate"
    return ActionGen(perm=identity_perm(3), twist=twist, conjugate=True)


def twisted_torus_group() -> GroupSpec:
    return twist_action(base_torus_group(), eps_cocycle())


def twisted_lie_group() -> GroupSpec:
    return twist_action(base_lie_group(), eps_cocycle())


def pullback_group(mode: str, kind: str) -> GroupSpec:
    """The S3 action on the twisted torus through the St or Tw embedding.

    Tw sends an odd permutation to (sigma, eps), so odd generators pick up
    the inversion (negation on the Lie side); St uses sigma alone.  The
    Galois generator keeps the twisted action.
    """
    base = base_torus_group() if kind == "torus" else base_lie_group()
    eps_gen = base.action(EPS)
    gens = []
    for label in (T12, C123):
        sigma = _S3[label]
        _, power = st_tw_embed(sigma, mode)
        gen = ActionGen(perm=sigma)
        if power:
            gen = compose_actions(eps_gen, gen)
        gens.append((label, gen))
    gens.append((GAMMA, gamma_twisted_expected(kind)))
    s3g = s3_gamma_group()
    return GroupSpec(name=f"{mode}-pullback[{kind}]", generators=tuple(gens),
                     order=12, relations=s3g.relations, gamma_labels=(GAMMA,))


# -- the quotient-torus map and its differential ---------------------------

def pgu3_torus_map() -> MapPair:
    """[x] -> (x2/x3, x3/x1, x1/x2) from the Galois-twisted quotient of the
    3-torus by scalars onto the Tw-pulled-back twisted torus."""
    group = s3_gamma_group()
    src = projective_space("Gm3-mod-Gm[g-tw]", ("x1", "x2", "x3"),
                           multiplicative=True)
    src_actions = {
        T12: ActionGen(perm=_S3[T12], projective=True),
        C123: ActionGen(perm=_S3[C123], projective=True),
        GAMMA: ActionGen(perm=identity_perm(3), twist="invert", conjugate=True,
                         projective=True),
    }
    tgt = torus("Tw-twisted-T", ("t1", "t2", "t3"))
    tgt_actions = dict(pullback_group("Tw", "torus").generators)
    x1, x2, x3 = RatFunc.variables(src.coords)
    forward = EquivMap("rank2.pgu3", src, tgt,
                       (x2 / x3, x3 / x1, x1 / x2),
                       group, src_actions, tgt_actions)
    t1, t2, t3 = RatFunc.variables(tgt.coords)
    one = RatFunc.const(tgt.coords, Fraction(1))
    inverse = EquivMap("rank2.pgu3.inv", tgt, src,
                       (one, 1 / t3, t2),
                       group, tgt_actions, src_actions)
    return MapPair(forward, inverse)


def pgu3_differential() -> MapPair:
    """(x1, x2, x3) -> (x2 - x3, x3 - x1, x1 - x2) on the sum-zero slice."""
    group = s3_gamma_group()
    src = linear_slice("lie-quotient[g-tw]", ("x1", "x2", "x3"))
    src_actions = {
        T12: ActionGen(perm=_S3[T12]),
        C123: ActionGen(perm=_S3[C123]),
        GAMMA: ActionGen(perm=identity_perm(3), twist="negate", conjugate=True),
    }
    tgt = linear_slice("Tw-twisted-t", ("u1", "u2", "u3"))
    tgt_actions = dict(pullback_group("Tw", "lie").generators)
    x1, x2, x3 = RatFunc.variables(src.coords)
    forward = EquivMap("rank2.pgu3.lie", src, tgt,
                       (x2 - x3, x3 - x1, x1 - x2),
                       group, src_actions, tgt_actions)
    u1, u2, u3 = RatFunc.variables(tgt.coords)
    third = Fraction(1, 3)
    inverse = EquivMap("rank2.pgu3.lie.inv", tgt, src,
                       (-third * (u1 + 2 * u2),
                        -third * (u2 + 2 * u3),
                        -third * (u3 + 2 * u1)),
                       group, tgt_actions, src_actions)
    return MapPair(forward, inverse)


# -- the pluggable rank-2 base map -----------------------------------------

def g2_interface():
    """Source and target of the pluggable base map, with twisted actions.

    A supplied map must take the twisted torus times a 2-dimensional split
    torus to the twisted Lie slice times the affine plane, equivariantly
    for these tables; the extra factors carry the trivial permutation,
    inversion (negation) under eps, and the twisted Galois action.
    """
    tor = twisted_torus_group().table()
    lie = twisted_lie_group().table()

    def extend(table, n_extra, twist_mult):
        out = {}
        for label, gen in table.items():
            n = gen.arity
            perm = gen.perm + tuple(range(n, n + n_extra))
            scale = None if gen.scale is None else gen.scale + (1,) * n_extra
            out[label] = ActionGen(perm=perm, twist=gen.twist,
                                   conjugate=gen.conjugate,
                                   projective=gen.projective, scale=scale)
        return out

    src = product("TxGm2[twisted]",
                  torus("T", ("t1", "t2", "t3")),
                  torus("Gm2", ("s1", "s2"), product_one=False))
    tgt = product("txA2[twisted]",
                  linear_slice("t", ("u1", "u2", "u3")),
                  VarietySpec("A2", (Block("affine", ("w1", "w2")),)))
    return src, extend(tor, 2, "invert"), tgt, extend(lie, 2, "negate")


def g2_group() -> GroupSpec:
    idgen = ActionGen(perm=identity_perm(5))
    return GroupSpec(
        name="S3xS2xGamma",
        generators=((T12, idgen), (C123, idgen), (EPS, idgen), (GAMMA, idgen)),
        order=24, relations=_S3S2_RELATIONS, gamma_labels=(GAMMA,))


# -- the suite ---------------------------------------------------------------

def _action_tables_match(got: ActionGen, want: ActionGen, seed: int,
                         trials: int, multiplicative: bool) -> bool:
    if got == want:
        return True
    rng = random.Random(seed)
    F = QuadField(-3)
    for _ in range(trials):
        tup = tuple(F.random(rng, nonzero=multiplicative) for _ in range(got.arity))
        try:
            if apply_action(got, tup) != apply_action(want, tup):
                return False
        except Exception:
            return False
    return True


def twist_certificate(seed: int = 42, trials: int = 100) -> Certificate:
    """Cocycle twisting and the two embeddings, checked generator by generator."""
    cert = Certificate(construction="rank2.twist", seed=seed)

    tor_spec = torus("T", ("t1", "t2", "t3"))
    lie_spec = linear_slice("t", ("u1", "u2", "u3"))

    for spec, grp, tag in ((tor_spec, base_torus_group(), "base-torus"),
                           (lie_spec, base_lie_group(), "base-lie"),
                           (tor_spec, twisted_torus_group(), "twisted-torus"),
                           (lie_spec, twisted_lie_group(), "twisted-lie")):
        cert.extend(check_group_relations(spec, grp, seed=seed, trials=12),
                    prefix=f"group[{tag}].")

    for kind, grp in (("torus", twisted_torus_group()),
                      ("lie", twisted_lie_group())):
        got = grp.action(GAMMA)
        want = gamma_twisted_expected(kind)
        ok = _action_tables_match(got, want, seed, 25, kind == "torus")
        cert.add(f"twisted-action-table[{kind}:{GAMMA}]",
                 "pass" if ok else "fail",
                 "cocycle twist against the closed-form generator")

    base = base_torus_group()
    trivial = twist_action(base, Cocycle.of({GAMMA: ()}))
    cert.add("trivial-cocycle", "pass" if trivial.table() == base.table() else "fail")
    twice = twist_action(twisted_torus_group(), eps_cocycle())
    cert.add("cocycle-involution",
             "pass" if twice.action(GAMMA) == base.action(GAMMA) else "fail",
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
        for kind, spec in (("torus", tor_spec), ("lie", lie_spec)):
            grp = pullback_group(mode, kind)
            cert.extend(check_group_relations(spec, grp, seed=seed, trials=12),
                        prefix=f"group[{mode}:{kind}].")
    return cert


def pgu3_certificate(seed: int = 42, trials: int = 100) -> Certificate:
    cert = Certificate(construction="rank2.pgu3", seed=seed)
    pair = pgu3_torus_map()
    cert.extend(check_target_relations(pair.forward))
    cert.extend(check_equivariance(pair.forward, seed=seed), prefix="fwd.")
    cert.extend(check_equivariance(pair.inverse, seed=seed), prefix="inv.")
    cert.extend(check_inverse_pair(pair.forward, pair.inverse, seed=seed,
                                   trials=trials))
    return cert


def pgu3_lie_certificate(seed: int = 42, trials: int = 100) -> Certificate:
    cert = Certificate(construction="rank2.pgu3.lie", seed=seed)
    pair = pgu3_differential()
    cert.extend(check_target_relations(pair.forward))
    cert.extend(check_equivariance(pair.forward, seed=seed), prefix="fwd.")
    cert.extend(check_equivariance(pair.inverse, seed=seed), prefix="inv.")
    cert.extend(check_inverse_pair(pair.forward, pair.inverse, seed=seed,
                                   trials=trials))
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


def rank2_torus_suite(seed: int = 42, trials: int = 100,
                      external_g2: MapPair | None = None) -> Certificate:
    """All certificates of the twisted rank-2 torus machinery."""
    cert = Certificate(construction="rank2", seed=seed)
    cert.extend(twist_certificate(seed=seed, trials=trials))
    cert.extend(pgu3_certificate(seed=seed, trials=trials), prefix="pgu3.")
    cert.extend(pgu3_lie_certificate(seed=seed, trials=trials), prefix="pgu3.lie.")
    cert.extend(g2_slot_certificate(seed=seed, trials=trials,
                                    external_g2=external_g2))
    return cert


def certify_external_g2(pair: MapPair, seed: int = 42, trials: int = 100) -> Certificate:
    """Certificates for a user-supplied rank-2 base map.

    The pair must be presented against the interface of :func:`g2_interface`;
    shape mismatches are structural errors, everything else is verified the
    usual way.
    """
    src, src_act, tgt, tgt_act = g2_interface()
    fwd = pair.forward
    if not fwd.source.same_shape(src) or not fwd.target.same_shape(tgt):
        raise StructureError("external map does not fit the product interface")
    cert = Certificate(construction="g2-base", seed=seed)
    cert.extend(check_equivariance(fwd, seed=seed), prefix="fwd.")
    cert.extend(check_equivariance(pair.inverse, seed=seed), prefix="inv.")
    cert.extend(check_inverse_pair(fwd, pair.inverse, seed=seed, trials=trials))
    return cert
