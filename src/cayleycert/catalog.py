"""Registry of addressable constructions and the deliberate-failure fixtures.

Every certified construction has a stable string id and one entry in the
literal table ``CONSTRUCTIONS``; the command line selects them by id or
runs the whole non-fixture set.  Mutation fixtures are intentionally
broken variants (a swapped component, a dropped twist, a dropped
conjugation, a wrong cocycle value, a bumped lattice entry, a lost sign in
the classical gather, a dropped conjugation in the Hermitian gather) whose
certificates must fail with a named check; they are excluded from "all"
and only run when selected explicitly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .classical import (classical_certificate, full_linear_certificate,
                        orthogonal_alg, pgl_certificate, symplectic_alg,
                        unitary_alg)
from .errors import StructureError
from .group import same_action, twist_action
from .picard import (galois_matrix, invariants_certificate, lattice_certificate,
                     ledger_certificate, lines_certificate, preserves_form, fixes,
                     CANONICAL)
from .rank2 import (base_group, g2_slot_certificate, gamma_twisted_expected,
                    pgu3_differential, pgu3_torus_map, twist_certificate)
from .ratmap import Certificate, check_equivariance
from .su3 import (GAMMA, T12, chain_certificate, link_certificate, link_linear,
                  link_phi, link_quotient)
from .surfaces import (conic_certificate, x_membership_certificate,
                       y_membership_certificate, y_singular_certificate)


@dataclass(frozen=True)
class Construction:
    id: str
    anchor: str
    run: object           # callable(seed, trials) -> Certificate
    fixture: bool = False


def all_ids(include_fixtures: bool = False):
    ids = sorted(_REGISTRY)
    if include_fixtures:
        return ids
    return [i for i in ids if not _REGISTRY[i].fixture]


def get(cid: str) -> Construction:
    return _REGISTRY[cid]


def run_construction(cid: str, seed: int = 42, trials: int = 100) -> Certificate:
    """Run one construction and stamp its record: the id ``cid``, the
    ``seed`` and ``ms``, the wall time of this call."""
    t0 = time.perf_counter()
    cert = get(cid).run(seed, trials)
    cert.construction, cert.seed = cid, seed
    cert.ms = 1000 * (time.perf_counter() - t0)
    return cert


# -- mutation fixtures -------------------------------------------------------

def _edited(group, labels, **changes):
    """``group`` with the actions of ``labels`` changed by dataclasses.replace."""
    return replace(group, generators=tuple(
        (label, replace(gen, **changes) if label in labels else gen)
        for label, gen in group.generators))


def _mutant_swapped_components(seed: int, trials: int) -> Certificate:
    m = link_quotient().forward
    comps = (m.components[0], m.components[2], m.components[1])
    broken = replace(m, name="mutation.swapped-components", components=comps)
    return check_equivariance(broken, seed=seed)


def _mutant_twist_sign(seed: int, trials: int) -> Certificate:
    m = link_quotient().forward
    broken = replace(m, name="mutation.twist-sign",
                     source_action=_edited(m.source_action, (T12,), twist="none"))
    return check_equivariance(broken, seed=seed)


def _mutant_dropped_conjugation(seed: int, trials: int) -> Certificate:
    m = link_linear().forward
    broken = replace(m, name="mutation.dropped-conjugation",
                     source_action=_edited(m.source_action, (GAMMA,), conjugate=False),
                     target_action=_edited(m.target_action, (GAMMA,), conjugate=False))
    return check_equivariance(broken, seed=seed)


def _mutant_wrong_cocycle(seed: int, trials: int) -> Certificate:
    cert = Certificate(construction="mutation.wrong-cocycle")
    got = twist_action(base_group("torus"), {GAMMA: (T12,)}).action(GAMMA)
    ok = same_action(got, gamma_twisted_expected("torus"))
    cert.add("twisted-action-table[torus:gamma]", "pass" if ok else "fail",
             "cocycle value is a transposition, not the inversion")
    return cert


def _mutant_lattice_offbyone(seed: int, trials: int) -> Certificate:
    cert = Certificate(construction="mutation.lattice-offbyone")
    g = [list(r) for r in galois_matrix()]
    g[0][0] += 1
    g = tuple(map(tuple, g))
    cert.add("form-preserved[galois]", "pass" if preserves_form(g) else "fail",
             "bumped entry breaks the pairing")
    cert.add("K-fixed[galois]", "pass" if fixes(g, CANONICAL) else "fail")
    return cert


def _mutant_classical_gather_sign(seed: int, trials: int) -> Certificate:
    # every factor of sp4's gather read as |u|: iota stays an
    # anti-automorphism (the transpose against a permutation) but is no
    # longer the symplectic form's
    alg = symplectic_alg(4)
    alg._gather = tuple(tuple((q, p, abs(u), v) for q, p, u, v in row)
                        for row in alg._gather)
    return classical_certificate("mutation.classical-gather-sign", alg, seed, trials)


def _mutant_classical_dropped_conjugation(seed: int, trials: int) -> Certificate:
    # su3's gather without its conjugation: iota(a) = H^-1 a^T H is a
    # K-linear anti-automorphism, and so no Hermitian form's involution
    alg = unitary_alg(3, -3)
    alg._conj = False
    return classical_certificate("mutation.classical-dropped-conjugation", alg, seed,
                                 trials)


# -- the construction table --------------------------------------------------

CONSTRUCTIONS = (
    Construction("classical.gl3", "unit group of the 3x3 matrix algebra",
                 lambda s, t: full_linear_certificate(3)),
    Construction("classical.sp2", "symplectic involution transform, size 2",
                 lambda s, t: classical_certificate("classical.sp2",
                                                    symplectic_alg(2), s, t)),
    Construction("classical.sp4", "symplectic involution transform, size 4",
                 lambda s, t: classical_certificate("classical.sp4",
                                                    symplectic_alg(4), s, t)),
    Construction("classical.so3", "orthogonal involution transform, size 3",
                 lambda s, t: classical_certificate("classical.so3",
                                                    orthogonal_alg(3), s, t)),
    Construction("classical.so21", "orthogonal transform for the (2,1) form",
                 lambda s, t: classical_certificate("classical.so21",
                                                    orthogonal_alg(3, (1, 1, -1)), s, t)),
    Construction("classical.su3", "Hermitian involution transform over Q(sqrt(-3))",
                 lambda s, t: classical_certificate("classical.su3",
                                                    unitary_alg(3, -3), s, t)),
    Construction("classical.su21", "Hermitian transform for the (2,1) form",
                 lambda s, t: classical_certificate("classical.su21",
                                                    unitary_alg(3, -3, (1, 1, -1)), s, t)),
    Construction("classical.u3gauss", "Hermitian involution transform over Q(sqrt(-1))",
                 lambda s, t: classical_certificate("classical.u3gauss",
                                                    unitary_alg(3, -1), s, t)),
    Construction("pgl.2", "projective linear transform, size 2",
                 lambda s, t: pgl_certificate(2, s, t)),
    Construction("pgl.3", "projective linear transform, size 3",
                 lambda s, t: pgl_certificate(3, s, t)),

    Construction("su3.chain", "five-link equivariant torus chain, unitary rank 2",
                 lambda s, t: chain_certificate(seed=s, trials=t)),
    Construction("su3.phi", "difference map into the paired projective planes",
                 lambda s, t: link_certificate(link_phi(), seed=s, trials=t)),

    Construction("rank2.twist", "cocycle-twisted torus actions and embeddings",
                 lambda s, t: twist_certificate(seed=s)),
    Construction("rank2.pgu3", "quotient-torus isomorphism onto the twisted torus",
                 lambda s, t: link_certificate(pgu3_torus_map(), seed=s, trials=t)),
    Construction("rank2.pgu3.lie", "differential of the quotient-torus isomorphism",
                 lambda s, t: link_certificate(pgu3_differential(), seed=s, trials=t)),
    Construction("rank2.g2-base", "pluggable rank-2 base map slot",
                 lambda s, t: g2_slot_certificate(seed=s, trials=t)),

    Construction("appendix.conic", "conic parameterization and group law",
                 lambda s, t: conic_certificate()),
    Construction("appendix.X", "triple-product surface membership",
                 lambda s, t: x_membership_certificate()),
    Construction("appendix.Y", "cubic compactification membership",
                 lambda s, t: y_membership_certificate()),
    Construction("appendix.Y.singular", "singular locus of the cubic",
                 lambda s, t: y_singular_certificate()),

    Construction("picard.lattice", "intersection form and symmetry matrices",
                 lambda s, t: lattice_certificate()),
    Construction("picard.invariants", "invariant sublattice of the full action",
                 lambda s, t: invariants_certificate()),
    Construction("picard.lines", "the six line classes and their hexagon",
                 lambda s, t: lines_certificate()),
    Construction("picard.ledger", "self-intersection ledger arithmetic",
                 lambda s, t: ledger_certificate()),

    Construction("mutation.swapped-components", "fixture: two map components swapped",
                 _mutant_swapped_components, fixture=True),
    Construction("mutation.twist-sign", "fixture: sign twist dropped from an action",
                 _mutant_twist_sign, fixture=True),
    Construction("mutation.dropped-conjugation", "fixture: Galois conjugation dropped",
                 _mutant_dropped_conjugation, fixture=True),
    Construction("mutation.wrong-cocycle", "fixture: cocycle hits the wrong element",
                 _mutant_wrong_cocycle, fixture=True),
    Construction("mutation.lattice-offbyone", "fixture: lattice matrix entry off by one",
                 _mutant_lattice_offbyone, fixture=True),
    Construction("mutation.classical-gather-sign",
                 "fixture: sign of the symplectic gather dropped",
                 _mutant_classical_gather_sign, fixture=True),
    Construction("mutation.classical-dropped-conjugation",
                 "fixture: conjugation of the Hermitian gather dropped",
                 _mutant_classical_dropped_conjugation, fixture=True),
)

MUTATION_IDS = tuple(c.id for c in CONSTRUCTIONS if c.fixture)

_REGISTRY = {c.id: c for c in CONSTRUCTIONS}
_SHADOWED = [c.id for c in CONSTRUCTIONS if _REGISTRY[c.id] is not c]
if _SHADOWED:
    raise StructureError(f"duplicate construction id {_SHADOWED[0]!r}")
