"""The construction table, and pinned reports of the constructions whose
certificates are built by the shared map-pair recipe or round-trip path,
of the twist suite and of every mutation fixture."""

import pytest

from cayleycert.catalog import CONSTRUCTIONS, MUTATION_IDS, all_ids, get, run_construction


GENS = ("(1 2)", "(1 2 3)", "gamma")
S3_GAMMA_WORDS = ("(1 2)*(1 2)", "(1 2 3)*(1 2 3)*(1 2 3)", "(1 2 3)*(1 2)*(1 2 3)*(1 2)",
                  "gamma*gamma", "gamma*(1 2)*gamma*(1 2)",
                  "gamma*(1 2 3)*gamma*(1 2 3)*(1 2 3)")
S3_S2_GAMMA_WORDS = S3_GAMMA_WORDS[:3] + (
    "eps*eps", "eps*(1 2)*eps*(1 2)", "eps*(1 2 3)*eps*(1 2 3)*(1 2 3)",
    "gamma*gamma", "gamma*(1 2)*gamma*(1 2)", "gamma*(1 2 3)*gamma*(1 2 3)*(1 2 3)",
    "gamma*eps*gamma*eps")
BROKEN = "symbolic identity does not hold"


def _pass(name, detail=""):
    return {"name": name, "status": "pass", "detail": detail}


def _fail(name, detail="", witness=None):
    v = {"name": name, "status": "fail", "detail": detail}
    if witness is not None:
        v["witness"] = witness
    return v


def _record(cid, verdicts, max_terms=None):
    return {"id": cid, "verdicts": verdicts, "ok": all(v["status"] == "pass" for v in verdicts),
            "seed": 7, "term_stats": {} if max_terms is None else {"max_terms": max_terms}}


def _pair_report(cid, relations, max_terms, spot="15 agreements"):
    return _record(cid, [_pass(r) for r in relations]
                   + [_pass(f"fwd.equivariance[{g}]") for g in GENS]
                   + [_pass(f"inv.equivariance[{g}]") for g in GENS]
                   + [_pass("round-trip[source]"), _pass("round-trip[target]"),
                      _pass("spot-check[15 points]", spot)], max_terms)


def _pgl_report(cid, max_terms):
    return _record(cid, [_pass("scalar-invariance", "forward map composed with a -> lambda a"),
                         _pass("round-trip[source]"), _pass("round-trip[target]"),
                         _pass("spot-check[15 points]", "15 agreements")], max_terms)


def _relations(group, words):
    return [_pass(f"group[{group}].relation[{w}]") for w in words]


def _twist_report():
    table = "cocycle twist against the closed-form generator"
    return _record("rank2.twist", (
        [v for g in ("base-torus", "base-lie", "twisted-torus", "twisted-lie")
         for v in _relations(g, S3_S2_GAMMA_WORDS)]
        + [_pass("twisted-action-table[torus:gamma]", table),
           _pass("twisted-action-table[lie:gamma]", table),
           _pass("trivial-cocycle"),
           _pass("cocycle-involution", "twisting twice by eps restores the base action"),
           _pass("embed[St]"), _pass("embed[Tw]")]
        + [v for g in ("St:torus", "St:lie", "Tw:torus", "Tw:lie")
           for v in _relations(g, S3_GAMMA_WORDS)]))


PINNED = {
    "rank2.pgu3": _pair_report("rank2.pgu3", ["target-relation[torus:t3]"], 2),
    "rank2.pgu3.lie": _pair_report("rank2.pgu3.lie",
                                   ["target-relation[linear-slice:u3]"], 3),
    "pgl.2": _pgl_report("pgl.2", 3),
    "pgl.3": _pgl_report("pgl.3", 4),
    "su3.phi": _pair_report("su3.phi", ["target-relation[projective:y3]",
                                        "target-relation[projective:z3]"], 46,
                            "15 agreements, 1 exceptional-locus resamples"),
    "rank2.twist": _twist_report(),
    "mutation.swapped-components": _record("mutation.swapped-components", [
        _fail("equivariance[(1 2)]", BROKEN, "(1/3, 3, -7/9)"),
        _fail("equivariance[(1 2 3)]", BROKEN, "(1/3, 3, -7/9)"),
        _pass("equivariance[gamma]")], 2),
    "mutation.twist-sign": _record("mutation.twist-sign", [
        _fail("equivariance[(1 2)]", BROKEN, "(1/3, 3, -7/9)"),
        _pass("equivariance[(1 2 3)]"), _pass("equivariance[gamma]")], 2),
    "mutation.dropped-conjugation": _record("mutation.dropped-conjugation", [
        _pass("equivariance[(1 2)]"), _pass("equivariance[(1 2 3)]"),
        _fail("equivariance[gamma]", BROKEN, "(1/3, 3)")], 3),
    "mutation.wrong-cocycle": _record("mutation.wrong-cocycle", [
        _fail("twisted-action-table[torus:gamma]",
              "cocycle value is a transposition, not the inversion")]),
    "mutation.lattice-offbyone": _record("mutation.lattice-offbyone", [
        _fail("form-preserved[galois]", "bumped entry breaks the pairing"),
        _fail("K-fixed[galois]")]),
    "mutation.classical-gather-sign": _record("mutation.classical-gather-sign", [
        _pass("involution-anti-automorphism",
              "exact on generic a, b: iota(ab) = iota(b) iota(a), "
              "iota(a + b) = iota(a) + iota(b), iota(iota(a)) = a"),
        _fail("involution-of-form", "H iota(a) != a^T H on generic a")]),
    "mutation.classical-dropped-conjugation": _record(
        "mutation.classical-dropped-conjugation", [
            _pass("involution-anti-automorphism",
                  "exact on generic a, b: iota(ab) = iota(b) iota(a), "
                  "iota(a + b) = iota(a) + iota(b), iota(iota(a)) = a"),
            _fail("involution-of-form", "H iota(a) != conj(a)^T H on generic a")]),
}


@pytest.mark.parametrize("cid", sorted(PINNED))
def test_shared_path_reports_are_pinned(cid):
    got = run_construction(cid, seed=7, trials=15).to_dict()
    del got["ms"]
    assert got == PINNED[cid]


def test_table_ids_are_unique_and_split_into_runs_and_fixtures():
    ids = [c.id for c in CONSTRUCTIONS]
    assert len(ids) == len(set(ids))
    assert all_ids(include_fixtures=True) == sorted(ids)
    assert sorted(set(ids) - set(all_ids())) == sorted(MUTATION_IDS)
    assert get("rank2.pgu3").anchor == "quotient-torus isomorphism onto the twisted torus"
    with pytest.raises(KeyError):
        get("no.such.id")
