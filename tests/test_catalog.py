"""The construction table, and pinned reports of the constructions whose
certificates are built by the shared map-pair recipe or round-trip path."""

import pytest

from cayleycert.catalog import CONSTRUCTIONS, MUTATION_IDS, all_ids, get, run_construction


def _pass(name, detail=""):
    return {"name": name, "status": "pass", "detail": detail}


def _pair_report(cid, relation, max_terms):
    gens = ("(1 2)", "(1 2 3)", "gamma")
    return {
        "id": cid,
        "verdicts": ([_pass(relation)]
                     + [_pass(f"fwd.equivariance[{g}]") for g in gens]
                     + [_pass(f"inv.equivariance[{g}]") for g in gens]
                     + [_pass("round-trip[source]"), _pass("round-trip[target]"),
                        _pass("spot-check[15 points]", "15 agreements")]),
        "ok": True, "seed": 7, "term_stats": {"max_terms": max_terms},
    }


def _pgl_report(cid, max_terms):
    return {
        "id": cid,
        "verdicts": [_pass("scalar-invariance", "forward map composed with a -> lambda a"),
                     _pass("round-trip[source]"), _pass("round-trip[target]"),
                     _pass("spot-check[15 points]", "15 agreements")],
        "ok": True, "seed": 7, "term_stats": {"max_terms": max_terms},
    }


PINNED = {
    "rank2.pgu3": _pair_report("rank2.pgu3", "target-relation[torus:t3]", 2),
    "rank2.pgu3.lie": _pair_report("rank2.pgu3.lie",
                                   "target-relation[linear-slice:u3]", 3),
    "pgl.2": _pgl_report("pgl.2", 3),
    "pgl.3": _pgl_report("pgl.3", 4),
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
