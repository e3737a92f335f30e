import json
from types import SimpleNamespace

import pytest

from cayleycert import catalog, cli
from cayleycert.cli import (RunConfig, build_report, construction_seed, main,
                            read_config_file, render_json)
from cayleycert.poly import Poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_ms(report):
    clone = json.loads(json.dumps(report))
    for r in clone["results"]:
        r.pop("ms", None)
    return clone


def test_list_is_sorted_and_stable(capsys):
    code, out1, _ = run_cli(capsys, "list")
    code2, out2, _ = run_cli(capsys, "list")
    assert code == 0 and code2 == 0
    assert out1 == out2
    lines = [l.split()[0] for l in out1.strip().splitlines()]
    assert lines == sorted(lines)
    assert "su3.chain" in lines
    assert "appendix.Y.singular" in lines


def test_verify_single_construction(capsys):
    code, out, err = run_cli(capsys, "verify", "--only", "picard.invariants",
                             "--seed", "42")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["overall"] is True
    assert report["results"][0]["id"] == "picard.invariants"


def test_verify_su3_chain_reports_all_generators(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "su3.chain",
                           "--seed", "42", "--trials", "25")
    assert code == 0
    report = json.loads(out)
    names = {v["name"] for r in report["results"] for v in r["verdicts"]}
    for link in ("su3.quotient", "su3.phi", "su3.segre", "su3.stereo",
                 "su3.linear"):
        for gen in ("(1 2)", "(1 2 3)", "gamma"):
            assert f"{link}.fwd.equivariance[{gen}]" in names
    assert "end-to-end.round-trip[source]" in names
    assert "end-to-end.round-trip[target]" in names


def test_verify_unknown_id_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--only", "nope.missing")
    assert code == 2
    assert "unknown construction id" in err


def test_verify_empty_selection_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--only", ",")
    assert code == 2 and out == ""
    assert err == "no construction selected\n"


def test_config_empty_selection_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cc.conf"
    cfg.write_text("only=\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "no construction selected\n"


def test_verify_mutation_fixture_exits_1_with_named_check(capsys):
    code, out, err = run_cli(capsys, "verify", "--only",
                             "mutation.swapped-components", "--seed", "7")
    assert code == 1
    report = json.loads(out)
    assert report["overall"] is False
    failing = [v["name"] for r in report["results"] for v in r["verdicts"]
               if v["status"] == "fail"]
    assert any("equivariance" in name for name in failing)


def test_verify_term_budget_exit_3(capsys):
    code, out, err = run_cli(capsys, "verify", "--only",
                             "picard.ledger,su3.phi,su3.chain", "--term-budget", "5")
    assert code == 3
    assert "term budget exceeded" in err
    assert "su3.phi" in err
    # the partial report holds the constructions run so far, and stops at
    # the one that hit the budget with a single failing term-budget verdict
    report = json.loads(out)
    assert report["overall"] is False
    assert [r["id"] for r in report["results"]] == ["picard.ledger", "su3.phi"]
    done, over = report["results"]
    assert done["ok"] and over["ok"] is False
    assert over["anchors"] and over["seed"] == construction_seed(42, "su3.phi")
    assert over["verdicts"] == [{"name": "term-budget", "status": "fail",
                                 "detail": "6 terms exceed budget 5"}]
    assert err == f"term budget exceeded in su3.phi: {over['verdicts'][0]['detail']}\n"
    # the budget ends with verify: a 10-term product is fine again
    vs = ("a", "b", "c")
    p = sum((Poly.variable(vs, v) for v in vs), Poly(vs, {})) + 1
    assert len((p * p).terms) > 5


def test_a_term_budget_record_stamps_its_elapsed_time(capsys, monkeypatch):
    # each reading of the clock is a quarter second after the one before
    ticks = iter(range(1000))
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: next(ticks) / 4))
    code, out, _ = run_cli(capsys, "verify", "--only", "su3.phi", "--term-budget", "5")
    assert code == 3
    over, = json.loads(out)["results"]
    assert over["verdicts"][0]["name"] == "term-budget" and over["ms"] == 250.0


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_verify_non_positive_term_budget_exits_2(capsys, budget):
    code, out, err = run_cli(capsys, "verify", "--only", "picard.ledger",
                             "--term-budget", budget)
    assert code == 2 and out == ""
    assert err == f"term budget must be positive: {budget}\n"


def test_config_non_positive_term_budget_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cc.conf"
    cfg.write_text("term_budget=0\nonly=picard.ledger\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "term budget must be positive: 0\n"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_non_positive_trials_exits_2(capsys, trials):
    code, out, err = run_cli(capsys, "verify", "--only", "rank2.pgu3,classical.so3",
                             "--trials", trials)
    assert code == 2 and out == ""
    assert err == f"trials must be positive: {trials}\n"


def test_config_non_positive_trials_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cc.conf"
    cfg.write_text("trials=0\nonly=rank2.pgu3,classical.so3\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "trials must be positive: 0\n"


def test_config_line_without_equals_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cc.conf"
    cfg.write_text("only=picard.ledger\nseed 9\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"bad config file {cfg}: bad config line: 'seed 9'\n"


@pytest.mark.parametrize("key", ["seed", "trials", "term_budget"])
def test_config_non_integer_value_exits_2(tmp_path, capsys, key):
    cfg = tmp_path / "cc.conf"
    cfg.write_text(f"only=picard.ledger\n{key}=ten\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"bad config file {cfg}: {key} must be an integer: 'ten'\n"


@pytest.mark.parametrize("line, message", [
    ("format = JSON", "format must be json or md: 'JSON'"),
    ("format=html", "format must be json or md: 'html'"),
    ("seeed=3", "unknown key 'seeed'; keys: seed, trials, term_budget, format, only, out"),
    ("term-budget=5", "unknown key 'term-budget'; keys: seed, trials, term_budget, "
                      "format, only, out"),
], ids=["format-case", "format-unknown", "key-typo", "key-dashed"])
def test_config_unknown_key_or_format_exits_2(tmp_path, capsys, line, message):
    cfg = tmp_path / "cc.conf"
    cfg.write_text(f"only=picard.ledger\n{line}\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"bad config file {cfg}: {message}\n"


def test_env_seed_not_an_integer_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("CAYLEY_SEED", "abc")
    code, out, err = run_cli(capsys, "verify", "--only", "picard.ledger")
    assert code == 2 and out == ""
    assert err == "CAYLEY_SEED must be an integer: 'abc'\n"


def test_determinism_same_seed_same_report(capsys):
    argv = ("verify", "--only", "appendix.conic,picard.lines,rank2.pgu3",
            "--seed", "123")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    r1 = strip_ms(json.loads(out1))
    r2 = strip_ms(json.loads(out2))
    assert r1 == r2


def test_markdown_has_one_row_per_certificate(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only",
                           "picard.ledger,appendix.X", "--format", "md")
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("| ")]
    # header row plus one per construction
    assert len(rows) == 1 + 2


def test_markdown_failing_includes_witness(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only",
                           "mutation.swapped-components", "--format", "md",
                           "--seed", "7")
    assert code == 1
    assert "witness:" in out


def test_report_round_trip(tmp_path, capsys):
    path = tmp_path / "results.json"
    code, out, _ = run_cli(capsys, "verify", "--only", "picard.ledger",
                           "--out", str(path))
    assert code == 0 and path.exists()
    code2, out2, _ = run_cli(capsys, "report", "--from", str(path),
                             "--format", "json")
    assert code2 == 0
    assert json.loads(out2) == json.loads(path.read_text())
    code3, out3, _ = run_cli(capsys, "report", "--from", str(path),
                             "--format", "md")
    assert code3 == 0 and "picard.ledger" in out3


def test_report_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "report", "--from", "/nonexistent.json")
    assert code == 2
    assert "not found" in err


@pytest.mark.parametrize("text, message", [
    ('{"schema": ', "Expecting value: line 1 column 12 (char 11)"),
    ('{"schema": 1}', "missing report keys tool, version, config, results, overall"),
    ('[1, 2]', "missing report keys schema, tool, version, config, results, overall"),
])
@pytest.mark.parametrize("fmt", ["json", "md"])
def test_report_malformed_file_exits_2(tmp_path, capsys, text, message, fmt):
    path = tmp_path / "results.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "report", "--from", str(path), "--format", fmt)
    assert (code, out, err) == (2, "", f"bad results file {path}: {message}\n")


def test_config_directory_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", "--config", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"bad config file {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_unwritable_out_exits_2_before_running(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a construction ran")
    monkeypatch.setattr(cli, "run_construction", never)
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "verify", "--only", "picard.ledger", "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"cannot write report: [Errno 2] No such file or directory: '{path}'\n"


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cc.conf"
    cfg.write_text("seed=9\ntrials=5\nonly=picard.ledger\n# comment\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    report = json.loads(out)
    assert report["config"]["seed"] == 9
    assert report["config"]["constructions"] == ["picard.ledger"]
    # flags win over the file
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg),
                           "--seed", "11")
    assert json.loads(out)["config"]["seed"] == 11


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CAYLEY_SEED", "77")
    code, out, _ = run_cli(capsys, "verify", "--only", "picard.ledger")
    assert json.loads(out)["config"]["seed"] == 77
    code, out, _ = run_cli(capsys, "verify", "--only", "picard.ledger",
                           "--seed", "3")
    assert json.loads(out)["config"]["seed"] == 3


def test_env_seed_beats_the_file_and_a_flag_beats_both(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cc.conf"
    cfg.write_text("seed=9\nonly=picard.ledger\n")
    monkeypatch.setenv("CAYLEY_SEED", "77")
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0 and json.loads(out)["config"]["seed"] == 77
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--seed", "3")
    assert code == 0 and json.loads(out)["config"]["seed"] == 3


@pytest.mark.parametrize("key, value, echoed", [
    ("seed", "9", {"seed": 9}),
    ("trials", "3", {"trials": 3}),
    ("term_budget", "20000", {"term_budget": 20000}),
    ("format", "md", None),
    ("only", "picard.ledger, classical.so3", {"constructions": ["picard.ledger",
                                                                 "classical.so3"]}),
    ("out", None, None),
])
def test_config_key_and_flag_give_the_same_run(tmp_path, capsys, monkeypatch,
                                               key, value, echoed):
    # every ms is 0, so two runs of one configuration are byte-identical
    monkeypatch.setattr(catalog, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    monkeypatch.delenv("CAYLEY_SEED", raising=False)
    base = {"only": "classical.so3", "trials": "5"}
    flags = [a for k, v in base.items() if k != key for a in (f"--{k}", v)]
    runs = []
    for via in ("file", "flag"):
        if key == "out":
            value = str(tmp_path / f"{via}.json")
        cfg = tmp_path / f"{via}.conf"
        cfg.write_text(f"{key}={value}\n")
        given = (["--config", str(cfg)] if via == "file"
                 else [f"--{key.replace('_', '-')}", value])
        code, out, err = run_cli(capsys, "verify", *flags, *given)
        if key == "out":
            assert out == ""
            out = (tmp_path / f"{via}.json").read_text()
        runs.append((code, out, err))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    if echoed:
        config = json.loads(runs[0][1])["config"]
        assert {k: config[k] for k in echoed} == echoed
    if key == "format":
        assert runs[0][1].startswith("# cayleycert report")


@pytest.mark.parametrize("text, message", [
    ("format=html\nseeed=3\n", "format must be json or md: 'html'"),
    ("trials=x\nseed=y\n", "trials must be an integer: 'x'"),
    ("seeed=3\nseed 9\n", "unknown key 'seeed'; keys: seed, trials, term_budget, "
                            "format, only, out"),
    ("seed 9\nseeed=3\n", "bad config line: 'seed 9'"),
], ids=["value-before-key", "values-in-file-order", "key-before-line",
        "line-before-key"])
def test_config_reports_its_first_faulty_line(tmp_path, capsys, text, message):
    cfg = tmp_path / "cc.conf"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"bad config file {cfg}: {message}\n"


def test_construction_seed_is_stable():
    assert construction_seed(42, "su3.chain") == construction_seed(42, "su3.chain")
    assert construction_seed(42, "su3.chain") != construction_seed(42, "su3.phi")


def test_read_config_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("this is not a key value line\n")
    with pytest.raises(ValueError):
        read_config_file(str(cfg))


def test_json_render_parse_fixpoint():
    cfg = RunConfig(constructions=["picard.ledger"])
    report = build_report(cfg, [{"id": "x", "anchors": ["y"], "verdicts": [],
                                 "ok": True, "seed": 0, "term_stats": {},
                                 "ms": 0.0}])
    once = json.loads(render_json(report))
    twice = json.loads(render_json(once))
    assert once == twice


# Each budget trips at one product of su3.chain; a composition that grew a
# row for the wrong function, or skipped a growth product, would move it.
@pytest.mark.parametrize("budget, detail", [
    ("20", "30 terms exceed budget 20"),
    ("50", "66 terms exceed budget 50"),
    ("100", "105 terms exceed budget 100"),
    ("200", "product of 105 x 46 terms exceeds budget 200"),
    ("400", None),
])
def test_term_budget_trips_stay_where_they_are(capsys, budget, detail):
    code, out, err = run_cli(capsys, "verify", "--only", "su3.chain,su3.phi,pgl.3",
                             "--term-budget", budget)
    if detail is None:
        assert code == 0 and err == ""
        return
    assert code == 3
    assert err == f"term budget exceeded in su3.chain: {detail}\n"
    report = json.loads(out)
    assert [r["id"] for r in report["results"]] == ["su3.chain"]
    assert report["results"][0]["verdicts"] == [
        {"name": "term-budget", "status": "fail", "detail": detail}]
