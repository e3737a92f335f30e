"""The report of one fixed ``verify`` run, pinned byte for byte.

``golden_report.json`` is the JSON report of ``cayleycert verify --only
all,<every mutation fixture> --seed 42 --trials 10`` with the timing
field ``ms`` removed from every record, in the layout of ``--format
json``.  A change to any verdict, detail, witness or term count shows up
as a diff of that file; an intended one is made by writing
``golden_text(<the report>)`` over it and reviewing the diff.  One run
happens in a subprocess under a different ``PYTHONHASHSEED``, so that no
byte depends on the order of a set or a dict of strings.  A smaller run
is repeated under every other CPython 3.10 or later that can be found, so
that no byte depends on the interpreter either.
"""

import glob
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cayleycert.catalog import MUTATION_IDS
from cayleycert.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_report.json"
ARGV = ["verify", "--only", ",".join(("all",) + MUTATION_IDS),
        "--seed", "42", "--trials", "10", "--format", "json"]


# the verdicts that rest on random samples: the spot check of each map pair
# and of each classical algebra
SAMPLED = re.compile(r"(^|\.)spot-check\[")
STATED_COUNT = re.compile(r"^[1-9][0-9]* agreements$")


def golden_text(report_json: str) -> str:
    """The report with every ``ms`` removed, laid out as ``--format json``."""
    report = json.loads(report_json)
    for record in report["results"]:
        record.pop("ms", None)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_report_matches_the_golden_file(capsys):
    assert cli_main(ARGV) == 1          # the fixtures fail
    text = golden_text(capsys.readouterr().out)
    assert text == GOLDEN.read_text()
    for record in json.loads(text)["results"]:
        names = [v["name"] for v in record["verdicts"]]
        assert len(names) == len(set(names)), record["id"]


def test_report_does_not_depend_on_the_hash_seed():
    other = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONHASHSEED=other, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys; from cayleycert.cli import main; sys.exit(main(sys.argv[1:]))",
         *ARGV], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stderr
    assert golden_text(run.stdout) == GOLDEN.read_text()


def test_every_sampled_pass_states_a_positive_count():
    report = json.loads(GOLDEN.read_text())
    verdicts = [(r["id"], v) for r in report["results"] for v in r["verdicts"]]
    sampled = [(cid, v) for cid, v in verdicts
               if v["status"] == "pass" and SAMPLED.search(v["name"])]
    assert len(sampled) == 11 + 7
    for cid, v in sampled:
        assert STATED_COUNT.match(v["detail"]), (cid, v)
    # a verdict that samples must be listed in SAMPLED on purpose
    for cid, v in verdicts:
        if not SAMPLED.search(v["name"]):
            assert not re.search("samples|agreements", v.get("detail", "")), (cid, v)


# classical.su3 and its fixture draw skews, su3.phi and its fixture draw
# rational points: both draws of the package
INTERPRETER_ARGV = ["verify", "--only", "classical.su3,su3.phi,mutation.dropped-conjugation,"
                    "mutation.classical-dropped-conjugation",
                    "--seed", "23", "--trials", "5", "--format", "json"]


def other_interpreters() -> dict:
    """{version: executable} of every CPython 3.10 or later, other than the
    running version, under pyenv's versions or on PATH as python3.X.  A
    candidate that cannot start, or reports anything else, is not found."""
    root = os.environ.get("PYENV_ROOT", str(Path.home() / ".pyenv"))
    candidates = sorted(glob.glob(os.path.join(root, "versions", "*", "bin", "python3")))
    candidates += filter(None, (shutil.which(f"python3.{x}") for x in range(10, 20)))
    probe = "import sys; print(sys.implementation.name, *sys.version_info[:3])"
    found = {}
    for exe in candidates:
        try:
            run = subprocess.run([exe, "-c", probe], capture_output=True, text=True,
                                 timeout=30)
        except (OSError, subprocess.SubprocessError):
            continue
        words = run.stdout.split()
        if run.returncode or len(words) != 4 or words[0] != "cpython":
            continue
        version = tuple(map(int, words[1:]))
        if version >= (3, 10) and version != tuple(sys.version_info[:3]):
            found.setdefault(version, exe)
    return found


def stripped_digest(report_json: str) -> str:
    return hashlib.sha256(golden_text(report_json).encode()).hexdigest()


def test_report_does_not_depend_on_the_interpreter(capsys):
    others = other_interpreters()
    if not others:
        pytest.skip("no other CPython 3.10 or later found")
    assert cli_main(INTERPRETER_ARGV) == 1          # the fixtures fail
    want = stripped_digest(capsys.readouterr().out)
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    for version, exe in sorted(others.items()):
        run = subprocess.run(
            [exe, "-c",
             "import sys; from cayleycert.cli import main; sys.exit(main(sys.argv[1:]))",
             *INTERPRETER_ARGV], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=300)
        assert run.returncode == 1, (version, run.stderr)
        assert stripped_digest(run.stdout) == want, version
