"""The benchmark's workloads and the verdict gate they share.

Each workload is a fixed list of jobs built from the run's seed.  One
pass runs every job once, in order, in this process; a job returns the
report records of the constructions it covers.  Every record a pass
produces is checked against the expected verdict table, and the pass is
digested with the timing field ``ms`` stripped, so that repeats with one
seed can be compared byte for byte.

Why these three workloads:

chain    ``su3.chain`` through ``chain_certificate``.  Symbolic work in
         ``poly`` and ``ratmap`` over Q(sqrt(-3)) and no matrix call, so
         a change to ``matrices`` must read as no change here.
grid     the 11 algebras of acceptance criterion 3 through
         ``classical_certificate``: sampled exact linear algebra over
         Fraction and QuadExt with no ``Poly`` product, so a symbolic
         change must read as no change here.
catalog  the user's command, ``cayleycert verify`` over every
         non-fixture id and then the five mutation fixtures, run
         in-process through ``cli.main``.  It is the only workload that
         reaches ``cli``, ``catalog``, ``rank2``, ``surfaces``, ``picard``
         and ``pgl``, and the only one that takes the failure path.

The library is always called through its module attributes
(``su3.chain_certificate``, not a name imported here), so the wrappers
that ``spans`` installs in cayleycert's modules see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass

from cayleycert import catalog, classical, cli, su3

# Trials per spot check, sized so that one pass of each workload takes a
# few seconds and a run holds several passes.
CHAIN_TRIALS = 20
GRID_TRIALS = 20
CATALOG_TRIALS = 10

# The verdict each mutation fixture is rejected by (its first failing one).
FIXTURE_REJECTED_BY = {
    "mutation.swapped-components": "equivariance[(1 2)]",
    "mutation.twist-sign": "equivariance[(1 2)]",
    "mutation.dropped-conjugation": "equivariance[gamma]",
    "mutation.wrong-cocycle": "twisted-action-table[torus:gamma]",
    "mutation.lattice-offbyone": "form-preserved[galois]",
}
# Constructions whose every verdict must be a skip; all others must pass.
SKIPPED_IDS = frozenset({"rank2.g2-base"})

GRID_FAMILIES = (
    ("symplectic", (2, 4)),
    ("transpose", (2, 3, 4)),
    ("hermitian-3", (2, 3, 4)),
    ("hermitian-1", (2, 3, 4)),
)


def deviates(record: dict) -> bool:
    """True when a construction's verdicts differ from the expected table."""
    verdicts = record.get("verdicts") or []
    if not verdicts:
        return True
    cid = record["id"]
    if cid in FIXTURE_REJECTED_BY:
        failing = [v["name"] for v in verdicts if v["status"] == "fail"]
        return record["ok"] or failing[:1] != [FIXTURE_REJECTED_BY[cid]]
    want = "skip" if cid in SKIPPED_IDS else "pass"
    return not record["ok"] or any(v["status"] != want for v in verdicts)


def digest(records) -> str:
    """sha256 of the records with the timing field ``ms`` stripped."""
    stripped = [{k: v for k, v in r.items() if k != "ms"} for r in records]
    text = json.dumps(stripped, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PassResult:
    attempted: int       # constructions the pass ran
    failed: list         # ids that deviate, raised, or produced no record
    errors: dict         # id -> repr of the exception its job raised
    digest: str          # of the records with ``ms`` stripped


@dataclass
class Job:
    ids: tuple           # construction ids the job must report
    run: object          # callable() -> list of report records


class Workload:
    def __init__(self, jobs):
        self.jobs = tuple(jobs)

    def run_pass(self) -> PassResult:
        records, errors = [], {}
        for job in self.jobs:
            try:
                got = job.run()
            except Exception as exc:  # a raise is a failed construction, not a harness crash
                errors.update((cid, repr(exc)) for cid in job.ids)
                continue
            records.extend(got)
            reported = {r["id"] for r in got}
            errors.update((cid, "no record") for cid in job.ids if cid not in reported)
        failed = [r["id"] for r in records if deviates(r)] + list(errors)
        return PassResult(len(records) + len(errors), failed, errors, digest(records))


def _chain_job(seed: int) -> Job:
    def run():
        return [su3.chain_certificate(seed=seed, trials=CHAIN_TRIALS).to_dict()]
    return Job(("su3.chain",), run)


def _algebra(family: str, n: int):
    if family == "symplectic":
        return classical.symplectic_alg(n)
    if family == "transpose":
        return classical.orthogonal_alg(n)
    return classical.unitary_alg(n, -int(family.rsplit("-", 1)[1]))


def _grid_job(family: str, n: int, seed: int) -> Job:
    cid = f"grid.{family}.n{n}"

    def run():
        cert = classical.classical_certificate(cid, _algebra(family, n), seed,
                                               GRID_TRIALS)
        return [cert.to_dict()]
    return Job((cid,), run)


def catalog_ids() -> tuple:
    return tuple(catalog.all_ids()) + tuple(FIXTURE_REJECTED_BY)


def _catalog_job(seed: int) -> Job:
    argv = ["verify", "--only", ",".join(("all",) + tuple(FIXTURE_REJECTED_BY)),
            "--seed", str(seed), "--trials", str(CATALOG_TRIALS), "--format", "json"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        # 1 is expected: the fixtures fail.  3 (term budget) writes no report.
        if code not in (0, 1):
            raise RuntimeError(f"verify exited with code {code}")
        return json.loads(out.getvalue())["results"]
    return Job(catalog_ids(), run)


def build(name: str, seed: int) -> Workload:
    if name == "chain":
        return Workload([_chain_job(seed)])
    if name == "grid":
        return Workload([_grid_job(family, n, seed)
                         for family, sizes in GRID_FAMILIES for n in sizes])
    if name == "catalog":
        return Workload([_catalog_job(seed)])
    raise ValueError(f"unknown workload {name!r}")
