"""The benchmark's verdict gate has teeth: one flipped verdict is counted.

Run with ``python -m pytest perfbench/test_perfbench.py``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from cayleycert import catalog  # noqa: E402


def _fixture_job(cid):
    return workloads.Job((cid,), lambda: [catalog.run_construction(cid, seed=5).to_dict()])


def _flip_one_verdict(job, cid):
    def flipped():
        records = job.run()
        record = next(r for r in records if r["id"] == cid)
        verdict = next(v for v in record["verdicts"] if v["status"] in ("pass", "fail"))
        verdict["status"] = "pass" if verdict["status"] == "fail" else "fail"
        record["ok"] = all(v["status"] != "fail" for v in record["verdicts"])
        return records
    return workloads.Job(job.ids, flipped)


def _failed_share(jobs):
    bench = run.Run("test", 5)
    bench.add("plain", 0.0, 0.0, [], workloads.Workload(jobs).run_pass())
    verdict = bench.verdict()
    return verdict["failed"] / verdict["attempted"], verdict["correct"]


def test_one_flipped_verdict_raises_failed_share():
    jobs = [workloads._grid_job("symplectic", 2, seed=5),
            _fixture_job("mutation.lattice-offbyone")]
    assert _failed_share(jobs) == (0.0, True)
    for cid in ("grid.symplectic.n2", "mutation.lattice-offbyone"):
        broken = [_flip_one_verdict(j, cid) if cid in j.ids else j for j in jobs]
        assert _failed_share(broken) == (0.5, False)


def test_a_raising_job_fails_its_constructions():
    def boom():
        raise ArithmeticError("boom")
    share, correct = _failed_share([workloads.Job(("a", "b"), boom)])
    assert (share, correct) == (1.0, False)
