"""The names the benchmark in ``perfbench/`` wraps and imports still exist.

Installing the tracer looks up every traced name, and each microbenchmark
operation is called once, so renaming or deleting one of those names
fails here rather than in a benchmark run.  Nothing in ``perfbench/`` is
changed.
"""

import random
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_and_micro_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import micro
    import spans

    with spans.installed(spans.Tracer()):
        for op in micro.operations(random.Random(micro.OPERAND_SEED)).values():
            op()
