"""In-process A/B timing of two cayleycert source trees.

Imports each tree's ``src/cayleycert`` under its own package name
(``cayleycert_a`` and ``cayleycert_b``), builds that tree's perfbench
workload against it, and then times passes of the two in one process,
interleaved: round r runs A then B when r is even and B then A when it is
odd, so a drift of the host's speed falls on both sides alike.  Each
round prints the ratio B / A of its process times; the end prints their
median and the number of rounds B won.  Every pass is checked by the
workload's verdict gate, and the two trees must give the same pass
digest (the report with ``ms`` stripped), or the script stops.

    python3 tools/ab_inproc.py PARENT_TREE CHANGE_TREE --workload catalog \\
        --seed 23 --rounds 20 --passes 1

It sits outside ``src/``, the tests and ``perfbench/``: a screen for a
speed step, run beside perfbench's alternating subprocess pairs, which
stay the measure of record.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

SUBMODULES = ("catalog", "classical", "cli", "su3")


def _load(name: str, path: Path, package: bool = False):
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workload(tree: Path, side: str, workload: str, seed: int):
    """The tree's perfbench workload, built on the tree's own package.

    ``workloads.py`` imports ``cayleycert``; while it loads, that name is
    the tree's package, and it is restored after."""
    package = _load(f"cayleycert_{side}", tree / "src" / "cayleycert", package=True)
    for sub in SUBMODULES:
        importlib.import_module(f"{package.__name__}.{sub}")
    saved = sys.modules.get("cayleycert")
    sys.modules["cayleycert"] = package
    try:
        module = _load(f"workloads_{side}", tree / "perfbench" / "workloads.py")
    finally:
        if saved is None:
            del sys.modules["cayleycert"]
        else:
            sys.modules["cayleycert"] = saved
    return module.build(workload, seed)


def timed(work, passes: int):
    """(process seconds, digests) of ``passes`` checked passes."""
    digests = set()
    start = time.process_time()
    for _ in range(passes):
        result = work.run_pass()
        if result.failed:
            raise SystemExit(f"a pass failed its verdict gate: {result.failed[:3]}")
        digests.add(result.digest)
    return time.process_time() - start, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="tree A, the reference (say, the parent)")
    parser.add_argument("b", type=Path, help="tree B, the change")
    parser.add_argument("--workload", required=True, choices=("chain", "grid", "catalog"))
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--passes", type=int, default=1, help="passes per side per round")
    args = parser.parse_args(argv)
    work = {side: load_workload(tree, side, args.workload, args.seed)
            for side, tree in (("a", args.a), ("b", args.b))}
    for w in work.values():                     # warm both: charts, plans, imports
        timed(w, 1)
    ratios = []
    for r in range(args.rounds):
        order = ("a", "b") if r % 2 == 0 else ("b", "a")
        seconds, digests = {}, set()
        for side in order:
            seconds[side], got = timed(work[side], args.passes)
            digests |= got
        if len(digests) != 1:
            raise SystemExit(f"round {r}: the trees' pass digests differ")
        ratios.append(seconds["b"] / seconds["a"])
        print(f"round {r:2d}  A {seconds['a']:.4f} s  B {seconds['b']:.4f} s  "
              f"B/A {ratios[-1]:.4f}", flush=True)
    wins = sum(x < 1 for x in ratios)
    print(f"{args.workload} seed {args.seed}: median B/A {statistics.median(ratios):.4f}, "
          f"B won {wins}/{len(ratios)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
