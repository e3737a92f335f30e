"""Command line front end: list constructions, verify, render reports.

Exit codes: 0 all selected certificates pass, 1 at least one fails,
2 (with one stderr line) unknown construction id, an empty selection
(``--only ,`` or a config line ``only=``), an unreadable or
malformed config or results file (an unknown key or format, bad JSON or
missing report keys included), an output file that cannot be opened
(before any construction runs), a non-integer ``CAYLEY_SEED``, a
non-positive trial count or term budget, 3 term budget exceeded.
On exit 3 ``verify`` still emits the report of the constructions run so
far; the one that hit the budget has a single failing ``term-budget``
verdict whose detail is the error.  The term budget holds only while
``verify`` runs its constructions.  Identical seed and configuration
give byte-identical reports except for the timing fields.  Each
setting of :data:`CONFIG_KEYS` comes from the last of these to give it:
the defaults, the ``--config`` file, ``CAYLEY_SEED`` (the seed), the flags.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import zlib
from dataclasses import asdict, dataclass, field
from functools import partial

from . import __version__
from .catalog import all_ids, get, run_construction
from .errors import TermBudgetError
from .poly import DEFAULT_TERM_BUDGET, term_budget
from .ratmap import Certificate

SCHEMA_VERSION = 1
FORMATS = ("json", "md")
REPORT_KEYS = ("schema", "tool", "version", "config", "results", "overall")


@dataclass
class RunConfig:
    seed: int = 42
    trials: int = 100
    term_budget: int = DEFAULT_TERM_BUDGET
    format: str = "json"
    constructions: list = field(default_factory=lambda: ["all"])
    out: str | None = None

    def resolve_ids(self):
        return list(dict.fromkeys(i for c in self.constructions
                                  for i in (all_ids() if c == "all" else [c])))


def construction_seed(base_seed: int, cid: str) -> int:
    """Stable per-construction seed, so selections do not shift streams."""
    return (base_seed ^ zlib.crc32(cid.encode())) & 0x7FFFFFFF


def _int_value(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer: {text!r}") from None


def _format(text: str) -> str:
    if text not in FORMATS:
        raise ValueError(f"format must be json or md: {text!r}")
    return text


def _ids(text: str) -> list:
    return [s.strip() for s in text.split(",") if s.strip()]


# config key (also the flag's dest) -> (RunConfig field, reader of its text)
CONFIG_KEYS = {
    "seed": ("seed", partial(_int_value, "seed")),
    "trials": ("trials", partial(_int_value, "trials")),
    "term_budget": ("term_budget", partial(_int_value, "term_budget")),
    "format": ("format", _format),
    "only": ("constructions", _ids),
    "out": ("out", str),
}


def read_config_file(path: str) -> dict:
    """Flat key=value lines, each read by its key's reader; blank lines and
    # comments ignored.  The first faulty line raises ValueError."""
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, _, val = (part.strip() for part in line.partition("="))
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown key {key!r}; keys: {', '.join(CONFIG_KEYS)}")
            values[key] = CONFIG_KEYS[key][1](val)
    return values


def build_report(cfg: RunConfig, results: list) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tool": "cayleycert",
        "version": __version__,
        "config": {k: v for k, v in asdict(cfg).items() if k != "out"},
        "results": results,
        "overall": all(r["ok"] for r in results),
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_markdown(report: dict) -> str:
    lines = [
        f"# cayleycert report (schema {report['schema']}, v{report['version']})",
        "",
        f"overall: {'PASS' if report['overall'] else 'FAIL'}",
        "",
        "| construction | anchors | verdicts | failed | ok | ms |",
        "|---|---|---|---|---|---|",
    ]
    for r in report["results"]:
        failed = sum(1 for v in r["verdicts"] if v["status"] == "fail")
        anchors = "; ".join(r.get("anchors", []))
        lines.append(
            f"| {r['id']} | {anchors} | {len(r['verdicts'])} | {failed} "
            f"| {'yes' if r['ok'] else 'NO'} | {r['ms']:.0f} |")
    for r in report["results"]:
        bad = [v for v in r["verdicts"] if v["status"] != "pass"]
        if bad:
            lines.append("")
            lines.append(f"## {r['id']}")
            for v in bad:
                lines.append(f"- {v['status'].upper()} {v['name']}: {v['detail']}")
                if v.get("witness"):
                    lines.append(f"  - witness: {v['witness']}")
    return "\n".join(lines) + "\n"


def _open_out(path: str | None):
    """stdout, or ``path`` opened for writing; None after a one-line error."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        sys.stderr.write(f"cannot write report: {exc}\n")
        return None


def cmd_list(_args) -> int:
    rows = []
    for cid in all_ids(include_fixtures=True):
        entry = get(cid)
        marker = "  [mutation fixture]" if entry.fixture else ""
        rows.append(f"{cid:32s} {entry.anchor}{marker}")
    sys.stdout.write("\n".join(rows) + "\n")
    return 0


def cmd_verify(args) -> int:
    layers = []                     # file < CAYLEY_SEED < flags
    if args.config:
        try:
            layers.append(read_config_file(args.config))
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"bad config file {args.config}: {exc}\n")
            return 2
    env_seed = os.environ.get("CAYLEY_SEED")
    if env_seed is not None:
        try:
            layers.append({"seed": _int_value("CAYLEY_SEED", env_seed)})
        except ValueError as exc:
            sys.stderr.write(f"{exc}\n")
            return 2
    layers.append(vars(args))       # an absent flag is None
    cfg = RunConfig()
    for layer in layers:
        for key, (name, _) in CONFIG_KEYS.items():
            if layer.get(key) is not None:
                setattr(cfg, name, layer[key])
    for what, count in (("trials", cfg.trials), ("term budget", cfg.term_budget)):
        if count < 1:
            sys.stderr.write(f"{what} must be positive: {count}\n")
            return 2

    try:
        ids = cfg.resolve_ids()
        for cid in ids:
            get(cid)
    except KeyError as exc:
        sys.stderr.write(f"unknown construction id: {exc.args[0]}\n")
        return 2
    if not ids:
        sys.stderr.write("no construction selected\n")
        return 2
    sink = _open_out(cfg.out)
    if sink is None:
        return 2

    results = []
    over_budget = False
    with sink as fh:
        with term_budget(cfg.term_budget):
            for cid in ids:
                seed = construction_seed(cfg.seed, cid)
                t0 = time.perf_counter()
                try:
                    cert = run_construction(cid, seed=seed, trials=cfg.trials)
                except TermBudgetError as exc:
                    sys.stderr.write(f"term budget exceeded in {cid}: {exc}\n")
                    cert = Certificate(cid, seed=seed, ms=1000 * (time.perf_counter() - t0))
                    cert.add("term-budget", "fail", str(exc))
                    over_budget = True
                record = cert.to_dict()
                record["anchors"] = [get(cid).anchor]
                results.append(record)
                if over_budget:
                    break
        report = build_report(cfg, results)
        fh.write(render_json(report) if cfg.format == "json" else render_markdown(report))
    if over_budget:
        return 3
    return 0 if report["overall"] else 1


def cmd_report(args) -> int:
    if not os.path.exists(args.source):
        sys.stderr.write(f"results file not found: {args.source}\n")
        return 2
    try:
        with open(args.source) as fh:
            report = json.load(fh)
        missing = [k for k in REPORT_KEYS if k not in report]
        if missing:
            raise ValueError(f"missing report keys {', '.join(missing)}")
        text = render_json(report) if args.format == "json" else render_markdown(report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        sys.stderr.write(f"bad results file {args.source}: {exc}\n")
        return 2
    sink = _open_out(args.out)
    if sink is None:
        return 2
    with sink as fh:
        fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cayleycert",
        description="exact certificates for equivariant birational maps")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print every construction id with its anchor"
                   ).set_defaults(run=cmd_list)

    v = sub.add_parser("verify", help="run certificates and emit a report")
    v.set_defaults(run=cmd_verify)
    v.add_argument("--only", type=_ids, action="extend", metavar="IDS",
                   help="comma separated construction ids (default: all)")
    v.add_argument("--seed", type=int, help="base seed (overrides env CAYLEY_SEED)")
    v.add_argument("--trials", type=int, help="random points per spot check (default 100)")
    v.add_argument("--term-budget", type=int, dest="term_budget",
                   help="polynomial term budget (default 10^6)")
    v.add_argument("--format", choices=FORMATS)
    v.add_argument("--out", help="write the report to a file")
    v.add_argument("--config",
                   help="flat key=value config file; CAYLEY_SEED and flags override it")

    r = sub.add_parser("report", help="re-render a saved json report")
    r.set_defaults(run=cmd_report)
    r.add_argument("--from", dest="source", required=True,
                   help="path of a report produced by verify --out")
    r.add_argument("--format", choices=FORMATS, default="md")
    r.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
