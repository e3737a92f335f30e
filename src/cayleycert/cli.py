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
give byte-identical reports except for the timing fields.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import zlib
from dataclasses import dataclass, field

from . import __version__
from .catalog import all_ids, get, run_construction
from .errors import TermBudgetError
from .poly import DEFAULT_TERM_BUDGET, term_budget
from .ratmap import Certificate

SCHEMA_VERSION = 1
FORMATS = ("json", "md")
CONFIG_KEYS = ("seed", "trials", "term_budget", "format", "only", "out")
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
        ids = []
        for c in self.constructions:
            if c == "all":
                ids.extend(all_ids())
            else:
                ids.append(c)
        seen = set()
        out = []
        for i in ids:
            if i not in seen:
                seen.add(i)
                out.append(i)
        return out

    def echo(self):
        return {
            "seed": self.seed,
            "trials": self.trials,
            "term_budget": self.term_budget,
            "format": self.format,
            "constructions": list(self.constructions),
        }


def construction_seed(base_seed: int, cid: str) -> int:
    """Stable per-construction seed, so selections do not shift streams."""
    return (base_seed ^ zlib.crc32(cid.encode())) & 0x7FFFFFFF


def read_config_file(path: str) -> dict:
    """Flat key=value lines; blank lines and # comments ignored."""
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _int_value(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer: {text!r}") from None


def _apply_file_config(cfg: RunConfig, values: dict):
    for key in values:
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown key {key!r}; keys: {', '.join(CONFIG_KEYS)}")
    if "seed" in values:
        cfg.seed = _int_value("seed", values["seed"])
    if "trials" in values:
        cfg.trials = _int_value("trials", values["trials"])
    if "term_budget" in values:
        cfg.term_budget = _int_value("term_budget", values["term_budget"])
    if "format" in values:
        if values["format"] not in FORMATS:
            raise ValueError(f"format must be json or md: {values['format']!r}")
        cfg.format = values["format"]
    if "only" in values:
        cfg.constructions = [s.strip() for s in values["only"].split(",") if s.strip()]
    if "out" in values:
        cfg.out = values["out"]


def build_report(cfg: RunConfig, results: list) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tool": "cayleycert",
        "version": __version__,
        "config": cfg.echo(),
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
    cfg = RunConfig()
    if args.config:
        try:
            _apply_file_config(cfg, read_config_file(args.config))
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"bad config file {args.config}: {exc}\n")
            return 2
    env_seed = os.environ.get("CAYLEY_SEED")
    if env_seed is not None:
        try:
            cfg.seed = _int_value("CAYLEY_SEED", env_seed)
        except ValueError as exc:
            sys.stderr.write(f"{exc}\n")
            return 2
    if args.seed is not None:
        cfg.seed = args.seed
    if args.trials is not None:
        cfg.trials = args.trials
    if args.term_budget is not None:
        cfg.term_budget = args.term_budget
    if args.format is not None:
        cfg.format = args.format
    if args.only:
        cfg.constructions = [s.strip() for part in args.only
                             for s in part.split(",") if s.strip()]
    if args.out is not None:
        cfg.out = args.out
    if cfg.trials < 1:
        sys.stderr.write(f"trials must be positive: {cfg.trials}\n")
        return 2
    if cfg.term_budget < 1:
        sys.stderr.write(f"term budget must be positive: {cfg.term_budget}\n")
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
                try:
                    cert = run_construction(cid, seed=seed, trials=cfg.trials)
                except TermBudgetError as exc:
                    sys.stderr.write(f"term budget exceeded in {cid}: {exc}\n")
                    cert = Certificate(cid, seed=seed)
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

    sub.add_parser("list", help="print every construction id with its anchor")

    v = sub.add_parser("verify", help="run certificates and emit a report")
    v.add_argument("--only", action="append", metavar="IDS",
                   help="comma separated construction ids (default: all)")
    v.add_argument("--seed", type=int, default=None,
                   help="base seed (env CAYLEY_SEED is the fallback)")
    v.add_argument("--trials", type=int, default=None,
                   help="random points per spot check (default 100)")
    v.add_argument("--term-budget", type=int, default=None, dest="term_budget",
                   help="polynomial term budget (default 10^6)")
    v.add_argument("--format", choices=FORMATS, default=None)
    v.add_argument("--out", default=None, help="write the report to a file")
    v.add_argument("--config", default=None,
                   help="flat key=value config file; flags override it")

    r = sub.add_parser("report", help="re-render a saved json report")
    r.add_argument("--from", dest="source", required=True,
                   help="path of a report produced by verify --out")
    r.add_argument("--format", choices=FORMATS, default="md")
    r.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
