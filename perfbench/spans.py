"""Spans and counts taken by wrappers around cayleycert's public names.

A :class:`Tracer` records one span per wrapped call (name, start, end,
parent span) in memory, and counts at the same wrappers.  :func:`installed`
puts the wrappers in place for the duration of a ``with`` block: a
function is replaced under every name that binds it in any loaded
cayleycert module (``ratmap.ratfunc_compose``, ``su3.check_inverse_pair``,
``classical.mat_inverse``, ...), a method on its class, and everything is
restored on exit.  Nothing under ``src/`` is edited.

:func:`layer_metrics` turns the spans and counts of one traced pass into
the per-layer metrics.  A ``_s`` metric is the wall time inside spans of
that name; where a metric is called a self time, the time of the named
child spans is taken out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import re
import sys
import time
from collections import Counter, defaultdict

from cayleycert.errors import DegenerateError

SPOT_CHILDREN = ("ratmap.random_point", "ratmap.map_of_point")
CLASSICAL_FAMILIES = ("symplectic", "transpose", "hermitian-3", "hermitian-1")


def classical_family(alg) -> str:
    """symplectic, transpose, hermitian-3 or hermitian-1."""
    if alg.involution == "hermitian-form":
        return f"hermitian{alg.field.d}"
    return "transpose" if alg.involution == "transpose-form" else alg.involution


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.errors = Counter()    # (span name, exception class name) -> calls
        self.max_terms = 0
        self.spot_agreements = 0
        self.spot_attempts = 0
        self._stack = []

    def span(self, name, fn, label=None, observe=None):
        spans, stack, errors = self.spans, self._stack, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            full = name if label is None else f"{name}.{label(*args, **kwargs)}"
            record = [full, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                errors[full, type(exc).__name__] += 1
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, result)
            return result
        return wrapper

    def count(self, name, fn, observe=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result
        return wrapper

    # -- observers of results ------------------------------------------

    def _terms_out(self, poly):
        self.counts["poly.mul_terms_out"] += len(poly.terms)

    def _certificate(self, cert):
        self.max_terms = max(self.max_terms, cert.term_stats.get("max_terms", 0))

    _SPOT_PASS = re.compile(r"(\d+) agreements(?:, (\d+) exceptional-locus resamples)?")
    _SPOT_SHORT = re.compile(r"only (\d+) usable points in (\d+) attempts")

    def _inverse_pair(self, cert):
        self._certificate(cert)
        for v in cert.verdicts:
            if not v.name.startswith("spot-check["):
                continue
            m = self._SPOT_PASS.match(v.detail)
            if m:
                agreed = int(m.group(1))
                self.spot_agreements += agreed
                self.spot_attempts += agreed + int(m.group(2) or 0)
            m = self._SPOT_SHORT.match(v.detail)
            if m:
                self.spot_agreements += int(m.group(1))
                self.spot_attempts += int(m.group(2))


def _targets(tracer: Tracer):
    """(module, attribute, wrapper factory) for every traced public name."""
    t = tracer
    spans = [
        ("matrices", "mat_inverse", {}),
        ("matrices", "mat_mul", {}),
        ("poly", "ratfunc_compose", {}),
        ("poly", "chart_restrict", {}),
        ("poly", "ratfunc_equal", {}),
        ("ratmap", "check_equivariance", {"observe": Tracer._certificate}),
        ("ratmap", "check_inverse_pair", {"observe": Tracer._inverse_pair}),
        ("ratmap", "check_group_relations", {}),
        ("ratmap", "check_target_relations", {}),
        ("ratmap", "random_point", {}),
        ("ratmap", "map_of_point", {}),
        ("ratmap", "compose", {}),
        ("su3", "chain_certificate", {}),
        ("su3", "link_certificate", {}),
        ("su3", "end_to_end", {}),
        ("classical", "classical_certificate",
         {"label": lambda name, alg, *a, **k: classical_family(alg)}),
        ("classical", "cayley_transform", {}),
        ("classical", "cayley_transform_of_skew", {}),
        ("classical", "MatrixAlg.random_group_point", {}),
        ("catalog", "run_construction", {"label": lambda cid, *a, **k: cid}),
        ("cli", "render_json", {}),
        ("cli", "render_markdown", {}),
    ]
    for module, attr, opts in spans:
        yield module, attr, lambda fn, n=f"{module}.{attr}", o=opts: t.span(n, fn, **o)
    yield "field", "QuadExt.__init__", lambda fn: t.count("field.quadext_inits", fn)
    yield "poly", "Poly.__mul__", lambda fn: t.count("poly.mul_calls", fn,
                                                     Tracer._terms_out)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced name for the duration of the block, then restore."""
    undo = []
    try:
        for module, attr, make in _targets(tracer):
            mod = importlib.import_module(f"cayleycert.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, make(original))
                continue
            original = getattr(mod, attr)
            wrapper = make(original)
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if name != "cayleycert" and not name.startswith("cayleycert."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        undo.append((other, key, original))
                        setattr(other, key, wrapper)
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


# -- per-layer metrics of one traced pass -----------------------------------

def _duration(span) -> float:
    return span[2] - span[1]


def layer_metrics(tracer: Tracer, catalog_ids) -> dict:
    spans = tracer.spans
    calls = Counter(s[0] for s in spans)
    total = defaultdict(float)
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        kids[s[3]].append(i)
        # a span nested in one of the same name is already counted
        if s[3] < 0 or spans[s[3]][0] != s[0]:
            total[s[0]] += _duration(s)

    def spot_time(i):
        return sum(_duration(spans[k]) for k in kids[i] if spans[k][0] in SPOT_CHILDREN)

    inverse_pair_self = sum(_duration(s) - spot_time(i) for i, s in enumerate(spans)
                            if s[0] == "ratmap.check_inverse_pair")
    su3 = dict.fromkeys(("group_relations_s", "e2e_compose_s", "e2e_equivariance_s",
                         "e2e_round_trip_s", "e2e_spot_check_s"), 0.0)
    for i, s in enumerate(spans):
        if s[0] != "su3.chain_certificate":
            continue
        for k in kids[i]:
            c = spans[k]
            if c[0] == "ratmap.check_group_relations":
                su3["group_relations_s"] += _duration(c)
            elif c[0] == "su3.end_to_end":
                su3["e2e_compose_s"] += _duration(c)
            elif c[0] == "ratmap.check_equivariance":
                su3["e2e_equivariance_s"] += _duration(c)
            elif c[0] == "ratmap.check_inverse_pair":
                spot = spot_time(k)
                su3["e2e_round_trip_s"] += _duration(c) - spot
                su3["e2e_spot_check_s"] += spot

    transforms = ("classical.cayley_transform", "classical.cayley_transform_of_skew")
    transform_calls = sum(calls[n] for n in transforms)
    degenerate = sum(tracer.errors[n, DegenerateError.__name__] for n in transforms)

    m = {
        "field.quadext_inits": tracer.counts["field.quadext_inits"],
        "matrices.inverse_calls": calls["matrices.mat_inverse"],
        "matrices.inverse_s": total["matrices.mat_inverse"],
        "matrices.mul_calls": calls["matrices.mat_mul"],
        "matrices.mul_s": total["matrices.mat_mul"],
        "poly.mul_calls": tracer.counts["poly.mul_calls"],
        "poly.mul_terms_out": tracer.counts["poly.mul_terms_out"],
        "poly.compose_calls": calls["poly.ratfunc_compose"],
        "poly.compose_s": total["poly.ratfunc_compose"],
        "poly.chart_restrict_s": total["poly.chart_restrict"],
        "poly.ratfunc_equal_s": total["poly.ratfunc_equal"],
        "ratmap.check_equivariance_s": total["ratmap.check_equivariance"],
        "ratmap.check_inverse_pair_s": inverse_pair_self,
        "ratmap.spot_check_s": sum(total[n] for n in SPOT_CHILDREN),
        "ratmap.random_point_calls": calls["ratmap.random_point"],
        "ratmap.spot_useful_share": (tracer.spot_agreements / tracer.spot_attempts
                                     if tracer.spot_attempts else 0.0),
        "ratmap.check_group_relations_s": total["ratmap.check_group_relations"],
        "ratmap.check_target_relations_s": total["ratmap.check_target_relations"],
        "ratmap.compose_s": total["ratmap.compose"],
        "ratmap.max_terms": tracer.max_terms,
        "su3.links_s": total["su3.link_certificate"],
    }
    m.update((f"su3.{k}", v) for k, v in su3.items())
    for family in CLASSICAL_FAMILIES:
        m[f"classical.cert_s.{family}"] = total[f"classical.classical_certificate.{family}"]
    m["classical.random_group_point_s"] = total["classical.MatrixAlg.random_group_point"]
    m["classical.degenerate_share"] = (degenerate / transform_calls
                                       if transform_calls else 0.0)
    for cid in catalog_ids:
        m[f"catalog.cert_s.{cid}"] = total[f"catalog.run_construction.{cid}"]
    m["cli.render_s"] = total["cli.render_json"] + total["cli.render_markdown"]
    return m
