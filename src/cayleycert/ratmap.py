"""Equivariant rational maps between variety charts, and their certificates.

A :class:`VarietySpec` is a product of blocks (affine, torus, linear
slice, projective), each carrying the relations that cut it out; the two
supported relation forms are monomial products equal to one and linear
sums equal to zero, which is exactly what :func:`cayleycert.poly.chart_restrict`
can decide identities against.  An :class:`EquivMap` bundles the component
rational functions with source and target action tables over a common
group.  All verdicts are exact: equivariance and inverse identities are
rational function identities modulo the source relations, with projective
blocks compared through vanishing 2x2 cross products.  Random points only
ever confirm or localise a failure, they never certify.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import DegenerateError, SamplingError, StructureError
from .field import random_rational, scalar_str
from .group import ActionGen, apply_action
from .poly import RatFunc, chart_restrict, ratfunc_compose, ratfunc_equal


# -- varieties ----------------------------------------------------------

@dataclass(frozen=True)
class Relation:
    """One chart-decidable relation among a block's coordinates."""

    kind: str                 # "torus-product" | "linear-sum"
    variables: tuple
    solve_for: str
    exponents: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("torus-product", "linear-sum"):
            raise StructureError(f"unsupported relation form {self.kind!r}")
        if self.solve_for not in self.variables:
            raise StructureError("solved variable must occur in the relation")
        if self.exponents is not None and len(self.exponents) != len(self.variables):
            raise StructureError("exponents do not match relation variables")


BLOCK_KINDS = ("affine", "torus", "linear-slice", "projective")


@dataclass(frozen=True)
class Block:
    kind: str
    coords: tuple
    relations: tuple = ()
    multiplicative: bool = False  # sample and keep all coordinates nonzero

    def __post_init__(self):
        if self.kind not in BLOCK_KINDS:
            raise StructureError(f"unknown block kind {self.kind!r}")
        for rel in self.relations:
            for v in rel.variables:
                if v not in self.coords:
                    raise StructureError(f"relation variable {v!r} outside block")

    @property
    def is_multiplicative(self) -> bool:
        return self.multiplicative or self.kind == "torus"

    @property
    def is_projective(self) -> bool:
        return self.kind == "projective"


@dataclass(frozen=True)
class VarietySpec:
    """Product of blocks; coordinate names are globally unique."""

    name: str
    blocks: tuple

    def __post_init__(self):
        seen = set()
        for b in self.blocks:
            for c in b.coords:
                if c in seen:
                    raise StructureError(f"duplicate coordinate {c!r}")
                seen.add(c)

    @property
    def coords(self) -> tuple:
        return tuple(c for b in self.blocks for c in b.coords)

    def relations(self):
        return tuple(rel for b in self.blocks for rel in b.relations)

    def block_slices(self):
        """(block, start, stop) index ranges into the flat coordinate tuple."""
        out = []
        start = 0
        for b in self.blocks:
            stop = start + len(b.coords)
            out.append((b, start, stop))
            start = stop
        return out

    def same_shape(self, other: "VarietySpec") -> bool:
        if len(self.blocks) != len(other.blocks):
            return False
        for a, b in zip(self.blocks, other.blocks):
            if a.kind != b.kind or len(a.coords) != len(b.coords):
                return False
            if len(a.relations) != len(b.relations):
                return False
            for ra, rb in zip(a.relations, b.relations):
                ia = tuple(a.coords.index(v) for v in ra.variables)
                ib = tuple(b.coords.index(v) for v in rb.variables)
                if (ra.kind, ia, a.coords.index(ra.solve_for), ra.exponents) != \
                   (rb.kind, ib, b.coords.index(rb.solve_for), rb.exponents):
                    return False
        return True


def torus(name: str, coords, product_one=True) -> VarietySpec:
    coords = tuple(coords)
    rels = ()
    if product_one:
        rels = (Relation("torus-product", coords, coords[-1]),)
    return VarietySpec(name, (Block("torus", coords, rels),))


def linear_slice(name: str, coords) -> VarietySpec:
    coords = tuple(coords)
    rel = Relation("linear-sum", coords, coords[-1])
    return VarietySpec(name, (Block("linear-slice", coords, (rel,)),))


def projective_space(name: str, coords, relations=(), multiplicative=False) -> VarietySpec:
    return VarietySpec(name, (Block("projective", tuple(coords), tuple(relations),
                                    multiplicative),))


def product(name: str, *specs: VarietySpec) -> VarietySpec:
    return VarietySpec(name, tuple(b for s in specs for b in s.blocks))


# -- maps ---------------------------------------------------------------

@dataclass
class EquivMap:
    """Rational map with source/target actions of a common group.

    ``components`` is the flat tuple of RatFuncs over the source
    coordinates, grouped implicitly by the target's blocks.  The action
    tables map each generator label of ``group`` to an ActionGen of the
    matching arity.
    """

    name: str
    source: VarietySpec
    target: VarietySpec
    components: tuple
    group: "object" = None           # GroupSpec carrying labels and relations
    source_action: dict = dc_field(default_factory=dict)
    target_action: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.components = tuple(self.components)
        if len(self.components) != len(self.target.coords):
            raise StructureError(
                f"{self.name}: {len(self.components)} components for "
                f"{len(self.target.coords)} target coordinates")
        src = self.source.coords
        for comp in self.components:
            if comp.vars != src:
                raise StructureError(
                    f"{self.name}: component variables {comp.vars} != source {src}")
        for table, spec in ((self.source_action, self.source),
                            (self.target_action, self.target)):
            for label, gen in table.items():
                if gen.arity != len(spec.coords):
                    raise StructureError(
                        f"{self.name}: action {label!r} arity {gen.arity} does not "
                        f"match {spec.name}")

    def generator_labels(self):
        if self.group is not None:
            return self.group.labels()
        return tuple(self.source_action)


@dataclass
class MapPair:
    """A map together with its explicit birational inverse."""

    forward: EquivMap
    inverse: EquivMap

    def reversed(self) -> "MapPair":
        return MapPair(self.inverse, self.forward)


# -- certificates ---------------------------------------------------------

@dataclass
class Verdict:
    name: str
    status: str                 # "pass" | "fail" | "skip"
    detail: str = ""
    witness: str | None = None

    def to_dict(self):
        d = {"name": self.name, "status": self.status, "detail": self.detail}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class Certificate:
    construction: str
    verdicts: list = dc_field(default_factory=list)
    seed: int | None = None
    ms: float = 0.0             # wall time, set by catalog.run_construction
    term_stats: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(v.status != "fail" for v in self.verdicts)

    def add(self, name, status, detail="", witness=None):
        self.verdicts.append(Verdict(name, status, detail, witness))

    def extend(self, other: "Certificate", prefix: str = ""):
        for v in other.verdicts:
            self.verdicts.append(Verdict(prefix + v.name, v.status, v.detail, v.witness))
        for k, n in other.term_stats.items():
            self.term_stats[k] = max(self.term_stats.get(k, 0), n)

    def failing(self):
        return [v for v in self.verdicts if v.status == "fail"]

    def to_dict(self):
        return {
            "id": self.construction,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "ok": self.ok,
            "seed": self.seed,
            "term_stats": dict(self.term_stats),
            "ms": self.ms,
        }


# -- symbolic machinery ---------------------------------------------------

def generic_point(spec: VarietySpec):
    """The identity tuple of coordinate functions."""
    return RatFunc.variables(spec.coords)


def reduce_mod(spec: VarietySpec, f: RatFunc) -> RatFunc:
    """Restrict a function of the spec's coordinates to its chart,
    eliminating one variable per relation."""
    for rel in spec.relations():
        f = chart_restrict(f, rel.kind, rel.solve_for,
                           variables=rel.variables, exponents=rel.exponents)
    return f


def chart_tuple(spec: VarietySpec):
    """The full coordinate tuple written on the chart of the relations:
    free coordinates stay themselves, solved ones become their chart
    expressions.  Composing a map with this tuple restricts it to the
    chart, which keeps everything downstream small."""
    return tuple(reduce_mod(spec, f) for f in generic_point(spec))


def _terms_of(f: RatFunc) -> int:
    return len(f.num.terms) + len(f.den.terms)


def _tuple_equal(spec_tgt: VarietySpec, lhs, rhs) -> tuple:
    """Exact equality of two target-valued tuples (already on a chart).

    Returns (equal, max_terms).  Projective blocks compare through the
    vanishing of all 2x2 cross products, everything else coordinatewise.
    """
    max_terms = max((_terms_of(f) for f in list(lhs) + list(rhs)), default=0)
    for block, start, stop in spec_tgt.block_slices():
        seg_l = lhs[start:stop]
        seg_r = rhs[start:stop]
        if block.is_projective:
            k = len(seg_l)
            for i in range(k):
                for j in range(i + 1, k):
                    cross = seg_l[i] * seg_r[j] - seg_l[j] * seg_r[i]
                    max_terms = max(max_terms, _terms_of(cross))
                    if not cross.is_zero():
                        return False, max_terms
            # guard against the all-zero representative, which would make
            # the cross product test vacuous
            if all(f.is_zero() for f in seg_l) or all(f.is_zero() for f in seg_r):
                return False, max_terms
        else:
            for fl, fr in zip(seg_l, seg_r):
                if not ratfunc_equal(fl, fr):
                    return False, max_terms
    return True, max_terms


def apply_rational(gen: ActionGen, tup):
    """Symbolic action with conjugation stripped (it moves to coefficients)."""
    return apply_action(gen.rational_part(), tup)


def _conjugated_components(m: EquivMap):
    return tuple(c.conj_coeffs() for c in m.components)


def map_of_point(m: EquivMap, point):
    return tuple(c.eval(point) for c in m.components)


def _points_equal(spec: VarietySpec, p, q) -> bool:
    for block, start, stop in spec.block_slices():
        a = p[start:stop]
        b = q[start:stop]
        if block.is_projective:
            k = len(a)
            if all(not x for x in a) or all(not x for x in b):
                return False
            for i in range(k):
                for j in range(i + 1, k):
                    if a[i] * b[j] != a[j] * b[i]:
                        return False
        else:
            if any(x != y for x, y in zip(a, b)):
                return False
    return True


def format_point(point) -> str:
    return "(" + ", ".join(scalar_str(x) for x in point) + ")"


# -- random points --------------------------------------------------------

def random_point(spec: VarietySpec, seed, span: int = 9, retries: int = 64,
                 reject=None):
    """A random rational point exactly on the variety.

    ``seed`` may be an int or a random.Random.  Free coordinates are
    sampled (nonzero on multiplicative blocks), then each relation is
    solved for its designated coordinate.  ``reject``, if given, is a
    predicate marking points that hit a downstream exceptional locus; the
    sampler retries a bounded number of times and then raises
    :class:`SamplingError` so the caller can report the locus.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    for _ in range(retries):
        values = {}
        ok = True
        for block in spec.blocks:
            solved = {rel.solve_for: rel for rel in block.relations}
            # projective representatives are kept away from the zero tuple
            need_nonzero = block.is_multiplicative or block.is_projective
            for c in block.coords:
                if c in solved:
                    continue
                values[c] = random_rational(rng, span=span, nonzero=need_nonzero)
            for rel in block.relations:
                s = rel.solve_for
                if rel.kind == "torus-product":
                    exps = rel.exponents or (1,) * len(rel.variables)
                    e_s = exps[rel.variables.index(s)]
                    acc = Fraction(1)
                    for v, e in zip(rel.variables, exps):
                        if v == s:
                            continue
                        acc *= values[v] ** (-e * e_s)
                    values[s] = acc
                else:
                    acc = Fraction(0)
                    for v in rel.variables:
                        if v != s:
                            acc += values[v]
                    values[s] = -acc
                if block.is_multiplicative and values[s] == 0:
                    ok = False
        if not ok:
            continue
        point = tuple(values[c] for c in spec.coords)
        if reject is not None and reject(point):
            continue
        return point
    raise SamplingError(
        f"no usable point on {spec.name} after {retries} tries; "
        "the exceptional locus keeps being hit")


# Points a failed exact identity may draw when it looks for a witness.
WITNESS_TRIES = 16


def _sample(spec: VarietySpec, rng, want: int, limit: int, images, compare):
    """Compare two images of random points of ``spec`` until one disagrees.

    Each attempt draws x = random_point(spec, rng) and computes the pair
    ``images(x)``; the pair agrees when :func:`_points_equal` holds on the
    variety ``compare``.  An attempt whose draw or images raise
    DegenerateError or SamplingError (the exceptional locus) is spent
    without agreeing.  The loop stops at the first disagreement, after
    ``want`` agreements, or after ``limit`` attempts, whichever comes
    first.  Returns (agreements, attempts, witness), where the witness is
    the formatted disagreeing point or None.
    """
    agreements = attempts = 0
    while agreements < want and attempts < limit:
        attempts += 1
        try:
            x = random_point(spec, rng)
            lhs, rhs = images(x)
        except (DegenerateError, SamplingError):
            continue
        if not _points_equal(compare, lhs, rhs):
            return agreements, attempts, format_point(x)
        agreements += 1
    return agreements, attempts, None


# -- the three certified operations --------------------------------------

def check_equivariance(m: EquivMap, seed=0) -> Certificate:
    """Certify m(g.x) = g.m(x) for every generator, exactly.

    For a Galois-type generator the identity checked is
    conj(m) o A = B o m with A, B the rational parts of the source and
    target actions; that is the semilinear contract with the outer
    conjugation cancelled from both sides.  Failures come with a witness
    point when one can be sampled.
    """
    cert = Certificate(construction=m.name, seed=seed)
    x = chart_tuple(m.source)
    m_chart = tuple(ratfunc_compose(c, x) for c in m.components)
    for label in m.generator_labels():
        vname = f"equivariance[{label}]"
        src = m.source_action.get(label)
        tgt = m.target_action.get(label)
        if src is None or tgt is None:
            cert.add(vname, "fail", "generator missing from an action table")
            continue
        if src.conjugate != tgt.conjugate:
            cert.add(vname, "fail",
                     "semilinearity mismatch between source and target actions")
            continue
        try:
            comps = _conjugated_components(m) if src.conjugate else m.components
            moved = apply_rational(src, x)
            lhs = tuple(ratfunc_compose(c, moved) for c in comps)
            rhs = apply_rational(tgt, m_chart)
            equal, terms = _tuple_equal(m.target, lhs, rhs)
        except DegenerateError as exc:
            cert.add(vname, "fail", f"degenerate composition: {exc}")
            continue
        cert.term_stats["max_terms"] = max(cert.term_stats.get("max_terms", 0), terms)
        if equal:
            cert.add(vname, "pass")
        else:
            def images(x):
                return (map_of_point(m, apply_action(src, x)),
                        apply_action(tgt, map_of_point(m, x)))

            _, _, witness = _sample(m.source, random.Random(seed), WITNESS_TRIES,
                                    WITNESS_TRIES, images, m.target)
            cert.add(vname, "fail", "symbolic identity does not hold", witness)
    return cert


def compose(m1: EquivMap, m2: EquivMap) -> EquivMap:
    """The map m2 o m1; m1's target must match m2's source, actions included."""
    if not m1.target.same_shape(m2.source):
        raise StructureError(
            f"cannot compose {m1.name} -> {m2.name}: interface mismatch")
    if m1.generator_labels() != m2.generator_labels():
        raise StructureError("composed maps must share a generator set")
    for label in m1.generator_labels():
        if m1.target_action.get(label) != m2.source_action.get(label):
            raise StructureError(
                f"actions on the interface differ for generator {label!r}")
    comps = []
    for i, c in enumerate(m2.components):
        try:
            comps.append(ratfunc_compose(c, m1.components))
        except DegenerateError as exc:
            raise DegenerateError(
                f"composing {m2.name} after {m1.name}: component {i}: {exc}")
    return EquivMap(
        name=f"{m2.name}*{m1.name}",
        source=m1.source, target=m2.target, components=tuple(comps),
        group=m1.group, source_action=dict(m1.source_action),
        target_action=dict(m2.target_action))


def compose_pair(p1: MapPair, p2: MapPair) -> MapPair:
    return MapPair(forward=compose(p1.forward, p2.forward),
                   inverse=compose(p2.inverse, p1.inverse))


def check_inverse_pair(f: EquivMap, g: EquivMap, seed=0, trials: int = 100,
                       stages=None) -> Certificate:
    """Certify that f and g are mutually inverse, exactly, then spot-check.

    g o f must be the identity of f.source and f o g the identity of
    g.source, as rational identities modulo the respective relations
    (projective blocks up to a common scalar).  The spot check evaluates
    both round trips at ``trials`` random points; sampling retries caused
    by the exceptional locus are counted and reported, value disagreements
    fail with a witness.

    ``stages``, when given, is the list of MapPairs whose forwards compose
    to f (and whose reversed inverses compose to g).  The round trips are
    then certified by exact telescoping: each stage's inverse applied to
    the forward prefix must reproduce the previous prefix.  Every map's
    components are homogeneous per projective block, so the projective
    scalar slack of an intermediate comparison propagates as a block
    scalar and the telescoped identities imply the full round trip.  This
    keeps intermediate expression sizes small where the one-shot
    composition would blow up.
    """
    cert = Certificate(construction=f"({f.name}, {g.name})", seed=seed)
    if not f.target.same_shape(g.source) or not g.target.same_shape(f.source):
        cert.add("interfaces", "fail", "source/target shapes do not match")
        return cert

    for tag, first, second in (("source", f, g), ("target", g, f)):
        vname = f"round-trip[{tag}]"
        if stages is not None:
            chain = stages if tag == "source" else [s.reversed() for s in reversed(stages)]
            try:
                equal, terms = _telescoped_roundtrip(chain)
            except DegenerateError as exc:
                cert.add(vname, "fail", f"degenerate composition: {exc}")
                continue
        else:
            try:
                # compose on the source chart: reduce first, then substitute
                ident = chart_tuple(first.source)
                first_chart = tuple(ratfunc_compose(c, ident) for c in first.components)
                back = tuple(ratfunc_compose(c, first_chart) for c in second.components)
                equal, terms = _tuple_equal(first.source, back, ident)
            except DegenerateError as exc:
                cert.add(vname, "fail", f"degenerate composition: {exc}")
                continue
        cert.term_stats["max_terms"] = max(cert.term_stats.get("max_terms", 0), terms)
        if equal:
            cert.add(vname, "pass", "telescoped over stages" if stages else "")
        else:
            _, _, witness = _sample(first.source, random.Random(seed), WITNESS_TRIES,
                                    WITNESS_TRIES, _round_trip(first, second),
                                    first.source)
            cert.add(vname, "fail", "round trip is not the identity", witness)

    agreements, attempts, witness = _sample(f.source, random.Random(seed), trials,
                                            4 * trials, _round_trip(f, g), f.source)
    locus_hits = attempts - agreements
    vname = f"spot-check[{trials} points]"
    if witness is not None:
        cert.add(vname, "fail", "evaluation disagrees with the symbolic identity",
                 witness)
    elif agreements < trials:
        cert.add(vname, "fail",
                 f"only {agreements} usable points in {attempts} attempts; "
                 "the exceptional locus keeps being hit")
    else:
        detail = f"{agreements} agreements"
        if locus_hits:
            detail += f", {locus_hits} exceptional-locus resamples"
        cert.add(vname, "pass", detail)
    return cert


def _telescoped_roundtrip(chain) -> tuple:
    """Exact round trip for a composed chain, one stage at a time.

    Builds the forward prefixes P_0 = chart, P_i = f_i(P_{i-1}), then checks
    g_i(P_i) = P_{i-1} for i = n..1.  Chaining the identities gives
    (g_1 o ... o g_n)(f_n o ... o f_1) = id on the chart.
    """
    prefixes = [chart_tuple(chain[0].forward.source)]
    for pair in chain:
        prefixes.append(tuple(ratfunc_compose(c, prefixes[-1])
                              for c in pair.forward.components))
    max_terms = 0
    for i in range(len(chain) - 1, -1, -1):
        pair = chain[i]
        back = tuple(ratfunc_compose(c, prefixes[i + 1])
                     for c in pair.inverse.components)
        equal, terms = _tuple_equal(pair.forward.source, back, prefixes[i])
        max_terms = max(max_terms, terms)
        if not equal:
            return False, max_terms
    return True, max_terms


def _round_trip(first, second):
    """Sampler images comparing second o first with the identity."""
    return lambda x: (map_of_point(second, map_of_point(first, x)), x)


def check_target_relations(m: EquivMap) -> Certificate:
    """The components must satisfy the target's relations identically."""
    cert = Certificate(construction=m.name)
    x = chart_tuple(m.source)
    chart_comps = tuple(ratfunc_compose(c, x) for c in m.components)
    chart_vars = x[0].vars if x else m.source.coords
    one = RatFunc.const(chart_vars, Fraction(1))
    zero = RatFunc.const(chart_vars, Fraction(0))
    for block, start, stop in m.target.block_slices():
        comp_of = dict(zip(block.coords, chart_comps[start:stop]))
        for rel in block.relations:
            if rel.kind == "torus-product":
                exps = rel.exponents or (1,) * len(rel.variables)
                acc = one
                for v, e in zip(rel.variables, exps):
                    acc = acc * comp_of[v] ** e
                expected = one
            else:
                acc = zero
                for v in rel.variables:
                    acc = acc + comp_of[v]
                expected = zero
            status = "pass" if ratfunc_equal(acc, expected) else "fail"
            cert.add(f"target-relation[{block.kind}:{rel.solve_for}]", status)
    return cert


def check_group_relations(spec: VarietySpec, group, seed=0, trials: int = 50) -> Certificate:
    """Sanity-check the group's defining relations on random tuples."""
    cert = Certificate(construction=f"relations[{group.name} on {spec.name}]", seed=seed)
    rng = random.Random(seed)
    for word in group.relations:
        vname = "relation[" + "*".join(word) + "]"
        _, _, bad = _sample(spec, rng, trials, trials,
                            lambda x: (group.apply_word(word, x), x), spec)
        if bad is None:
            cert.add(vname, "pass", f"{trials} random tuples")
        else:
            cert.add(vname, "fail", "relation does not act as the identity", bad)
    return cert
