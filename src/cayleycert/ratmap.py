"""Equivariant rational maps between variety charts, and their certificates.

A :class:`VarietySpec` is a product of blocks (affine, torus, linear
slice, projective), each carrying the :class:`~cayleycert.poly.Relation`
values that cut it out, solved in order: the chart is that solve at
generic free coordinates, a random point the same solve at one draw of
random free values.  An :class:`EquivMap` bundles the component
rational functions with source and target action tables over a common
group.  Equivariance and inverse identities are exact: rational function
identities modulo the source relations, with projective blocks compared
through vanishing 2x2 cross products against one pivot coordinate
(:func:`_pivot`, which the spot checks share), and round trips
telescoped over stages (a plain pair is one stage).  A group's defining
relations are decided on each word's collapsed action when that is the
identity, and else the same way on the chart; two generator actions are
compared on a generic tuple.  Random points only confirm these identities
(the spot check of a round trip) or localise a failure (a witness), and
every draw goes through :func:`sample`, the package's one sampling loop:
a draw on the exceptional locus raises, and only ``sample`` draws again,
so every redraw is counted.

A map is evaluated at a point by :func:`map_of_point`, which runs the
map's :class:`~cayleycert.poly.EvalPlan` on every component at once: the
integer kernel of ``poly``, with exponent tuples, scaled coefficients and
largest powers computed at the map's first evaluation.  Each
substitution is one :class:`~cayleycert.poly.ComposePlan` for all the
functions composed with it.  ``VarietySpec.chart`` and ``EquivMap.on_chart``
(the components composed with the source chart, read by the target
relations, equivariance and the first leg of a telescoped round trip) are
each computed once.  Both classes are frozen, so neither can go stale;
``dataclasses.replace`` builds a new one, with a new chart or plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property

from .errors import CayleyCertError, DegenerateError, SamplingError, StructureError
from .field import random_rational, scalar_str
from .group import ActionGen, GroupSpec, apply_action, identity_perm
from .poly import ComposePlan, EvalPlan, Relation, RatFunc, _cross, ratfunc_equal


# -- varieties ----------------------------------------------------------

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
        for i, rel in enumerate(self.relations):
            later = {r.solve_for for r in self.relations[i + 1:]}
            for v in rel.variables:
                if v not in self.coords:
                    raise StructureError(f"relation variable {v!r} outside block")
                if v in later:
                    raise StructureError(
                        f"relation solving {rel.solve_for!r} uses {v!r}, "
                        "which a later relation solves")

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

    @cached_property
    def chart(self) -> tuple:
        """The full coordinate tuple written on the chart of the relations,
        computed once: free coordinates stay themselves, solved ones become
        their chart expressions.  Composing a map with this tuple restricts
        it to the chart, which keeps everything downstream small."""
        solved = {rel.solve_for for rel in self.relations()}
        free = tuple(c for c in self.coords if c not in solved)
        return _solve(self, dict(zip(free, RatFunc.variables(free))),
                      RatFunc.const(free, Fraction(1)))

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

# The action table of a map that no group acts on.
NO_ACTION = GroupSpec("trivial", ())


@dataclass(frozen=True)
class EquivMap:
    """Rational map with the actions of a common group on source and target.

    ``components`` is the flat tuple of RatFuncs over the source
    coordinates, grouped implicitly by the target's blocks.  Each action is
    a GroupSpec on its variety: ActionGens of the matching arity under the
    same labels; the generator labels are the source action's.  The
    evaluation plan of the components and their composition with the source
    chart are derived, so the map is frozen.
    """

    name: str
    source: VarietySpec
    target: VarietySpec
    components: tuple
    source_action: GroupSpec = NO_ACTION
    target_action: GroupSpec = NO_ACTION

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != len(self.target.coords):
            raise StructureError(
                f"{self.name}: {len(self.components)} components for "
                f"{len(self.target.coords)} target coordinates")
        src = self.source.coords
        for comp in self.components:
            if comp.vars != src:
                raise StructureError(
                    f"{self.name}: component variables {comp.vars} != source {src}")
        for action, spec in ((self.source_action, self.source),
                             (self.target_action, self.target)):
            for label, gen in action.generators:
                if gen.arity != len(spec.coords):
                    raise StructureError(
                        f"{self.name}: action {label!r} arity {gen.arity} does not "
                        f"match {spec.name}")

    @cached_property
    def _plan(self) -> EvalPlan:
        # built at the first evaluation: most composed maps are never evaluated
        return EvalPlan(self.components)

    @cached_property
    def on_chart(self) -> tuple:
        """The components composed with the source chart, computed once."""
        return tuple(map(ComposePlan(self.source.chart).compose, self.components))

    def generator_labels(self):
        return self.source_action.labels()


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
        return not self.failing()

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

def _solve(spec: VarietySpec, values: dict, one) -> tuple:
    """The spec's coordinate tuple from the free coordinates' ``values``,
    each relation solved in order in the ring of ``one``."""
    for rel in spec.relations():
        values[rel.solve_for] = rel.solve(values, one)
    return tuple(values[c] for c in spec.coords)


def _pivot(a, b, nonzero):
    """The pivot of the projective comparison of representatives a and b:
    the index i of a's first coordinate that is ``nonzero``, or None when
    a or b is all zero (the zero tuple is no point).  a and b are then
    proportional exactly when a_i*b_j = a_j*b_i for every j != i: if b_i
    is zero so is every b_j, which the guard excludes, and else
    b = (b_i/a_i)*a.  The exact and the sampled comparisons share it."""
    if not any(map(nonzero, b)):
        return None
    return next((i for i, x in enumerate(a) if nonzero(x)), None)


def _tuple_equal(spec_tgt: VarietySpec, lhs, rhs) -> tuple:
    """Exact equality of two target-valued tuples (already on a chart).

    Returns (equal, max_terms), max_terms the largest term count of an
    input function or of a cross product formed.  A projective block of k
    coordinates follows the pivot rule of :func:`_pivot`: it is unequal
    when either side is all zero, and else equal exactly when the k - 1
    cross products lhs_i*rhs_j - lhs_j*rhs_i vanish, i the first nonzero
    coordinate of lhs and j each other one.  Everything else compares
    coordinatewise.
    """
    max_terms = max((f.num.term_count() + f.den.term_count() for f in (*lhs, *rhs)),
                    default=0)
    for block, start, stop in spec_tgt.block_slices():
        seg_l = lhs[start:stop]
        seg_r = rhs[start:stop]
        if block.is_projective:
            i = _pivot(seg_l, seg_r, lambda f: not f.is_zero())
            if i is None:
                return False, max_terms
            for j in range(len(seg_l)):
                if j != i:
                    zero, terms = _cross(seg_l[i], seg_r[i], seg_l[j], seg_r[j])
                    max_terms = max(max_terms, terms)
                    if not zero:
                        return False, max_terms
        else:
            for fl, fr in zip(seg_l, seg_r):
                if not ratfunc_equal(fl, fr):
                    return False, max_terms
    return True, max_terms


def _conjugated_components(m: EquivMap):
    return tuple(c.conj_coeffs() for c in m.components)


def map_of_point(m: EquivMap, point):
    return m._plan.eval(point)


def _points_equal(spec: VarietySpec, p, q) -> bool:
    for block, start, stop in spec.block_slices():
        a = p[start:stop]
        b = q[start:stop]
        if block.is_projective:
            i = _pivot(a, b, bool)
            if i is None or any(a[i] * b[j] != a[j] * b[i]
                                for j in range(len(a)) if j != i):
                return False
        else:
            if any(x != y for x, y in zip(a, b)):
                return False
    return True


def format_point(point) -> str:
    return "(" + ", ".join(scalar_str(x) for x in point) + ")"


# -- random points --------------------------------------------------------

def random_point(spec: VarietySpec, rng: random.Random):
    """A random rational point exactly on the variety, from one draw.

    Free coordinates are drawn by :func:`~cayleycert.field.random_rational`
    (nonzero on multiplicative and projective blocks), then each relation
    is solved for its designated coordinate.  A draw that solves a
    multiplicative coordinate to zero is on the exceptional locus and
    raises :class:`SamplingError`; :func:`sample` counts it as a resample.
    """
    solved = {rel.solve_for for rel in spec.relations()}
    # projective representatives are kept away from the zero tuple
    values = {c: random_rational(rng, nonzero=block.is_multiplicative or block.is_projective)
              for block in spec.blocks for c in block.coords if c not in solved}
    point = _solve(spec, values, Fraction(1))
    if not all(all(point[start:stop]) for block, start, stop in spec.block_slices()
               if block.is_multiplicative):
        raise SamplingError(f"a multiplicative coordinate of {spec.name} solves to zero "
                            "(the exceptional locus)")
    return point


def sample(seed, draw, check, want: int, limit: int):
    """The package's one loop over random draws.

    Builds one ``random.Random(seed)`` and computes ``check(draw(rng))`` on
    each attempt: ``check`` returns None when the drawn point agrees and the
    witness text when it does not.  An attempt whose draw or check raises
    DegenerateError or SamplingError (the exceptional locus) is spent
    without agreeing.  The loop stops at the first disagreement, after
    ``want`` agreements, or after ``limit`` attempts, whichever comes
    first.  Returns (agreements, attempts, witness), the witness None when
    nothing disagreed.
    """
    rng = random.Random(seed)
    agreements = attempts = 0
    while agreements < want and attempts < limit:
        attempts += 1
        try:
            witness = check(draw(rng))
        except (DegenerateError, SamplingError):
            continue
        if witness is not None:
            return agreements, attempts, witness
        agreements += 1
    return agreements, attempts, None


def _points(spec: VarietySpec, images, compare):
    """(draw, check) for :func:`sample`: a random point x of ``spec`` agrees
    when the pair ``images(x)`` is equal on ``compare``, else is the witness."""
    def check(x):
        lhs, rhs = images(x)
        return None if _points_equal(compare, lhs, rhs) else format_point(x)
    return lambda rng: random_point(spec, rng), check


# Points a failed exact identity may draw when it looks for a witness.
WITNESS_TRIES = 16


def _witness(spec: VarietySpec, seed, images, compare):
    """A point of ``spec`` whose two ``images`` differ on ``compare``,
    formatted, or None when WITNESS_TRIES draws find none."""
    return sample(seed, *_points(spec, images, compare), WITNESS_TRIES, WITNESS_TRIES)[2]


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
    x = m.source.chart
    m_chart = m.on_chart
    target_table = m.target_action.table()
    for label, src in m.source_action.generators:
        vname = f"equivariance[{label}]"
        tgt = target_table.get(label)
        if tgt is None:
            cert.add(vname, "fail", "generator missing from an action table")
            continue
        if src.conjugate != tgt.conjugate:
            cert.add(vname, "fail",
                     "semilinearity mismatch between source and target actions")
            continue
        try:
            comps = _conjugated_components(m) if src.conjugate else m.components
            moved = apply_action(src, x, conjugate=False)
            lhs = tuple(map(ComposePlan(moved).compose, comps))
            rhs = apply_action(tgt, m_chart, conjugate=False)
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

            witness = _witness(m.source, seed, images, m.target)
            cert.add(vname, "fail", "symbolic identity does not hold", witness)
    return cert


def compose(m1: EquivMap, m2: EquivMap) -> EquivMap:
    """The map m2 o m1; m1's target must match m2's source, actions included
    (compared by :func:`cayleycert.group.same_action`)."""
    if not m1.target.same_shape(m2.source):
        raise StructureError(
            f"cannot compose {m1.name} -> {m2.name}: interface mismatch")
    if m1.generator_labels() != m2.generator_labels():
        raise StructureError("composed maps must share a generator set")
    label = m1.target_action.first_difference(m2.source_action)
    if label is not None:
        raise StructureError(f"actions on the interface differ for generator {label!r}")
    comps, plan = [], ComposePlan(m1.components)
    for i, c in enumerate(m2.components):
        try:
            comps.append(plan.compose(c))
        except DegenerateError as exc:
            raise DegenerateError(
                f"composing {m2.name} after {m1.name}: component {i}: {exc}")
    return EquivMap(
        name=f"{m2.name}*{m1.name}",
        source=m1.source, target=m2.target, components=tuple(comps),
        source_action=m1.source_action, target_action=m2.target_action)


def compose_pair(p1: MapPair, p2: MapPair) -> MapPair:
    return MapPair(forward=compose(p1.forward, p2.forward),
                   inverse=compose(p2.inverse, p1.inverse))


def check_inverse_pair(f: EquivMap, g: EquivMap, seed=0, trials: int = 100,
                       stages=None) -> Certificate:
    """Certify that f and g are mutually inverse, exactly, then spot-check.

    g o f must be the identity of f.source and f o g the identity of
    g.source, as rational identities modulo the respective relations
    (projective blocks up to a common scalar: neither side is all zero,
    and the 2x2 cross products of the first nonzero coordinate of the
    round trip with each other coordinate vanish; see :func:`_pivot`).
    The spot check evaluates both round trips at ``trials`` random points,
    so ``trials`` must be at least 1; sampling retries caused by the
    exceptional locus are counted and reported, value disagreements fail
    with a witness.

    The round trips are certified by exact telescoping over ``stages``,
    the list of MapPairs whose forwards compose to f (and whose reversed
    inverses compose to g): each stage's inverse applied to the forward
    prefix must reproduce the previous prefix.  Without ``stages`` the one
    stage is (f, g) itself, which is the one-shot round trip.  Every map's
    components are homogeneous per projective block, so the projective
    scalar slack of an intermediate comparison propagates as a block
    scalar and the telescoped identities imply the full round trip.  This
    keeps intermediate expression sizes small where the one-shot
    composition would blow up.
    """
    if trials < 1:
        raise StructureError(f"trials must be positive: {trials}")
    cert = Certificate(construction=f"({f.name}, {g.name})", seed=seed)
    if not f.target.same_shape(g.source) or not g.target.same_shape(f.source):
        cert.add("interfaces", "fail", "source/target shapes do not match")
        return cert

    chain = stages or [MapPair(f, g)]
    for tag, first, second in (("source", f, g), ("target", g, f)):
        vname = f"round-trip[{tag}]"
        legs = chain if tag == "source" else [p.reversed() for p in reversed(chain)]
        try:
            equal, terms = _telescoped_roundtrip(legs)
        except DegenerateError as exc:
            cert.add(vname, "fail", f"degenerate composition: {exc}")
            continue
        cert.term_stats["max_terms"] = max(cert.term_stats.get("max_terms", 0), terms)
        if equal:
            cert.add(vname, "pass", "telescoped over stages" if stages else "")
        else:
            witness = _witness(first.source, seed, _round_trip(first, second),
                               first.source)
            cert.add(vname, "fail", "round trip is not the identity", witness)

    spot_check(cert, seed, *_points(f.source, _round_trip(f, g), f.source), trials,
               "evaluation disagrees with the symbolic identity")
    return cert


def spot_check(cert: Certificate, seed, draw, check, trials: int, disagreement: str):
    """Add the verdict ``spot-check[<trials> points]`` of one :func:`sample`
    run that wants ``trials`` agreements in at most 4 * trials attempts.  It
    passes with "N agreements", plus ", k exceptional-locus resamples" when
    k attempts were spent; a disagreement fails it with ``disagreement`` and
    the witness, and too few usable points fail it with their count."""
    agreements, attempts, witness = sample(seed, draw, check, trials, 4 * trials)
    vname = f"spot-check[{trials} points]"
    if witness is not None:
        cert.add(vname, "fail", disagreement, witness)
    elif agreements < trials:
        cert.add(vname, "fail",
                 f"only {agreements} usable points in {attempts} attempts; "
                 "the exceptional locus keeps being hit")
    else:
        detail = f"{agreements} agreements"
        if attempts > agreements:
            detail += f", {attempts - agreements} exceptional-locus resamples"
        cert.add(vname, "pass", detail)


def _telescoped_roundtrip(chain) -> tuple:
    """Exact round trip for a composed chain, one stage at a time.

    Builds the forward prefixes P_0 = chart, P_i = f_i(P_{i-1}), then checks
    g_i(P_i) = P_{i-1} for i = n..1.  Chaining the identities gives
    (g_1 o ... o g_n)(f_n o ... o f_1) = id on the chart.
    """
    prefixes = [chain[0].forward.source.chart, chain[0].forward.on_chart]
    # plans[i] composes over prefixes[i + 1]: the next forward leg, then a back leg
    plans = [ComposePlan(prefixes[1])]
    for pair in chain[1:]:
        prefixes.append(tuple(map(plans[-1].compose, pair.forward.components)))
        plans.append(ComposePlan(prefixes[-1]))
    max_terms = 0
    for i in range(len(chain) - 1, -1, -1):
        pair = chain[i]
        back = tuple(map(plans[i].compose, pair.inverse.components))
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
    comps = dict(zip(m.target.coords, m.on_chart))
    # the components on the chart are over its free coordinates
    one = RatFunc.const(m.on_chart[0].vars if m.on_chart else m.source.coords,
                        Fraction(1))
    for block in m.target.blocks:
        # an identically zero multiplicative coordinate is off the variety
        off = block.is_multiplicative and any(comps[c].is_zero() for c in block.coords)
        for rel in block.relations:
            try:
                holds = not off and ratfunc_equal(rel.solve(comps, one),
                                                  comps[rel.solve_for])
            except DegenerateError:     # a negative power of a zero component
                holds = False
            cert.add(f"target-relation[{block.kind}:{rel.solve_for}]",
                     "pass" if holds else "fail")
    return cert


def check_group_relations(spec: VarietySpec, group: GroupSpec, seed=0) -> Certificate:
    """Decide the group's defining relations exactly on the chart of ``spec``.

    A word whose collapse :meth:`GroupSpec.word_action` is the identity
    as written (identity permutation at the chart's arity, no twist, no
    scale, no conjugation) acts as the identity on every tuple, so it
    passes with no work on the chart.  Every other word, a collapse that
    raises, and every word on a chart with an identically zero coordinate
    (where a letter may invert a zero or a projective block vanish) are
    decided letter by letter: a word acts as the identity when it has an
    even number of Galois letters, which cancel in pairs, and moves the
    chart tuple to itself (:func:`GroupSpec.apply_word` conjugates the
    coefficients at each Galois letter).  A failing word comes with a
    witness point when one can be sampled; rational points cannot show a
    lone conjugation.
    """
    cert = Certificate(construction=f"relations[{group.name} on {spec.name}]", seed=seed)
    x = spec.chart
    identity = None if any(f.is_zero() for f in x) else ActionGen(perm=identity_perm(len(x)))
    for word in group.relations:
        vname = "relation[" + "*".join(word) + "]"
        if identity is not None and _collapse(group, word) == identity:
            cert.add(vname, "pass")
            continue
        try:
            holds = (sum(group.action(label).conjugate for label in word) % 2 == 0
                     and _tuple_equal(spec, group.apply_word(word, x), x)[0])
        except DegenerateError as exc:
            cert.add(vname, "fail", f"degenerate action: {exc}")
            continue
        if holds:
            cert.add(vname, "pass")
        else:
            witness = _witness(spec, seed, lambda p: (group.apply_word(word, p), p),
                               spec)
            cert.add(vname, "fail", "relation does not act as the identity", witness)
    return cert


def _collapse(group: GroupSpec, word):
    """The word's single action, or None when collapsing it raises."""
    try:
        return group.word_action(word)
    except CayleyCertError:
        return None
