"""Finite groups acting on coordinate tuples.

A generator's action is one :class:`ActionGen`, four steps in order:
permute the coordinates, invert them or not, multiply by a fixed
per-coordinate scale, and, for Galois-type generators, conjugate
entrywise.  Negation is the scale -1, and the sign twist of a projective
torus class is the inversion, written on the odd permutations only.
Groups are given by concrete generator actions, not presentations;
:func:`cayleycert.ratmap.check_group_relations` decides their defining
relations exactly: a word that :meth:`GroupSpec.word_action` collapses
(through :func:`compose_actions`) to the identity as written passes on
that collapse, and every other word is applied letter by letter to a
variety's chart.  :func:`same_action` decides whether two generators act
alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import DegenerateError, StructureError
from .field import conj
from .poly import RatFunc, ratfunc_equal

TWISTS = ("none", "invert")


# -- permutations, stored as the map i -> perm[i] on 0-based slots ------

def identity_perm(n: int) -> tuple:
    return tuple(range(n))


def transposition(n: int, i: int, j: int) -> tuple:
    p = list(range(n))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


def cycle(n: int, points) -> tuple:
    """Cyclic permutation sending points[k] -> points[k+1]."""
    p = list(range(n))
    pts = list(points)
    for a, b in zip(pts, pts[1:] + pts[:1]):
        p[a] = b
    return tuple(p)


def perm_compose(outer: tuple, inner: tuple) -> tuple:
    """(outer o inner)(i) = outer[inner[i]]."""
    return tuple(outer[inner[i]] for i in range(len(inner)))


def perm_inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def perm_sign(p: tuple) -> int:
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True)
class ActionGen:
    """One generator's action on a coordinate tuple:
    x_i -> C(s_i * x_{perm^-1(i)}^e).

    ``twist`` "invert" makes e = -1 ("none": e = 1); it is only meaningful
    on multiplicative (torus or projective) coordinates.  ``scale`` is an
    optional tuple of fixed scalars s: eigenbasis actions of cyclic
    permutations need it, and the scale -1 is negation on additive
    coordinates.  ``conjugate`` applies the Galois involution C entrywise,
    after everything else.
    """

    perm: tuple
    twist: str = "none"
    conjugate: bool = False
    scale: tuple | None = None

    def __post_init__(self):
        if set(self.perm) != set(range(len(self.perm))):
            raise StructureError(f"perm {self.perm} is not a permutation of "
                                 f"0..{len(self.perm) - 1}")
        if self.twist not in TWISTS:
            raise StructureError(f"unknown twist {self.twist!r}")
        if self.scale is not None and len(self.scale) != len(self.perm):
            raise StructureError("scale length does not match arity")

    @property
    def arity(self) -> int:
        return len(self.perm)

    def describe(self) -> str:
        parts = [f"perm={self.perm}"]
        if self.twist != "none":
            parts.append(self.twist)
        if self.scale is not None:
            parts.append("scale=(" + ", ".join(str(s) for s in self.scale) + ")")
        if self.conjugate:
            parts.append("conj")
        return " ".join(parts)


def apply_action(gen: ActionGen, tup, conjugate=None):
    """Apply a generator to a tuple of scalars (or RatFuncs).

    Order: permute (new_i = old_{perm^-1(i)}), invert or not, scale,
    conjugate.  ``conjugate``, when given, overrides the generator's flag
    (symbolic checks pass False).  Inverting a zero coordinate raises
    :class:`DegenerateError`.
    """
    tup = tuple(tup)
    if len(tup) != gen.arity:
        raise StructureError(
            f"tuple arity {len(tup)} does not match action arity {gen.arity}")
    inv = perm_inverse(gen.perm)
    out = [tup[inv[i]] for i in range(gen.arity)]
    if gen.twist == "invert":
        for i, v in enumerate(out):
            if not hasattr(v, "vars") and not v:
                raise DegenerateError("inversion of a zero coordinate")
            out[i] = 1 / v
    if gen.scale is not None:
        out = [s * v for s, v in zip(gen.scale, out)]
    do_conj = gen.conjugate if conjugate is None else conjugate
    if do_conj:
        out = [conj(v) for v in out]
    return tuple(out)


def compose_actions(outer: ActionGen, inner: ActionGen) -> ActionGen:
    """Single ActionGen equal to applying ``inner`` first, then ``outer``.

    With inner (p1, e1, s1, C1) and outer (p2, e2, s2, C2), the composite
    has permutation p2 p1, exponent e1 e2, conjugation C1 C2 and scale
    C1(s2_i) * s1_{p2^-1(i)}^e2.
    """
    if outer.arity != inner.arity:
        raise StructureError("cannot compose actions of different arity")
    n = outer.arity
    inv2 = perm_inverse(outer.perm)
    s1 = inner.scale or (1,) * n
    s2 = outer.scale or (1,) * n
    scale = []
    for i in range(n):
        a = conj(s2[i]) if inner.conjugate else s2[i]
        b = s1[inv2[i]]
        if outer.twist == "invert" and b != 1:
            if not b:
                raise DegenerateError("zero scale cannot be inverted")
            b = 1 / (Fraction(b) if isinstance(b, int) else b)
        scale.append(a * b)
    return ActionGen(perm=perm_compose(outer.perm, inner.perm),
                     twist="none" if outer.twist == inner.twist else "invert",
                     conjugate=outer.conjugate != inner.conjugate,
                     scale=None if all(x == 1 for x in scale) else tuple(scale))


def same_action(a: ActionGen, b: ActionGen) -> bool:
    """Whether two generators act alike on every tuple: equal as written,
    or else the same Galois flag and equal rational parts at a generic
    tuple."""
    if a == b:
        return True
    if a.conjugate != b.conjugate:
        return False
    x = RatFunc.variables(tuple(f"x{i}" for i in range(a.arity)))
    return all(ratfunc_equal(p, q) for p, q in zip(apply_action(a, x, conjugate=False),
                                                  apply_action(b, x, conjugate=False)))


@dataclass(frozen=True)
class GroupSpec:
    """A finite group acting on one variety's coordinate tuples, given by
    labelled generator actions.

    ``relations`` are words (tuples of labels) that must act as the
    identity.  The same group acting on two varieties is two GroupSpecs
    with the same labels and relations.
    """

    name: str
    generators: tuple
    relations: tuple = ()

    def labels(self):
        return tuple(label for label, _ in self.generators)

    def action(self, label: str) -> ActionGen:
        for lab, gen in self.generators:
            if lab == label:
                return gen
        raise StructureError(f"no generator labelled {label!r} in {self.name}")

    def table(self) -> dict:
        return dict(self.generators)

    def first_difference(self, other: "GroupSpec"):
        """The first of ``other``'s labels whose action this table lacks or
        does differently (by :func:`same_action`); None if there is none."""
        table = self.table()
        return next((label for label, gen in other.generators
                     if label not in table or not same_action(table[label], gen)), None)

    def apply_word(self, word, tup):
        """Apply the generators named in ``word``, left to right."""
        for label in word:
            tup = apply_action(self.action(label), tup)
        return tup

    def word_action(self, word) -> ActionGen:
        """Collapse a word into a single ActionGen.  The empty word is the
        identity at the generators' arity, so a group with no generators
        has no arity to give it."""
        if not word:
            if not self.generators:
                raise StructureError(f"the empty word has no arity in {self.name}: "
                                     "the group has no generators")
            return ActionGen(perm=identity_perm(self.generators[0][1].arity))
        gen = self.action(word[0])
        for label in word[1:]:
            gen = compose_actions(self.action(label), gen)
        return gen


def twist_action(base: GroupSpec, cocycle: dict) -> GroupSpec:
    """Twist the Galois generators: gamma now acts as c(gamma) o gamma.

    ``cocycle`` maps each twisted Galois generator's label to its value c,
    a word in the group's generator labels.  The values must be
    conjugation-free words in the acting group whose square is the
    identity action (order-2 Galois group); violating either is a
    structural error.
    """
    table = dict(base.generators)
    for gamma_label, word in cocycle.items():
        if gamma_label not in table:
            raise StructureError(f"unknown Galois generator {gamma_label!r}")
        value = base.word_action(word)
        if value.conjugate:
            raise StructureError(
                "cocycle values must lie in the acting group, not the Galois group")
        if not same_action(compose_actions(value, value),
                           ActionGen(perm=identity_perm(value.arity))):
            raise StructureError(
                f"cocycle value {word} does not square to the identity")
        table[gamma_label] = compose_actions(value, table[gamma_label])
    generators = tuple((lab, table[lab]) for lab, _ in base.generators)
    return replace(base, name=f"{base.name}[twisted]", generators=generators)


def st_tw_embed(sigma: tuple, mode: str):
    """Embed a permutation into S3 x S2 the standard or the twisted way.

    Returns (sigma, e) with e in {0, 1} the power of the swap generator:
    St(sigma) = (sigma, 0); Tw(sigma) = (sigma, 0) for even sigma and
    (sigma, 1) for odd sigma.
    """
    if mode == "St":
        return (sigma, 0)
    if mode == "Tw":
        return (sigma, 0 if perm_sign(sigma) == 1 else 1)
    raise StructureError(f"unknown embedding mode {mode!r}")
