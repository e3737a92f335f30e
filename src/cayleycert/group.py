"""Finite groups acting on coordinate tuples.

A generator's action is one :class:`ActionGen`: apply a coordinate
permutation, then a twist (entrywise inversion, negation, or the
sign-of-permutation power used on projective torus classes), then an
optional fixed per-coordinate scaling, then, for Galois-type generators,
entrywise conjugation.  Groups are given by concrete generator actions,
not presentations; their defining relations are sanity-checked on random
tuples, never proved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import DegenerateError, StructureError
from .field import conj as scalar_conj

TWISTS = ("none", "invert", "negate", "sign-power")


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
    """One generator's action on a coordinate tuple.

    ``invert`` is only meaningful on multiplicative (torus or projective)
    coordinates, ``negate`` on additive ones; ``sign-power`` raises the
    permuted tuple to the power sign(perm).  ``scale`` is an optional tuple
    of fixed scalars multiplied in after the twist; eigenbasis actions of
    cyclic permutations need it.  ``conjugate`` applies the Galois
    involution entrywise, after everything else.
    """

    perm: tuple
    twist: str = "none"
    conjugate: bool = False
    projective: bool = False
    scale: tuple | None = None

    def __post_init__(self):
        if self.twist not in TWISTS:
            raise StructureError(f"unknown twist {self.twist!r}")
        if self.scale is not None and len(self.scale) != len(self.perm):
            raise StructureError("scale length does not match arity")

    @property
    def arity(self) -> int:
        return len(self.perm)

    def rational_part(self) -> "ActionGen":
        """The action with conjugation stripped; what symbolic equivariance
        checks compose with (conjugation moves onto map coefficients)."""
        return replace(self, conjugate=False)

    def describe(self) -> str:
        parts = [f"perm={self.perm}"]
        if self.twist != "none":
            parts.append(self.twist)
        if self.scale is not None:
            parts.append("scale=(" + ", ".join(str(s) for s in self.scale) + ")")
        if self.conjugate:
            parts.append("conj")
        return " ".join(parts)


def _conj_value(v):
    if hasattr(v, "conj_coeffs"):
        # symbolic coordinate: conjugate the coefficients
        return v.conj_coeffs()
    return scalar_conj(v)


def apply_action(gen: ActionGen, tup, conjugate=None):
    """Apply a generator to a tuple of scalars (or RatFuncs).

    Order: permute (new_i = old_{perm^-1(i)}), twist, scale, conjugate.
    Inverting a zero coordinate raises :class:`DegenerateError`.
    """
    tup = tuple(tup)
    if len(tup) != gen.arity:
        raise StructureError(
            f"tuple arity {len(tup)} does not match action arity {gen.arity}")
    inv = perm_inverse(gen.perm)
    out = [tup[inv[i]] for i in range(gen.arity)]

    twist = gen.twist
    if twist == "sign-power":
        twist = "invert" if perm_sign(gen.perm) < 0 else "none"
    if twist == "invert":
        for i, v in enumerate(out):
            if not hasattr(v, "vars") and not v:
                raise DegenerateError("inversion of a zero coordinate")
            out[i] = 1 / v
    elif twist == "negate":
        out = [-v for v in out]

    if gen.scale is not None:
        out = [s * v for s, v in zip(gen.scale, out)]

    do_conj = gen.conjugate if conjugate is None else conjugate
    if do_conj:
        out = [_conj_value(v) for v in out]
    return tuple(out)


def compose_actions(outer: ActionGen, inner: ActionGen) -> ActionGen:
    """Single ActionGen equal to applying ``inner`` first, then ``outer``.

    Multiplicative and additive twists cannot be mixed; sign-power twists
    are resolved against their own permutation before composing.
    """
    if outer.arity != inner.arity:
        raise StructureError("cannot compose actions of different arity")

    def normal(g):
        mode = None
        if g.twist == "invert":
            mode, unit = "mult", -1
        elif g.twist == "sign-power":
            mode, unit = "mult", perm_sign(g.perm)
        elif g.twist == "negate":
            mode, unit = "add", -1
        else:
            unit = 1
        return mode, unit

    m1, u1 = normal(inner)
    m2, u2 = normal(outer)
    if m1 and m2 and m1 != m2:
        raise StructureError("cannot compose multiplicative and additive twists")
    mode = m1 or m2

    perm = perm_compose(outer.perm, inner.perm)
    conj = outer.conjugate != inner.conjugate
    n = outer.arity
    inv2 = perm_inverse(outer.perm)

    s1 = inner.scale if inner.scale is not None else (1,) * n
    s2 = outer.scale if outer.scale is not None else (1,) * n
    scale = []
    for j in range(n):
        a = scalar_conj(s2[j]) if inner.conjugate else s2[j]
        b = s1[inv2[j]]
        if mode == "mult" and u2 == -1 and b != 1:
            if not b:
                raise DegenerateError("zero scale cannot be inverted")
            if isinstance(b, int):
                b = Fraction(b)
            b = 1 / b
        scale.append(a * b)

    if mode == "mult":
        exp = u1 * u2
        twist = "invert" if exp == -1 else "none"
    elif mode == "add":
        sign = u1 * u2
        twist = "negate" if sign == -1 else "none"
    else:
        twist = "none"

    if all(s == 1 for s in scale):
        scale_out = None
    else:
        scale_out = tuple(scale)
    return ActionGen(perm=perm, twist=twist, conjugate=conj,
                     projective=outer.projective or inner.projective,
                     scale=scale_out)


def is_identity_action(gen: ActionGen) -> bool:
    if gen.perm != identity_perm(gen.arity):
        return False
    if gen.conjugate:
        return False
    if gen.twist == "sign-power":
        if perm_sign(gen.perm) < 0:
            return False
    elif gen.twist != "none":
        return False
    return gen.scale is None or all(s == 1 for s in gen.scale)


@dataclass(frozen=True)
class GroupSpec:
    """A finite group given by labelled generator actions.

    ``relations`` are words (tuples of labels) that must act as the
    identity; ``gamma_labels`` marks the Galois-type generators, which are
    the ones a cocycle may twist.
    """

    name: str
    generators: tuple
    order: int
    relations: tuple = ()
    gamma_labels: tuple = ()

    def labels(self):
        return tuple(label for label, _ in self.generators)

    def action(self, label: str) -> ActionGen:
        for lab, gen in self.generators:
            if lab == label:
                return gen
        raise StructureError(f"no generator labelled {label!r} in {self.name}")

    def table(self) -> dict:
        return dict(self.generators)

    def apply_word(self, word, tup):
        """Apply the generators named in ``word``, left to right."""
        for label in word:
            tup = apply_action(self.action(label), tup)
        return tup

    def word_action(self, word) -> ActionGen:
        """Collapse a word into a single ActionGen."""
        if not word:
            arity = self.generators[0][1].arity
            return ActionGen(perm=identity_perm(arity))
        gen = self.action(word[0])
        for label in word[1:]:
            gen = compose_actions(self.action(label), gen)
        return gen


@dataclass(frozen=True)
class Cocycle:
    """Assignment of Galois generators to elements of the acting group,
    each given as a word in the group's generator labels."""

    assignment: tuple  # tuple of (gamma_label, word) pairs

    @classmethod
    def of(cls, mapping: dict) -> "Cocycle":
        return cls(tuple((k, tuple(w)) for k, w in mapping.items()))


def twist_action(base: GroupSpec, c: Cocycle) -> GroupSpec:
    """Twist the Galois generators: gamma now acts as c(gamma) o gamma.

    The cocycle values must be conjugation-free words in the acting group
    whose square is the identity action (order-2 Galois group); violating
    either is a structural error.
    """
    table = dict(base.generators)
    for gamma_label, word in c.assignment:
        if gamma_label not in table:
            raise StructureError(f"unknown Galois generator {gamma_label!r}")
        value = base.word_action(word)
        if value.conjugate:
            raise StructureError(
                "cocycle values must lie in the acting group, not the Galois group")
        if not is_identity_action(compose_actions(value, value)):
            raise StructureError(
                f"cocycle value {word} does not square to the identity")
        table[gamma_label] = compose_actions(value, table[gamma_label])
    generators = tuple((lab, table[lab]) for lab, _ in base.generators)
    return GroupSpec(name=f"{base.name}[twisted]", generators=generators,
                     order=base.order, relations=base.relations,
                     gamma_labels=base.gamma_labels)


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
