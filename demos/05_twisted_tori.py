"""Cocycle twisting and the two embeddings of the symmetric group.

The swap factor acts on the torus by entrywise inversion.  Sending the
Galois generator to that inversion twists plain conjugation into
"conjugate inverse", the compact form of the torus.  The standard and
twisted embeddings of the symmetric group differ exactly on odd
permutations, and the quotient-torus map intertwines the twisted actions.
"""

from fractions import Fraction

from cayleycert import QuadField, apply_action, st_tw_embed
from cayleycert.group import transposition, cycle
from cayleycert.rank2 import (base_group, pgu3_differential, pgu3_torus_map,
                              pullback_group, twist_certificate, twisted_group)
from cayleycert.ratmap import map_of_point
from cayleycert.su3 import link_certificate

F = QuadField(-3)
zeta = F.zeta()

print("Base torus actions: permutations, inversion, plain conjugation.")
eps = base_group("torus").action("eps")
print("  eps on (2, 3, 1/6):", apply_action(eps, (Fraction(2), Fraction(3),
                                                  Fraction(1, 6))))
print()

print("Twisting gamma by the cocycle gamma -> eps:")
tw = twisted_group("torus").action("gamma")
print("  twisted gamma =", tw.describe())
print("  fixed point (zeta, zeta, zeta):",
      apply_action(tw, (zeta, zeta, zeta)) == (zeta, zeta, zeta))
print()

print("The two embeddings into the product with the swap group:")
t = transposition(3, 0, 1)
c = cycle(3, (0, 1, 2))
print("  St(1 2)   =", st_tw_embed(t, "St"))
print("  Tw(1 2)   =", st_tw_embed(t, "Tw"), "  (odd, so the swap comes along)")
print("  Tw(1 2 3) =", st_tw_embed(c, "Tw"), "  (even, no swap)")
tw_gen = pullback_group("Tw", "torus").action("(1 2)")
print("  Tw-pulled-back transposition acts as:", tw_gen.describe())
print()

def fmt(values):
    return "(" + ", ".join(str(v) for v in values) + ")"


print("The quotient-torus map [x] -> (x2/x3, x3/x1, x1/x2):")
pair = pgu3_torus_map()
print("  at [1 : 1 : 1]:", fmt(map_of_point(pair.forward, (Fraction(1),) * 3)))
dpair = pgu3_differential()
print("  differential at (1, 0, -1):",
      fmt(map_of_point(dpair.forward, (Fraction(1), Fraction(0), Fraction(-1)))))
print()

print("Certificates:")
for cert in (twist_certificate(seed=42),
             link_certificate(pair, seed=42, trials=30)):
    passes = sum(1 for v in cert.verdicts if v.status == "pass")
    print(f"  {cert.construction:14s} {passes}/{len(cert.verdicts)} checks, "
          f"{'PASS' if cert.ok else 'FAIL'}")
