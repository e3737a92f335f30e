"""Walk the five-link chain from the twisted torus to its Lie slice.

Each link is a birational map with an explicit inverse, equivariant for
the symmetric group on three letters together with the Galois involution.
This demo pushes one sample point through the whole chain and then runs
the exact certificates.
"""

from fractions import Fraction

from cayleycert import QuadField
from cayleycert.ratmap import map_of_point
from cayleycert.su3 import (build_su3_chain, chain_certificate, end_to_end)

F = QuadField(-3)


def show(tag, values):
    print(f"  {tag}: (" + ", ".join(str(v) for v in values) + ")")


links = build_su3_chain()
print("The five links:")
for pair in links:
    print(f"  {pair.forward.name:14s} {pair.forward.source.name:16s} "
          f"-> {pair.forward.target.name}")
print()

x = (Fraction(2), Fraction(3), Fraction(1, 6))
print("Chasing the torus point (2, 3, 1/6), product = 1:")
p = map_of_point(links[0].inverse, x)
show("to the scalar classes", p)
p = map_of_point(links[1].forward, p)
show("difference map, first projective factor ", p[:3])
show("difference map, second projective factor", p[3:])
p = map_of_point(links[2].forward, p)
show("tensor coordinates on the quadric", p)
print("  quadric relation a11*a22 == a12*a21:", p[0] * p[3] == p[1] * p[2])
p = map_of_point(links[3].forward, p)
show("after stereographic projection", p)
u = map_of_point(links[4].forward, p)
show("in the Lie slice", u)
print("  coordinates sum to zero:", sum(u, F.zero) == 0)
print()

e2e = end_to_end(links)
back = map_of_point(e2e.inverse, u)
print("Round trip through the composed inverse recovers the point:", back == x)
print()

print("Running the full certificate (equivariance for the transposition,")
print("the 3-cycle and the Galois generator on every link, two-sided")
print("inverses, end-to-end composition)...")
cert = chain_certificate(seed=42, trials=50)
passes = sum(1 for v in cert.verdicts if v.status == "pass")
print(f"  {passes} of {len(cert.verdicts)} checks pass; overall: "
      f"{'PASS' if cert.ok else 'FAIL'}")
