"""A tour of the exact scalar layer: Q(sqrt(-3)) and its conjugation.

Everything downstream rides on these values, so this demo shows the small
set of facts the rest of the package leans on: the cube root of unity
lives here, conjugation is the nontrivial field symmetry, and norms land
back in the rationals.
"""

from fractions import Fraction

from cayleycert import QuadField, conj, scalar_str

F = QuadField(-3)
zeta = F.zeta()

print("The field Q(sqrt(-3)) hosts the primitive cube root of unity:")
print("  zeta      =", zeta)
print("  zeta^2    =", zeta ** 2)
print("  zeta^3    =", zeta ** 3)
print("  1 + zeta + zeta^2 =", 1 + zeta + zeta ** 2)
print()

print("Conjugation flips the sign of sqrt(-3); on zeta it lands on zeta^2:")
print("  conj(sqrt(-3)) =", conj(F.sqrt))
print("  conj(zeta)     =", conj(zeta), " equals zeta^2:", conj(zeta) == zeta ** 2)
print()

x = F.of(Fraction(1), Fraction(1))
print("Norms are rational: with x = 1 + sqrt(-3),")
print("  x * conj(x) =", x * conj(x))
print("  1/x         =", x.inverse())
print("  x * (1/x)   =", x * x.inverse())
print()

print("Unitary scalars: zeta * conj(zeta) =", zeta * conj(zeta),
      " so diag(zeta, zeta^2, 1) is a unitary matrix.")
print()

print("Other discriminants work the same way:")
for d in (-1, 2, 5):
    K = QuadField(d)
    r = K.sqrt
    print(f"  d = {d:2d}: sqrt^2 = {scalar_str(r * r)},  conj(sqrt) = {scalar_str(conj(r))}")
