"""Exact Weierstrass arithmetic: invariants, minimal models, point counts.

Run:  python3 demos/01_weierstrass_models.py
"""

from fractions import Fraction

from shaclass import (
    CurveModel,
    analyze,
    compute_invariants,
    detect_cm,
    minimal_model,
    trace_of_frobenius,
)
from shaclass.curve import transform_model

# A curve of conductor 1058 = 2 * 23^2 with interesting arithmetic at p = 5.
E = CurveModel(1, -1, 0, -332311, -73733731)
inv = compute_invariants(E)

print("curve:", E)
print("  c4 =", inv.c4)
print("  c6 =", inv.c6)
print("  disc =", inv.disc)
print("  j =", inv.j)
print("  identity check: c4^3 - c6^2 == 1728 disc:", inv.c4**3 - inv.c6**2 == 1728 * inv.disc)

# Blowing the model up by u = 1/2 multiplies the discriminant by 2^12;
# minimal_model recovers the original reduced equation.
big = transform_model(E, Fraction(1, 2), 0, 0, 0)
print("\nscaled model:", big)
print("  disc ratio:", big.discriminant() // inv.disc)
print("  minimal model recovers E:", minimal_model(big) == E)

# Traces of Frobenius by exact point counting (quadratic-residue table).
print("\ntraces of Frobenius:")
for p in (3, 5, 7, 11, 13, 97):
    print(f"  a_{p} =", trace_of_frobenius(E, p))

# The certificate at 5 reads the reduction type off a_5: ordinary when p
# does not divide a_p, with unit root a_p mod p.
cert = analyze(E, 5)
print("\nreduction at 5:", cert["reduction_kind"])
print("  a_5 =", cert["a_p"], " unit root mod 5 =", cert["alpha_p_mod_p"])

# The thirteen rational CM j-invariants are recognized exactly.
print("\nCM detection:")
for j in (0, 1728, -3375, inv.j):
    print(f"  j = {j}: CM discriminant {detect_cm(j)}")

# A supersingular example at 5: y^2 = x^3 + 1 has exactly 6 points over F_5.
SS = CurveModel(0, 0, 0, 0, 1)
print("\ny^2 = x^3 + 1 at p = 5:", analyze(SS, 5)["reduction_kind"])
