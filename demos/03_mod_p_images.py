"""Certifying surjectivity of the mod-p Galois representation.

The certificate is one-sided: witnesses (a_ell mod p, ell mod p) rule out
each conjugacy class of maximal subgroups, and SurjectiveCertified is only
ever emitted with a complete set of witnesses.  Failure modes stay honest:
a curve with a rational 5-isogeny or with CM is reported as
SmallImageCertified, never as surjective.

Run:  python3 demos/03_mod_p_images.py
"""

import sympy

from shaclass import CurveModel, analyze, certify_image, division_polynomial

E = CurveModel(1, -1, 0, -332311, -73733731)  # 1058d1
cert = certify_image(E, 5)
print("1058d1, p = 5:", cert.status)
print("  ruled out:", sorted(cert.ruled_out))
print("  witnesses (ell, a_ell mod 5, ell mod 5):", cert.witnesses)

# 11a1 has a rational 5-isogeny, visible as a quadratic factor of the
# 5-division polynomial; the certifier reports a proper image.
E11 = CurveModel(0, -1, 1, -10, -20)
cert11 = certify_image(E11, 5)
print("\n11a1, p = 5:", cert11.status, "- first unruled class:", cert11.first_unruled)
psi5 = sympy.Poly(division_polynomial(E11, 5)[::-1], sympy.Symbol("x"))
print("  psi_5 factors into degrees", sorted(f.degree() for f, _ in psi5.factor_list()[1]))

# CM curves always have proper image for odd p.
print("\n27a1 (j = 0), p = 5:", certify_image(CurveModel(0, 0, 1, 0, -7), 5).status)

# At p = 3 trace statistics cannot separate the nonsplit Cartan normalizer
# from the full group.  The last witness is a prime ell at which psi_3 has
# exactly one root mod ell: Frob_ell is then a 3-cycle on the four
# x-coordinates of E[3], which the normalizer's projective image D4 lacks.
cert389 = certify_image(CurveModel(0, 1, 1, -2, 0), 3)
print("\n389a1, p = 3:", cert389.status, "- 3-cycle witness ell =", cert389.witnesses[-1][0])

# The local picture at p: the unit root of Frobenius mod p on the
# unramified quotient, and the wild-ramification ledger entry, as the
# certificate records them.
doc = analyze(E, 5)
print("\n1058d1 at 5:", doc["reduction_kind"], "reduction, a_5 =", doc["a_p"])
print("  unit root alpha_5 mod 5:", doc["alpha_p_mod_p"])
print("  wild ramification hypothesis:", doc["wild_ramification"], "(a_5 = 2 != 1 mod 5)")
