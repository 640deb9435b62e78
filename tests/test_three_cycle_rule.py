"""Where Frob_ell can be a 3-cycle on E[3]: ell = 1 and a_ell != 0 mod 3.

At a good prime ell != 3, psi_3 has four distinct roots over F_ell bar, the
x-coordinates of the four lines of E[3].  Exactly one root in F_ell means
Frob_ell fixes one line and permutes the other three cyclically, so its image
in PGL_2(F_3) has order 3.  The only elements of GL_2(F_3) of projective
order 3 are +-(a nontrivial unipotent), whose characteristic polynomial is
(x -+ 1)^2: determinant 1 and trace +-2.  So ell = 1 mod 3 and
a_ell != 0 mod 3.  The image scan counts roots of psi_3 only at such ell.

This checks that rule from first principles: psi_3 from its closed form in
the b-invariants, its roots by evaluation at every x in F_ell, and a_ell by
listing the affine points.  Nothing here comes from the image scan.
"""

from hypothesis import assume, given, settings, strategies as st

from oracles import affine_points_mod
from shaclass.curve import CurveModel

PRIMES = [n for n in range(2, 400) if n != 3 and all(n % q for q in range(2, int(n**0.5) + 1))]


def _b_invariants(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


def _psi3_roots_mod(ainvs, ell):
    """#{x in F_ell : psi_3(x) = 3x^4 + b2 x^3 + 3 b4 x^2 + 3 b6 x + b8 = 0}."""
    b2, b4, b6, b8 = _b_invariants(*ainvs)
    return sum(1 for x in range(ell) if (3 * x**4 + b2 * x**3 + 3 * b4 * x * x + 3 * b6 * x + b8) % ell == 0)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(
        st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1), st.integers(-40, 40), st.integers(-40, 40)
    ),
    st.sampled_from(PRIMES),
)
def test_one_root_of_psi3_forces_det_1_and_nonzero_trace(ainvs, ell):
    b2, b4, b6, b8 = _b_invariants(*ainvs)
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    assume(disc % ell)
    assume(_psi3_roots_mod(ainvs, ell) == 1)
    a_ell = ell - len(affine_points_mod(CurveModel(*ainvs), ell))  # ell + 1 - #E(F_ell)
    assert ell % 3 == 1
    assert a_ell % 3 != 0
