"""Independent oracles used by the test suite.

Everything here is deliberately implemented from different first principles
than the library code it checks: the tame local classifier uses the
valuation table and closed-form Tamagawa criteria for p >= 5 (no Tate
loop), the unramified 3-torsion test at 2 finds an actual point from a
rational root of the 3-division polynomial (no Kodaira type), the
cohomology oracles solve the full linear systems over all group elements
(no generator reduction), and the subgroup of (Z/p)^x that units generate
is found by closing under multiplication (no element orders), and the
Corollary's answer is read from the record's Sha data (no Selmer scenario),
and whether a record allows Sha[p^infinity] = A x A is read field by field
(no selmerdata).
The image scan's facts about (Z/p)^x are found by linear passes: the least
multiple of a subgroup order that kills a unit by trying each multiple, and
the exceptional traces by testing every u in F_p (no factorization of p - 1).
The multiples of a point over F_ell come from the chord-and-tangent law on
the general Weierstrass model (no division polynomial).
"""

from fractions import Fraction

from shaclass.arith import legendre, valuation
from shaclass.cohom import IDENTITY, mat_mul
from shaclass.curve import compute_invariants, minimal_model


def tame_local_data(model, p):
    """(kodaira, c_v or None) at p >= 5, from the valuation table alone.

    c_v is None exactly for I_n* with n >= 1, where no closed form is used;
    callers may still assert c in {2, 4} there.
    """
    assert p >= 5
    inv = compute_invariants(minimal_model(model))
    c4, c6, disc = inv.c4, inv.c6, inv.disc
    n = valuation(disc, p) if disc % p == 0 else 0
    if n == 0:
        return "I0", 1
    k4 = valuation(c4, p) if c4 != 0 and c4 % p == 0 else (0 if c4 != 0 else None)
    if k4 == 0:
        split = legendre(-c6, p) == 1
        return f"I{n}", (n if split else (2 if n % 2 == 0 else 1))
    inf = None  # k4 is None means c4 = 0, i.e. valuation infinity

    def k4_at_least(k):
        return k4 is inf or k4 >= k

    if n == 2:
        return "II", 1
    if n == 3:
        return "III", 2
    if n == 4:
        c = 3 if legendre(-6 * (c6 // p**2), p) == 1 else 1
        return "IV", c
    if n == 6:
        a2 = (-(c4 // p**2) * pow(48, -1, p)) % p if k4 is not inf else 0
        b3 = (-(c6 // p**3) * pow(864, -1, p)) % p if c6 % p**3 == 0 else None
        assert b3 is not None
        # p is at most 5077 on the tate corpus, so enumeration is cheap
        return "I0*", 1 + sum(1 for x in range(p) if (x**3 + a2 * x + b3) % p == 0)
    if n == 7:
        return "I1*", None
    if n == 8:
        if k4_at_least(3):
            c = 3 if legendre(-6 * (c6 // p**4), p) == 1 else 1
            return "IV*", c
        return "I2*", None
    if n == 9:
        return ("III*", 2) if k4_at_least(3) else ("I3*", None)
    if n == 10:
        return ("II*", 1) if k4_at_least(4) else ("I4*", None)
    return f"I{n - 6}*", None


def rational_three_torsion_unramified_at_2(model):
    """True if a rational root of psi_3 gives a point of E(Q_2^ur)[3].

    psi_3 = 3x^4 + b2 x^3 + 3 b4 x^2 + 3 b6 x + b8.  A root x0 gives the
    points with (2y + a1 x0 + a3)^2 = g(x0) = 4x0^3 + b2 x0^2 + 2 b4 x0 + b6,
    which lie in Q_2^ur iff g(x0) is a square there: even valuation and
    odd part 1 mod 4.  False means no rational root does this, which does
    not rule out a point from an irrational root.
    """
    from sympy import Poly, symbols

    a1, a2, a3, a4, a6 = model.ainvs()
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    psi3 = Poly([3, b2, 3 * b4, 3 * b6, b8], symbols("x"))
    for root in psi3.ground_roots():
        x0 = Fraction(int(root.p), int(root.q))
        g = 4 * x0**3 + b2 * x0**2 + 2 * b4 * x0 + b6
        square_class = g.numerator * g.denominator  # same square class as g
        w = valuation(square_class, 2)
        if w % 2 == 0 and (square_class >> w) % 4 == 1:
            return True
    return False


def brute_h0(group):
    """Fixed space via intersection over all elements, not just generators."""
    p = group.p
    rows = []
    for g in group.elements:
        a, b, c, d = g
        rows.append([a - 1, b])
        rows.append([c, d - 1])
    return 2 - _rank(rows, p)


def brute_h1(group):
    """H^1 from the full cocycle system with unknowns f(g) for every g."""
    p = group.p
    elems = list(group.elements)
    index = {g: i for i, g in enumerate(elems)}
    ncols = 2 * len(elems)
    rows = []
    for g in elems:
        a, b, c, d = g
        for h in elems:
            gh = mat_mul(g, h, p)
            # f(gh) - f(g) - g f(h) = 0, two coordinates
            r0 = [0] * ncols
            r1 = [0] * ncols
            r0[2 * index[gh]] += 1
            r1[2 * index[gh] + 1] += 1
            r0[2 * index[g]] -= 1
            r1[2 * index[g] + 1] -= 1
            r0[2 * index[h]] -= a
            r0[2 * index[h] + 1] -= b
            r1[2 * index[h]] -= c
            r1[2 * index[h] + 1] -= d
            rows.append(r0)
            rows.append(r1)
    dim_z1 = ncols - _rank(rows, p)
    dim_b1 = 2 - brute_h0(group)
    return dim_z1 - dim_b1


def cyclic_h1_by_counting(gen, order, p):
    """|ker N| / |im(g-1)| by explicit enumeration of F_p^2."""
    vectors = [(x, y) for x in range(p) for y in range(p)]

    def apply(m, v):
        return ((m[0] * v[0] + m[1] * v[1]) % p, (m[2] * v[0] + m[3] * v[1]) % p)

    acc = IDENTITY
    powers = []
    for _ in range(order):
        powers.append(acc)
        acc = mat_mul(acc, gen, p)
    assert acc == IDENTITY

    def norm(v):
        out = (0, 0)
        for m in powers:
            w = apply(m, v)
            out = ((out[0] + w[0]) % p, (out[1] + w[1]) % p)
        return out

    kernel = [v for v in vectors if norm(v) == (0, 0)]
    image = {
        (
            (apply(gen, v)[0] - v[0]) % p,
            (apply(gen, v)[1] - v[1]) % p,
        )
        for v in vectors
    }
    quotient = len(kernel) // len(image)
    e = 0
    while p**e < quotient:
        e += 1
    assert p**e == quotient
    return e


def torsion_multiple_bound(model, primes):
    """gcd of #E(F_q) over good odd primes q: a multiple of #E(Q)_tors."""
    from math import gcd

    from shaclass.curve import trace_of_frobenius

    disc = compute_invariants(minimal_model(model)).disc
    g = 0
    for q in primes:
        if q == 2 or disc % q == 0:
            continue
        g = gcd(g, q + 1 - trace_of_frobenius(model, q))
    return g


def duplication_fixed_x_count(model, ell):
    """#{x in F_ell : x(2P) = x(P)}, from the duplication formula alone.

    x(2P) = (x^4 - b4 x^2 - 2 b6 x - b8) / (4x^3 + b2 x^2 + 2 b4 x + b6);
    x with a zero denominator (2-torsion) are skipped.  Away from 2-torsion,
    x(2P) = x(P) means 2P = -P, so this counts the x-coordinates of 3-torsion
    points that lie in F_ell.
    """
    a1, a2, a3, a4, a6 = minimal_model(model).ainvs()
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    count = 0
    for x in range(ell):
        den = (4 * x**3 + b2 * x * x + 2 * b4 * x + b6) % ell
        num = (x**4 - b4 * x * x - 2 * b6 * x - b8) % ell
        if den and num == x * den % ell:
            count += 1
    return count


def affine_points_mod(model, ell):
    """Every affine point (x, y) of the model over F_ell, by trying each pair."""
    a1, a2, a3, a4, a6 = model.ainvs()
    return [
        (x, y)
        for x in range(ell)
        for y in range(ell)
        if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % ell == 0
    ]


def add_points_mod(model, P, Q, ell):
    """P + Q on the model over F_ell (ell odd, good reduction); None is O.

    The chord-and-tangent law of the general Weierstrass equation
    (Silverman, AEC III.2.3)."""
    if P is None:
        return Q
    if Q is None:
        return P
    a1, a2, a3, a4, _a6 = model.ainvs()
    (x1, y1), (x2, y2) = P, Q
    if (x1 - x2) % ell:
        slope = (y2 - y1) * pow(x2 - x1, -1, ell)
    elif (y1 + y2 + a1 * x2 + a3) % ell == 0:  # Q = -P
        return None
    else:  # Q = P, not 2-torsion
        slope = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * pow(2 * y1 + a1 * x1 + a3, -1, ell)
    slope %= ell
    x3 = (slope * slope + a1 * slope - a2 - x1 - x2) % ell
    y3 = (-(slope + a1) * x3 - (y1 - slope * x1) - a3) % ell
    return x3, y3


def unit_subgroup(units, p):
    """The subgroup of (Z/p)^x generated by units, as a set.

    Brute-force closure: multiply everything found so far by every
    generator until nothing new appears, with no use of the cyclicity of
    (Z/p)^x that the library relies on.
    """
    group = {1}
    while True:
        new = {g * u % p for g in group for u in units} - group
        if not new:
            return group
        group |= new


def det_order_by_search(d, p, n=1):
    """Order of the subgroup of (Z/p)^x that d and a subgroup of order n generate.

    (Z/p)^x is cyclic, so that is the least multiple m of n with d^m = 1,
    found by trying n, 2n, ... up to p - 1 in turn.
    """
    return next(m for m in range(n, p, n) if pow(d, m, p) == 1)


def exceptional_traces(p):
    """u = tr^2/det of the elements of GL_2(F_p) of projective order <= 5 (or p).

    Orders 1, 2, 3, 4 and p give u = 4, 0, 1, 2 and 4; order 5 gives the
    roots of u^2 - 3u + 1, found by testing every u in F_p.
    """
    bad = {0 % p, 1 % p, 2 % p, 4 % p}
    bad.update(u for u in range(p) if (u * u - 3 * u + 1) % p == 0)
    return frozenset(bad)


def corollary_from_record(record, p, assume_sha_finite=True):
    """The Corollary's answer ("Yes" or "Unknown") straight from the record.

    Reads the Sha[p] rank, or failing that p | #Sha, off the record itself,
    branch by branch, with no use of the Selmer scenario.
    """
    r = record.sha_p_rank(p)
    if r is not None and r > 1:
        return "Yes"
    if r is None and record.sha_order is not None and record.sha_order % p == 0 and assume_sha_finite:
        return "Yes"  # Sha[p] != 0 plus finiteness forces rank >= 2
    if record.mw_rank >= 2:
        return "Yes"
    return "Unknown"


def sha_p_part_can_be_square(record, p):
    """Can the record's Sha[p^infinity] have the form A x A of a finite Sha?

    Reads the record's fields one at a time, with no use of the Selmer
    scenario: a recorded F_p-rank of Sha[p] must be even, the power of p in
    #Sha must be even, and each p-part Z/p^e of the cyclic factors in
    sha_structure must occur an even number of times.
    """
    for q, r in record.sha_p_ranks:
        if q == p and r % 2 == 1:
            return False
    if record.sha_order is not None and valuation(record.sha_order, p) % 2 == 1:
        return False
    if record.sha_structure is not None:
        exps = [valuation(t, p) for t in record.sha_structure]
        if any(exps.count(e) % 2 == 1 for e in set(exps) if e > 0):
            return False
    return True


def _rank(rows, p):
    rows = [[x % p for x in row] for row in rows if any(x % p for x in row)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = col = 0
    while col < ncols and rank < len(rows):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank
