"""Finite-group cohomology for subgroups of GL_2(F_p) on F_p^2.

Matrices are row-major 4-tuples (a, b, c, d) of residues mod p.  H^1 is
computed from the cocycle identity f(gh) = f(g) + g f(h): a cocycle is
determined by its values on generators, so the linear system has
2 * #generators unknowns, with one relation block per (element, generator)
edge of the Cayley graph.
"""

from typing import NamedTuple

from .errors import GroupTooLarge, InvalidInput

DEFAULT_GROUP_CAP = 5000

STANDARD_MODULE = "standard module E[p] = F_p + F_p"


def mat_mul(m, n, p):
    a, b, c, d = m
    e, f, g, h = n
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def mat_det(m, p):
    return (m[0] * m[3] - m[1] * m[2]) % p


def identity_matrix():
    return (1, 0, 0, 1)


def mat_order(m, p):
    k, acc = 1, m
    ident = identity_matrix()
    while acc != ident:
        acc = mat_mul(acc, m, p)
        k += 1
        if k > p * p * p * p:
            raise InvalidInput("matrix is not invertible mod p")
    return k


class MatrixGroup(NamedTuple):
    p: int
    elements: tuple
    generators: tuple

    def __len__(self):
        # the group order; tuple's _make and _replace read len as the field
        # count, so a MatrixGroup is only ever built by its constructor
        return len(self.elements)


class CohomologyResult(NamedTuple):
    h0_dim: int
    h1_dim: int
    module_descriptor: str


def close_group(generators, p, cap=DEFAULT_GROUP_CAP):
    """BFS closure of the generators; raises GroupTooLarge past cap."""
    gens = tuple(tuple(x % p for x in g) for g in generators)
    for g in gens:
        if mat_det(g, p) == 0:
            raise InvalidInput(f"generator {g} is singular mod {p}")
    ident = identity_matrix()
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = mat_mul(e, g, p)
                if h not in seen:
                    seen.add(h)
                    order.append(h)
                    nxt.append(h)
                    if len(seen) > cap:
                        raise GroupTooLarge(f"closure exceeds cap {cap}")
        frontier = nxt
    return MatrixGroup(p, tuple(order), gens)


def _rank_mod_p(rows, p):
    """Rank of an integer matrix over F_p by dense Gaussian elimination."""
    rows = [[x % p for x in row] for row in rows if any(x % p for x in row)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
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


def _apply(m, twist, p):
    if twist is None:
        return m
    lam = twist(m) % p
    return tuple(lam * x % p for x in m)


def h0(group, twist=None):
    """Dimension of the common fixed space of the group action."""
    p = group.p
    rows = []
    for g in group.generators:
        a, b, c, d = _apply(g, twist, p)
        rows.append([a - 1, b])
        rows.append([c, d - 1])
    return 2 - _rank_mod_p(rows, p)


def h1(group, twist=None):
    """dim Z^1 - dim B^1 on F_p^2 (or a character twist of it).

    Cocycle values on generators are the unknowns; BFS over the
    multiplication table expresses f(e) for every element e as a linear
    map of those unknowns, and each Cayley edge contributes the relation
    f(e g) = f(e) + e f(g).
    """
    p = group.p
    gens = group.generators
    k = len(gens)
    ncols = 2 * k
    ident = identity_matrix()

    def zero_map():
        return tuple(tuple(0 for _ in range(ncols)) for _ in range(2))

    def unit_map(j):
        return tuple(
            tuple(1 if c == 2 * j + r else 0 for c in range(ncols)) for r in range(2)
        )

    def add_maps(m1, m2):
        return tuple(
            tuple((a + b) % p for a, b in zip(r1, r2)) for r1, r2 in zip(m1, m2)
        )

    def act(mat, fmap):
        a, b, c, d = mat
        r0 = tuple((a * fmap[0][i] + b * fmap[1][i]) % p for i in range(ncols))
        r1 = tuple((c * fmap[0][i] + d * fmap[1][i]) % p for i in range(ncols))
        return (r0, r1)

    value = {ident: zero_map()}
    frontier = [ident]
    relations = []
    while frontier:
        nxt = []
        for e in frontier:
            rho_e = _apply(e, twist, p)
            for j, g in enumerate(gens):
                target = mat_mul(e, g, p)
                expected = add_maps(value[e], act(rho_e, unit_map(j)))
                if target not in value:
                    value[target] = expected
                    nxt.append(target)
                else:
                    for r in range(2):
                        row = [
                            (expected[r][i] - value[target][r][i]) % p
                            for i in range(ncols)
                        ]
                        if any(row):
                            relations.append(row)
        frontier = nxt
    if len(value) != len(group.elements):
        raise ArithmeticError(f"cocycle reaches {len(value)} of {len(group.elements)} elements")
    dim_z1 = ncols - _rank_mod_p(relations, p)
    dim_b1 = 2 - h0(group, twist)
    if dim_z1 < dim_b1:
        raise ArithmeticError(f"dim Z^1 = {dim_z1} is below dim B^1 = {dim_b1}")
    return dim_z1 - dim_b1


def h1_cyclic(generator, order, p, twist=None):
    """H^1 of the cyclic group <g> via ker(norm) / im(g - 1)."""
    g = tuple(x % p for x in generator)
    if mat_order(g, p) != order:
        raise InvalidInput(f"generator does not have order {order}")
    gt = _apply(g, twist, p)
    acc = identity_matrix()
    norm = [0, 0, 0, 0]
    for _ in range(order):
        norm = [(n + a) % p for n, a in zip(norm, acc)]
        acc = mat_mul(acc, gt, p)
    if acc != identity_matrix() and twist is None:
        raise ArithmeticError(f"g^{order} is not the identity")
    n_rows = [[norm[0], norm[1]], [norm[2], norm[3]]]
    gm1 = [[gt[0] - 1, gt[1]], [gt[2], gt[3] - 1]]
    dim_ker_norm = 2 - _rank_mod_p(n_rows, p)
    dim_im = _rank_mod_p(gm1, p)
    if dim_im > dim_ker_norm:
        raise ArithmeticError(f"dim im(g - 1) = {dim_im} exceeds dim ker(norm) = {dim_ker_norm}")
    return dim_ker_norm - dim_im


def central_scalar_shortcut(group):
    """A scalar lambda != 1 with lambda*Id in the group, or None.

    When present, all H^i vanish without solving any linear system.
    """
    elements = set(group.elements)
    for lam in range(2, group.p):
        if (lam, 0, 0, lam) in elements:
            return lam
    return None


def cohomology(group, twist=None, use_shortcut=True):
    """H^0 and H^1 dimensions, optionally via the central-scalar shortcut."""
    descriptor = STANDARD_MODULE if twist is None else STANDARD_MODULE + " (twisted)"
    if use_shortcut and twist is None and central_scalar_shortcut(group) is not None:
        return CohomologyResult(0, 0, descriptor)
    return CohomologyResult(h0(group, twist), h1(group, twist), descriptor)


def det_power_twist(k, p):
    """The character g -> det(g)^k, usable as a twist."""

    def chi(m):
        return pow(mat_det(m, p), k, p)

    return chi


def gl2_generators(p):
    """Generators of GL_2(F_p): both transvections and a diagonal of full
    determinant order."""
    z = _primitive_root(p)
    return [(1, 1, 0, 1), (1, 0, 1, 1), (z, 0, 0, 1)]


def sl2_generators(p):
    return [(1, 1, 0, 1), (1, 0, 1, 1)]


def _primitive_root(p):
    from .arith import factor

    qs = list(factor(p - 1))
    for z in range(2, p):
        if all(pow(z, (p - 1) // q, p) != 1 for q in qs):
            return z
    raise ArithmeticError(f"no primitive root mod {p}")
