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


def mat_mul(m, n, p):
    a, b, c, d = m
    e, f, g, h = n
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def mat_det(m, p):
    return (m[0] * m[3] - m[1] * m[2]) % p


IDENTITY = (1, 0, 0, 1)


def mat_order(m, p):
    """Order of m mod p in GL_2(F_p), which is at most p^2 - 1."""
    m = tuple(x % p for x in m)
    if mat_det(m, p) == 0:
        raise InvalidInput("matrix is not invertible mod p")
    k, acc = 1, m
    while acc != IDENTITY:
        acc = mat_mul(acc, m, p)
        k += 1
    return k


class MatrixGroup(NamedTuple):
    p: int
    elements: tuple
    generators: tuple

    def __len__(self):
        # the group order; tuple's _make and _replace read len as the field
        # count, so a MatrixGroup is only ever built by its constructor
        return len(self.elements)


def close_group(generators, p, cap=DEFAULT_GROUP_CAP):
    """BFS closure of the generators, in the order found: each element after
    the identity is first reached as e g from an earlier e (h1 relies on this).
    Raises GroupTooLarge past cap, InvalidInput for a cap below 1."""
    if cap < 1:  # the identity alone would exceed it
        raise InvalidInput(f"cap must be at least 1, got {cap}")
    gens = tuple(tuple(x % p for x in g) for g in generators)
    for g in gens:
        if mat_det(g, p) == 0:
            raise InvalidInput(f"generator {g} is singular mod {p}")
    seen = {IDENTITY}
    order = [IDENTITY]
    for e in order:  # the list is the queue: it grows while it is walked
        for g in gens:
            h = mat_mul(e, g, p)
            if h not in seen:
                seen.add(h)
                order.append(h)
                if len(seen) > cap:
                    raise GroupTooLarge(f"closure exceeds cap {cap}")
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


def h0(group):
    """Dimension of the common fixed space of the group action."""
    p = group.p
    rows = []
    for g in group.generators:
        a, b, c, d = g
        rows.append([a - 1, b])
        rows.append([c, d - 1])
    return 2 - _rank_mod_p(rows, p)


def h1(group):
    """dim Z^1 - dim B^1 on F_p^2.

    Cocycle values on generators are the unknowns.  group.elements is in
    close_group's breadth-first order, so walking it sets f(e g) from the
    first edge that reaches e g, before e g is walked; each other Cayley
    edge contributes the relation f(e g) = f(e) + e f(g).
    """
    p = group.p
    gens = group.generators
    ncols = 2 * len(gens)
    # f(e) as two rows of linear forms in the unknowns; f(g_j) is the pair
    # of unknowns at columns 2j and 2j + 1
    value = {IDENTITY: ([0] * ncols, [0] * ncols)}
    relations = []
    for e in group.elements:
        if e not in value:
            raise ArithmeticError(f"cocycle reaches {len(value)} of {len(group.elements)} elements")
        a, b, c, d = e
        f0, f1 = value[e]
        for j, g in enumerate(gens):
            target = mat_mul(e, g, p)
            # f(e) + e f(g_j)
            row0 = list(f0)
            row1 = list(f1)
            row0[2 * j] = (row0[2 * j] + a) % p
            row0[2 * j + 1] = (row0[2 * j + 1] + b) % p
            row1[2 * j] = (row1[2 * j] + c) % p
            row1[2 * j + 1] = (row1[2 * j + 1] + d) % p
            if target not in value:
                value[target] = (row0, row1)
            else:
                for expected, known in zip((row0, row1), value[target]):
                    row = [(x - y) % p for x, y in zip(expected, known)]
                    if any(row):
                        relations.append(row)
    dim_z1 = ncols - _rank_mod_p(relations, p)
    dim_b1 = 2 - h0(group)
    if dim_z1 < dim_b1:
        raise ArithmeticError(f"dim Z^1 = {dim_z1} is below dim B^1 = {dim_b1}")
    return dim_z1 - dim_b1


def h1_cyclic(generator, order, p):
    """H^1 of the cyclic group <g> via ker(norm) / im(g - 1)."""
    g = tuple(x % p for x in generator)
    if mat_order(g, p) != order:
        raise InvalidInput(f"generator does not have order {order}")
    acc = IDENTITY
    norm = [0, 0, 0, 0]
    for _ in range(order):
        norm = [(n + a) % p for n, a in zip(norm, acc)]
        acc = mat_mul(acc, g, p)
    if acc != IDENTITY:
        raise ArithmeticError(f"g^{order} is not the identity")
    n_rows = [[norm[0], norm[1]], [norm[2], norm[3]]]
    gm1 = [[g[0] - 1, g[1]], [g[2], g[3] - 1]]
    dim_ker_norm = 2 - _rank_mod_p(n_rows, p)
    dim_im = _rank_mod_p(gm1, p)
    if dim_im > dim_ker_norm:
        raise ArithmeticError(f"dim im(g - 1) = {dim_im} exceeds dim ker(norm) = {dim_ker_norm}")
    return dim_ker_norm - dim_im


def central_scalar_shortcut(group):
    """A scalar lambda != 1 with lambda*Id in the group, or None.

    When present, all H^i vanish without solving any linear system.  The
    least such lambda is returned, read off the elements in O(|G|).
    """
    return min((a for a, b, c, d in group.elements if a == d != 1 and b == c == 0), default=None)


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
