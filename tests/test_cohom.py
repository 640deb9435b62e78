import random

import pytest
from hypothesis import given, settings, strategies as st

from shaclass.cohom import (
    IDENTITY,
    central_scalar_shortcut,
    close_group,
    gl2_generators,
    h0,
    h1,
    h1_cyclic,
    mat_det,
    mat_mul,
    mat_order,
    sl2_generators,
)
from shaclass.errors import GroupTooLarge, InvalidInput

from conftest import time_limit
from oracles import brute_h0, brute_h1, cyclic_h1_by_counting


def gl2_order(p):
    return (p * p - 1) * (p * p - p)


def random_invertible(rng, p):
    while True:
        m = tuple(rng.randrange(p) for _ in range(4))
        if mat_det(m, p) != 0:
            return m


def singer_cycle(p):
    """An element of order p^2 - 1 (mult. by a generator of F_{p^2}^x)."""
    for a in range(p):
        for b in range(1, p):
            m = (a, b, 1, 0)  # companion-style matrix of x^2 - a x - b
            if mat_det(m, p) != 0 and mat_order(m, p) == p * p - 1:
                return m
    raise AssertionError("no Singer cycle found")


class TestClosure:
    def test_gl2_f5_from_singer_and_transvection(self):
        gens = [singer_cycle(5), (1, 1, 0, 1)]
        group = close_group(gens, 5)
        assert len(group) == 480 == gl2_order(5)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_elements_in_breadth_first_order(self, data):
        """Each element after the identity is e g for an earlier e and a
        generator g, and the least such (index of e, index of g) grows along
        the list: the order a breadth-first walk finds them in, which h1
        relies on."""
        p = data.draw(st.sampled_from((3, 5, 7)))
        entry = st.integers(0, p - 1)
        gens = data.draw(st.lists(st.tuples(entry, entry, entry, entry).filter(lambda m: mat_det(m, p)),
                                  min_size=1, max_size=3))
        group = close_group(gens, p)
        inverses = [
            tuple(x * pow(mat_det(g, p), -1, p) % p for x in (g[3], -g[1], -g[2], g[0]))
            for g in group.generators
        ]
        assert group.elements[0] == IDENTITY
        index = {IDENTITY: 0}
        last = (-1, -1)
        for i, h in enumerate(group.elements[1:], 1):
            pairs = [(index[e], j) for j, e in enumerate(mat_mul(h, g, p) for g in inverses) if e in index]
            assert pairs and min(pairs) > last, (p, gens, h)
            last = min(pairs)
            index[h] = i

    def test_identity_only(self):
        assert len(close_group([IDENTITY], 5)) == 1

    def test_unipotent_order_p(self):
        assert len(close_group([(1, 1, 0, 1)], 5)) == 5

    def test_cap_enforced(self):
        with pytest.raises(GroupTooLarge):
            close_group(gl2_generators(7), 7, cap=100)

    def test_singular_generator_rejected(self):
        with pytest.raises(InvalidInput):
            close_group([(1, 0, 0, 0)], 5)

    def test_closure_property(self):
        rng = random.Random(7)
        group = close_group([random_invertible(rng, 3) for _ in range(2)], 3)
        elems = set(group.elements)
        for a in list(elems)[:10]:
            for b in list(elems)[:10]:
                assert mat_mul(a, b, 3) in elems


class TestH0:
    def test_trivial_group(self):
        assert h0(close_group([IDENTITY], 5)) == 2

    def test_unipotent(self):
        assert h0(close_group([(1, 1, 0, 1)], 5)) == 1

    def test_gl2(self):
        for p in (3, 5):
            assert h0(close_group(gl2_generators(p), p)) == 0

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(20):
            group = close_group([random_invertible(rng, 5)], 5)
            assert h0(group) == brute_h0(group)


class TestH1:
    def test_gl2_sl2_vanishing(self):
        for p in (3, 5):
            for gens in (gl2_generators(p), sl2_generators(p)):
                group = close_group(gens, p)
                assert h1(group) == 0
                assert h0(group) == 0

    def test_unipotent_rank_one(self):
        group = close_group([(1, 1, 0, 1)], 5)
        assert h1(group) == 1

    def test_trivial_group(self):
        assert h1(close_group([IDENTITY], 5)) == 0

    def test_against_full_system_oracle(self):
        cases = [
            (5, [(1, 1, 0, 1)]),  # C5 unipotent
            (5, [(4, 0, 0, 4)]),  # central -1
            (5, [(0, 4, 1, 4)]),  # order 3
            (5, [(1, 1, 0, 1), (4, 0, 0, 4)]),  # C5 x {+-1}
            (3, [(1, 1, 0, 1), (1, 0, 1, 1)]),  # SL2(F3), order 24
            (3, [(0, 2, 1, 0)]),
            (7, [(1, 1, 0, 1)]),
        ]
        for p, gens in cases:
            group = close_group(gens, p)
            assert h1(group) == brute_h1(group), (p, gens)
            assert h0(group) == brute_h0(group), (p, gens)

    def test_coboundary_dimension(self):
        # the coboundary space {g -> (g-1)m} has dimension 2 - h0: count the
        # distinct coboundary maps directly
        rng = random.Random(13)
        for _ in range(10):
            p = rng.choice((3, 5))
            group = close_group([random_invertible(rng, p) for _ in range(2)], p)
            maps = set()
            for m0 in range(p):
                for m1 in range(p):
                    cob = tuple(
                        (
                            (g[0] * m0 + g[1] * m1 - m0) % p,
                            (g[2] * m0 + g[3] * m1 - m1) % p,
                        )
                        for g in group.elements
                    )
                    maps.add(cob)
            dim = 0
            while p**dim < len(maps):
                dim += 1
            assert p**dim == len(maps)
            assert dim == 2 - h0(group)


class TestCyclic:
    def test_unipotent_equals_h0(self):
        for p in (3, 5, 7):
            g = (1, 1, 0, 1)
            group = close_group([g], p)
            assert h1_cyclic(g, p, p) == 1 == h0(group)

    def test_scalar_minus_one(self):
        assert h1_cyclic((4, 0, 0, 4), 2, 5) == 0

    def test_order_three_element(self):
        # [[0,-1],[1,-1]] has order 3 in GL2(F5); computed independently by
        # enumerating ker(norm) and im(g-1) over F_5^2
        g = (0, -1, 1, -1)
        assert cyclic_h1_by_counting((0, 4, 1, 4), 3, 5) == 0
        assert h1_cyclic(g, 3, 5) == 0

    def test_wrong_order_rejected(self):
        with pytest.raises(InvalidInput):
            h1_cyclic((1, 1, 0, 1), 3, 5)

    def test_singular_generator_rejected(self):
        with pytest.raises(InvalidInput, match="not invertible"):
            h1_cyclic((1, 0, 0, 0), 1, 5)

    def test_singular_order_refused_before_any_product(self, monkeypatch):
        # refused by its determinant: powering a singular matrix never
        # reaches the identity, so no bound on the products is safe at large p
        products = []

        def counted_mul(m, n, p):
            products.append(1)
            return mat_mul(m, n, p)

        monkeypatch.setattr("shaclass.cohom.mat_mul", counted_mul)
        with pytest.raises(InvalidInput, match="not invertible"):
            mat_order((1, 0, 0, 0), 31)
        assert products == []

    def test_order_of_an_unreduced_matrix(self):
        # 6 = 1 and -4 = 1 mod 5: each is the identity, of order 1
        assert mat_order((6, 0, 0, 6), 5) == 1
        assert mat_order((-4, 5, 10, 1), 5) == 1
        assert mat_order((9, 0, 0, 9), 5) == mat_order((4, 0, 0, 4), 5) == 2
        with pytest.raises(InvalidInput, match="not invertible"):
            mat_order((6, 5, 0, 5), 5)

    def test_agrees_with_closure_on_random_cyclic(self):
        rng = random.Random(101)
        checked = 0
        while checked < 100:
            p = rng.choice((3, 5, 7))
            g = random_invertible(rng, p)
            order = mat_order(g, p)
            group = close_group([g], p)
            assert h1_cyclic(g, order, p) == h1(group)
            assert h1_cyclic(g, order, p) == cyclic_h1_by_counting(g, order, p)
            checked += 1


class TestShortcut:
    def test_gl2_has_scalar(self):
        group = close_group(gl2_generators(5), 5)
        lam = central_scalar_shortcut(group)
        assert lam is not None and lam != 1

    def test_borel_has_scalar(self):
        group = close_group([(2, 0, 0, 1), (1, 0, 0, 2), (1, 1, 0, 1)], 5)
        assert central_scalar_shortcut(group) is not None

    def test_unipotent_has_none(self):
        assert central_scalar_shortcut(close_group([(1, 1, 0, 1)], 5)) is None

    def test_least_scalar(self):
        # the scalars of GL_2(F_7) are all of F_7^x; those of <3 I> are 3, 2, 6, 4, 5
        assert central_scalar_shortcut(close_group(gl2_generators(7), 7)) == 2
        assert central_scalar_shortcut(close_group([(3, 0, 0, 3)], 7)) == 2
        assert central_scalar_shortcut(close_group([(6, 0, 0, 6), (1, 1, 0, 1)], 7)) == 6

    def test_large_p_costs_the_group_not_p(self):
        # {I, -I} has two elements whatever p is, so finding -I must not
        # cost a pass over F_p
        p = 100000007
        group = close_group([(p - 1, 0, 0, p - 1)], p)
        assert len(group) == 2
        with time_limit(2):
            assert central_scalar_shortcut(group) == p - 1

    def test_soundness_on_random_scalar_groups(self):
        # whenever a non-identity scalar is present, the full linear system
        # must produce h0 = h1 = 0
        rng = random.Random(505)
        for _ in range(50):
            lam = rng.choice((2, 3, 4))
            gens = [(lam, 0, 0, lam)]
            for _ in range(rng.randint(1, 2)):
                gens.append(random_invertible(rng, 5))
            group = close_group(gens, 5)
            assert central_scalar_shortcut(group) is not None
            assert h0(group) == 0
            assert h1(group) == 0


class TestRaisedChecks:
    """Each internal consistency check raises ArithmeticError, so it still
    runs under python -O."""

    def test_cocycle_missing_elements_raises(self, monkeypatch):
        group = close_group([(1, 1, 0, 1)], 5)
        monkeypatch.setattr("shaclass.cohom.mat_mul", lambda m, n, p: IDENTITY)
        with pytest.raises(ArithmeticError, match="cocycle reaches 1 of 5"):
            h1(group)

    def test_cocycles_below_coboundaries_raises(self, monkeypatch):
        group = close_group([(1, 1, 0, 1)], 5)
        monkeypatch.setattr("shaclass.cohom.h0", lambda group: -1)
        with pytest.raises(ArithmeticError, match="below dim B"):
            h1(group)

    def test_cyclic_power_not_identity_raises(self, monkeypatch):
        monkeypatch.setattr("shaclass.cohom.mat_order", lambda m, p: 2)
        with pytest.raises(ArithmeticError, match="not the identity"):
            h1_cyclic((0, 4, 1, 4), 2, 5)  # of order 3

    def test_cyclic_image_above_norm_kernel_raises(self, monkeypatch):
        monkeypatch.setattr("shaclass.cohom._rank_mod_p", lambda rows, p: len(rows))
        with pytest.raises(ArithmeticError, match="exceeds dim ker"):
            h1_cyclic((1, 1, 0, 1), 5, 5)

    def test_no_primitive_root_raises(self, monkeypatch):
        monkeypatch.setattr("shaclass.arith.factor", lambda n: {1: 1})
        with pytest.raises(ArithmeticError, match="no primitive root mod 5"):
            gl2_generators(5)
