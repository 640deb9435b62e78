import random

import pytest

from shaclass.cohom import (
    central_scalar_shortcut,
    close_group,
    cohomology,
    gl2_generators,
    h0,
    h1,
    h1_cyclic,
    identity_matrix,
    mat_det,
    mat_mul,
    mat_order,
    sl2_generators,
)
from shaclass.errors import GroupTooLarge, InvalidInput

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

    def test_identity_only(self):
        assert len(close_group([identity_matrix()], 5)) == 1

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
        assert h0(close_group([identity_matrix()], 5)) == 2

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
        assert h1(close_group([identity_matrix()], 5)) == 0

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

    def test_cohomology_wrapper(self):
        group = close_group(gl2_generators(5), 5)
        via_shortcut = cohomology(group, use_shortcut=True)
        direct = cohomology(group, use_shortcut=False)
        assert (via_shortcut.h0_dim, via_shortcut.h1_dim) == (0, 0)
        assert (direct.h0_dim, direct.h1_dim) == (0, 0)


class TestTwists:
    def test_det_twist_kills_invariants(self):
        from shaclass.cohom import det_power_twist

        # the scalar -1 acts trivially on the standard module after twisting
        # by det (det(-I) = 1, scalar action -1): H^* of <-I> still vanishes
        group = close_group([(4, 0, 0, 4)], 5)
        chi = det_power_twist(1, 5)
        assert h0(group, chi) == 0
        assert h1(group, chi) == 0

    def test_twist_changes_fixed_space(self):
        # diagonal (2, 1): untwisted fixed space is the second axis; after
        # twisting by det^-1 = 1/2 the fixed space moves to the first axis
        group = close_group([(2, 0, 0, 1)], 5)

        def chi(m):
            return pow(mat_det(m, 5), -1, 5)

        assert h0(group) == 1
        assert h0(group, chi) == 1
        assert cohomology(group, twist=chi).module_descriptor.endswith("(twisted)")


class TestRaisedChecks:
    """Each internal consistency check raises ArithmeticError, so it still
    runs under python -O."""

    def test_cocycle_missing_elements_raises(self, monkeypatch):
        group = close_group([(1, 1, 0, 1)], 5)
        monkeypatch.setattr("shaclass.cohom.mat_mul", lambda m, n, p: identity_matrix())
        with pytest.raises(ArithmeticError, match="cocycle reaches 1 of 5"):
            h1(group)

    def test_cocycles_below_coboundaries_raises(self, monkeypatch):
        group = close_group([(1, 1, 0, 1)], 5)
        monkeypatch.setattr("shaclass.cohom.h0", lambda group, twist=None: -1)
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
