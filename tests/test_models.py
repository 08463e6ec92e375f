import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhcalc.models import (
    CPnQuadraticModel,
    ProductModel,
    fixed_points,
    verify_equal_augmented_actions,
)
from qhcalc.spectra import augmented_action, iterate, recap


def model(*lams):
    return CPnQuadraticModel(lambdas=tuple(Fraction(x) for x in lams))


class TestFixedPoints:
    def test_cp1_zero_one(self):
        orbits = fixed_points(model(0, 1))
        data = {(o.orbit_id): (o.action, o.mean_index) for o in orbits}
        assert data == {
            "x0": (Fraction(0), Fraction(-2)),
            "x1": (Fraction(1), Fraction(2)),
        }

    def test_cp2_zero_one_three(self):
        orbits = fixed_points(model(0, 1, 3))
        assert [o.action for o in orbits] == [Fraction(0), Fraction(1), Fraction(3)]
        assert [o.mean_index for o in orbits] == [
            Fraction(-8),
            Fraction(-2),
            Fraction(10),
        ]
        md = model(0, 1, 3).monotone_data
        assert all(augmented_action(o, md) == Fraction(4, 3) for o in orbits)

    def test_shift_invariance(self):
        base = fixed_points(model(0, 1, 3))
        shifted = fixed_points(model(2, 3, 5))
        for a, b in zip(base, shifted):
            assert b.action == a.action + 2
            assert b.mean_index == a.mean_index

    def test_coefficients_are_exact(self):
        """A float coefficient is refused; an int, a Fraction or "1/3" is
        kept exactly."""
        with pytest.raises(TypeError, match="0.1 is a float"):
            CPnQuadraticModel(lambdas=(0, 1, 0.1))
        assert CPnQuadraticModel(lambdas=(0, Fraction(1, 3), "1/2")).lambdas == (
            0, Fraction(1, 3), Fraction(1, 2))

    def test_repeated_lambdas_rejected(self):
        with pytest.raises(ValueError):
            model(1, 1)

    def test_cz_present_when_nondegenerate(self):
        orbits = fixed_points(model(0, Fraction(1, 8), Fraction(3, 8)))
        assert all(o.cz_index is not None for o in orbits)
        assert all(o.weakly_nondegenerate for o in orbits)


class TestEqualAugmentedActions:
    def test_cp1(self):
        report = verify_equal_augmented_actions(model(0, 1))
        assert report.ok
        assert report.common_value == Fraction(1, 2)

    def test_cp3(self):
        report = verify_equal_augmented_actions(model(1, 2, 5, 7))
        assert report.ok
        assert report.common_value == Fraction(15, 4)

    def test_perturbed_detected(self):
        m = model(0, 1, 3)
        orbits = fixed_points(m)
        bad = [replace(orbits[0], mean_index=orbits[0].mean_index + 1)] + orbits[1:]
        report = verify_equal_augmented_actions(m, bad)
        assert not report.ok
        assert report.details

    def test_random_models(self):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(1, 6)
            lams = set()
            while len(lams) < n + 1:
                lams.add(Fraction(rng.randint(-30, 30), rng.randint(1, 9)))
            m = CPnQuadraticModel(lambdas=tuple(sorted(lams)))
            report = verify_equal_augmented_actions(m)
            assert report.ok
            assert report.common_value == sum(m.lambdas) / (n + 1)

    def test_recap_and_iterate_invariance(self):
        m = model(0, Fraction(1, 3), Fraction(5, 2))
        md = m.monotone_data
        for o in fixed_points(m):
            base = augmented_action(o, md)
            for mm in range(-10, 11):
                assert augmented_action(recap(o, mm, md), md) == base
            for k in range(1, 51):
                assert augmented_action(iterate(o, k), md) == k * base


class TestProductModel:
    def test_two_cp1_factors(self):
        pm = ProductModel(factors=(model(0, 1), model(0, 1)))
        orbits = fixed_points(pm)
        assert len(orbits) == 4
        md = pm.monotone_data
        assert all(augmented_action(o, md) == Fraction(1) for o in orbits)

    def test_single_factor_identity(self):
        pm = ProductModel(factors=(model(0, 1),))
        got = {(o.orbit_id, o.action, o.mean_index) for o in fixed_points(pm)}
        want = {
            (o.orbit_id, o.action, o.mean_index) for o in fixed_points(model(0, 1))
        }
        assert got == want

    def test_mismatched_monotonicity_rejected(self):
        with pytest.raises(ValueError):
            ProductModel(factors=(model(0, 1), model(0, 1, 2)))

    def test_equal_actions_preserved(self):
        rng = random.Random(43)
        for _ in range(20):
            def rand_cp1():
                a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                b = a
                while b == a:
                    b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                return model(a, b)

            pm = ProductModel(factors=(rand_cp1(), rand_cp1()))
            assert verify_equal_augmented_actions(pm).ok


class TestTheoremConsistency:
    def test_adversarial_orbits_fail(self):
        m = model(0, 1, 3)
        orbits = fixed_points(m)
        bad = [replace(orbits[0], action=orbits[0].action + 1)] + orbits[1:]
        report = verify_equal_augmented_actions(m, bad)
        assert not report.ok


def cpn_models(n):
    """CP^n models whose coefficients have denominators 1, 2, 3 or 5, so
    that some rotation angles are integers."""
    coefficient = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))
    return st.lists(coefficient, min_size=n + 1, max_size=n + 1, unique=True).map(
        lambda lams: CPnQuadraticModel(lambdas=tuple(lams))
    )


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(1, 5).flatmap(cpn_models))
def test_cpn_rows_closed_form(m):
    """With the trivial capping x_j has action lambda_j and mean index
    2*((n+1)*lambda_j - sum(lambda))."""
    rows = fixed_points(m)
    assert [o.orbit_id for o in rows] == [f"x{j}" for j in range(m.n + 1)]
    total = sum(m.lambdas)
    for o, lj in zip(rows, m.lambdas):
        assert o.action == lj
        assert o.mean_index == 2 * ((m.n + 1) * lj - total)


factor_lists = st.integers(1, 3).flatmap(
    lambda n: st.lists(cpn_models(n), min_size=1, max_size=3)
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(factor_lists, st.sampled_from([Fraction(-1, 3), Fraction(1, 16), Fraction(2)]))
def test_product_rows_from_concatenated_angles(factors, shift):
    assert fixed_points(ProductModel(factors=factors[:1])) == fixed_points(factors[0])

    pm = ProductModel(factors=tuple(factors))
    rows = fixed_points(pm)
    combos = list(itertools.product(*(list(enumerate(f.lambdas)) for f in factors)))
    factor_rows = list(itertools.product(*(fixed_points(f) for f in factors)))
    assert len(rows) == len(combos) == len(factor_rows)
    for row, combo, parts in zip(rows, combos, factor_rows):
        angles = [
            lj - li
            for (j, lj), f in zip(combo, factors)
            for i, li in enumerate(f.lambdas)
            if i != j
        ]
        nondegenerate = all(a.denominator != 1 for a in angles)
        assert row.orbit_id == "*".join(f"x{j}" for j, _ in combo)
        assert row.m == 0
        assert row.action == sum(lj for _, lj in combo)
        assert row.mean_index == 2 * sum(angles)
        assert row.weakly_nondegenerate == nondegenerate
        if nondegenerate:
            assert row.cz_index == sum(2 * math.floor(a) + 1 for a in angles)
            assert row.cz_index == sum(p.cz_index for p in parts)
        else:
            assert row.cz_index is None

    report = verify_equal_augmented_actions(pm)
    assert report.ok and not report.details
    assert report.common_value == sum(sum(f.lambdas) / (f.n + 1) for f in factors)
    for i, row in enumerate(rows):
        perturbed = rows[:i] + [replace(row, action=row.action + shift)] + rows[i + 1:]
        report = verify_equal_augmented_actions(pm, perturbed)
        assert not report.ok
        assert [d.split(":")[0] for d in report.details] == [row.orbit_id]

