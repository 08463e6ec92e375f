import random
from fractions import Fraction

import pytest

from qhcalc.spectra import (
    CappedOrbit,
    MonotoneData,
    augmented_action,
    cz_index_split,
    index_window_check,
    iterate,
    mean_index_split,
    recap,
)


CP1 = MonotoneData(N=2, lam=Fraction(1, 2))


class TestMonotoneData:
    def test_identity_i_omega(self):
        for N, lam in ((2, Fraction(1, 2)), (3, Fraction(1, 3)), (1, Fraction(-1))):
            md = MonotoneData(N=N, lam=lam)
            assert md.I_omega_A == (lam / 2) * md.I_c1_A

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError):
            MonotoneData(N=2, lam=Fraction(0))

    @pytest.mark.parametrize("N", [2.0, Fraction(2)], ids=["float", "Fraction"])
    def test_N_is_an_integer(self, N):
        """N is read with operator.index: N = 2.0 would make lambda0 the
        float 1.0."""
        with pytest.raises(TypeError):
            MonotoneData(N=N, lam=Fraction(1, 2))
        assert MonotoneData(N=2, lam=Fraction(1, 2)).lambda0 == 1


class TestRecap:
    def test_identity(self):
        o = CappedOrbit("x", action=Fraction(1, 2), mean_index=Fraction(2))
        assert recap(o, 0, CP1) == o

    def test_cp1_single_recap(self):
        o = CappedOrbit("x", action=Fraction(0), mean_index=Fraction(0))
        r = recap(o, 1, CP1)
        assert r.action == Fraction(-1)
        assert r.mean_index == Fraction(-4)

    def test_augmented_action_invariant(self):
        rng = random.Random(23)
        for _ in range(40):
            o = CappedOrbit(
                "x",
                action=Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                mean_index=Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
            )
            for m in range(-10, 11):
                assert augmented_action(recap(o, m, CP1), CP1) == augmented_action(
                    o, CP1
                )

    def test_cz_shifts_with_recap(self):
        o = CappedOrbit("x", cz_index=3)
        assert recap(o, 2, CP1).cz_index == 3 - 8


class TestIterate:
    def test_identity(self):
        o = CappedOrbit("x", action=Fraction(1, 3), mean_index=Fraction(5), cz_index=1)
        assert iterate(o, 1) == o

    def test_homogeneity(self):
        o = CappedOrbit("x", action=Fraction(1, 2), mean_index=Fraction(2))
        i = iterate(o, 5)
        assert (i.action, i.mean_index) == (Fraction(5, 2), Fraction(10))

    def test_cz_dropped(self):
        assert iterate(CappedOrbit("x", cz_index=3), 2).cz_index is None

    @pytest.mark.parametrize("k", [Fraction(5, 2), Fraction(2), 2.0],
                             ids=["5/2", "Fraction 2", "float 2"])
    def test_order_is_an_integer(self, k):
        """k is read with operator.index where it enters: k = 5/2 would
        give a "5/2-th iterate" of action 5/6."""
        o = CappedOrbit("x", action=Fraction(1, 3))
        assert iterate(o, 2).action == Fraction(2, 3)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            iterate(o, k)

    def test_multiplicativity(self):
        o = CappedOrbit("x", action=Fraction(2, 7), mean_index=Fraction(-3, 5))
        assert iterate(iterate(o, 2), 3) == iterate(o, 6)

    def test_augmented_homogeneous(self):
        o = CappedOrbit("x", action=Fraction(3, 4), mean_index=Fraction(-5, 2))
        for k in range(1, 51):
            assert augmented_action(iterate(o, k), CP1) == k * augmented_action(
                o, CP1
            )


class TestAugmentedAction:
    def test_zero_mean_index(self):
        o = CappedOrbit("x", action=Fraction(7, 3), mean_index=Fraction(0))
        assert augmented_action(o, CP1) == Fraction(7, 3)

    def test_cp1_model_values(self):
        md = MonotoneData(N=2, lam=Fraction(1, 2))
        x0 = CappedOrbit("x0", action=Fraction(0), mean_index=Fraction(-2))
        x1 = CappedOrbit("x1", action=Fraction(1), mean_index=Fraction(2))
        assert augmented_action(x0, md) == Fraction(1, 2)
        assert augmented_action(x1, md) == Fraction(1, 2)


class TestSplitIndices:
    def test_zero_angles(self):
        assert mean_index_split(()) == 0
        assert mean_index_split((Fraction(0), Fraction(0))) == 0

    def test_homogeneity(self):
        av = (Fraction(1, 3), Fraction(-2, 5))
        for k in range(1, 10):
            assert mean_index_split(tuple(k * a for a in av)) == k * mean_index_split(av)

    def test_interior_angles_give_n(self):
        av = (Fraction(1, 3), Fraction(1, 2), Fraction(7, 8))
        assert cz_index_split(av) == 3

    def test_three_halves(self):
        assert cz_index_split((Fraction(3, 2),)) == 3

    def test_negative_quarter(self):
        assert cz_index_split((Fraction(-1, 4),)) == -1

    def test_degenerate_errors(self):
        with pytest.raises(ValueError, match="degenerate direction: theta = 2"):
            cz_index_split((Fraction(2),))

    def test_index_gap_generic(self):
        # 0 < |Delta - mu_CZ| < n whenever some theta is not in (1/2)Z and
        # the fractional parts do not cancel exactly
        rng = random.Random(31)
        trials = 0
        while trials < 200:
            n = rng.randint(1, 6)
            av = tuple(
                Fraction(rng.randint(-19, 19), rng.choice([3, 4, 5, 7, 8]))
                for _ in range(n)
            )
            if any((2 * a).denominator == 1 for a in av):
                continue
            gap = abs(mean_index_split(av) - cz_index_split(av))
            if gap == 0:
                # exact cancellation of fractional parts is possible for
                # n >= 2; the strict lower bound only holds generically
                assert n >= 2
                continue
            assert 0 < gap < n
            trials += 1


class TestIndexWindow:
    def test_interior(self):
        o = CappedOrbit("x", mean_index=Fraction(2))
        assert index_window_check(o, 4, 2)

    def test_boundary_strictness(self):
        o = CappedOrbit("x", mean_index=Fraction(4), weakly_nondegenerate=True)
        assert not index_window_check(o, 4, 2)
        o2 = CappedOrbit("x", mean_index=Fraction(4))
        assert index_window_check(o2, 4, 2)

    def test_lower_edge(self):
        o = CappedOrbit("x", mean_index=Fraction(-2))
        assert index_window_check(o, 0, 2)


# Each entry that reads numbers: a function of one number x.
_EXACT_ENTRIES = {
    "MonotoneData": lambda x: MonotoneData(N=2, lam=x).lam,
    "CappedOrbit.action": lambda x: CappedOrbit("x", action=x).action,
    "CappedOrbit.mean_index": lambda x: CappedOrbit("x", mean_index=x).mean_index,
    "mean_index_split": lambda x: mean_index_split((x,)) / 2,
    "cz_index_split": lambda x: cz_index_split((x,)),
}


@pytest.mark.parametrize("entry", sorted(_EXACT_ENTRIES))
def test_entries_refuse_a_float(entry):
    """0.1 is a binary approximation, not 1/10: no float enters the calculus."""
    with pytest.raises(TypeError, match="0.1 is a float"):
        _EXACT_ENTRIES[entry](0.1)


@pytest.mark.parametrize("entry", sorted(_EXACT_ENTRIES))
def test_entries_take_exact_numbers(entry):
    """An int, a Fraction and a rational string still enter, exactly."""
    read = _EXACT_ENTRIES[entry]
    if entry == "cz_index_split":  # 2*floor(theta) + 1, none for an integer theta
        assert read(Fraction(7, 3)) == read("7/3") == 5
        with pytest.raises(ValueError, match="degenerate direction: theta = 2"):
            read(2)
    else:
        assert read(Fraction(1, 3)) == read("1/3") == Fraction(1, 3)
        assert read(2) == 2


@pytest.mark.parametrize("field, value", [
    ("m", 0.5), ("m", 1.0), ("m", Fraction(1)), ("cz_index", 1.0), ("cz_index", "1"),
], ids=["m 0.5", "m 1.0", "m Fraction 1", "cz 1.0", "cz str"])
def test_capping_and_cz_index_are_integers(field, value):
    """A capping m and a Conley-Zehnder index are read with operator.index,
    so m = 0.5 cannot reach a recapped orbit or the JSON output; an absent
    index stays None."""
    with pytest.raises(TypeError):
        CappedOrbit("x", **{field: value})
    with pytest.raises(TypeError):
        recap(CappedOrbit("x", cz_index=1), value, CP1)
    o = CappedOrbit("x", m=1, cz_index=3)
    assert (o.m, o.cz_index) == (1, 3)
    assert CappedOrbit("x").cz_index is None
