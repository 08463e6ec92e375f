import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhcalc.carriers import (
    CarrierAssignment,
    _cappings,
    _fundamental_class_carrier,
    OrbitTable,
    TableOrbit,
    admissible_assignments,
    check_assignment,
    counting_check,
    distinctness_check,
    neg_monotone_obstruction,
    relation_verdict,
    stable_subsequence,
)
from qhcalc.ladders import Decomposition, build_ladder, case_ii_ladder
from qhcalc.models import CPnQuadraticModel, cpn_fixed_points
from qhcalc.rings import CPn, Grassmannian
from qhcalc.spectra import CappedOrbit, MonotoneData

from oracles import brute_force_assignments, slot_candidates

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97]


def model_table(*lams):
    model = CPnQuadraticModel(lambdas=tuple(Fraction(x) for x in lams))
    orbits = tuple(
        TableOrbit(o.orbit_id, o.action, o.mean_index)
        for o in cpn_fixed_points(model)
    )
    return OrbitTable(md=model.monotone_data, n=model.n, orbits=orbits)


def cpn_ladder(n):
    ring = CPn(n=n)
    dec = Decomposition(u0=ring.one(), factors=(ring.basis_class(1),) * (n + 1), nu=1)
    return build_ladder(ring, dec)


def g24_nu2_ladder():
    ring = Grassmannian(k=2, N=4)
    return case_ii_ladder(ring, ring.basis_class((1,)), 1, 9)


# (complex dimension, minimal Chern number, ladder): the CP^n ladders of
# u^(n+1) = q and the nu = 2 ladder of G(2,4)
ORACLE_LADDERS = tuple((n, n + 1, cpn_ladder(n)) for n in range(1, 5)) + (
    (4, 4, g24_nu2_ladder()),
)


@st.composite
def carrier_searches(draw):
    """An orbit table, a ladder and a few primes below 30.

    Half the tables are quadratic-model fixed points on CP^(N-1) (with one
    action sometimes shifted by an odd multiple of 1/16), half are random
    rows; the flags are random and lambda has either sign.
    """
    n, n_chern, ladder = draw(st.sampled_from(ORACLE_LADDERS))
    lam = draw(st.sampled_from([1, -1])) * Fraction(1, n_chern)
    if draw(st.booleans()):
        lams = draw(st.lists(st.integers(-12, 12), min_size=n_chern, max_size=n_chern,
                             unique=True))
        den = draw(st.sampled_from([5, 7, 8, 9, 16]))
        model = CPnQuadraticModel(lambdas=tuple(Fraction(x, den) for x in lams))
        rows = [(o.action, o.mean_index) for o in cpn_fixed_points(model)]
        shift = draw(st.sampled_from([0, 0, -3, -1, 1, 3]))
        j = draw(st.integers(0, len(rows) - 1))
        rows[j] = (rows[j][0] + Fraction(shift, 16), rows[j][1])
    else:
        rows = draw(st.lists(
            st.tuples(
                st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 4, 8])),
                st.builds(Fraction, st.integers(-2 * n - 2, 2 * n + 2), st.sampled_from([1, 2, 3])),
            ),
            min_size=1, max_size=n + 2,
        ))
    flags = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    table = OrbitTable(
        md=MonotoneData(N=n_chern, lam=lam), n=n,
        orbits=tuple(
            TableOrbit(f"x{i}", a, d, flag) for i, ((a, d), flag) in enumerate(zip(rows, flags))
        ),
    )
    ks = draw(st.lists(st.sampled_from([p for p in PRIMES if p < 30]), min_size=1,
                       max_size=4, unique=True))
    return table, ladder, sorted(ks)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(carrier_searches())
def test_search_matches_brute_force(case):
    table, ladder, ks = case
    expected = {k: brute_force_assignments(table, ladder, k) for k in ks}
    for k in ks:
        assert admissible_assignments(table, ladder, k) == expected[k]
    report = stable_subsequence(table, ladder, ks)
    assert report.assignments == tuple((k, expected[k][0]) for k in ks if expected[k])
    assert report.failures == tuple(k for k in ks if not expected[k])


@st.composite
def window_edge_tables(draw):
    """An orbit table, a ladder and a few primes, with every row's iterated,
    capped mean index exactly on an end of a slot's index window, or of the
    fundamental class's, at one of the primes.

    lambda0 is 4/3 or 5/2 with either sign, the actions have the coprime
    denominators 7, 11 and 13 and are drawn from a pool of two, so that
    actions tie; the flags are random and the ids unsorted.
    """
    n, n_chern, ladder = draw(st.sampled_from(ORACLE_LADDERS))
    lambda0 = draw(st.sampled_from([1, -1])) * draw(st.sampled_from(
        [Fraction(4, 3), Fraction(5, 2)]))
    ks = sorted(draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1,
                              max_size=3, unique=True)))
    actions = draw(st.lists(
        st.builds(Fraction, st.integers(-40, 40), st.sampled_from([7, 11, 13])),
        min_size=2, max_size=2,
    ))
    count = draw(st.integers(1, n + 2))
    ids = draw(st.permutations([f"x{i}" for i in range(count)]))
    rows = []
    for oid in ids:
        k = draw(st.sampled_from(ks))
        deg = draw(st.sampled_from(ladder.hom_degrees + (2 * n,)))
        end = draw(st.sampled_from([deg, deg - 2 * n]))
        m = draw(st.integers(-2, 2))
        # k * delta - 2N * m == end: the capping m of the k-th iterate sits on the end
        delta = Fraction(end + 2 * n_chern * m, k)
        rows.append(TableOrbit(oid, draw(st.sampled_from(actions)), delta, draw(st.booleans())))
    md = MonotoneData(N=n_chern, lam=lambda0 / n_chern)
    return OrbitTable(md=md, n=n, orbits=tuple(rows)), ladder, ks


@settings(derandomize=True, deadline=None, max_examples=150)
@given(window_edge_tables())
def test_window_edges_match_oracle(case):
    table, ladder, ks = case
    D = table.scaled.D
    for k in ks:
        for deg in set(ladder.hom_degrees) | {2 * table.n}:
            expected = slot_candidates(table, deg, k)
            assert [(oid, m, Fraction(a, D)) for oid, m, a in _cappings(table, deg, k)] == [
                (c.orbit_id, c.m, c.action) for c in expected
            ]
        assert admissible_assignments(table, ladder, k) == brute_force_assignments(
            table, ladder, k
        )
        assert _fundamental_class_carrier(table, k) == min(
            slot_candidates(table, 2 * table.n, k),
            key=lambda c: (-c.action, c.orbit_id, c.m), default=None,
        )


def test_one_orbit_type():
    assert TableOrbit is CappedOrbit
    row = TableOrbit("x", Fraction(1, 3), Fraction(2), True)
    assert (row.action, row.mean_index, row.weakly_nondegenerate, row.m) == (
        Fraction(1, 3), Fraction(2), True, 0
    )


class TestAdmissibleAssignments:
    def test_cp1_model_full_image(self):
        table = model_table(0, Fraction(1, 8))
        ladder = cpn_ladder(1)
        for k in (1, 2, 3, 5, 7):
            assignments = admissible_assignments(table, ladder, k)
            assert assignments
            for a in assignments:
                assert check_assignment(table, ladder, a)
                assert set(a.phi()) == {"x0", "x1"}

    def test_infeasible_window_empty(self):
        md = MonotoneData(N=2, lam=Fraction(1, 2))
        table = OrbitTable(
            md=md, n=1,
            orbits=(TableOrbit("x", Fraction(0), Fraction(5, 2)),),
        )
        assert admissible_assignments(table, cpn_ladder(1), 1) == []

    def test_equal_action_ties_give_multiple(self):
        md = MonotoneData(N=2, lam=Fraction(1, 2))
        table = OrbitTable(
            md=md, n=1,
            orbits=(
                TableOrbit("x", Fraction(0), Fraction(0)),
                TableOrbit("y", Fraction(0), Fraction(0)),
            ),
        )
        assignments = admissible_assignments(table, cpn_ladder(1), 1)
        assert len(assignments) >= 2
        assert assignments == sorted(assignments, key=lambda a: a.slots)

    def test_post_hoc_checker_rejects_mutations(self):
        table = model_table(0, Fraction(1, 8))
        ladder = cpn_ladder(1)
        a = admissible_assignments(table, ladder, 3)[0]
        # shift a capping out of its index window
        oid, m = a.slots[0]
        bad = CarrierAssignment(k=a.k, slots=((oid, m + 5),) + a.slots[1:])
        assert not check_assignment(table, ladder, bad)


class TestStableSubsequence:
    def test_cp1_stable_majority(self):
        primes = [p for p in PRIMES if p <= 50]
        table = model_table(0, Fraction(1, 8))
        report = stable_subsequence(table, cpn_ladder(1), primes)
        assert not report.failures
        # the index windows force one of two phi patterns depending on k;
        # the stable subsequence is the larger residue class
        assert len(report.stable_ks) >= len(primes) // 2
        assert set(report.phi) == {"x0", "x1"}
        assignments = dict(report.assignments)
        for k in report.stable_ks:
            assert assignments[k].phi() == report.phi

    def test_pigeonhole_length_bound(self):
        table = model_table(0, Fraction(1, 8), Fraction(3, 8))
        report = stable_subsequence(table, cpn_ladder(2), PRIMES)
        n_possible = len(set(a.phi() for _, a in report.assignments))
        assert len(report.stable_ks) * max(n_possible, 1) >= len(report.assignments)

    def test_unsorted_primes_rejected(self):
        table = model_table(0, Fraction(1, 8))
        with pytest.raises(ValueError):
            stable_subsequence(table, cpn_ladder(1), [5, 3])


class TestCountingCheck:
    def test_consistent_model_zero_slope(self):
        table = model_table(0, Fraction(1, 8))
        report = stable_subsequence(table, cpn_ladder(1), PRIMES)
        verdict = counting_check(report, "x1", "x0")
        assert verdict.ok
        assert verdict.slope == 0
        for _, m_act, m_idx, diff in verdict.per_k:
            assert abs(diff) <= verdict.bound

    def test_trivial_same_orbit(self):
        table = model_table(0, Fraction(1, 8))
        report = stable_subsequence(table, cpn_ladder(1), PRIMES[:5])
        assert counting_check(report, "x0", "x0").ok

    def test_perturbed_slope_diverges(self):
        delta = Fraction(1, 16)
        base = model_table(0, Fraction(1, 8))
        orbits = (
            TableOrbit("x0", base.orbits[0].action + delta, base.orbits[0].mean_index),
            base.orbits[1],
        )
        table = OrbitTable(md=base.md, n=base.n, orbits=orbits)
        small = [2, 3, 5, 7]
        report = stable_subsequence(table, cpn_ladder(1), small)
        if report.stable_ks:
            verdict = counting_check(report, "x1", "x0")
            assert not verdict.ok
            assert verdict.slope == -delta / base.md.lambda0
            diffs = {k: abs(d) for k, _, _, d in verdict.per_k}
            ks = sorted(diffs)
            assert diffs[ks[-1]] > diffs[ks[0]]


class TestRelationVerdict:
    def test_cp1_cp2_consistent(self):
        for lams, n in (((0, Fraction(1, 8)), 1), ((0, Fraction(1, 8), Fraction(3, 8)), 2)):
            table = model_table(*lams)
            assert relation_verdict(table, cpn_ladder(n), PRIMES).status == "consistent"

    def test_cp6_consistent(self):
        # full enumeration needs seconds per prime here; the pruned search
        # covers all 25 primes below 100
        table = model_table(*(Fraction(j * j + 1, 15) for j in range(7)))
        assert relation_verdict(table, cpn_ladder(6), PRIMES).status == "consistent"

    def test_single_orbit_vacuous(self):
        md = MonotoneData(N=2, lam=Fraction(1, 2))
        table = OrbitTable(
            md=md, n=1, orbits=(TableOrbit("x", Fraction(0), Fraction(0)),)
        )
        verdict = relation_verdict(table, cpn_ladder(1), [2, 3, 5])
        # single orbit can never produce an unequal pair
        assert verdict.status in ("consistent", "contradiction")
        if verdict.status == "contradiction":
            assert verdict.witness[0] == "no admissible assignment"

    def test_perturbations_contradict(self):
        rng = random.Random(47)
        for lams, n in (((0, Fraction(1, 8)), 1), ((0, Fraction(1, 8), Fraction(3, 8)), 2)):
            base = model_table(*lams)
            for _ in range(5):
                idx = rng.randrange(len(base.orbits))
                delta = Fraction(rng.choice([-5, -3, -1, 1, 3, 5]), 16)
                orbits = list(base.orbits)
                orbits[idx] = TableOrbit(
                    orbits[idx].orbit_id, orbits[idx].action + delta, orbits[idx].mean_index
                )
                table = OrbitTable(md=base.md, n=base.n, orbits=tuple(orbits))
                verdict = relation_verdict(table, cpn_ladder(n), PRIMES)
                assert verdict.status == "contradiction", (lams, idx, delta)


class TestDistinctness:
    def test_nu_one_action_mechanism(self):
        table = model_table(0, Fraction(1, 8), Fraction(3, 8))
        ladder = cpn_ladder(2)
        a = admissible_assignments(table, ladder, 5)[0]
        verdict = distinctness_check(ladder, a, nondegenerate=False)
        assert verdict.status == "distinct"
        assert verdict.mechanism == "action"

    def test_nu_two_needs_nondegeneracy(self):
        ring = Grassmannian(k=2, N=4)
        ladder = case_ii_ladder(ring, ring.basis_class((1,)), 1, 9)
        assert ladder.nu == 2
        a = CarrierAssignment(k=1, slots=(("a", 0), ("b", 0), ("c", 0), ("d", 0)))
        inconclusive = distinctness_check(ladder, a, nondegenerate=False)
        assert inconclusive.status == "inconclusive"
        ok = distinctness_check(ladder, a, nondegenerate=True)
        assert ok.status == "distinct"
        assert ok.mechanism == "index"

    def test_repeat_detected(self):
        ladder = cpn_ladder(1)
        a = CarrierAssignment(k=1, slots=(("x", 0), ("x", 1)))
        verdict = distinctness_check(ladder, a, nondegenerate=False)
        assert verdict.status == "not_distinct"


class TestNegMonotone:
    def test_positive_mean_index_contradiction(self):
        md = MonotoneData(N=1, lam=Fraction(-1))
        table = OrbitTable(
            md=md, n=1,
            orbits=(TableOrbit("x", Fraction(1, 3), Fraction(1, 2)),),
        )
        verdict = neg_monotone_obstruction(table, PRIMES)
        assert verdict.status == "contradiction"
        assert verdict.witness

    def test_all_zero_mean_index_degenerate(self):
        md = MonotoneData(N=1, lam=Fraction(-1))
        table = OrbitTable(
            md=md, n=1,
            orbits=(
                TableOrbit("x", Fraction(1, 5), Fraction(0)),
                TableOrbit("y", Fraction(0), Fraction(0)),
            ),
        )
        verdict = neg_monotone_obstruction(table, PRIMES)
        assert verdict.status == "no_obstruction"
        assert any("degenerate" in d for d in verdict.details)

    def test_unsorted_primes_rejected(self):
        """k_1 is the first stable iteration, so the order is the verdict's:
        over [2, 3, 5, 7] this table has no obstruction."""
        table = OrbitTable(
            md=MonotoneData(N=1, lam=Fraction(-1)), n=1,
            orbits=(TableOrbit("x", Fraction(-6), Fraction(-3, 4)),),
        )
        assert neg_monotone_obstruction(table, [2, 3, 5, 7]).status == "no_obstruction"
        for primes in ([3, 2, 5, 7], [2, 3, 3, 5]):
            with pytest.raises(ValueError, match="strictly increasing"):
                neg_monotone_obstruction(table, primes)

    def test_positive_lambda_rejected(self):
        md = MonotoneData(N=2, lam=Fraction(1, 2))
        table = OrbitTable(
            md=md, n=1, orbits=(TableOrbit("x", Fraction(0), Fraction(0)),)
        )
        with pytest.raises(ValueError):
            neg_monotone_obstruction(table, PRIMES)

    def test_random_positive_delta_tables(self):
        rng = random.Random(53)
        for _ in range(10):
            md = MonotoneData(N=1, lam=Fraction(-1))
            table = OrbitTable(
                md=md, n=1,
                orbits=(
                    TableOrbit(
                        "x",
                        Fraction(rng.randint(-5, 5), 7),
                        Fraction(rng.choice([1, 3, 5, 7]), 2),
                    ),
                ),
            )
            verdict = neg_monotone_obstruction(table, PRIMES)
            assert verdict.status == "contradiction"
