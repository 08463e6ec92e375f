import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhcalc import carriers
from qhcalc.carriers import (
    DEGENERATE,
    CarrierAssignment,
    _assignments,
    _cappings,
    _fundamental_class_carrier,
    OrbitTable,
    admissible_assignments,
    check_assignment,
    counting_check,
    distinctness_check,
    neg_monotone_obstruction,
    relation_verdict,
    stable_subsequence,
)
from qhcalc.ladders import Decomposition, build_ladder, case_ii_ladder, search_decompositions
from qhcalc.models import CPnQuadraticModel, ProductModel, fixed_points
from qhcalc.rings import CPn, Grassmannian, ProductRing
from qhcalc.spectra import CappedOrbit, MonotoneData, index_window_check

from oracles import (
    brute_force_assignments,
    fundamental_class_carrier,
    neg_monotone_oracle,
    relation_oracle,
    slot_candidates,
)

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97]


def model_table(*lams):
    model = CPnQuadraticModel(lambdas=tuple(Fraction(x) for x in lams))
    orbits = tuple(
        CappedOrbit(o.orbit_id, o.action, o.mean_index)
        for o in fixed_points(model)
    )
    return OrbitTable(md=model.monotone_data, n=model.n, orbits=orbits)


def cpn_ladder(n):
    ring = CPn(n=n)
    dec = Decomposition(u0=ring.one(), factors=(ring.basis_class(1),) * (n + 1), nu=1)
    return build_ladder(ring, dec)


def g24_nu2_ladder():
    ring = Grassmannian(k=2, N=4)
    return case_ii_ladder(ring, ring.basis_class((1,)), 1, 9)


def cp1xcp1_ladder():
    """The ladder of 1 * (1 x u) * (1 x u) = q on CP^1 x CP^1."""
    ring = ProductRing(factors=(CPn(n=1), CPn(n=1)))
    u = ring.basis_class((0, 1))
    return build_ladder(ring, Decomposition(u0=ring.one(), factors=(u, u), nu=1))


# (complex dimension, minimal Chern number, ladder): the CP^n ladders of
# u^(n+1) = q, the nu = 2 ladder of G(2,4) and the ladder of a product ring
ORACLE_LADDERS = tuple((n, n + 1, cpn_ladder(n)) for n in range(1, 5)) + (
    (4, 4, g24_nu2_ladder()),
    (2, 2, cp1xcp1_ladder()),
)


@st.composite
def carrier_searches(draw):
    """An orbit table, a ladder and a few primes below 30.

    Half the tables are quadratic-model fixed points on CP^(N-1), or on the
    product ring's CP^1 x CP^1 (with one action sometimes shifted by an odd
    multiple of 1/16), half are random rows; the flags are random and lambda
    has either sign.
    """
    n, n_chern, ladder = draw(st.sampled_from(ORACLE_LADDERS))
    lam = draw(st.sampled_from([1, -1])) * Fraction(1, n_chern)
    if draw(st.booleans()):
        ring = ladder.window[0].ring
        dims = ([f.complex_dim for f in ring.factors] if isinstance(ring, ProductRing)
                else [n_chern - 1])
        lams = [draw(st.lists(st.integers(-12, 12), min_size=d + 1, max_size=d + 1,
                              unique=True)) for d in dims]
        den = draw(st.sampled_from([5, 7, 8, 9, 16]))
        factors = [CPnQuadraticModel(lambdas=tuple(Fraction(x, den) for x in xs))
                   for xs in lams]
        model = factors[0] if len(factors) == 1 else ProductModel(factors=tuple(factors))
        rows = [(o.action, o.mean_index) for o in fixed_points(model)]
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
            CappedOrbit(f"x{i}", a, d, flag)
            for i, ((a, d), flag) in enumerate(zip(rows, flags))
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
    if table.md.lam > 0:
        verdict = relation_verdict(table, ladder, ks)
        assert (verdict.status, verdict.witness, verdict.details) == relation_oracle(
            table, ladder, ks)


@st.composite
def window_edge_tables(draw, oracle_ladder):
    """An orbit table for one entry of ORACLE_LADDERS, its ladder and a few
    primes, with every row's iterated, capped mean index exactly on an end
    of a slot's index window, or of the fundamental class's, at one of the
    primes.

    lambda0 is 4/3 or 5/2 with either sign, the actions have the coprime
    denominators 7, 11 and 13 and are drawn from a pool of two, so that
    actions tie; the flags are random and the ids unsorted.
    """
    n, n_chern, ladder = oracle_ladder
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
        rows.append(CappedOrbit(oid, draw(st.sampled_from(actions)), delta, draw(st.booleans())))
    md = MonotoneData(N=n_chern, lam=lambda0 / n_chern)
    return OrbitTable(md=md, n=n, orbits=tuple(rows)), ladder, ks


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.tuples(*map(window_edge_tables, ORACLE_LADDERS)))
def test_window_edges_match_oracle(cases):
    """One table per ladder in each example, so that every ladder, the
    product ring's included, has its own share of the draws."""
    for table, ladder, ks in cases:
        check_window_edges(table, ladder, ks)


def check_window_edges(table, ladder, ks):
    D = table.scaled.D
    for k in ks:
        for deg in set(ladder.hom_degrees) | {2 * table.n}:
            expected = slot_candidates(table, deg, k)
            assert [(oid, m, Fraction(a, D)) for (oid, m), a in _cappings(table, deg, k)] == [
                (c.orbit_id, c.m, c.action) for c in expected
            ]
        assert admissible_assignments(table, ladder, k) == brute_force_assignments(
            table, ladder, k
        )
        best = fundamental_class_carrier(table, k)
        found = _fundamental_class_carrier(table, k)
        assert (found is None) == (best is None)
        if found is not None:
            (oid, m), a = found
            assert (oid, m, Fraction(a, D)) == (best.orbit_id, best.m, best.action)


def test_one_orbit_type():
    row = CappedOrbit("x", Fraction(1, 3), Fraction(2), True)
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

    @pytest.mark.parametrize("k", [Fraction(5, 2), Fraction(2)], ids=["5/2", "Fraction 2"])
    def test_iteration_is_an_integer(self, k):
        """The iteration k is read with operator.index: k = 5/2 would yield
        assignments of a half iterate."""
        table, ladder = model_table(0, Fraction(1, 8)), cpn_ladder(1)
        assert admissible_assignments(table, ladder, 2)
        with pytest.raises(TypeError):
            admissible_assignments(table, ladder, k)

    @pytest.mark.parametrize("n", [1.0, Fraction(1)], ids=["float", "Fraction"])
    def test_dimension_is_an_integer(self, n):
        """A table's n is read with operator.index: n = 1.0 would be
        accepted here and fail later, inside range, in the verdicts."""
        table = model_table(0, Fraction(1, 8))
        with pytest.raises(TypeError):
            OrbitTable(md=table.md, n=n, orbits=table.orbits)

    def test_infeasible_window_empty(self):
        md = MonotoneData(N=2, lam=Fraction(1, 2))
        table = OrbitTable(
            md=md, n=1,
            orbits=(CappedOrbit("x", Fraction(0), Fraction(5, 2)),),
        )
        assert admissible_assignments(table, cpn_ladder(1), 1) == []

    def test_equal_action_ties_give_multiple(self):
        md = MonotoneData(N=2, lam=Fraction(1, 2))
        table = OrbitTable(
            md=md, n=1,
            orbits=(
                CappedOrbit("x", Fraction(0), Fraction(0)),
                CappedOrbit("y", Fraction(0), Fraction(0)),
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

    def test_post_hoc_checker_rejects_a_wrong_length(self):
        table = model_table(0, Fraction(1, 8))
        ladder = cpn_ladder(1)
        a = admissible_assignments(table, ladder, 3)[0]
        for slots in (a.slots[:1], a.slots + a.slots[:1]):
            assert not check_assignment(table, ladder, CarrierAssignment(k=a.k, slots=slots))

    def test_post_hoc_checker_rejects_a_repeated_capped_orbit(self):
        """A row with delta = 0 fits every slot of the CP^2 ladder.  Slots
        x, y, x tie their actions between distinct neighbours and drop by
        lambda0 where the period closes, so the order around the period
        holds; only the repeated capped orbit (x, 0) rules them out."""
        md = MonotoneData(N=3, lam=Fraction(1, 3))
        table = OrbitTable(md=md, n=2, orbits=(
            CappedOrbit("x", Fraction(0), Fraction(0)),
            CappedOrbit("y", Fraction(0), Fraction(0)),
        ))
        ladder = cpn_ladder(2)
        slots = (("x", 0), ("y", 0), ("x", 0))
        capped = [table.orbit(oid) for oid, _ in slots]
        assert all(index_window_check(c, deg, table.n)
                   for c, deg in zip(capped, ladder.hom_degrees))
        assert carriers._ordering_ok(capped, ladder.nu, md)
        assert not check_assignment(table, ladder, CarrierAssignment(k=1, slots=slots))
        assert admissible_assignments(table, ladder, 1) == []

    def test_unknown_orbit_id_is_a_key_error(self):
        with pytest.raises(KeyError):
            model_table(0, Fraction(1, 8)).orbit("x9")


def product_model_table(*lams):
    """The fixed points of the CP^1 x CP^1 model with the given pairs of lambdas."""
    model = ProductModel(factors=tuple(
        CPnQuadraticModel(lambdas=tuple(Fraction(x) for x in pair)) for pair in lams))
    return OrbitTable(md=model.monotone_data, n=model.n, orbits=tuple(fixed_points(model)))


class TestSearchWork:
    @pytest.mark.parametrize("table, ladder, k, count", [
        (model_table(*(Fraction(j * j + 1, 15) for j in range(4))), cpn_ladder(3), 15, 108),
        (OrbitTable(md=MonotoneData(N=4, lam=Fraction(1, 4)), n=4, orbits=tuple(
            CappedOrbit(f"x{i}", Fraction(i, 7), Fraction(2 * i - 3, 5)) for i in range(5))),
         g24_nu2_ladder(), 2, 47),
        (product_model_table((0, Fraction(1, 8)), (0, Fraction(3, 8))), cp1xcp1_ladder(), 5, 10),
    ], ids=["CP3", "G(2,4) nu=2", "CP1xCP1"])
    def test_first_assignment_is_found_lazily(self, table, ladder, k, count, monkeypatch):
        """A verdict reads only the first assignment, so the search must stop
        there: next() builds exactly one CarrierAssignment and lists each
        slot's candidates once, in slot order.  A search that built every
        assignment before yielding the first would build `count` of them."""
        every = admissible_assignments(table, ladder, k)
        assert len(every) == count
        built, listed = [], []

        def counted_assignment(*args, **kwargs):
            built.append(kwargs)
            return CarrierAssignment(*args, **kwargs)

        def counted_cappings(table, deg_hom, k):
            listed.append(deg_hom)
            return _cappings(table, deg_hom, k)

        monkeypatch.setattr(carriers, "CarrierAssignment", counted_assignment)
        monkeypatch.setattr(carriers, "_cappings", counted_cappings)
        assert next(_assignments(table, ladder, k)) == every[0]
        assert len(built) == 1
        assert listed == list(ladder.hom_degrees)


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

    @pytest.mark.parametrize("primes", [[Fraction(5, 2), 3], [2, Fraction(3)]],
                             ids=["5/2", "Fraction 3"])
    def test_primes_are_integers(self, primes):
        """Each prime is read with operator.index: a stable subsequence of
        (5/2, 3) would be reported, and a consistent verdict on it."""
        table, ladder = model_table(0, Fraction(1, 8)), cpn_ladder(1)
        with pytest.raises(TypeError):
            stable_subsequence(table, ladder, primes)
        with pytest.raises(TypeError):
            relation_verdict(table, ladder, primes)
        negmon = OrbitTable(
            md=MonotoneData(N=1, lam=Fraction(-1)), n=1,
            orbits=(CappedOrbit("x", Fraction(1, 3), Fraction(1, 2), True),),
        )
        with pytest.raises(TypeError):
            neg_monotone_obstruction(negmon, primes)

    @pytest.mark.parametrize("primes", [[], [0, 3, 5], [-7, 3, 5]])
    def test_iterations_below_one_rejected(self, primes):
        """Both verdicts need at least one iteration, each k >= 1."""
        table = model_table(0, Fraction(1, 8))
        with pytest.raises(ValueError, match="iteration order must be >= 1"):
            relation_verdict(table, cpn_ladder(1), primes)
        negmon = OrbitTable(
            md=MonotoneData(N=1, lam=Fraction(-1)), n=1,
            orbits=(CappedOrbit("x", Fraction(1, 3), Fraction(1, 2), True),),
        )
        with pytest.raises(ValueError, match="iteration order must be >= 1"):
            neg_monotone_obstruction(negmon, primes)


class TestCountingCheck:
    def test_consistent_model_zero_slope(self):
        table = model_table(0, Fraction(1, 8))
        report = stable_subsequence(table, cpn_ladder(1), PRIMES)
        verdict = counting_check(report, "x1", "x0")
        assert verdict.status == "consistent"
        assert verdict.witness == ()

    def test_trivial_same_orbit(self):
        table = model_table(0, Fraction(1, 8))
        report = stable_subsequence(table, cpn_ladder(1), PRIMES[:5])
        assert counting_check(report, "x0", "x0").status == "consistent"

    @pytest.mark.parametrize("x_id, y_id", [("nope", "nope"), ("x0", "nope"), ("nope", "x0")])
    def test_ids_outside_the_stable_image_rejected(self, x_id, y_id):
        table = model_table(0, Fraction(1, 8))
        report = stable_subsequence(table, cpn_ladder(1), PRIMES[:5])
        with pytest.raises(ValueError, match="nope is not in the stable image"):
            counting_check(report, x_id, y_id)

    def test_perturbed_slope_diverges(self):
        delta = Fraction(1, 16)
        base = model_table(0, Fraction(1, 8))
        orbits = (
            CappedOrbit("x0", base.orbits[0].action + delta, base.orbits[0].mean_index),
            base.orbits[1],
        )
        table = OrbitTable(md=base.md, n=base.n, orbits=orbits)
        small = [2, 3, 5, 7]
        report = stable_subsequence(table, cpn_ladder(1), small)
        if report.stable_ks:
            verdict = counting_check(report, "x1", "x0")
            assert verdict.status == "contradiction"
            slope = -delta / base.md.lambda0
            assert verdict.witness == ("x1", "x0", slope)

    def test_relation_verdict_is_the_first_contradicting_check(self):
        table = model_table(0, Fraction(1, 8))
        orbits = (CappedOrbit("x0", Fraction(1, 16), table.orbits[0].mean_index),
                  table.orbits[1])
        table = OrbitTable(md=table.md, n=table.n, orbits=orbits)
        report = stable_subsequence(table, cpn_ladder(1), [2, 3, 5, 7])
        verdict = relation_verdict(table, cpn_ladder(1), [2, 3, 5, 7])
        assert verdict == counting_check(report, "x0", "x1")
        assert verdict.status == "contradiction"


# The rings of the two model sweeps below, as the CP^d factors of their models
SWEEP_FACTORS = ((1,), (2,), (3,), (1, 1))


def sweep_ring(dims):
    rings = tuple(CPn(n=d) for d in dims)
    return rings[0] if len(rings) == 1 else ProductRing(factors=rings)


def sweep_ladders(ring, nu_max):
    """The ladder of every decomposition that the search finds with
    ell <= n + 1 and nu <= nu_max."""
    return [build_ladder(ring, dec)
            for dec in search_decompositions(ring, ring.complex_dim + 1, nu_max)]


def isolated_model_rows(rng, dims, dens):
    """The model with one CP^d factor per d in dims, each with actions x/den
    for x in -12..12 and den in dens (den > d), drawn again until no two of a
    factor's actions differ by an integer, so that its fixed points are
    isolated (ROADMAP item 16); with its fixed-point rows."""
    factors = []
    for d in dims:
        den = rng.choice([q for q in dens if q > d])
        xs = rng.sample(range(-12, 13), d + 1)
        while len({x % den for x in xs}) <= d:
            xs = rng.sample(range(-12, 13), d + 1)
        factors.append(CPnQuadraticModel(lambdas=tuple(Fraction(x, den) for x in xs)))
    model = factors[0] if len(factors) == 1 else ProductModel(factors=tuple(factors))
    return model, tuple(fixed_points(model))


class TestRelationVerdict:
    def test_cp1_cp2_consistent(self):
        for lams, n in (((0, Fraction(1, 8)), 1), ((0, Fraction(1, 8), Fraction(3, 8)), 2)):
            table = model_table(*lams)
            assert relation_verdict(table, cpn_ladder(n), PRIMES).status == "consistent"

    @pytest.mark.parametrize("ring, factors", [
        (CPn(n=2), (1, 1, 1)), (Grassmannian(k=2, N=4), ((1, 1), (2,))),
    ], ids=["CP^2 u^3 = q", "G(2,4) s[1,1]*s[2] = q"])
    def test_ladder_of_another_manifold_rejected(self, ring, factors):
        """The ladder and the fixed points come from one manifold: a genuine
        CP^1 table (N = 2) under a ladder of CP^2 (N = 3) or G(2,4) (N = 4)
        is refused, where the search alone finds no assignment at any k."""
        ladder = build_ladder(ring, Decomposition(
            u0=ring.one(), factors=tuple(ring.basis_class(f) for f in factors), nu=1))
        table = model_table(0, Fraction(1, 8))
        assert stable_subsequence(table, ladder, PRIMES).failures == tuple(PRIMES)
        with pytest.raises(ValueError, match="ladder ring has N_chern .*, the orbit table 2"):
            relation_verdict(table, ladder, PRIMES)

    def test_cp6_consistent(self):
        # full enumeration needs seconds per prime here; the pruned search
        # covers all 25 primes below 100
        table = model_table(*(Fraction(j * j + 1, 15) for j in range(7)))
        assert relation_verdict(table, cpn_ladder(6), PRIMES).status == "consistent"

    def test_single_orbit_vacuous(self):
        md = MonotoneData(N=2, lam=Fraction(1, 2))
        table = OrbitTable(
            md=md, n=1, orbits=(CappedOrbit("x", Fraction(0), Fraction(0)),)
        )
        verdict = relation_verdict(table, cpn_ladder(1), [2, 3, 5])
        # single orbit can never produce an unequal pair
        assert verdict.status in ("consistent", "contradiction")
        if verdict.status == "contradiction":
            assert verdict.witness[0] == "no admissible assignment"

    def test_negative_monotone_data_rejected(self):
        """With lambda0 < 0 the period floor lies above slot 0, so every
        search fails by arithmetic; the verdict refuses such data."""
        ring = CPn(n=1, lambda0=Fraction(-1))
        ladder = build_ladder(
            ring, Decomposition(u0=ring.one(), factors=(ring.basis_class(1),) * 2, nu=1)
        )
        table = OrbitTable(
            md=MonotoneData(N=2, lam=Fraction(-1, 2)), n=1,
            orbits=(
                CappedOrbit("x0", Fraction(0), Fraction(-1, 4)),
                CappedOrbit("x1", Fraction(1, 8), Fraction(1, 4)),
            ),
        )
        assert stable_subsequence(table, ladder, [2, 3, 5]).failures == (2, 3, 5)
        with pytest.raises(ValueError, match="positive monotone data required"):
            relation_verdict(table, ladder, [2, 3, 5])

    def test_perturbations_contradict(self):
        rng = random.Random(47)
        for lams, n in (((0, Fraction(1, 8)), 1), ((0, Fraction(1, 8), Fraction(3, 8)), 2)):
            base = model_table(*lams)
            for _ in range(5):
                idx = rng.randrange(len(base.orbits))
                delta = Fraction(rng.choice([-5, -3, -1, 1, 3, 5]), 16)
                orbits = list(base.orbits)
                orbits[idx] = CappedOrbit(
                    orbits[idx].orbit_id, orbits[idx].action + delta, orbits[idx].mean_index
                )
                table = OrbitTable(md=base.md, n=base.n, orbits=tuple(orbits))
                verdict = relation_verdict(table, cpn_ladder(n), PRIMES)
                assert verdict.status == "contradiction", (lams, idx, delta)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: an iterate whose angles are all integers keeps the "
        "row's strict index window, so no assignment is admissible"))
    @pytest.mark.parametrize("lams, k", [
        ((0, Fraction(1, 3)), 3),
        ((0, Fraction(2, 7)), 7),
        ((0, Fraction(1, 5), Fraction(2, 5), Fraction(3, 5)), 5),
    ], ids=["CP^1 1/3 k=3", "CP^1 2/7 k=7", "CP^3 j/5 k=5"])
    def test_genuine_model_at_a_degenerate_iterate(self, lams, k):
        model = CPnQuadraticModel(lambdas=lams)
        table = OrbitTable(md=model.monotone_data, n=model.n,
                           orbits=tuple(fixed_points(model)))
        assert relation_verdict(table, cpn_ladder(model.n), [k]).status == "consistent"

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 15: the verdict follows the first admissible assignment "
        "in orbit-id order, so a renaming can change it"))
    def test_renaming_the_orbits_keeps_the_status(self):
        model = ProductModel(factors=(
            CPnQuadraticModel(lambdas=(Fraction(-1, 32), Fraction(9, 32))),
            CPnQuadraticModel(lambdas=(Fraction(1, 4), Fraction(19, 32))),
        ))
        orbits = tuple(replace(o, action=o.action - Fraction(3, 128))
                       if o.orbit_id == "x0*x1" else o for o in fixed_points(model))
        ladder = cp1xcp1_ladder()
        primes = PRIMES[1:15]  # 3 to 47
        names = {"x0*x0": "a", "x1*x1": "b", "x1*x0": "c", "x0*x1": "d"}
        statuses = [
            relation_verdict(OrbitTable(md=model.monotone_data, n=model.n, orbits=rows),
                             ladder, primes).status
            for rows in (orbits, tuple(replace(o, orbit_id=names[o.orbit_id])
                                       for o in orbits))
        ]
        assert statuses[0] == statuses[1], statuses

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: a degenerate iterate keeps the row's strict index "
        "window, so genuine models get 'no admissible assignment'"))
    def test_genuine_models_are_consistent_under_every_ladder(self):
        """Item 1's regression sweep: six seeded genuine models per ring, with
        prime denominators, are consistent over the primes below 100 under
        every ladder the search finds with ell <= n + 1 and nu <= 2."""
        rng = random.Random(1)
        wrong = []
        for dims in SWEEP_FACTORS:
            ladders = sweep_ladders(sweep_ring(dims), 2)
            for _ in range(6):
                model, rows = isolated_model_rows(rng, dims, (3, 5, 7, 11))
                table = OrbitTable(md=model.monotone_data, n=model.n, orbits=rows)
                for ladder in ladders:
                    verdict = relation_verdict(table, ladder, PRIMES)
                    if verdict.status != "consistent":
                        wrong.append((model, ladder.window[0], verdict.witness))
        assert not wrong, f"{len(wrong)} verdicts are not consistent, first {wrong[0]}"

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 15: the verdict follows the first admissible assignment "
        "in orbit-id order, so a renaming can change it"))
    def test_renaming_random_tables_keeps_the_status(self):
        """Item 15's renaming property: four seeded perturbed tables per ring
        (actions over 32, one shifted by a nonzero multiple of 1/256 of size
        at most 1/64) keep their status over the primes 3 to 47 under two
        random renamings, for every nu = 1 ladder the search finds."""
        rng = random.Random(1)
        primes = PRIMES[1:15]
        changed = []
        for dims in SWEEP_FACTORS[1:]:
            ladders = sweep_ladders(sweep_ring(dims), 1)
            for _ in range(4):
                model, rows = isolated_model_rows(rng, dims, (32,))
                idx = rng.randrange(len(rows))
                shift = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), 256)
                rows = tuple(replace(o, action=o.action + shift) if i == idx else o
                             for i, o in enumerate(rows))
                tables = [rows]
                for _ in range(2):
                    names = rng.sample(range(len(rows)), len(rows))
                    tables.append(tuple(replace(o, orbit_id=f"o{j}")
                                        for o, j in zip(rows, names)))
                for ladder in ladders:
                    first, *renamed = (
                        relation_verdict(OrbitTable(md=model.monotone_data, n=model.n,
                                                    orbits=t), ladder, primes).status
                        for t in tables)
                    changed += [(model, idx, shift, status) for status in renamed
                                if status != first]
        assert not changed, f"{len(changed)} renamed verdicts changed, first {changed[0]}"


class TestDistinctness:
    def test_nu_one_action_mechanism(self):
        table = model_table(0, Fraction(1, 8), Fraction(3, 8))
        ladder = cpn_ladder(2)
        a = admissible_assignments(table, ladder, 5)[0]
        verdict = distinctness_check(ladder, a, nondegenerate=False)
        assert verdict.status == "distinct"
        assert verdict.details == ("mechanism: action chain",)

    def test_nu_two_needs_nondegeneracy(self):
        ring = Grassmannian(k=2, N=4)
        ladder = case_ii_ladder(ring, ring.basis_class((1,)), 1, 9)
        assert ladder.nu == 2
        a = CarrierAssignment(k=1, slots=(("a", 0), ("b", 0), ("c", 0), ("d", 0)))
        inconclusive = distinctness_check(ladder, a, nondegenerate=False)
        assert inconclusive.status == "inconclusive"
        assert (inconclusive.witness, inconclusive.details) == (
            (), ("non-degeneracy required for nu > 1",)
        )
        ok = distinctness_check(ladder, a, nondegenerate=True)
        assert ok.status == "distinct"
        assert ok.details == ("mechanism: Conley-Zehnder index chain",)

    def test_repeat_detected(self):
        ladder = cpn_ladder(1)
        a = CarrierAssignment(k=1, slots=(("x", 0), ("x", 1)))
        verdict = distinctness_check(ladder, a, nondegenerate=False)
        assert verdict.status == "not_distinct"
        assert verdict.witness == (0, 1, "x")
        assert verdict.details == ("mechanism: action chain",)


@st.composite
def neg_monotone_tables(draw):
    """One to three orbits over lambda0 in {-1, -5/2, -4/3}: actions from a
    pool of two, so actions tie, mean indices zero or not, and increasing
    iterations that may start above 1, so that the sub-additivity bound c0
    reads the carriers at r < k1."""
    n = draw(st.integers(1, 2))
    n_chern = draw(st.sampled_from([1, n + 1]))
    lambda0 = draw(st.sampled_from([Fraction(-1), Fraction(-5, 2), Fraction(-4, 3)]))
    actions = draw(st.lists(
        st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 3, 7])),
        min_size=2, max_size=2,
    ))
    deltas = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 3, 5]))
    rows = tuple(
        CappedOrbit(f"x{i}", draw(st.sampled_from(actions)), draw(deltas), draw(st.booleans()))
        for i in range(draw(st.integers(1, 3)))
    )
    ks = sorted(draw(st.lists(
        st.sampled_from([1, 2, 3, 4, 5, 7, 9, 11, 13, 17, 19, 23]),
        min_size=1, max_size=8, unique=True,
    )))
    md = MonotoneData(N=n_chern, lam=lambda0 / n_chern)
    return OrbitTable(md=md, n=n, orbits=rows), ks


@settings(derandomize=True, deadline=None, max_examples=300)
@given(neg_monotone_tables())
def test_neg_monotone_matches_oracle(case):
    table, ks = case
    verdict = neg_monotone_obstruction(table, ks)
    expected = neg_monotone_oracle(table, ks)
    assert (verdict.status, verdict.witness, verdict.details) == expected
    # the degenerate branch is the one named verdict, and only that branch
    assert (verdict == DEGENERATE) == (expected[2] == (
        "degenerate branch: stable carrier has zero mean index at k1",))


class TestNegMonotone:
    def test_positive_mean_index_contradiction(self):
        md = MonotoneData(N=1, lam=Fraction(-1))
        table = OrbitTable(
            md=md, n=1,
            orbits=(CappedOrbit("x", Fraction(1, 3), Fraction(1, 2)),),
        )
        verdict = neg_monotone_obstruction(table, PRIMES)
        assert verdict.status == "contradiction"
        assert verdict.witness

    def test_all_zero_mean_index_degenerate(self):
        md = MonotoneData(N=1, lam=Fraction(-1))
        table = OrbitTable(
            md=md, n=1,
            orbits=(
                CappedOrbit("x", Fraction(1, 5), Fraction(0)),
                CappedOrbit("y", Fraction(0), Fraction(0)),
            ),
        )
        assert neg_monotone_obstruction(table, PRIMES) == DEGENERATE

    def test_unsorted_primes_rejected(self):
        """k_1 is the first stable iteration, so the order is the verdict's:
        over [2, 3, 5, 7] this table has no obstruction."""
        table = OrbitTable(
            md=MonotoneData(N=1, lam=Fraction(-1)), n=1,
            orbits=(CappedOrbit("x", Fraction(-6), Fraction(-3, 4)),),
        )
        assert neg_monotone_obstruction(table, [2, 3, 5, 7]).status == "no_obstruction"
        for primes in ([3, 2, 5, 7], [2, 3, 3, 5]):
            with pytest.raises(ValueError, match="strictly increasing"):
                neg_monotone_obstruction(table, primes)

    def test_positive_lambda_rejected(self):
        md = MonotoneData(N=2, lam=Fraction(1, 2))
        table = OrbitTable(
            md=md, n=1, orbits=(CappedOrbit("x", Fraction(0), Fraction(0)),)
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
                    CappedOrbit(
                        "x",
                        Fraction(rng.randint(-5, 5), 7),
                        Fraction(rng.choice([1, 3, 5, 7]), 2),
                    ),
                ),
            )
            verdict = neg_monotone_obstruction(table, PRIMES)
            assert verdict.status == "contradiction"

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 21: the obstruction follows the fundamental-class "
        "carrier that most primes share, ties to the smallest id, so a "
        "renaming can change it"))
    def test_renaming_the_orbits_keeps_the_status(self):
        """Two rows, (action -11, mean index 0) and (action 4, mean index
        -2/5), each carry the fundamental class at 39 of the 78 primes below
        400.  Named x0, x1 the tie goes to the first row and the verdict is
        the degenerate branch; named y1, y0, in the same order, to the second,
        and it is a contradiction at k = 17."""
        primes = [p for p in range(2, 400) if all(p % d for d in range(2, p))]
        md = MonotoneData(N=2, lam=Fraction(-1, 2))
        statuses = [
            neg_monotone_obstruction(OrbitTable(md=md, n=1, orbits=(
                CappedOrbit(first, Fraction(-11), Fraction(0)),
                CappedOrbit(second, Fraction(4), Fraction(-2, 5)),
            )), primes).status
            for first, second in (("x0", "x1"), ("y1", "y0"))
        ]
        assert statuses[0] == statuses[1], statuses

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 21: the obstruction follows the fundamental-class "
        "carrier that most primes share, ties to the smallest id, so a "
        "renaming can change it"))
    def test_renaming_random_tables_keeps_the_status(self):
        """Item 21's renaming property on its seeded sample: 400 tables of
        one to three rows in the ranges of neg_monotone_tables, each action
        drawn on its own and every flag False, keep their status, and
        whether they are the degenerate branch, over the 78 primes below 400
        under three random renamings."""
        rng = random.Random(1)
        primes = [p for p in range(2, 400) if all(p % d for d in range(2, p))]
        changed = []
        for _ in range(400):
            n = rng.randint(1, 2)
            n_chern = rng.choice([1, n + 1])
            lambda0 = rng.choice([Fraction(-1), Fraction(-5, 2), Fraction(-4, 3)])
            md = MonotoneData(N=n_chern, lam=lambda0 / n_chern)
            rows = [(Fraction(rng.randint(-12, 12), rng.choice([1, 3, 7])),
                     Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 5])))
                    for _ in range(rng.randint(1, 3))]
            namings = [[f"x{i}" for i in range(len(rows))]]
            namings += [[f"o{j}" for j in rng.sample(range(len(rows)), len(rows))]
                        for _ in range(3)]
            outcomes = []
            for names in namings:
                table = OrbitTable(md=md, n=n, orbits=tuple(
                    CappedOrbit(name, a, delta) for name, (a, delta) in zip(names, rows)))
                verdict = neg_monotone_obstruction(table, primes)
                outcomes.append((verdict.status, verdict == DEGENERATE))
            if len(set(outcomes)) > 1:
                changed.append((md, rows, outcomes))
        assert not changed, f"{len(changed)} tables changed under renaming, first {changed[0]}"
