"""Acceptance suite: one timed pass/fail line per criterion."""

import random
import time
from fractions import Fraction

from qhcalc.qalgebra import GroundField
from qhcalc.rings import CPn, Grassmannian, quantum_pieri
from qhcalc.ladders import (
    Decomposition,
    build_ladder,
    case_ii_ladder,
    case_ii_parameters,
    ladder_class,
    search_decompositions,
)
from qhcalc.models import CPnQuadraticModel, fixed_points
from qhcalc.spectra import CappedOrbit, MonotoneData, augmented_action, iterate, recap
from qhcalc.carriers import (
    CarrierAssignment,
    OrbitTable,
    admissible_assignments,
    distinctness_check,
    neg_monotone_obstruction,
    relation_verdict,
)

PRIMES_TO_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97]


class _Timer:
    def __init__(self, number, description, limit):
        self.number = number
        self.description = description
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(
            f"criterion {self.number} [{status}] {self.description} "
            f"({elapsed:.2f}s < {self.limit:.0f}s)"
        )
        assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"
        return False


def test_criterion_1_cpn_ring_law():
    with _Timer(1, "CP^n ring law u^(n+1) = q, u^(n+2) = q*u for n = 1..10", 1.0):
        for n in range(1, 11):
            ring = CPn(n=n)
            u = ring.basis_class(1)
            assert u ** (n + 1) == ring.basis_class(0, m=1)
            assert u ** (n + 2) == ring.basis_class(1, m=1)


def test_criterion_2_characteristic_split():
    with _Timer(2, "G(2,4): sigma_1^3 = 0 over F_2, sigma_1^d != 0 over Q", 1.0):
        ring2 = Grassmannian(k=2, N=4, field=GroundField(2))
        assert (ring2.basis_class((1,)) ** 3).is_zero()
        ring = Grassmannian(k=2, N=4)
        p = ring.one()
        for d in range(1, 41):
            p = ring.quantum_product(p, ring.basis_class((1,)))
            assert not p.is_zero(), d


def test_criterion_3_cross_oracle_and_associativity():
    with _Timer(3, "Pieri/rim-hook agreement and associativity on 1000 triples", 30.0):
        rng = random.Random(2024)
        rings = [
            Grassmannian(k=k, N=N)
            for k in (1, 2, 3)
            for N in range(k + 1, 7)
        ]
        for ring in rings:
            for lam in ring.basis_labels():
                for p in range(1, ring.N - ring.k + 1):
                    assert quantum_pieri(ring, lam, p) == ring.quantum_product(
                        ring.basis_class(lam), ring.basis_class((p,))
                    ), (ring.k, ring.N, lam, p)
        for ring in rings:
            labels = ring.basis_labels()
            for _ in range(1000):
                a, b, c = (ring.basis_class(rng.choice(labels)) for _ in range(3))
                assert ring.quantum_product(ring.quantum_product(a, b), c) == (
                    ring.quantum_product(a, ring.quantum_product(b, c))
                )


def test_criterion_4_decomposition_and_ladders():
    with _Timer(4, "search finds CP^n decompositions; ladders verified", 60.0):
        for n in range(1, 5):
            ring = CPn(n=n)
            decs = search_decompositions(ring, n + 1, 1)
            assert any(
                d.u0 == ring.one()
                and d.factors == (ring.basis_class(1),) * (n + 1)
                and d.nu == 1
                for d in decs
            ), n
            for dec in decs:
                _check_ladder(ring, dec)
        for N in (4, 5, 6):
            ring = Grassmannian(k=2, N=N)
            for dec in search_decompositions(ring, 3, 2):
                _check_ladder(ring, dec)


def _check_ladder(ring, dec):
    ladder = build_ladder(ring, dec)
    chain = ladder.hom_degrees + (ladder.hom_degrees[0] - 2 * ring.N_chern,)
    assert all(a > b for a, b in zip(chain, chain[1:]))
    for j in range(-2 * ladder.ell, 2 * ladder.ell):
        assert ladder_class(ladder, j + ladder.ell) == ladder_class(
            ladder, j
        ).q_shift(ladder.nu)


def test_criterion_5_case_ii_parameters():
    with _Timer(5, "G(2,4), u = sigma_1, |P| = 6: d = 25, ell = 4 = N", 1.0):
        ring = Grassmannian(k=2, N=4)
        params = case_ii_parameters(ring, ring.basis_class((1,)), 6)
        assert params.d == 25
        assert params.ell == 4 == ring.N_chern


def test_criterion_6_augmented_action_equality():
    with _Timer(6, "200 random CP^n models: equal augmented actions", 10.0):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(1, 6)
            lams = set()
            while len(lams) < n + 1:
                lams.add(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
            model = CPnQuadraticModel(lambdas=tuple(sorted(lams)))
            md = model.monotone_data
            expected = sum(model.lambdas) / (n + 1)
            orbits = fixed_points(model)
            assert len(orbits) == n + 1
            probe = rng.choice(orbits)
            for o in orbits:
                assert augmented_action(o, md) == expected
            for m in range(-10, 11):
                assert augmented_action(recap(probe, m, md), md) == expected
            for k in (2, 3, 7, 25, 50):
                assert augmented_action(iterate(probe, k), md) == k * expected


def _model_orbit_table(lams):
    model = CPnQuadraticModel(lambdas=tuple(lams))
    orbits = tuple(
        CappedOrbit(o.orbit_id, o.action, o.mean_index)
        for o in fixed_points(model)
    )
    return OrbitTable(md=model.monotone_data, n=model.n, orbits=orbits)


def _cpn_ladder(n):
    ring = CPn(n=n)
    dec = Decomposition(u0=ring.one(), factors=(ring.basis_class(1),) * (n + 1), nu=1)
    return build_ladder(ring, dec)


def test_criterion_7_proof_skeleton_soundness():
    with _Timer(7, "relation_verdict: consistent on models, contradiction "
                   "under action perturbation", 60.0):
        rng = random.Random(7)
        cases = [
            ((Fraction(0), Fraction(1, 8)), 1),
            ((Fraction(0), Fraction(1, 8), Fraction(3, 8)), 2),
        ]
        for lams, n in cases:
            table = _model_orbit_table(lams)
            ladder = _cpn_ladder(n)
            assert relation_verdict(table, ladder, PRIMES_TO_100).status == "consistent"
            for idx in range(len(table.orbits)):
                for _ in range(3):
                    num = rng.choice([x for x in range(-9, 10, 2) if x])
                    delta = Fraction(num, 16)
                    orbits = list(table.orbits)
                    orbits[idx] = CappedOrbit(
                        orbits[idx].orbit_id,
                        orbits[idx].action + delta,
                        orbits[idx].mean_index,
                    )
                    perturbed = OrbitTable(md=table.md, n=table.n, orbits=tuple(orbits))
                    verdict = relation_verdict(perturbed, ladder, PRIMES_TO_100)
                    assert verdict.status == "contradiction", (lams, idx, delta)


def test_criterion_8_distinctness_gates():
    with _Timer(8, "distinctness: action for nu=1, CZ gate for nu>1", 10.0):
        # nu = 1: every admissible model assignment certifies via action
        for lams, n in (
            ((Fraction(0), Fraction(1, 8)), 1),
            ((Fraction(0), Fraction(1, 8), Fraction(3, 8)), 2),
        ):
            table = _model_orbit_table(lams)
            ladder = _cpn_ladder(n)
            for k in (1, 2, 3, 5, 7, 11):
                for a in admissible_assignments(table, ladder, k):
                    verdict = distinctness_check(ladder, a, nondegenerate=False)
                    assert verdict.status == "distinct"
                    assert verdict.details == ("mechanism: action chain",)
        # nu > 1: conclusive only with the non-degeneracy hypothesis
        ring = Grassmannian(k=2, N=4)
        ladder2 = case_ii_ladder(ring, ring.basis_class((1,)), 1, 9)
        assert ladder2.nu == 2
        assignment = CarrierAssignment(
            k=1, slots=(("a", 0), ("b", 0), ("c", 0), ("d", 0))
        )
        gated = distinctness_check(ladder2, assignment, nondegenerate=False)
        assert gated.status == "inconclusive"
        assert gated.details == ("non-degeneracy required for nu > 1",)
        with_flag = distinctness_check(ladder2, assignment, nondegenerate=True)
        assert with_flag.status == "distinct"
        assert with_flag.details == ("mechanism: Conley-Zehnder index chain",)


def test_criterion_9_negative_monotone_obstruction():
    with _Timer(9, "negative monotone: finite-orbit contradiction vs "
                   "degenerate branch", 10.0):
        rng = random.Random(11)
        md = MonotoneData(N=1, lam=Fraction(-1))
        for _ in range(25):
            table = OrbitTable(
                md=md, n=1,
                orbits=(
                    CappedOrbit(
                        "x",
                        Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                        Fraction(rng.choice([1, 3, 5, 7, 9]), 2),
                    ),
                ),
            )
            assert neg_monotone_obstruction(table, PRIMES_TO_100).status == (
                "contradiction"
            )
        for _ in range(10):
            table = OrbitTable(
                md=md, n=1,
                orbits=tuple(
                    CappedOrbit(f"x{i}", Fraction(rng.randint(-9, 9), 3), Fraction(0))
                    for i in range(rng.randint(1, 3))
                ),
            )
            verdict = neg_monotone_obstruction(table, PRIMES_TO_100)
            assert verdict.status == "no_obstruction"
            assert any("degenerate" in d for d in verdict.details)
