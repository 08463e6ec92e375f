import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhcalc import rings
from qhcalc.qalgebra import GroundField, RingMismatchError
from qhcalc.rings import (
    CPn,
    Grassmannian,
    ProductRing,
    fits_box,
    littlewood_richardson,
    normalize_partition,
    partitions_in_box,
    quantum_pieri,
    rim_hook_reduce,
)

from oracles import grassmannian_structure_oracle, lr_coefficients_oracle, rim_hook_reduce_oracle

_BOX_4X4 = st.sampled_from(partitions_in_box(4, 4))


class TestPartitions:
    def test_normalize(self):
        assert normalize_partition([3, 1, 0, 0]) == (3, 1)
        with pytest.raises(ValueError):
            normalize_partition([1, 2])
        with pytest.raises(ValueError):
            normalize_partition([2, -1])

    @pytest.mark.parametrize("label", [1.7, 1.0, Fraction(1), "1"],
                             ids=["float", "integral float", "Fraction", "str"])
    def test_labels_refuse_non_integers(self, label):
        """A part or a power of u is read with operator.index: a float, a
        Fraction or a string raises TypeError instead of being truncated."""
        with pytest.raises(TypeError):
            normalize_partition([2, label])
        with pytest.raises(TypeError):
            CPn(n=2).basis_class(label)
        with pytest.raises(TypeError):
            Grassmannian(k=2, N=4).basis_class((label, 1))

    def test_int_labels_still_enter(self):
        assert normalize_partition((2, 1, 0)) == normalize_partition([2, 1]) == (2, 1)
        assert CPn(n=2).basis_class(1).terms == (((1, 0), 1),)
        assert Grassmannian(k=2, N=4).basis_class((2, 1, 0)).terms == ((((2, 1), 0), 1),)
        ring = ProductRing(factors=(CPn(n=1), CPn(n=1)))
        assert ring.basis_class((1, 0)).terms == ((((1, 0), 0), 1),)

    def test_box(self):
        assert fits_box((2, 2), 2, 2)
        assert not fits_box((3,), 2, 2)
        assert len(partitions_in_box(2, 2)) == 6  # binomial(4, 2)

    def test_enumerator_against_brute_force(self):
        """Every box up to 4 x 4: the enumerator returns exactly the
        brute-force list, in lexicographic order."""

        def brute_force(rows, cols):
            return sorted({
                normalize_partition(p)
                for p in product(range(cols + 1), repeat=rows)
                if all(a >= b for a, b in zip(p, p[1:]))
            })

        for rows in range(5):
            for cols in range(5):
                assert partitions_in_box(rows, cols) == brute_force(rows, cols), (rows, cols)


class TestBasis:
    def test_cp2_degree_two(self):
        assert CPn(n=2).basis(2) == [1]

    def test_g24_degree_four(self):
        assert Grassmannian(k=2, N=4).basis(4) == [(1, 1), (2,)]

    def test_odd_degree_empty(self):
        assert Grassmannian(k=2, N=5).basis(3) == []
        assert CPn(n=4).basis(5) == []


@st.composite
def _rings_over_fields(draw):
    """CP^n, G(k,N) or a product of two of them, over Q, F_2 or F_3; each
    factor has lambda0 = N_f, so that any two share their monotonicity."""
    field = GroundField(draw(st.sampled_from([0, 2, 3])))

    def single():
        if draw(st.booleans()):
            n = draw(st.integers(1, 5))
            return CPn(n=n, field=field, lambda0=n + 1)
        N = draw(st.integers(2, 7))
        return Grassmannian(k=draw(st.integers(1, N - 1)), N=N, field=field, lambda0=N)

    return ProductRing(factors=(single(), single())) if draw(st.booleans()) else single()


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_rings_over_fields())
def test_label_table_is_read_off_label_key_and_label_degree(ring):
    """A ring's label table is built on first use, once, and holds each basis
    label's position in label_key order and its label_degree; so a
    Grassmannian orders a pair by position as by (sum, label)."""
    assert "_label_table" not in vars(ring)
    table = ring._label_table
    assert ring._label_table is table
    ordered = sorted(ring.basis_labels(), key=ring.label_key)
    assert list(table) == ordered
    assert list(table.values()) == [(i, ring.label_degree(lbl)) for i, lbl in enumerate(ordered)]
    if isinstance(ring, Grassmannian):
        for a, b in product(ordered, repeat=2):
            assert (table[a][0] > table[b][0]) == ((sum(a), a) > (sum(b), b))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_rings_over_fields())
def test_unit_label_and_complex_dim_are_read_off_the_label_table(ring):
    """The unit label is the one label of degree 0, and the complex dimension
    is n for CP^n, k(N - k) for G(k,N) and the factors' sum for a product."""
    def closed_form(r):
        if isinstance(r, CPn):
            return 0, r.n
        if isinstance(r, Grassmannian):
            return (), r.k * (r.N - r.k)
        units, dims = zip(*map(closed_form, r.factors))
        return units, sum(dims)

    assert (ring.unit_label(), ring.complex_dim) == closed_form(ring)
    assert ring.basis(0) == [ring.unit_label()]


def test_cold_fill_transposes_each_partition_once(monkeypatch):
    """A cold G(4,8) fill looks up many transposes, but computes each of its
    partitions' transposes once: every cache miss is a new partition."""
    looked_up, real = [], rings._transpose
    monkeypatch.setattr(rings, "_transpose", lambda lam: looked_up.append(lam) or real(lam))
    rings._grassmannian_structure.cache_clear()
    real.cache_clear()
    ring = Grassmannian(k=4, N=8)
    for a, b in product(ring.basis_labels(), repeat=2):
        ring.structure(a, b)
    computed = real.cache_info().misses
    assert computed == len(set(looked_up)) <= len(ring.basis_labels()) < len(looked_up)


class TestLittlewoodRichardson:
    def test_pieri_square(self):
        assert littlewood_richardson((1,), (1,), 2) == {(2,): 1, (1, 1): 1}

    def test_unit(self):
        assert littlewood_richardson((3, 1), (), 2) == {(3, 1): 1}

    def test_two_one_times_one(self):
        assert littlewood_richardson((2, 1), (1,), 2) == {(3, 1): 1, (2, 2): 1}

    def test_against_schur_oracle(self):
        cases = []
        for rows in (2, 3):
            box = partitions_in_box(rows, 3)
            for lam in box:
                for mu in box:
                    cases.append((lam, mu, rows))
        rng = random.Random(3)
        box = partitions_in_box(4, 4)
        four_rows = [(lam, mu, 4) for lam in box for mu in box]
        for lam, mu, rows in rng.sample(cases, 60) + rng.sample(four_rows, 40):
            assert littlewood_richardson(lam, mu, rows) == lr_coefficients_oracle(
                lam, mu, rows
            ), (lam, mu, rows)

    def test_one_row(self):
        """With one row only the single-row shape survives; the last row
        takes every box of the strip."""
        assert littlewood_richardson((2,), (3,), 1) == {(5,): 1}
        assert littlewood_richardson((), (4,), 1) == {(4,): 1}

    def test_too_many_parts_is_refused(self):
        for lam, mu in (((1, 1, 1), (1,)), ((1,), (1, 1, 1))):
            with pytest.raises(ValueError, match="at most 2 parts"):
                littlewood_richardson(lam, mu, 2)

    def test_empty_factor_is_the_unit(self):
        assert littlewood_richardson((), (2, 1), 3) == {(2, 1): 1}
        assert littlewood_richardson((2, 1), (), 3) == {(2, 1): 1}
        assert littlewood_richardson((), (), 2) == {(): 1}

    def test_content_with_rows_parts_ends_on_the_last_row(self):
        """mu has `rows` parts, so its last label starts on the last row."""
        assert littlewood_richardson((1,), (1, 1, 1), 3) == {(2, 1, 1): 1}
        assert littlewood_richardson((2, 1), (1, 1), 2) == {(3, 2): 1}
        assert littlewood_richardson((), (2, 2, 1), 3) == {(2, 2, 1): 1}
        assert littlewood_richardson((3, 1), (2, 1, 1), 3) == lr_coefficients_oracle(
            (3, 1), (2, 1, 1), 3)

    def test_every_pair_in_small_boxes(self):
        """Every pair in the 3x4, 2x5, 4x2 and 1x6 boxes (1,940 pairs), in
        lexicographic order and equal to the Schur-polynomial oracle."""
        cases = [(lam, mu, rows) for rows, cols in ((3, 4), (2, 5), (4, 2), (1, 6))
                 for lam in partitions_in_box(rows, cols)
                 for mu in partitions_in_box(rows, cols)]
        assert len(cases) == 1940
        for lam, mu, rows in cases:
            coefficients = littlewood_richardson(lam, mu, rows)
            assert list(coefficients) == sorted(coefficients), (lam, mu, rows)
            assert coefficients == lr_coefficients_oracle(lam, mu, rows), (lam, mu, rows)

    @settings(derandomize=True, deadline=None)
    @given(lam=_BOX_4X4, mu=_BOX_4X4)
    def test_symmetric_and_matches_schur_oracle(self, lam, mu):
        """The walk takes mu as its content; swapping the factors walks
        another set of tableaux to the same coefficients."""
        coefficients = littlewood_richardson(lam, mu, 4)
        assert coefficients == littlewood_richardson(mu, lam, 4)
        assert coefficients == lr_coefficients_oracle(lam, mu, 4)


class TestRimHook:
    def test_in_box_identity(self):
        assert rim_hook_reduce((2, 1), 2, 4) == ((2, 1), 0, 1)

    def test_single_hook_positive(self):
        assert rim_hook_reduce((3, 1), 2, 4) == ((), 1, 1)

    def test_single_hook_negative(self):
        assert rim_hook_reduce((4,), 2, 4) == ((), 1, -1)

    def test_too_many_parts_rejected(self):
        with pytest.raises(ValueError):
            rim_hook_reduce((1, 1, 1), 2, 4)


def test_rim_hook_closed_form_matches_removal_oracle():
    """The N-core read off the abacus equals hook-by-hook removal on every
    partition with at most k parts, each at most 2N + 1, for 2 <= N <= 9 and
    1 <= k <= min(N - 1, 4): 27,996 inputs, dying ones included."""
    inputs = [(nu, k, N) for N in range(2, 10) for k in range(1, min(N - 1, 4) + 1)
              for nu in partitions_in_box(k, 2 * N + 1)]
    assert len(inputs) == 27996
    for nu, k, N in inputs:
        assert rim_hook_reduce(nu, k, N) == rim_hook_reduce_oracle(nu, k, N), (nu, k, N)


def test_structure_fill_trusts_normalised_labels(monkeypatch):
    """Labels are normalised where they enter the ring, so a cold fill of the
    G(2,5) and G(3,6) structure tables never normalises a partition again."""
    calls = []
    real = rings.normalize_partition
    monkeypatch.setattr(
        rings, "normalize_partition", lambda parts: calls.append(parts) or real(parts)
    )
    rings._grassmannian_structure.cache_clear()
    for ring in (Grassmannian(k=2, N=5), Grassmannian(k=3, N=6)):
        labels = ring.basis_labels()
        for a in labels:
            for b in labels:
                ring.structure(a, b)
    assert calls == []


def _conjugate(lam):
    """The transposed partition, column by column."""
    return tuple(len([part for part in lam if part >= col])
                 for col in range(1, max(lam, default=0) + 1))


class TestDuality:
    """QH*(G(k,N)) = QH*(G(N-k,N)) by sigma_lam -> sigma_lam', q -> q: the
    structure table reads a pair off its transpose when that one has fewer
    rows, or, in a self-dual ring, is the smaller pair."""

    def test_every_pair_matches_the_rule_without_duality(self):
        """Every ordered pair of every G(k,N) with N <= 8 (17,560 pairs), from
        a cold table, equals LR + rim-hook in G(k,N) itself, and
        sigma_lam' * sigma_mu' in G(N-k,N) is the transpose of
        sigma_lam * sigma_mu."""
        rings._grassmannian_structure.cache_clear()
        pairs = 0
        for N in range(2, 9):
            for k in range(1, N):
                ring, dual = Grassmannian(k=k, N=N), Grassmannian(k=N - k, N=N)
                labels = ring.basis_labels()
                for a, b in product(labels, repeat=2):
                    got = ring.structure(a, b)
                    assert got == grassmannian_structure_oracle(k, N, a, b), (k, N, a, b)
                    assert dual.structure(_conjugate(a), _conjugate(b)) == tuple(sorted(
                        ((_conjugate(core), d), n) for (core, d), n in got)), (k, N, a, b)
                    pairs += 1
        assert pairs == 17560

    @staticmethod
    def _cold_fill(monkeypatch, k, N):
        """The rows of each LR walk in a cold fill of G(k,N)'s table."""
        rows, real = [], rings.littlewood_richardson
        monkeypatch.setattr(rings, "littlewood_richardson",
                            lambda lam, mu, r: rows.append(r) or real(lam, mu, r))
        rings._grassmannian_structure.cache_clear()
        ring = Grassmannian(k=k, N=N)
        for a, b in product(ring.basis_labels(), repeat=2):
            ring.structure(a, b)
        return rows

    def test_self_dual_ring_walks_one_pair_per_transposed_couple(self, monkeypatch):
        """G(4,8) has 2,485 unordered pairs; 1,324 of them are walked, each the
        smaller of its transposed couple or its own transpose."""
        assert len(self._cold_fill(monkeypatch, 4, 8)) == 1324

    def test_tall_grassmannian_walks_with_fewer_rows(self, monkeypatch):
        """G(6,8) reads every pair off G(2,8): its 406 walks have two rows."""
        rows = self._cold_fill(monkeypatch, 6, 8)
        assert len(rows) == 406 and set(rows) == {2}

    def test_wide_grassmannian_never_transposes(self, monkeypatch):
        calls, real = [], rings._transpose
        monkeypatch.setattr(rings, "_transpose", lambda lam: calls.append(lam) or real(lam))
        assert set(self._cold_fill(monkeypatch, 2, 8)) == {2}
        assert calls == []


class TestQuantumPieri:
    def test_g24_two_one(self):
        ring = Grassmannian(k=2, N=4)
        expected = ring.basis_class((2, 2)) + ring.basis_class((), m=1)
        assert quantum_pieri(ring, (2, 1), 1) == expected

    def test_g24_top_class(self):
        ring = Grassmannian(k=2, N=4)
        assert quantum_pieri(ring, (2, 2), 1) == ring.basis_class((1,), m=1)

    def test_unit_factor(self):
        ring = Grassmannian(k=3, N=6)
        for p in range(1, 4):
            assert quantum_pieri(ring, (), p) == ring.basis_class((p,))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            quantum_pieri(Grassmannian(k=2, N=4), (1,), 3)

    def test_cpn_is_refused(self):
        with pytest.raises(TypeError, match="Grassmannian"):
            quantum_pieri(CPn(n=2), 1, 1)


class TestQuantumProduct:
    def test_cp2_relation(self):
        ring = CPn(n=2)
        u = ring.basis_class(1)
        assert ring.quantum_product(u, ring.basis_class(2)) == ring.basis_class(0, m=1)

    def test_g24_char_two_cube(self):
        ring = Grassmannian(k=2, N=4, field=GroundField(2))
        s1 = ring.basis_class((1,))
        assert (s1 ** 3).is_zero()

    def test_unit(self):
        ring = Grassmannian(k=2, N=5)
        a = ring.basis_class((2, 1)) + ring.basis_class((1,), m=2)
        assert ring.quantum_product(ring.one(), a) == a

    def test_class_of_another_ring_is_refused(self):
        ring, other = CPn(n=2), CPn(n=3)
        u = ring.basis_class(1)
        for a, b in ((u, other.basis_class(1)), (other.basis_class(1), u)):
            with pytest.raises(RingMismatchError):
                ring.quantum_product(a, b)

    def test_g24_powers_nonzero_over_q(self):
        ring = Grassmannian(k=2, N=4)
        p = ring.one()
        for d in range(1, 41):
            p = ring.quantum_product(p, ring.basis_class((1,)))
            assert not p.is_zero(), d

    def test_g24_sigma1_fifth_power(self):
        ring = Grassmannian(k=2, N=4)
        assert ring.basis_class((1,)) ** 5 == ring.basis_class(
            (1,), m=1
        ).scale(4)

    def test_degree_additivity(self):
        ring = Grassmannian(k=3, N=6)
        rng = random.Random(5)
        labels = [l for l in ring.basis_labels()]
        for _ in range(40):
            a = ring.basis_class(rng.choice(labels), m=rng.randint(-1, 1))
            b = ring.basis_class(rng.choice(labels), m=rng.randint(-1, 1))
            prod = ring.quantum_product(a, b)
            if not prod.is_zero():
                assert prod.degree() == a.degree() + b.degree()

    def test_pipeline_agreement_small(self):
        # every G(k,N) with N <= 8, over Q and F_2: the LR walk with rim-hook
        # reduction and the Pieri oracle's two box filters check each other
        for field, N in product((GroundField(), GroundField(2)), range(2, 9)):
            for k in range(1, N):
                ring = Grassmannian(k=k, N=N, field=field)
                for lam in ring.basis_labels():
                    for p in range(1, N - k + 1):
                        assert quantum_pieri(ring, lam, p) == ring.quantum_product(
                            ring.basis_class(lam), ring.basis_class((p,))
                        ), (field, k, N, lam, p)

    def test_classical_limit(self):
        ring = Grassmannian(k=2, N=5)
        for lam in ring.basis_labels():
            for mu in ring.basis_labels():
                prod = ring.quantum_product(
                    ring.basis_class(lam), ring.basis_class(mu)
                )
                classical = {
                    nu: c
                    for nu, c in littlewood_richardson(lam, mu, ring.k).items()
                    if fits_box(nu, ring.k, ring.N - ring.k)
                }
                q0 = {
                    label: c for (label, m), c in prod.terms if m == 0
                }
                assert q0 == {nu: Fraction(c) for nu, c in classical.items()}

    def test_structure_is_cached_per_unordered_pair(self):
        ring = Grassmannian(k=3, N=6)
        labels = ring.basis_labels()
        for a in labels:
            for b in labels:
                assert ring.structure(b, a) is ring.structure(a, b), (a, b)

    def test_associativity_commutativity_random(self):
        rng = random.Random(17)
        for k, N in ((2, 4), (2, 5), (3, 5), (3, 6)):
            ring = Grassmannian(k=k, N=N)
            labels = ring.basis_labels()
            for _ in range(60):
                a, b, c = (ring.basis_class(rng.choice(labels)) for _ in range(3))
                ab = ring.quantum_product(a, b)
                assert ab == ring.quantum_product(b, a)
                assert ring.quantum_product(ab, c) == ring.quantum_product(
                    a, ring.quantum_product(b, c)
                )


@pytest.mark.parametrize("make", [lambda x: CPn(n=2, lambda0=x),
                                  lambda x: Grassmannian(k=2, N=4, lambda0=x)],
                         ids=["CPn", "Grassmannian"])
def test_lambda0_is_exact(make):
    """A float lambda0 is refused; a Fraction, an int or "1/3" is kept exactly."""
    with pytest.raises(TypeError, match="0.1 is a float"):
        make(0.1)
    assert make(Fraction(1, 3)).lambda0 == make("1/3").lambda0 == Fraction(1, 3)
    assert make(2).lambda0 == Fraction(2)


class TestKunneth:
    def test_p1_times_p1_square(self):
        ring = ProductRing(
            factors=(CPn(n=1, lambda0=Fraction(1)), CPn(n=1, lambda0=Fraction(1)))
        )
        u1 = ring.basis_class((1, 0))
        assert ring.quantum_product(u1, u1) == ring.basis_class((0, 0), m=1)

    def test_unit_factors(self):
        left = Grassmannian(k=2, N=4, lambda0=Fraction(1))
        right = CPn(n=3, lambda0=Fraction(1))
        ring = ProductRing(factors=(left, right))
        a = ring.basis_class(((2, 1), 0))
        b = ring.basis_class(((), 2))
        assert ring.quantum_product(a, b) == ring.basis_class(((2, 1), 2))

    def test_equal_products_share_one_table(self, monkeypatch):
        """A product's table is filled once per tuple of factors and pair of
        labels: an equal product built again asks its factors for nothing."""
        calls = []
        real = Grassmannian.structure
        monkeypatch.setattr(
            Grassmannian, "structure", lambda self, a, b: calls.append((a, b)) or real(self, a, b)
        )
        rings._PRODUCT_TABLES.clear()
        squares = set()
        for _ in range(10):
            ring = ProductRing(factors=(Grassmannian(k=2, N=4), CPn(n=3)))
            a = ring.basis_class(((1,), 1))
            squares.add(ring.quantum_product(a, a))
        assert len(squares) == 1
        assert calls == [((1,), (1,))]

    def test_one_table_per_signature(self):
        """The table is keyed by each factor's kind, integers and q-power
        ratio: it is shared across fields and lambda0, and not between
        different factors."""
        f3 = GroundField(3)
        table = ProductRing(factors=(Grassmannian(k=2, N=4), CPn(n=3)))._structure_table
        assert ProductRing(factors=(Grassmannian(k=2, N=4, field=f3, lambda0=8),
                                    CPn(n=3, field=f3, lambda0=8)))._structure_table is table
        others = [ProductRing(factors=factors)._structure_table for factors in (
            (CPn(n=3), Grassmannian(k=2, N=4)),
            (Grassmannian(k=2, N=4), Grassmannian(k=1, N=4)),
            (Grassmannian(k=2, N=4), Grassmannian(k=3, N=4)),
            (CPn(n=1, lambda0=2), CPn(n=3, lambda0=4)),
            (CPn(n=1, lambda0=2), CPn(n=1, lambda0=2)),
        )]
        assert len({id(t) for t in [table, *others]}) == 1 + len(others)

    def test_field_and_lambda0_come_from_factors(self):
        f3 = GroundField(3)
        left = CPn(n=1, field=f3, lambda0=Fraction(4))
        right = Grassmannian(k=2, N=4, field=f3, lambda0=Fraction(8))
        ring = ProductRing(factors=(left, right))
        assert (ring.field, ring.N_chern, ring.lambda0, ring.monotonicity) == (
            f3, 2, Fraction(4), Fraction(2)
        )
        assert ring.first_chern_generator() == ring.basis_class(
            (1, ())
        ) + ring.basis_class((0, (1,)))
        for setting in ({"lambda0": 5}, {"field": f3}):
            with pytest.raises(TypeError):
                ProductRing(factors=(CPn(n=1), CPn(n=1)), **setting)

    def test_mismatched_monotonicity_rejected(self):
        with pytest.raises(ValueError):
            ProductRing(
                factors=(CPn(n=1, lambda0=Fraction(1)), CPn(n=2, lambda0=Fraction(2)))
            )

    def test_products_flatten(self):
        """However a product is nested, it is its flat tuple of factors, and
        each factor's q-powers convert by N_f/N."""
        a, b, c = CPn(n=1), CPn(n=3, lambda0=2), CPn(n=1)
        flat = ProductRing(factors=(a, b, c))
        assert (
            ProductRing(factors=(ProductRing(factors=(a, b)), c))
            == ProductRing(factors=(a, ProductRing(factors=(b, c))))
            == flat
        )
        assert flat.factors == (a, b, c)
        assert (flat.N_chern, flat.complex_dim, flat.lambda0) == (2, 5, Fraction(1))
        assert flat.unit_label() == (0, 0, 0)
        assert len(flat.basis_labels()) == 16
        # u^4 = q in CP^3, whose N is twice the product's
        assert flat.basis_class((0, 1, 0)) ** 4 == flat.basis_class((0, 0, 0), m=2)
        assert flat.basis_class((1, 0, 0)) ** 2 == flat.basis_class((0, 0, 0), m=1)
        assert flat.first_chern_generator() == sum(
            (flat.basis_class(lbl) for lbl in ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
            flat.zero(),
        )
        with pytest.raises(ValueError):
            flat.normalize_label((0, 0))
        for factors in ((), (a,)):
            with pytest.raises(ValueError):
                ProductRing(factors=factors)
        assert ProductRing(factors=(ProductRing(factors=(a, b)),)) == ProductRing(factors=(a, b))

    def test_g24_times_p3_generator_powers(self):
        ring = ProductRing(factors=(
            Grassmannian(k=2, N=4, lambda0=Fraction(1)),
            CPn(n=3, lambda0=Fraction(1)),
        ))
        assert ring.N_chern == 4
        u = ring.first_chern_generator()
        p = ring.one()
        for d in range(1, 21):
            p = ring.quantum_product(p, u)
            assert not p.is_zero(), d

    def test_structure_constants_factorize(self):
        left = CPn(n=1, lambda0=Fraction(1))
        right = CPn(n=1, lambda0=Fraction(1))
        ring = ProductRing(factors=(left, right))
        for la in ring.basis_labels():
            for lb in ring.basis_labels():
                got = dict(ring.structure(la, lb))
                expected = {}
                for (l1, m1), c1 in left.structure(la[0], lb[0]):
                    for (l2, m2), c2 in right.structure(la[1], lb[1]):
                        expected[((l1, l2), m1 + m2)] = c1 * c2
                assert got == expected


class TestGradingAndGenerator:
    def test_convert_grading(self):
        assert CPn(n=2).convert_grading(0) == 4
        assert CPn(n=2).convert_grading(2) == 2
        assert Grassmannian(k=2, N=4).convert_grading(8) == 0

    def test_first_chern_generator(self):
        assert CPn(n=4).first_chern_generator() == CPn(n=4).basis_class(1)
        g = Grassmannian(k=2, N=4)
        assert g.first_chern_generator() == g.basis_class((1,))
        ring = ProductRing(
            factors=(CPn(n=1, lambda0=Fraction(1)), CPn(n=1, lambda0=Fraction(1)))
        )
        assert ring.first_chern_generator() == ring.basis_class(
            (1, 0)
        ) + ring.basis_class((0, 1))
