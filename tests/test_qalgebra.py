import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qhcalc import qalgebra
from qhcalc.qalgebra import (
    GradingError,
    GroundField,
    QuantumClass,
    RingMismatchError,
    reduce_terms,
)
from qhcalc.rings import CPn, Grassmannian, ProductRing
from qhcalc.serialize import class_to_str

from test_serialize import PROPERTY, quantum_classes


Q = GroundField()
F5 = GroundField(5)


class TestGroundField:
    def test_inverse_mod_five(self):
        assert F5.inv(2) == 3

    def test_zero_inversion_raises(self):
        with pytest.raises(ZeroDivisionError):
            Q.inv(0)
        with pytest.raises(ZeroDivisionError):
            F5.inv(5)

    def test_nonprime_order_rejected(self):
        with pytest.raises(ValueError):
            GroundField(6)

    def test_orders_below_500_are_the_sieve_primes(self):
        """Every order from 1 to 499, as an int and as "Fp:<p>": the primes
        of a sieve make a field and every other order is refused, the
        squares of 5, 7, 11 and 13 among them, which only a trial divisor
        past 3 rejects."""
        prime = [False, False] + [True] * 498
        for d in range(2, 23):
            if prime[d]:
                prime[d * d::d] = [False] * len(prime[d * d::d])
        refused = set()
        for p in range(1, 500):
            for make in (GroundField, lambda p: GroundField.from_spec(f"Fp:{p}")):
                if prime[p]:
                    assert make(p).p == p
                    continue
                with pytest.raises(ValueError) as raised:
                    make(p)
                assert str(raised.value) == (
                    f"field order must be 0 (rationals) or prime, got {p}")
                refused.add(p)
        assert {25, 49, 121, 169} <= refused
        assert len(refused) == 499 - 95  # 95 primes below 500

    def test_spec_round_trip(self):
        assert GroundField.from_spec("Q") == Q
        assert GroundField.from_spec("Fp:7").p == 7
        assert GroundField.from_spec(F5.spec()) == F5

    @pytest.mark.parametrize("spec", ["Fp:0", "Fp:x"])
    def test_spec_other_than_q_or_nonzero_p_rejected(self, spec):
        """Fp:0 would compute over Q and print back as "Q"; Fp:x is no integer."""
        with pytest.raises(ValueError, match=f"unknown field spec '{spec}'"):
            GroundField.from_spec(spec)

    def test_coerce_residue_canonical(self):
        assert F5.coerce(Fraction(1, 2)) == 3
        assert F5.coerce(-1) == 4

    def test_coerce_rational_integral_is_int(self):
        """Over Q an integral value is an int and any other a Fraction."""
        two = Q.coerce(Fraction(6, 3))
        assert type(two) is int and two == 2
        half = Q.coerce(Fraction(1, 2))
        assert type(half) is Fraction and half == Fraction(1, 2)

    @pytest.mark.parametrize("field", [Q, GroundField(3)], ids=["Q", "F3"])
    def test_coerce_refuses_a_float(self, field):
        """0.1 is a binary approximation, not 1/10: no float enters a class."""
        with pytest.raises(TypeError, match="0.1 is a float"):
            field.coerce(0.1)
        with pytest.raises(TypeError):
            QuantumClass.build(CPn(n=1, field=field), {(0, 0): 0.5})

    @pytest.mark.parametrize("m", [0.5, 1.0, Fraction(1), "1"],
                             ids=["float", "integral float", "Fraction", "str"])
    def test_q_exponents_refuse_non_integers(self, m):
        """A q exponent is read with operator.index, at the checked entry
        and in q_shift: it raises TypeError instead of being truncated."""
        ring = CPn(n=2)
        with pytest.raises(TypeError):
            ring.basis_class(1, m)
        with pytest.raises(TypeError):
            QuantumClass.build(ring, {(1, m): 1})
        with pytest.raises(TypeError):
            ring.basis_class(1).q_shift(m)

    def test_int_q_exponents_still_enter(self):
        ring = CPn(n=2)
        assert (ring.basis_class(1, 2) == QuantumClass.build(ring, {(1, 2): 1})
                == ring.basis_class(1).q_shift(2))
        assert ring.basis_class(1, 2).terms == (((1, 2), 1),)
        assert ring.basis_class(1, -1).q_shift(1) == ring.basis_class(1)

    def test_coerce_takes_exact_scalars(self):
        """A Fraction, an int and a rational string still enter."""
        assert Q.coerce(Fraction(1, 3)) == Q.coerce("1/3") == Fraction(1, 3)
        assert type(Q.coerce(Fraction(4, 2))) is int and Q.coerce(-7) == -7
        assert GroundField(3).coerce("1/2") == GroundField(3).coerce(Fraction(1, 2)) == 2

    def test_coerce_passes_an_int_through(self, monkeypatch):
        """An int is already exact: it is reduced mod p, and no Fraction is
        built for it."""
        monkeypatch.setattr(qalgebra, "exact_fraction", None)
        assert Q.coerce(-7) == -7 and F5.coerce(-1) == 4 and F5.coerce(12) == 2

    def test_inverse_rational_follows_canonical_rule(self):
        two = Q.inv(Fraction(1, 2))
        assert type(two) is int and two == 2
        half = Q.inv(2)
        assert type(half) is Fraction and half == Fraction(1, 2)


def test_reduce_terms_rational_integral_is_int():
    key = ((1,), 0)
    reduced = reduce_terms({key: Fraction(4, 2), ((2,), 0): Fraction(0)}, 0)
    assert reduced == {key: 2} and type(reduced[key]) is int


def test_scalars_that_cancel_give_int_coefficients():
    """sigma_1/2 times 2 sigma_1 in G(2,4) over Q: the scalars cancel, so the
    product's coefficients are ints, not Fraction(n, 1)."""
    ring = Grassmannian(k=2, N=4)
    s1 = ring.basis_class((1,))
    product = s1.scale(Fraction(1, 2)) * s1.scale(2)
    assert product == s1 * s1
    assert product.terms and all(type(c) is int for _, c in product.terms)


_REDUCTION_RINGS = (
    lambda field: CPn(n=3, field=field),
    lambda field: Grassmannian(k=2, N=5, field=field),
    lambda field: ProductRing(
        factors=(CPn(n=3, field=field), Grassmannian(k=2, N=4, field=field))
    ),
)


@PROPERTY
@given(st.data())
def test_reduction_mod_p_commutes_with_ring_operations(data):
    """Ring operations over F_p reduce mod p only when they assemble a class,
    so reducing a class over Q to F_p (coercing each coefficient) must commute
    with +, binary and unary -, * and scale."""
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    make = data.draw(st.sampled_from(_REDUCTION_RINGS))
    ring_q, ring_p = make(GroundField()), make(GroundField(p))
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(
        lambda x: x.denominator % p != 0
    )
    terms = st.dictionaries(
        st.tuples(st.sampled_from(ring_q.basis_labels()), st.integers(-3, 3)),
        coeff,
        max_size=5,
    )
    a_terms, b_terms, s = data.draw(terms), data.draw(terms), data.draw(coeff)

    def mod_p(x):
        return QuantumClass.build(ring_p, dict(x.terms))

    a, b = QuantumClass.build(ring_q, a_terms), QuantumClass.build(ring_q, b_terms)
    a_p, b_p = QuantumClass.build(ring_p, a_terms), QuantumClass.build(ring_p, b_terms)
    assert mod_p(a) == a_p and mod_p(b) == b_p
    assert mod_p(a + b) == a_p + b_p
    assert mod_p(a - b) == a_p - b_p
    assert mod_p(-a) == -a_p
    assert mod_p(a * b) == a_p * b_p
    assert mod_p(a.scale(s)) == a_p.scale(s)


class TestQuantumClass:
    def test_add_zero_identity(self):
        ring = CPn(n=2)
        u = ring.basis_class(1)
        assert u + ring.zero() == u

    def test_add_inverse(self):
        ring = CPn(n=2)
        u = ring.basis_class(1)
        assert (u + (-u)).is_zero()

    def test_cancellation(self):
        ring = Grassmannian(k=2, N=4)
        a = ring.basis_class((2,)) + ring.basis_class((), m=1)
        b = ring.basis_class((1, 1)) - ring.basis_class((), m=1)
        total = a + b
        assert total == ring.basis_class((2,)) + ring.basis_class((1, 1))

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            CPn(n=1).basis_class(1) + CPn(n=2).basis_class(1)

    def test_degree_base_class(self):
        assert CPn(n=2).basis_class(1).degree() == 2

    def test_degree_q_unit(self):
        # CP^2 has N = 3, so q sits in cohomological degree 6
        assert CPn(n=2).basis_class(0, m=1).degree() == 6

    def test_degree_negative_q_power(self):
        ring = Grassmannian(k=2, N=4)
        assert ring.basis_class((2, 2), m=-1).degree() == 0

    def test_degree_errors(self):
        ring = CPn(n=2)
        with pytest.raises(GradingError):
            ring.zero().degree()
        with pytest.raises(GradingError):
            (ring.basis_class(1) + ring.basis_class(2)).degree()

    def test_q_shift(self):
        ring = CPn(n=1)
        one = ring.one()
        assert one.q_shift(0) == one
        assert one.q_shift(1).degree() == 4
        a = ring.basis_class(1, m=2)
        assert a.q_shift(3).q_shift(-3) == a


class TestPower:
    @pytest.mark.parametrize("ring", [
        CPn(n=3), Grassmannian(k=2, N=4), Grassmannian(k=2, N=5),
        CPn(n=3, field=GroundField(3)), Grassmannian(k=2, N=4, field=GroundField(3)),
        Grassmannian(k=2, N=5, field=GroundField(3)),
    ], ids=["CP3", "G(2,4)", "G(2,5)", "CP3/F3", "G(2,4)/F3", "G(2,5)/F3"])
    def test_power_is_the_repeated_product(self, ring):
        """Repeated squaring gives the same exact class as d products, on
        basis classes and on sums of terms of mixed degree."""
        rng = random.Random(29)
        labels = ring.basis_labels()
        classes = [ring.basis_class(label) for label in labels[1:4]] + [
            QuantumClass.build(ring, {(rng.choice(labels), rng.randint(-1, 1)):
                                      rng.randint(-3, 3) for _ in range(3)})
            for _ in range(2)
        ]
        for x in classes:
            product = ring.one()
            for d in range(13):
                assert x ** d == product, (x, d)
                product = product * x

    def test_huge_power_takes_logarithmically_many_products(self, monkeypatch):
        """u^(3m+1) = q^m u in CP^2; 10^18 = 3m + 1 takes one squaring and
        at most one multiplication per binary digit."""
        ring = CPn(n=2)
        d = 10 ** 18
        products = []
        product = CPn.quantum_product

        def counted(self, a, b):
            products.append((a, b))
            return product(self, a, b)

        monkeypatch.setattr(CPn, "quantum_product", counted)
        power = ring.basis_class(1) ** d
        assert class_to_str(power) == "q^333333333333333333*u"
        assert len(products) <= 2 * d.bit_length()

    @pytest.mark.parametrize("d", [2.0, Fraction(2), "2"], ids=["float", "Fraction", "str"])
    def test_exponent_read_with_operator_index(self, d):
        with pytest.raises(TypeError):
            CPn(n=2).basis_class(1) ** d


class TestProperties:
    def _random_class(self, ring, rng):
        labels = ring.basis_labels()
        terms = {}
        for _ in range(rng.randint(1, 4)):
            label = rng.choice(labels)
            m = rng.randint(-3, 3)
            terms[(label, m)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return QuantumClass.build(ring, terms)

    def test_additive_laws(self):
        rng = random.Random(7)
        ring = Grassmannian(k=2, N=5)
        for _ in range(50):
            a, b, c = (self._random_class(ring, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert (a + b).scale(s) == a.scale(s) + b.scale(s)

    def test_degree_shift_law(self):
        rng = random.Random(11)
        ring = CPn(n=3)
        for _ in range(30):
            label = rng.choice(ring.basis_labels())
            a = ring.basis_class(label, m=rng.randint(-2, 2))
            for m in range(-10, 11):
                assert a.q_shift(m).degree() == a.degree() + 2 * ring.N_chern * m

    def _random_int_class(self, ring, rng):
        labels = ring.basis_labels()
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.choice(labels), rng.randint(-3, 3))] = rng.randint(-5, 5)
        return QuantumClass.build(ring, terms)

    def test_char_p_annihilates(self):
        rng = random.Random(13)
        for p in (2, 3, 5):
            ring = Grassmannian(k=2, N=4, field=GroundField(p))
            for _ in range(20):
                a = self._random_int_class(ring, rng)
                total = ring.zero()
                for _ in range(p):
                    total = total + a
                assert total.is_zero()


def assert_canonical(x):
    """x is what the checked entry makes of its own terms: no zero
    coefficient, canonical scalars, normalised labels."""
    ring, p = x.ring, x.ring.field.p
    assert QuantumClass.build(ring, dict(x.terms)) == x
    for (label, m), c in x.terms:
        assert c != 0
        if p == 0:
            assert type(c) is (int if c.denominator == 1 else Fraction)
        else:
            assert type(c) is int and 0 <= c < p
        assert ring.normalize_label(label) == label
        assert type(m) is int


@PROPERTY
@given(st.data())
def test_ring_operations_stay_canonical(data):
    """Every operation assembles its result without the entry checks, so its
    terms must already be canonical."""
    a = data.draw(quantum_classes())
    ring = a.ring
    b = data.draw(quantum_classes(ring))
    scalar = data.draw(
        st.fractions(min_value=-6, max_value=6, max_denominator=5)
        if ring.field.p == 0
        else st.integers(min_value=-10, max_value=10)
    )
    shift = data.draw(st.integers(min_value=-3, max_value=3))
    u = ring.first_chern_generator()
    for x in (a * b, a + b, a - b, -a, a.scale(scalar), a.q_shift(shift), a ** 2,
              u, u ** 3, ring.zero(), ring.one()):
        assert_canonical(x)
