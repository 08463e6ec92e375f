from fractions import Fraction

import pytest

from qhcalc import ladders
from qhcalc.qalgebra import GroundField
from qhcalc.rings import CPn, Grassmannian, ProductRing, RingPresentation
from qhcalc.ladders import (
    Decomposition,
    InvalidDecompositionError,
    PowerVanishesError,
    _case_ii_degree,
    build_ladder,
    case_ii_ladder,
    case_ii_parameters,
    ladder_class,
    pigeonhole_pair,
    search_decompositions,
    verify_decomposition,
)
from qhcalc.serialize import class_from_str

from oracles import search_decompositions_oracle


def cpn_decomposition(n):
    ring = CPn(n=n)
    u = ring.basis_class(1)
    return ring, Decomposition(u0=ring.one(), factors=(u,) * (n + 1), nu=1)


class TestVerify:
    def test_cpn_canonical(self):
        for n in range(1, 5):
            ring, dec = cpn_decomposition(n)
            report = verify_decomposition(ring, dec)
            assert report.valid, report.reasons
            assert dec.ell == n + 1

    def test_g24_sigma1_s2_s2(self):
        ring = Grassmannian(k=2, N=4)
        dec = Decomposition(
            u0=ring.basis_class((1,)),
            factors=(ring.basis_class((2,)), ring.basis_class((2,))),
            nu=1,
        )
        assert verify_decomposition(ring, dec).valid

    def test_product_mismatch_invalid(self):
        ring = CPn(n=2)
        dec = Decomposition(u0=ring.one(), factors=(ring.basis_class(1),), nu=1)
        report = verify_decomposition(ring, dec)
        assert not report.valid
        assert any("q^nu" in r for r in report.reasons)

    def test_interior_bound_checked(self):
        # CP^3: 1 * u^2 * u^2 * u^2 * u^2 = q^2, but the interior degrees
        # 4 + 4 + 4 = 12 exceed 2N = 8
        ring = CPn(n=3)
        u2 = ring.basis_class(2)
        dec = Decomposition(u0=ring.one(), factors=(u2,) * 4, nu=2)
        report = verify_decomposition(ring, dec)
        assert not report.valid
        assert any("interior" in r for r in report.reasons)

    def test_zero_u0_rejected(self):
        ring = CPn(n=2)
        with pytest.raises(ValueError):
            verify_decomposition(
                ring, Decomposition(u0=ring.zero(), factors=(), nu=1)
            )

    @pytest.mark.parametrize("check", [verify_decomposition, build_ladder],
                             ids=["verify", "build"])
    @pytest.mark.parametrize("case, message", [
        ("zero u0", "u0 must be nonzero"),
        ("inhomogeneous u0", "must be homogeneous"),
        ("inhomogeneous factor", "must be homogeneous"),
    ])
    def test_refusals(self, check, case, message):
        """A zero or inhomogeneous u0 and an inhomogeneous factor are
        refused with a plain ValueError, before any report or ladder."""
        ring = CPn(n=2)
        u, one = ring.basis_class(1), ring.one()
        u0, factors = {
            "zero u0": (ring.zero(), (u,) * 3),
            "inhomogeneous u0": (one + u, (u,) * 3),
            "inhomogeneous factor": (one, (u, u + ring.basis_class(2), u)),
        }[case]
        with pytest.raises(ValueError, match=message) as info:
            check(ring, Decomposition(u0=u0, factors=factors, nu=1))
        assert type(info.value) is ValueError

    def test_zero_factor_has_no_positive_degree(self):
        ring = CPn(n=2)
        u = ring.basis_class(1)
        dec = Decomposition(u0=ring.one(), factors=(u, ring.zero(), u), nu=1)
        report = verify_decomposition(ring, dec)
        assert "factor u2 does not have positive degree" in report.reasons
        with pytest.raises(InvalidDecompositionError, match="factor u2 does not have"):
            build_ladder(ring, dec)


class TestSearch:
    def test_cp2_contains_canonical(self):
        ring = CPn(n=2)
        decs = search_decompositions(ring, 3, 2)
        assert any(
            d.u0 == ring.one()
            and d.factors == (ring.basis_class(1),) * 3
            and d.nu == 1
            for d in decs
        )

    def test_cp1_no_length_one(self):
        ring = CPn(n=1)
        decs = search_decompositions(ring, 2, 2)
        assert all(d.ell >= 2 for d in decs)
        assert any(
            d.u0 == ring.one() and d.factors == (ring.basis_class(1),) * 2
            for d in decs
        )

    def test_g24_contains_sigma1_chain(self):
        ring = Grassmannian(k=2, N=4)
        decs = search_decompositions(ring, 4, 2)
        assert any(
            d.u0 == ring.basis_class((1,))
            and d.factors == (ring.basis_class((2,)),) * 2
            and d.nu == 1
            for d in decs
        )

    def test_all_results_valid_and_sorted(self):
        for ring in (CPn(n=3), Grassmannian(k=2, N=5)):
            decs = search_decompositions(ring, 3, 2)
            for dec in decs:
                assert verify_decomposition(ring, dec).valid
            ells = [d.ell for d in decs]
            assert ells == sorted(ells, reverse=True)

    def test_deterministic(self):
        ring = Grassmannian(k=2, N=4)
        a = search_decompositions(ring, 3, 2)
        b = search_decompositions(ring, 3, 2)
        assert a == b

    @pytest.mark.parametrize("ell_max, nu_max", [(2.5, 1), (2.0, 1), (2, 1.5)],
                             ids=["ell 2.5", "ell 2.0", "nu 1.5"])
    def test_bounds_are_integers(self, ell_max, nu_max):
        """ell_max and nu_max are read with operator.index: a float bound
        raises TypeError, where ell <= 2.5 would list CP^2's ell = 3
        decompositions too (9 of them, not the 6 of ell <= 2)."""
        ring = CPn(n=2)
        assert len(search_decompositions(ring, 2, 1)) == 6
        with pytest.raises(TypeError):
            search_decompositions(ring, ell_max, nu_max)


def _cp1_power(count, p=0):
    return ProductRing(factors=tuple(CPn(n=1, field=GroundField(p)) for _ in range(count)))


# (ring, ell_max, nu_max): CP^1-CP^4 over Q, F_2, F_3, F_5; G(2,4) and G(2,5)
# over Q, F_2, F_3 (over F_2, s1^3 = 2 s21 in G(2,4) dies only mod 2); G(3,6);
# CP^1 x CP^1 over Q and F_3; CP^1 x CP^1 x CP^1; G(2,4) x G(2,4); CP^1 x G(2,4)
# with lambda0 = 2 on G(2,4), so N = 2 and a q of G(2,4) is q^2; CP^6 at
# ell <= 7, with u^7 = q a multiset of seven equal factors; and G(2,4) x G(2,4)
# over F_5, whose degree order is not its basis order and whose factor
# scalars need not be +-1
ORACLE_SEARCHES = [
    *((CPn(n=n, field=GroundField(p)), n + 2, 2) for n in range(1, 5) for p in (0, 2, 3, 5)),
    *((Grassmannian(k=2, N=N, field=GroundField(p)), 3, 2) for N in (4, 5) for p in (0, 2, 3)),
    (Grassmannian(k=3, N=6), 2, 2),
    (_cp1_power(2), 4, 2),
    (_cp1_power(2, 3), 4, 2),
    (_cp1_power(3), 3, 2),
    (ProductRing(factors=(Grassmannian(k=2, N=4),) * 2), 3, 2),
    (ProductRing(factors=(CPn(n=1), Grassmannian(k=2, N=4, lambda0=2))), 3, 3),
    (CPn(n=6), 7, 2),
    (ProductRing(factors=(Grassmannian(k=2, N=4, field=GroundField(5)),) * 2), 3, 2),
]


def _ring_name(ring):
    if isinstance(ring, ProductRing):
        return "x".join(_ring_name(f) for f in ring.factors)
    if isinstance(ring, CPn):
        return f"CP{ring.n}"
    return f"G({ring.k},{ring.N})"


def _search_id(search):
    ring, ell_max, nu_max = search
    return f"{_ring_name(ring)}/{ring.field.spec()} l<={ell_max} nu<={nu_max}"


class TestSearchOracle:
    @pytest.mark.parametrize("search", ORACLE_SEARCHES, ids=_search_id)
    def test_matches_quantum_class_search(self, search):
        """The integer-term search finds exactly the QuantumClass search's
        decompositions, in the same order."""
        assert search_decompositions(*search) == search_decompositions_oracle(*search)

    @pytest.mark.parametrize("p, found", [(0, False), (2, False), (3, True)])
    def test_g24_reduction_mod_p_decides(self, p, found):
        """In G(2,4), s1 * s1^4 = 4q s1: a decomposition over F_3 only, where
        4 = 1; over F_2 the branch dies at s1^3 = 2 s21 = 0."""
        ring = Grassmannian(k=2, N=4, field=GroundField(p))
        s1 = ring.basis_class((1,))
        assert (s1 ** 3).is_zero() == (p == 2)
        assert (Decomposition(s1, (s1,) * 4, 1) in search_decompositions(ring, 4, 2)) == found

    @pytest.mark.parametrize("ring", [CPn(n=3), Grassmannian(k=2, N=5, field=GroundField(3))],
                             ids=["CP3", "G(2,5)/Fp:3"])
    def test_search_multiplies_no_quantum_class(self, ring, monkeypatch):
        """The search runs on integer term dicts: it finds the oracle's list
        with quantum_product disabled."""
        expected = search_decompositions_oracle(ring, 4, 2)

        def refuse(*args):
            raise AssertionError("the search multiplied a QuantumClass")

        monkeypatch.setattr(RingPresentation, "quantum_product", refuse)
        assert search_decompositions(ring, 4, 2) == expected


class _Tagged(dict):
    """A term dict that knows its (u0, factor multiset) and hands it on with
    its items."""

    def __init__(self, terms, tag):
        super().__init__(terms)
        self.tag = tag

    def items(self):
        return _TaggedItems(super().items(), self.tag)


class _TaggedItems(tuple):
    def __new__(cls, items, tag):
        out = super().__new__(cls, items)
        out.tag = tag
        return out


class TestSearchWork:
    @pytest.mark.parametrize("ring, ell_max, contractions", [
        (CPn(n=3), 4, 40),
        (Grassmannian(k=2, N=5), 3, 340),
        (ProductRing(factors=(Grassmannian(k=2, N=4),) * 2), 3, 7812),
    ], ids=["CP3", "G(2,5)", "G(2,4)xG(2,4)"])
    def test_one_contraction_per_multiset_that_can_close_or_grow(
            self, ring, ell_max, contractions, monkeypatch):
        """The ring is commutative, so the search contracts u0 with each
        multiset of factors at most once, whatever their order; and it
        contracts no chain that can neither close (degree a multiple of 2N)
        nor grow (fewer than ell_max factors, degree below 2N).  Each term
        dict carries its (u0, multiset) from contraction to reduction."""
        expected = search_decompositions_oracle(ring, ell_max, 2)
        contract, reduce_terms = RingPresentation._contract, ladders.reduce_terms
        table = ring._label_table  # label -> (position, degree)
        calls = []

        def tagged_contract(self, a_terms, b_terms):
            if hasattr(a_terms, "tag"):
                u0, multiset = a_terms.tag
            else:  # the root {(u0, 0): 1}
                ((u0, _), _), = a_terms
                multiset = ()
            ((label, _), _), = b_terms
            child = (u0, tuple(sorted(multiset + (label,), key=lambda lbl: table[lbl][0])))
            calls.append(child)
            return _Tagged(contract(self, a_terms, b_terms), child)

        monkeypatch.setattr(RingPresentation, "_contract", tagged_contract)
        monkeypatch.setattr(ladders, "reduce_terms",
                            lambda terms, p: _Tagged(reduce_terms(terms, p), terms.tag))
        assert search_decompositions(ring, ell_max, 2) == expected
        assert len(calls) == len(set(calls)) == contractions
        two_n_chern = 2 * ring.N_chern
        for u0, multiset in calls:
            deg = sum(table[lbl][1] for lbl in multiset)
            assert deg % two_n_chern == 0 or (len(multiset) < ell_max and deg < two_n_chern), (
                u0, multiset)

    @pytest.mark.parametrize("n, count", [(10, 11253), (12, 53235)], ids=["CP10", "CP12"])
    def test_orders_are_listed_without_running_through_permutations(self, n, count):
        """CP^n at ell <= n + 1 lists 1 * u^(n+1) = q once: its multiset of
        n + 1 equal factors has one order, and a listing that ran through
        all (n + 1)! orders of it, or the n! of all but its last factor,
        would not finish in reasonable time."""
        ring = CPn(n=n)
        decs = search_decompositions(ring, n + 1, 1)
        assert len(decs) == count
        assert decs.count(Decomposition(ring.one(), (ring.basis_class(1),) * (n + 1), 1)) == 1


class TestLadder:
    def test_cp2_ladder_degrees(self):
        ring, dec = cpn_decomposition(2)
        ladder = build_ladder(ring, dec)
        assert ladder.hom_degrees == (4, 2, 0)

    def test_g24_ladder_degrees(self):
        ring = Grassmannian(k=2, N=4)
        dec = Decomposition(
            u0=ring.basis_class((1,)),
            factors=(ring.basis_class((2,)), ring.basis_class((2,))),
            nu=1,
        )
        ladder = build_ladder(ring, dec)
        assert ladder.hom_degrees == (6, 2)

    def test_invalid_rejected(self):
        ring = CPn(n=2)
        dec = Decomposition(u0=ring.one(), factors=(ring.basis_class(1),), nu=1)
        with pytest.raises(InvalidDecompositionError):
            build_ladder(ring, dec)

    def test_periodicity_everywhere(self):
        for make in (
            lambda: cpn_decomposition(3),
            lambda: cpn_decomposition(1),
        ):
            ring, dec = make()
            ladder = build_ladder(ring, dec)
            for j in range(-3 * ladder.ell, 3 * ladder.ell):
                assert ladder_class(ladder, j + ladder.ell) == ladder_class(
                    ladder, j
                ).q_shift(ladder.nu)

    def test_negative_index(self):
        ring, dec = cpn_decomposition(2)
        ladder = build_ladder(ring, dec)
        assert ladder_class(ladder, -1) == ladder.window[-1].q_shift(-ladder.nu)

    def test_degree_sum_equals_2N_nu(self):
        for ring, ell_max in (
            (CPn(n=4), 5),
            (Grassmannian(k=2, N=6), 3),
        ):
            for dec in search_decompositions(ring, ell_max, 2):
                total = sum(f.degree() for f in dec.factors)
                assert total == 2 * ring.N_chern * dec.nu

    def test_window_is_the_verification_walk(self, monkeypatch):
        """The CP^n ladder of u^(n+1) = q costs the n + 1 products of its
        verification walk and no more."""
        calls = []
        product = RingPresentation.quantum_product

        def counting(ring, a, b):
            calls.append((a, b))
            return product(ring, a, b)

        monkeypatch.setattr(RingPresentation, "quantum_product", counting)
        for n in range(1, 5):
            ring, dec = cpn_decomposition(n)
            calls.clear()
            ladder = build_ladder(ring, dec)
            assert len(calls) == n + 1
            assert ladder.window == tuple(ring.basis_class(j) for j in range(n + 1))

    def test_chain_on_all_found(self):
        for ring in (CPn(n=2), Grassmannian(k=2, N=4), Grassmannian(k=2, N=5)):
            for dec in search_decompositions(ring, 3, 2):
                ladder = build_ladder(ring, dec)
                chain = ladder.hom_degrees + (
                    ladder.hom_degrees[0] - 2 * ring.N_chern,
                )
                assert all(a > b for a, b in zip(chain, chain[1:]))


class TestCaseTwo:
    def test_g24_parameters(self):
        ring = Grassmannian(k=2, N=4)
        params = case_ii_parameters(ring, ring.basis_class((1,)), 6)
        assert (params.d, params.ell) == (25, 4)
        assert params.ell == ring.N_chern

    def test_cpn_parameters(self):
        for n in range(2, 6):
            ring = CPn(n=n)
            params = case_ii_parameters(ring, ring.basis_class(1), n + 1)
            assert params.ell == n + 1

    @pytest.mark.parametrize("n_orbits", [Fraction(5, 2), Fraction(3), 3.0],
                             ids=["5/2", "Fraction 3", "float 3"])
    def test_orbit_count_is_an_integer(self, n_orbits):
        """The orbit count is read with operator.index: 5/2 orbits would
        give d = 11."""
        ring = Grassmannian(k=2, N=4)
        assert case_ii_parameters(ring, ring.basis_class((1,)), 3).d == 13
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            case_ii_parameters(ring, ring.basis_class((1,)), n_orbits)

    def test_char_two_vanishing_power(self):
        ring = Grassmannian(k=2, N=4, field=GroundField(2))
        with pytest.raises(PowerVanishesError) as exc:
            case_ii_parameters(ring, ring.basis_class((1,)), 6)
        assert exc.value.exponent == 3
        # a ladder names the first vanishing power of its window, from s_minus on
        for s_minus, s_plus, exponent in [(1, 9, 3), (4, 12, 4)]:
            with pytest.raises(PowerVanishesError) as exc:
                case_ii_ladder(ring, ring.basis_class((1,)), s_minus, s_plus)
            assert exc.value.exponent == exponent

    def test_huge_orbit_count_walks_at_most_the_rank(self, monkeypatch):
        """u^1, ..., u^d are checked with at most rank(ring) - 1 products, so
        d = 4 * 10^8 + 1 costs no more than d = 25."""
        calls = []
        product = RingPresentation.quantum_product

        def counting(ring, a, b):
            calls.append(None)
            return product(ring, a, b)

        monkeypatch.setattr(RingPresentation, "quantum_product", counting)
        ring = Grassmannian(k=2, N=4)
        params = case_ii_parameters(ring, ring.basis_class((1,)), 10 ** 8)
        assert (params.d, params.ell) == (4 * 10 ** 8 + 1, 4)
        assert len(calls) == len(ring.basis_labels()) - 1
        ring_f2 = Grassmannian(k=2, N=4, field=GroundField(2))
        with pytest.raises(PowerVanishesError) as exc:
            case_ii_parameters(ring_f2, ring_f2.basis_class((1,)), 10 ** 8)
        assert exc.value.exponent == 3

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_rank_bound_agrees_with_every_power(self, p):
        """Past the rank no power of u vanishes first: the verdict equals the
        one read off all d powers, for every Case II basis class and the
        first Chern generator of small rings."""
        field = GroundField(p)
        rings = [CPn(n=n, field=field) for n in range(1, 4)] + [
            Grassmannian(k=2, N=4, field=field), Grassmannian(k=2, N=5, field=field),
            ProductRing(factors=(CPn(n=1, field=field, lambda0=2),
                                 CPn(n=2, field=field, lambda0=3)))]
        checked = 0
        for ring in rings:
            classes = [ring.basis_class(lbl) for lbl in ring.basis_labels()]
            for u in classes + [ring.first_chern_generator()]:
                try:
                    _case_ii_degree(ring, u)
                except ValueError:
                    continue
                # |u| <= 2N, so d > n_orbits = rank
                n_orbits = len(ring.basis_labels())
                try:
                    got = case_ii_parameters(ring, u, n_orbits).d
                except PowerVanishesError as exc:
                    got = ("vanishes", exc.exponent)
                d = -(-2 * ring.N_chern * n_orbits // u.degree()) + 1
                power, first_zero = u, None
                for r in range(1, d + 1):
                    if power.is_zero():
                        first_zero = r
                        break
                    power = ring.quantum_product(power, u)
                assert got == (d if first_zero is None else ("vanishes", first_zero))
                checked += 1
        assert checked > 10

    def test_degree_out_of_range(self):
        ring = Grassmannian(k=2, N=4)
        with pytest.raises(ValueError):
            case_ii_parameters(ring, ring.basis_class((2, 2)), 6)

    @pytest.mark.parametrize("ring, literal", [
        (CPn(n=2), "1"),
        (CPn(n=2), "q^-1*u^2"),
        (CPn(n=2), "u^2"),
        # |s[4,3]| = 14 < 2n = 16 but > 2N = 12: ell would be 0
        (Grassmannian(k=2, N=6), "s[4,3]"),
    ], ids=["cp2 1", "cp2 q^-1*u^2", "cp2 u^2", "g26 s[4,3]"])
    def test_degree_outside_case_ii_rejected(self, ring, literal):
        """One Case II degree rule, 0 < |u| < 2n and |u| <= 2N, for the
        parameters, the pigeonhole pair and the ladder."""
        u = class_from_str(ring, literal)
        for call in (lambda: case_ii_parameters(ring, u, 3),
                     lambda: pigeonhole_pair(["x", "y", "x"], ring, u),
                     lambda: case_ii_ladder(ring, u, 1, 7)):
            with pytest.raises(ValueError, match=r"need 0 < \|u\| < 2n and \|u\| <= 2N"):
                call()


class TestPigeonhole:
    def test_constant_list(self):
        ring = Grassmannian(k=2, N=4)
        u = ring.basis_class((1,))
        ids = ["x"] * 25
        assert pigeonhole_pair(ids, ring, u) == (1, 6)

    def test_cycling_ids(self):
        ring = Grassmannian(k=2, N=4)
        u = ring.basis_class((1,))
        ids = [f"x{i % 6}" for i in range(25)]
        s_minus, s_plus = pigeonhole_pair(ids, ring, u)
        assert ids[s_plus - 1] == ids[s_minus - 1]
        assert s_plus - s_minus > 4

    def test_all_distinct_errors(self):
        ring = Grassmannian(k=2, N=4)
        u = ring.basis_class((1,))
        with pytest.raises(ValueError):
            pigeonhole_pair([f"x{i}" for i in range(25)], ring, u)


class TestCaseTwoLadder:
    def test_non_integral_nu(self):
        ring = Grassmannian(k=2, N=4)
        with pytest.raises(ValueError, match="nu = 5/4 is not an integer"):
            case_ii_ladder(ring, ring.basis_class((1,)), 1, 6)

    @pytest.mark.parametrize("s_minus, s_plus", [(1.0, 9.0), (1, Fraction(9)), (Fraction(1), 9)],
                             ids=["floats", "Fraction s_plus", "Fraction s_minus"])
    def test_pair_is_integers(self, s_minus, s_plus):
        """s_minus and s_plus are read with operator.index where they enter,
        not deep inside the window walk or Fraction."""
        ring = Grassmannian(k=2, N=4)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            case_ii_ladder(ring, ring.basis_class((1,)), s_minus, s_plus)

    def test_s_minus_below_one_rejected(self):
        """The window starts at u^{s_minus}, a power in the pigeonhole range."""
        ring = Grassmannian(k=2, N=4)
        with pytest.raises(ValueError, match="need s_minus >= 1"):
            case_ii_ladder(ring, ring.basis_class((1,)), 0, 8)

    def test_g24_nu_two(self):
        ring = Grassmannian(k=2, N=4)
        ladder = case_ii_ladder(ring, ring.basis_class((1,)), 1, 9)
        assert ladder.nu == 2
        assert ladder.ell == 4
        assert ladder.hom_degrees == (6, 4, 2, 0)

    def test_cp2_recovers_canonical(self):
        ring = CPn(n=2)
        ladder = case_ii_ladder(ring, ring.basis_class(1), 1, 4)
        assert ladder.nu == 1
        assert ladder.ell == 3
        assert ladder.hom_degrees == (2, 0, -2)

    def test_every_case_ii_chain_strictly_decreases(self):
        """Each Case II window steps down by |u| > 0 and wraps around above
        hom[0] - 2N, for every valid |u| in CP^1-CP^4, G(2,4), G(2,5), every
        s_minus < s_plus <= 12 with an integral nu and a wide enough gap."""
        rings = [CPn(n=n) for n in range(1, 5)] + [
            Grassmannian(k=2, N=4), Grassmannian(k=2, N=5)]
        built = 0
        for ring in rings:
            for label in ring.basis_labels():
                u = ring.basis_class(label)
                try:
                    deg, ell = _case_ii_degree(ring, u)
                except ValueError:
                    continue
                for s_minus in range(1, 12):
                    for s_plus in range(s_minus + ell, 13):
                        if (s_plus - s_minus) * deg % (2 * ring.N_chern):
                            continue
                        try:
                            ladder = case_ii_ladder(ring, u, s_minus, s_plus)
                        except PowerVanishesError:
                            continue
                        chain = ladder.hom_degrees + (
                            ladder.hom_degrees[0] - 2 * ring.N_chern,
                        )
                        assert all(a > b for a, b in zip(chain, chain[1:])), (
                            ring, label, s_minus, s_plus)
                        built += 1
        assert built > 100
