"""Round trips of the text and JSON records: class literals, ring, orbit and
monotone records; the sign rule of a literal, a product's field as its
factors' default, and a whole scenario read by ``scenario_from_json`` and by
``table_from_json``."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhcalc.carriers import OrbitTable
from qhcalc.models import CPnQuadraticModel, fixed_points
from qhcalc.qalgebra import GroundField, QuantumClass
from qhcalc.rings import CPn, Grassmannian, ProductRing
from qhcalc.serialize import (
    ParseError,
    class_from_str,
    class_to_str,
    monotone_from_json,
    monotone_to_json,
    orbit_from_json,
    orbit_to_json,
    ring_from_json,
    ring_to_json,
    scenario_from_json,
    table_from_json,
)
from qhcalc.spectra import CappedOrbit, MonotoneData

# Derandomized with a bounded example count, so the suite stays deterministic
# and its run time does not depend on the host.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


def _rings(field):
    return [
        CPn(n=1, field=field),
        CPn(n=3, field=field),
        Grassmannian(k=2, N=4, field=field),
        Grassmannian(k=2, N=5, field=field),
        Grassmannian(k=3, N=6, field=field),
        ProductRing(factors=(CPn(n=1, field=field), CPn(n=1, field=field))),
        # CP^3 and G(2,4) share N = 4 and so the monotonicity constant
        ProductRing(factors=(CPn(n=3, field=field), Grassmannian(k=2, N=4, field=field))),
        # N = gcd(2, 4, 2): three factors, unequal N
        ProductRing(factors=(
            ProductRing(factors=(CPn(n=1, field=field), CPn(n=3, field=field, lambda0=2))),
            CPn(n=1, field=field),
        )),
    ]


RINGS = [ring for p in (0, 2, 3, 7) for ring in _rings(GroundField(p))]


@st.composite
def quantum_classes(draw, ring=None):
    """A class in ``ring``, or in one of RINGS when none is given."""
    if ring is None:
        ring = draw(st.sampled_from(RINGS))
    labels = ring.basis_labels()
    coeff = (
        st.fractions(min_value=-20, max_value=20, max_denominator=12)
        if ring.field.p == 0
        else st.integers(min_value=0, max_value=ring.field.p - 1)
    )
    terms = draw(
        st.dictionaries(
            st.tuples(st.sampled_from(labels), st.integers(min_value=-3, max_value=3)),
            coeff,
            max_size=6,
        )
    )
    return QuantumClass.build(ring, terms)


@PROPERTY
@given(quantum_classes())
def test_class_literal_round_trip(cls):
    assert class_from_str(cls.ring, class_to_str(cls)) == cls


def test_ring_record_round_trip():
    """Every ring, lambda0 included, reads back equal from its JSON record."""
    for p in (0, 2, 3, 7):
        field = GroundField(p)
        cp1 = CPn(n=1, field=field, lambda0=2)
        cp2 = CPn(n=2, field=field, lambda0=3)
        g24 = Grassmannian(k=2, N=4, field=field, lambda0=Fraction(4, 3))
        cp3 = CPn(n=3, field=field, lambda0=Fraction(4, 3))
        for ring in (cp1, cp2, g24, Grassmannian(k=3, N=6, field=field, lambda0=-5),
                     ProductRing(factors=(cp1, cp2)), ProductRing(factors=(cp3, g24)),
                     ProductRing(factors=(ProductRing(factors=(cp1, cp2)), cp1)),
                     ProductRing(factors=(cp3, g24))):
            record = json.loads(json.dumps(ring_to_json(ring)))
            assert ring_from_json(record) == ring
            assert ring_to_json(ring_from_json(record)) == record


def test_product_records_read_flat():
    """A flat record writes back as written; left-nested, right-nested and
    flat records read as one ring."""
    cp1 = {"kind": "cpn", "n": 1, "field": "Fp:3", "lambda0": "1"}
    cp3 = {"kind": "cpn", "n": 3, "field": "Fp:3", "lambda0": "2"}
    flat = {"kind": "product", "factors": [cp1, cp3, cp1], "field": "Fp:3"}
    ring = ring_from_json(flat)
    assert ring_to_json(ring) == flat
    left = {"kind": "product", "factors": [{"kind": "product", "factors": [cp1, cp3]}, cp1]}
    right = {"kind": "product", "factors": [cp1, {"kind": "product", "factors": [cp3, cp1]}]}
    assert ring_from_json(left) == ring_from_json(right) == ring
    assert [ring_to_json(f) for f in ring.factors] == [cp1, cp3, cp1]
    u = class_from_str(ring, "u ox 1 ox 1")
    assert class_to_str(u * class_from_str(ring, "1 ox u^3 ox u")) == "u ox u^3 ox u"
    for text in ("u ox 1", "u ox 1 ox 1 ox 1"):
        with pytest.raises(ValueError, match="a label of 3 factors needs 2 'ox'"):
            class_from_str(ring, text)


def test_literal_may_start_with_sign():
    cp2 = CPn(n=2)
    u, u2 = cp2.basis_class(1), cp2.basis_class(2)
    assert class_from_str(cp2, "-u") == -u
    assert class_from_str(cp2, " - u + u^2") == u2 - u
    assert class_from_str(cp2, "+u") == u
    # a coefficient keeps its own sign after a term's sign, as before
    assert class_from_str(cp2, "u - -1/2*u^2") == u + u2.scale(Fraction(1, 2))


@pytest.mark.parametrize("ring, text", [
    (CPn(n=2), "u -"), (Grassmannian(k=2, N=4), "s[1] +"), (CPn(n=2), "-"),
])
def test_dangling_sign_is_an_error(ring, text):
    """A sign with no term after it is refused, not dropped."""
    with pytest.raises(ParseError, match="without a term"):
        class_from_str(ring, text)


def test_product_field_is_the_factors_default():
    """A product's field is the default of its factors and must agree with a
    factor that names its own; every field is a JSON string."""
    cp1 = {"kind": "cpn", "n": 1}
    ring = ring_from_json({"kind": "product", "field": "Fp:3",
                           "factors": [cp1, {**cp1, "field": "Fp:3"}]})
    assert [f.field for f in ring.factors] == [GroundField(3)] * 2
    with pytest.raises(ParseError, match="product field Fp:3 disagrees with factor field Q"):
        ring_from_json({"kind": "product", "field": "Fp:3",
                        "factors": [{**cp1, "field": "Q"}] * 2})
    with pytest.raises(ParseError, match="field None is not a string"):
        ring_from_json({**cp1, "field": None})


def test_scenario_from_json_reads_table_ladder_and_primes():
    orbits = [{"id": "x0", "action": "0", "delta": "-1/4"},
              {"id": "x1", "action": "1/8", "delta": "1/4"}]
    record = {
        "monotone": {"N": 2, "lambda": "1/2"}, "n": 1, "orbits": orbits,
        "ladder": {"ring": {"kind": "cpn", "n": 1},
                   "decomposition": {"u0": "1", "factors": ["u", "u"], "nu": 1}},
        "primes": [2, 3, 5],
    }
    table, ladder, primes = scenario_from_json(record)
    # the table reader takes a whole scenario: perfbench's cli-readme check
    # reads the table of the scenario it gives the CLI with table_from_json
    assert table == table_from_json(record) == OrbitTable(
        md=MonotoneData(N=2, lam=Fraction(1, 2)), n=1,
        orbits=(CappedOrbit("x0", Fraction(0), Fraction(-1, 4)),
                CappedOrbit("x1", Fraction(1, 8), Fraction(1, 4))),
    )
    assert (ladder.hom_degrees, ladder.nu) == ((2, 0), 1)
    assert primes == [2, 3, 5]
    del record["ladder"], record["primes"]
    assert scenario_from_json(record) == (table, None, [])


@PROPERTY
@given(st.builds(MonotoneData, N=st.integers(1, 12),
                 lam=st.fractions(max_denominator=50).filter(bool)))
def test_monotone_record_round_trip(md):
    record = json.loads(json.dumps(monotone_to_json(md)))
    assert monotone_from_json(record) == md
    assert monotone_to_json(monotone_from_json(record)) == record


orbits = st.builds(
    CappedOrbit,
    orbit_id=st.text(alphabet="xyz0123456789*", min_size=1, max_size=6),
    action=st.fractions(max_denominator=50),
    mean_index=st.fractions(max_denominator=50),
    weakly_nondegenerate=st.booleans(),
    m=st.integers(min_value=-5, max_value=5),
    cz_index=st.none() | st.integers(min_value=-20, max_value=20),
)


@PROPERTY
@given(orbits)
def test_orbit_record_round_trip(o):
    record = json.loads(json.dumps(orbit_to_json(o)))
    assert orbit_from_json(record) == o
    assert orbit_to_json(orbit_from_json(record)) == record
    scenario = {"monotone": {"N": 2, "lambda": "1/2"}, "n": 1, "orbits": [record]}
    if o.m == 0:
        assert table_from_json(scenario).orbits == (o,)
    else:
        with pytest.raises(ValueError):
            table_from_json(scenario)


def test_model_orbits_round_trip_with_flag():
    """models output can be pasted into a scenario without losing the flag."""
    flags = set()
    for lams in ((0, Fraction(1, 3)), (0, 1), (0, Fraction(1, 8), Fraction(3, 8)),
                 (0, Fraction(1, 5), Fraction(2, 5), Fraction(3, 5)), (0, 1, 3)):
        for o in fixed_points(CPnQuadraticModel(lambdas=lams)):
            assert orbit_from_json(json.loads(json.dumps(orbit_to_json(o)))) == o
            flags.add(o.weakly_nondegenerate)
    assert flags == {True, False}
