"""Ring output checked byte for byte against ``tests/data/ring_golden.json``.

The file holds ``class_to_str`` of every ordered basis product of G(2,5) over
Q and F_3, of G(3,6) over Q, and of the Kunneth products CP^1 x CP^1 over Q
and F_2, G(2,4) x CP^3 over Q and F_3, CP^1 x CP^1 x CP^1 over Q and
CP^1 x CP^3 x CP^1 over F_3 (lambda0 = 2 on CP^3, so the factors' N differ);
the powers c_1^d, d <= 8, of the first Chern generator of those products;
``decomposition_to_json`` of the decomposition search on CP^2 and G(2,4);
and the SHA-256 of the structure constants ``structure(a, b)`` of every
ordered pair of basis labels of G(3,7) and G(4,8) over Q, as JSON.  It also holds the carrier
search on seeded quadratic-model tables of CP^1..CP^4, each genuine and with
one action perturbed, over the primes below 100 and over 2, 3: the
``stable_subsequence`` report, each assignment written as "id:capping" per
slot, the ``relation_verdict``, and the ``counting_check`` verdict of every
ordered pair of distinct orbits in the stable image.  Then the
``neg_monotone_obstruction`` verdict over the same primes on seeded negative
monotone tables, criterion 9's one-orbit tables and degenerate ones, under
three monotone data.  Last, for seeded quadratic models on CP^1..CP^5 and
products of one to three of them, the ``orbit_to_json`` rows of
``fixed_points`` and the ``verify_equal_augmented_actions`` report, as
``models cpn --verify`` and ``models verify`` print them.  Regenerate it,
only when an output change is intended, with
``PYTHONPATH=src python tests/test_golden.py``.

A second pin needs no file: the SHA-256 of ``class_to_str`` of every ordered
basis product of every G(k,N) with N <= 9, over Q and then F_3, one line
each.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from qhcalc.carriers import (
    OrbitTable,
    counting_check,
    neg_monotone_obstruction,
    relation_verdict,
    stable_subsequence,
)
from qhcalc.ladders import Decomposition, build_ladder, search_decompositions
from qhcalc.models import (
    CPnQuadraticModel,
    ProductModel,
    fixed_points,
    verify_equal_augmented_actions,
)
from qhcalc.qalgebra import GroundField
from qhcalc.rings import CPn, Grassmannian, ProductRing
from qhcalc.serialize import class_to_str, decomposition_to_json, model_to_json, orbit_to_json
from qhcalc.spectra import CappedOrbit, MonotoneData

GOLDEN = Path(__file__).resolve().parent / "data" / "ring_golden.json"
ELL_MAX, NU_MAX = 3, 2
C1_POWER_MAX = 8
# over the first two primes a perturbation is still caught by the counting check
PRIME_SETS = (
    ("primes below 100", [p for p in range(2, 100) if all(p % d for d in range(2, p))]),
    ("primes 2, 3", [2, 3]),
)
MODELS_PER_N = 3
# lambda0 = -1, -5/2, -4/3
NEGMON_DATA = (
    MonotoneData(N=1, lam=Fraction(-1)),
    MonotoneData(N=2, lam=Fraction(-5, 4)),
    MonotoneData(N=3, lam=Fraction(-4, 9)),
)
NEGMON_TABLES = 4


def _product_rings():
    f2, f3 = GroundField(2), GroundField(3)
    return (
        ("CP^1 x CP^1 over Q", ProductRing(factors=(CPn(n=1), CPn(n=1)))),
        ("CP^1 x CP^1 over F_2",
         ProductRing(factors=(CPn(n=1, field=f2), CPn(n=1, field=f2)))),
        ("G(2,4) x CP^3 over Q", ProductRing(factors=(Grassmannian(k=2, N=4), CPn(n=3)))),
        ("G(2,4) x CP^3 over F_3",
         ProductRing(factors=(Grassmannian(k=2, N=4, field=f3), CPn(n=3, field=f3)))),
        ("CP^1 x CP^1 x CP^1 over Q",
         ProductRing(factors=(ProductRing(factors=(CPn(n=1), CPn(n=1))), CPn(n=1)))),
        # N = gcd(2, 4, 2): the CP^3 factor's q-powers count double
        ("CP^1 x CP^3(lambda0=2) x CP^1 over F_3",
         ProductRing(factors=(
             ProductRing(factors=(CPn(n=1, field=f3), CPn(n=3, field=f3, lambda0=2))),
             CPn(n=1, field=f3),
         ))),
    )


def ring_outputs() -> dict:
    out = {}
    for name, ring in (
        ("G(2,5) over Q", Grassmannian(k=2, N=5)),
        ("G(2,5) over F_3", Grassmannian(k=2, N=5, field=GroundField(3))),
        ("G(3,6) over Q", Grassmannian(k=3, N=6)),
        *_product_rings(),
    ):
        basis = [ring.basis_class(label) for label in ring.basis_labels()]
        out[f"products in {name}"] = {
            f"{class_to_str(a)} * {class_to_str(b)}": class_to_str(a * b)
            for a in basis
            for b in basis
        }
    for name, ring in _product_rings():
        u = ring.first_chern_generator()
        out[f"powers c_1^d, d <= {C1_POWER_MAX}, in {name}"] = [
            class_to_str(u ** d) for d in range(C1_POWER_MAX + 1)
        ]
    for name, ring in (("CP^2", CPn(n=2)), ("G(2,4)", Grassmannian(k=2, N=4))):
        out[f"decompositions of {name}, ell <= {ELL_MAX}, nu <= {NU_MAX}"] = [
            decomposition_to_json(dec) for dec in search_decompositions(ring, ELL_MAX, NU_MAX)
        ]
    return out


def structure_digests() -> dict:
    out = {}
    for k, N in ((3, 7), (4, 8)):
        ring = Grassmannian(k=k, N=N)
        labels = ring.basis_labels()
        table = [[a, b, ring.structure(a, b)] for a in labels for b in labels]
        out[f"SHA-256 of structure(a, b) over every ordered pair of G({k},{N}) over Q"] = (
            hashlib.sha256(json.dumps(table).encode()).hexdigest()
        )
    return out


def _carrier_tables(n: int):
    """Seeded model tables on CP^n as (name, lambdas, rows, monotone data):
    each model genuine, then with one action shifted by an odd multiple of 1/16."""
    rng = random.Random(f"golden carriers CP^{n}")
    for i in range(MODELS_PER_N):
        den = rng.choice([5, 7, 8, 9, 11, 16])
        lams = tuple(Fraction(x, den) for x in rng.sample(range(-12, 13), n + 1))
        model = CPnQuadraticModel(lambdas=lams)
        rows = [(o.orbit_id, o.action, o.mean_index) for o in fixed_points(model)]
        yield f"model {i}, genuine", lams, rows, model.monotone_data
        j = rng.randrange(n + 1)
        oid, action, delta = rows[j]
        rows = list(rows)
        rows[j] = (oid, action + Fraction(rng.choice([-5, -3, -1, 1, 3, 5]), 16), delta)
        yield f"model {i}, {oid} perturbed", lams, rows, model.monotone_data


def carrier_outputs() -> dict:
    out = {}
    for n in range(1, 5):
        ring = CPn(n=n)
        ladder = build_ladder(
            ring, Decomposition(u0=ring.one(), factors=(ring.basis_class(1),) * (n + 1), nu=1)
        )
        for name, lams, rows, md in _carrier_tables(n):
            table = OrbitTable(md=md, n=n, orbits=tuple(CappedOrbit(*row) for row in rows))
            for primes_name, primes in PRIME_SETS:
                report = stable_subsequence(table, ladder, primes)
                verdict = relation_verdict(table, ladder, primes)
                scenario = f"CP^{n}, u^{n + 1} = q, {primes_name}, {name}"
                out[f"counting checks on {scenario}"] = {
                    f"{x_id} vs {y_id}": _verdict_json(counting_check(report, x_id, y_id))
                    for x_id, y_id in itertools.permutations(sorted(set(report.phi)), 2)
                }
                out[f"carriers on {scenario}"] = {
                    "lambdas": [str(x) for x in lams],
                    "actions": [str(action) for _, action, _ in rows],
                    "stable_subsequence": {
                        "assignments": [
                            [k, " ".join(f"{oid}:{m}" for oid, m in a.slots)]
                            for k, a in report.assignments
                        ],
                        "stable_ks": list(report.stable_ks),
                        "phi": list(report.phi),
                        "failures": list(report.failures),
                    },
                    "relation_verdict": _verdict_json(verdict),
                }
    return out


def _verdict_json(verdict) -> dict:
    return {
        "status": verdict.status,
        "witness": [str(w) for w in verdict.witness],
        "details": list(verdict.details),
    }


def _negmon_tables():
    """Seeded negative monotone tables on a 2-dimensional manifold as
    (name, table): criterion 9's one-orbit tables, whose mean index is
    positive, and degenerate tables, whose mean indices are all zero."""
    rng = random.Random("golden negative monotone")
    for md in NEGMON_DATA:
        for i in range(NEGMON_TABLES):
            orbits = (CappedOrbit("x", Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                                 Fraction(rng.choice([1, 3, 5, 7, 9]), 2)),)
            yield f"N = {md.N}, lambda = {md.lam}, criterion 9 table {i}", md, orbits
        for i in range(NEGMON_TABLES):
            orbits = tuple(CappedOrbit(f"x{j}", Fraction(rng.randint(-9, 9), 3), Fraction(0))
                           for j in range(rng.randint(1, 3)))
            yield f"N = {md.N}, lambda = {md.lam}, degenerate table {i}", md, orbits


def neg_monotone_outputs() -> dict:
    out = {}
    for name, md, orbits in _negmon_tables():
        table = OrbitTable(md=md, n=1, orbits=orbits)
        for primes_name, primes in PRIME_SETS:
            verdict = neg_monotone_obstruction(table, primes)
            out[f"negative monotone obstruction, {primes_name}, {name}"] = {
                "orbits": [[o.orbit_id, str(o.action), str(o.mean_index)] for o in orbits],
                **_verdict_json(verdict),
            }
    return out


def _models():
    """Seeded quadratic models as (name, model): three on each of CP^1..CP^5,
    then products of one to three factors on CP^1, CP^2 and CP^3.  Over the
    denominators 1 and 2 some coefficient differences are integers, so
    degenerate axes occur."""
    rng = random.Random("golden models")

    def cpn(n):
        den = rng.choice([1, 2, 7, 11, 16, 25])
        lams = tuple(Fraction(x, den) for x in rng.sample(range(-12, 13), n + 1))
        return CPnQuadraticModel(lambdas=lams)

    for n in range(1, 6):
        for i in range(MODELS_PER_N):
            yield f"CP^{n} model {i}", cpn(n)
    for n in range(1, 4):
        for count in range(1, 4):
            yield f"product of {count} CP^{n} models", ProductModel(
                factors=tuple(cpn(n) for _ in range(count))
            )


def model_outputs() -> dict:
    out = {}
    for name, model in _models():
        orbits = fixed_points(model)
        report = verify_equal_augmented_actions(model, orbits)
        out[f"models, {name}"] = {
            "model": model_to_json(model),
            "orbits": [orbit_to_json(o) for o in orbits],
            "equal_augmented_actions": report.ok,
            "common_value": str(report.common_value),
            "details": list(report.details),
        }
    return out


def golden_outputs() -> dict:
    return {**ring_outputs(), **structure_digests(), **carrier_outputs(),
            **neg_monotone_outputs(), **model_outputs()}


# SHA-256 of the 132,356 lines of grassmannian_product_lines()
GRASSMANNIAN_PRODUCTS_SHA256 = "e8956858d62a43aa11504b77a2d60d073a2347d6bd0d44eefc93d1cbca273e3a"


def grassmannian_product_lines():
    """class_to_str(a * b) for every ordered pair of basis classes of every
    G(k,N) with 2 <= N <= 9, over Q and then F_3."""
    for p in (0, 3):
        for N in range(2, 10):
            for k in range(1, N):
                ring = Grassmannian(k=k, N=N, field=GroundField(p))
                basis = [ring.basis_class(label) for label in ring.basis_labels()]
                for a in basis:
                    for b in basis:
                        yield class_to_str(a * b) + "\n"


def test_every_grassmannian_product_up_to_n9_matches_its_digest():
    digest, lines = hashlib.sha256(), 0
    for line in grassmannian_product_lines():
        digest.update(line.encode())
        lines += 1
    assert (lines, digest.hexdigest()) == (132356, GRASSMANNIAN_PRODUCTS_SHA256)


def test_ring_output_matches_golden():
    assert golden_outputs() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_outputs(), indent=1, sort_keys=True) + "\n")
