"""Parsing and formatting: class literals, JSON ring/orbit/scenario records.

Class literal syntax: ``1``, ``u``, ``u^3``, ``s[2,1]``, ``q^2*s[1]``,
``3/2*u``, sums joined with `` + `` / `` - ``, and one ``ox`` between each
pair of tensor factors of a product ring.  One rule splits the terms: a
``+`` or ``-`` that follows neither ``^``, ``*`` or ``/`` nor another sign
starts a term, so a literal may start with a sign (``-u``) and a sign with
no term after it (``u -``) is an error.  All rationals travel as "a/b"
strings in JSON.

Each record is read whole here: a ring (a product's ``"field"`` is the
default of its factors, and it has no ``"lambda0"``), a decomposition, an
orbit, a table, a model and a scenario, whose ladder `scenario_from_json`
builds.  One table, `_RING_KINDS`, gives the reader and the writer the keys
of a CP^n and a G(k,N) record.  A record has no key but its own: `known_keys`
makes any other, a misspelt optional key included, a ValueError rather than
dropping it for its default.  The command line reads no record key itself,
and writes every value through `to_json`.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from fractions import Fraction
from typing import List, Optional, Tuple

from .qalgebra import GroundField, QuantumClass
from .rings import CPn, Grassmannian, ProductRing, RingPresentation
from .spectra import CappedOrbit, MonotoneData
from .ladders import Decomposition, Ladder, build_ladder
from .carriers import OrbitTable
from .models import CPnQuadraticModel, ProductModel


@contextmanager
def reading(record: str):
    """Read a JSON record: a missing key or a value of the wrong type (a
    number where a list belongs, a list where an object belongs, a null)
    is a ValueError naming the record."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{record} missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed {record}: {exc}") from exc


def known_keys(data: dict, record: str, keys: str) -> None:
    """A record has no key but the space-separated keys: a misspelt optional
    key would otherwise be dropped, and its default read in its place.
    Called once a key of data has been read, so data is an object."""
    unknown = sorted(set(data) - set(keys.split()))
    if unknown:
        raise ValueError(f"{record} has unknown key {unknown[0]!r}")


_JSON_TYPES = {int: "an integer", bool: "a bool", str: "a string", list: "an array"}


def json_typed(value, kind: type, name: str):
    """A field of type kind exactly as JSON wrote it: a bool is not an
    integer, and a string, whose characters would otherwise be read one by
    one, is not an array.  Anything else is a TypeError, which `reading`
    reports as a malformed record."""
    if type(value) is not kind:
        raise TypeError(f"{name} {value!r} is not {_JSON_TYPES[kind]}")
    return value


# ---------------------------------------------------------------------------
# rationals


def frac_from_str(text) -> Fraction:
    """A rational written as a string, e.g. "a/b".  A JSON number is a
    TypeError: a float such as 0.1 is not the rational it approximates."""
    try:
        return Fraction(json_typed(text, str, "rational"))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from exc


def frac_to_str(x) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# class literals

_NUM_RE = re.compile(r"^-?\d+(/\d+)?$")
_Q_RE = re.compile(r"^q(\^(-?\d+))?$")
_U_RE = re.compile(r"^u(\^(\d+))?$")
_S_RE = re.compile(r"^s\[([\d,\s]*)\]$")
# A sign between terms, or before the first: one that follows neither ^, *
# or / (a coefficient's or an exponent's own sign) nor another sign.  A match
# starts just after a non-space character, the one the look-behind tests.
_SIGN_RE = re.compile(r"(?<![\^*/\s+-])\s*([+-])\s*")


def _parse_base_label(ring: RingPresentation, text: str):
    text = text.strip()
    if isinstance(ring, ProductRing):
        parts = text.split("ox")
        if len(parts) != len(ring.factors):
            raise ValueError(
                f"a label of {len(ring.factors)} factors needs "
                f"{len(ring.factors) - 1} 'ox': {text!r}"
            )
        return tuple(_parse_base_label(f, p) for f, p in zip(ring.factors, parts))
    if text == "1":
        return ring.unit_label()
    m = _U_RE.match(text)
    if m and isinstance(ring, CPn):
        return ring.normalize_label(int(m.group(2) or 1))
    m = _S_RE.match(text)
    if m and isinstance(ring, Grassmannian):
        inner = m.group(1).strip()
        parts = [int(p) for p in inner.split(",")] if inner else []
        return ring.normalize_label(parts)
    raise ValueError(f"unrecognized basis label {text!r} for {type(ring).__name__}")


def _parse_term(ring: RingPresentation, text: str):
    """One product of a coefficient, q-powers, and one basis label."""
    coeff, qpow, labels = Fraction(1), 0, []
    for f in (f.strip() for f in text.split("*")):
        if not f:
            raise ValueError(f"empty factor in term {text!r}")
        if _NUM_RE.match(f):
            coeff *= frac_from_str(f)
        elif mq := _Q_RE.match(f):
            qpow += int(mq.group(2) or 1)
        else:
            labels.append(f)
    if len(labels) > 1:
        raise ValueError(f"more than one basis label in term {text!r}")
    label = _parse_base_label(ring, labels[0]) if labels else ring.unit_label()
    return (label, qpow), coeff


def class_from_str(ring: RingPresentation, text: str) -> QuantumClass:
    """Parse a class literal; labels are normalised as they are parsed and
    coefficients coerced below, so the terms go straight to assembly."""
    text = text.strip()
    if not text:
        raise ValueError("empty class literal")
    acc = {}
    field = ring.field
    # (sign, term) pairs, the first term signed "+" unless the literal starts with a sign
    _, *pieces = _SIGN_RE.split(text if text[0] in "+-" else "+" + text)
    for sign, term in zip(pieces[::2], pieces[1::2]):
        if not term:
            raise ValueError(f"sign {sign!r} without a term in {text!r}")
        key, coeff = _parse_term(ring, term)
        try:
            coeff = field.coerce(-coeff if sign == "-" else coeff)
        except ZeroDivisionError as exc:
            raise ValueError(
                f"coefficient in term {term!r} is not in {field.spec()}: {exc}"
            ) from exc
        acc[key] = acc.get(key, 0) + coeff
    return QuantumClass._assemble(ring, acc)


def _label_to_str(ring: RingPresentation, label) -> str:
    if isinstance(ring, ProductRing):
        return " ox ".join(_label_to_str(f, a) for f, a in zip(ring.factors, label))
    if isinstance(ring, CPn):
        if label == 0:
            return "1"
        return "u" if label == 1 else f"u^{label}"
    if not label:
        return "1"
    return "s[" + ",".join(str(p) for p in label) + "]"


def class_to_str(cls: QuantumClass) -> str:
    if cls.is_zero():
        return "0"
    ring = cls.ring
    one = ring.field.one()
    pieces = []
    for (label, m), c in cls.terms:
        factors = []
        if c != one:
            factors.append(str(c))
        if m == 1:
            factors.append("q")
        elif m != 0:
            factors.append(f"q^{m}")
        lbl = _label_to_str(ring, label)
        if lbl != "1" or not factors:
            factors.append(lbl)
        pieces.append("*".join(factors))
    return " + ".join(pieces)


# ---------------------------------------------------------------------------
# ring JSON

# kind -> (class, JSON-integer keys in record order, between "kind" and "field")
_RING_KINDS = {"cpn": (CPn, ("n",)), "grassmannian": (Grassmannian, ("k", "N"))}


def ring_from_json(data, field: GroundField = None) -> RingPresentation:
    """The ring of a record.

    A given ``field`` (the CLI's ``--field``) overrides every field spec in
    the record.  Otherwise each CP^n or G(k,N) reads its own ``"field"``,
    whose default is Q, or inside a product the product's ``"field"``; a
    product that names a field must agree with every factor's.  A product's
    lambda0 follows from its factors', so a product record has none.
    """
    return _ring_from_json(data, field, "Q")


def _ring_from_json(data, field: GroundField, spec: str) -> RingPresentation:
    """The ring of a record whose field spec defaults to ``spec``; a product
    is flat, and a one-factor product is its factor."""
    with reading("ring spec"):
        kind = data["kind"]
        spec = json_typed(data.get("field", spec), str, "field")
        if kind == "product":
            if "lambda0" in data:
                raise ValueError("product ring spec has 'lambda0'; it follows from the factors'")
            known_keys(data, "ring spec", "kind factors field")
            records = json_typed(data["factors"], list, "factors")
            if not records:
                raise ValueError("product ring spec has no factors")
            factors = [_ring_from_json(record, field, spec) for record in records]
            named = GroundField.from_spec(spec) if field is None and "field" in data else None
            for factor in factors:
                if named not in (None, factor.field):
                    raise ValueError(f"product field {named.spec()} disagrees with "
                                     f"factor field {factor.field.spec()}")
            return factors[0] if len(factors) == 1 else ProductRing(factors=tuple(factors))
        lambda0 = frac_from_str(data.get("lambda0", "1"))
        if field is None:
            field = GroundField.from_spec(spec)
        for name, (cls, keys) in _RING_KINDS.items():  # ==, not in: a kind may be a list
            if kind == name:
                known_keys(data, "ring spec", " ".join(("kind", *keys, "field lambda0")))
                ints = {key: json_typed(data[key], int, key) for key in keys}
                return cls(**ints, field=field, lambda0=lambda0)
    raise ValueError(f"unknown ring kind {kind!r}")


def ring_to_json(ring: RingPresentation) -> dict:
    """The ring record; a product's lambda0 follows from its factors' by Kunneth."""
    for kind, (cls, keys) in _RING_KINDS.items():
        if isinstance(ring, cls):
            return {
                "kind": kind, **{key: getattr(ring, key) for key in keys},
                "field": ring.field.spec(), "lambda0": frac_to_str(ring.lambda0),
            }
    return {
        "kind": "product",
        "factors": [ring_to_json(f) for f in ring.factors],
        "field": ring.field.spec(),
    }


# ---------------------------------------------------------------------------
# decompositions


def decomposition_from_json(ring: RingPresentation, data) -> Decomposition:
    with reading("decomposition"):
        u0 = class_from_str(ring, data["u0"])
        factors = tuple(
            class_from_str(ring, f) for f in json_typed(data["factors"], list, "factors")
        )
        nu = json_typed(data["nu"], int, "nu")
        known_keys(data, "decomposition", "u0 factors nu")
    return Decomposition(u0=u0, factors=factors, nu=nu)


def decomposition_to_json(dec: Decomposition) -> dict:
    return {
        "u0": class_to_str(dec.u0),
        "factors": [class_to_str(f) for f in dec.factors],
        "nu": dec.nu,
    }


# ---------------------------------------------------------------------------
# orbits, tables, scenarios


def orbit_from_json(data) -> CappedOrbit:
    with reading("orbit record"):
        orbit = CappedOrbit(
            orbit_id=json_typed(data["id"], str, "id"),
            m=json_typed(data.get("m", 0), int, "m"),
            action=frac_from_str(data["action"]),
            mean_index=frac_from_str(data["delta"]),
            cz_index=None if data.get("cz") is None else json_typed(data["cz"], int, "cz"),
            weakly_nondegenerate=json_typed(
                data.get("weakly_nondegenerate", False), bool, "weakly_nondegenerate"
            ),
        )
        known_keys(data, "orbit record", "id m action delta cz weakly_nondegenerate")
    return orbit


def orbit_to_json(o: CappedOrbit) -> dict:
    return {
        "id": o.orbit_id,
        "m": o.m,
        "action": frac_to_str(o.action),
        "delta": frac_to_str(o.mean_index),
        "cz": o.cz_index,
        "weakly_nondegenerate": o.weakly_nondegenerate,
    }


def monotone_from_json(data) -> MonotoneData:
    with reading("monotone record"):
        md = MonotoneData(N=json_typed(data["N"], int, "N"), lam=frac_from_str(data["lambda"]))
        known_keys(data, "monotone record", "N lambda")
    return md


def monotone_to_json(md: MonotoneData) -> dict:
    return {"N": md.N, "lambda": frac_to_str(md.lam)}


def table_from_json(data) -> OrbitTable:
    with reading("scenario"):
        md = monotone_from_json(data["monotone"])
        orbits = tuple(orbit_from_json(o) for o in json_typed(data["orbits"], list, "orbits"))
        n = json_typed(data["n"], int, "n")
    return OrbitTable(md=md, n=n, orbits=orbits)


def scenario_from_json(data) -> Tuple[OrbitTable, Optional[Ladder], List[int]]:
    """A scenario record: its orbit table, its ladder, built from the inline
    ``{"ring": ..., "decomposition": ...}`` record (None without one), and
    its primes, JSON integers ([] without them).  Whether the ladder belongs
    to the table's manifold is the relation's precondition
    (`carriers.relation_preconditions`), not a rule of the record."""
    table = table_from_json(data)
    with reading("scenario"):
        primes = [json_typed(p, int, "prime")
                  for p in json_typed(data.get("primes", []), list, "primes")]
        known_keys(data, "scenario", "monotone n orbits primes ladder")
    if "ladder" not in data:
        return table, None, primes
    with reading("scenario ladder"):
        ring_spec, dec_spec = data["ladder"]["ring"], data["ladder"]["decomposition"]
        known_keys(data["ladder"], "scenario ladder", "ring decomposition")
    ring = ring_from_json(ring_spec)
    return table, build_ladder(ring, decomposition_from_json(ring, dec_spec)), primes


def model_from_json(data):
    """A CP^n model or a product of models; nested products flatten."""
    with reading("model spec"):
        kind = data["kind"]
        if kind == "cpn":
            known_keys(data, "model spec", "kind lambdas")
            lambdas = json_typed(data["lambdas"], list, "lambdas")
            return CPnQuadraticModel(lambdas=tuple(frac_from_str(x) for x in lambdas))
        if kind == "product":
            known_keys(data, "model spec", "kind factors")
            factors = json_typed(data["factors"], list, "factors")
            return ProductModel(factors=tuple(model_from_json(f) for f in factors))
    raise ValueError(f"unknown model kind {kind!r}")


def model_to_json(model) -> dict:
    if isinstance(model, ProductModel):
        return {
            "kind": "product",
            "factors": [model_to_json(f) for f in model.factors],
        }
    return {"kind": "cpn", "lambdas": [frac_to_str(x) for x in model.lambdas]}


# ---------------------------------------------------------------------------
# output


def to_json(value):
    """`json`'s ``default``: the JSON form of a value that `json` cannot write."""
    for kind, writer in ((Fraction, frac_to_str), (QuantumClass, class_to_str),
                         (CappedOrbit, orbit_to_json), (Decomposition, decomposition_to_json)):
        if isinstance(value, kind):
            return writer(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
