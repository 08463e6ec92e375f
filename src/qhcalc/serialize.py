"""Parsing and formatting: class literals, JSON ring/orbit/scenario records.

Class literal syntax: ``1``, ``u``, ``u^3``, ``s[2,1]``, ``q^2*s[1]``,
``3/2*u``, sums joined with `` + `` / `` - ``, and ``ox`` between tensor
factors of a product ring.  All rationals travel as "a/b" strings in JSON.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from fractions import Fraction
from typing import List, Tuple

from .qalgebra import GroundField, QuantumClass
from .rings import CPn, Grassmannian, ProductRing, RingPresentation
from .spectra import CappedOrbit, MonotoneData
from .ladders import Decomposition
from .carriers import OrbitTable
from .models import CPnQuadraticModel, ProductModel


class ParseError(ValueError):
    """Malformed literal or JSON input."""


@contextmanager
def reading(record: str):
    """Read a JSON record: a missing key or a value of the wrong type (a
    number where a list belongs, a list where an object belongs, a null)
    is a ParseError naming the record."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{record} missing key {exc}") from exc
    except TypeError as exc:
        raise ParseError(f"malformed {record}: {exc}") from exc


def json_int(value, name: str) -> int:
    """An integer field as JSON wrote it.  A bool, a float, a string or a
    null is a TypeError, which `reading` reports as a malformed record."""
    if type(value) is not int:
        raise TypeError(f"{name} {value!r} is not an integer")
    return value


def json_bool(value, name: str) -> bool:
    """A flag as JSON wrote it: only true or false."""
    if type(value) is not bool:
        raise TypeError(f"{name} {value!r} is not a bool")
    return value


def json_list(value, name: str) -> list:
    """An array field as JSON wrote it.  A string, whose characters would
    otherwise be read one by one, an object or a number is a TypeError."""
    if type(value) is not list:
        raise TypeError(f"{name} {value!r} is not an array")
    return value


# ---------------------------------------------------------------------------
# rationals


def frac_from_str(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from exc


def frac_to_str(x) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# class literals

_NUM_RE = re.compile(r"^-?\d+(/\d+)?$")
_Q_RE = re.compile(r"^q(\^(-?\d+))?$")
_U_RE = re.compile(r"^u(\^(\d+))?$")
_S_RE = re.compile(r"^s\[([\d,\s]*)\]$")


def _split_terms(text: str) -> List[Tuple[int, str]]:
    """Split a literal into (sign, term) pairs on top-level + and -."""
    terms = []
    depth = 0
    sign = 1
    cur = []
    prev = ""
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if depth == 0 and ch in "+-" and prev not in "^*/" and cur and any(
            c.strip() for c in cur
        ):
            terms.append((sign, "".join(cur).strip()))
            sign = 1 if ch == "+" else -1
            cur = []
        else:
            cur.append(ch)
        if ch.strip():
            prev = ch
    last = "".join(cur).strip()
    if last:
        terms.append((sign, last))
    return terms


def _parse_base_label(ring: RingPresentation, text: str):
    text = text.strip()
    if isinstance(ring, ProductRing):
        parts = [p.strip() for p in text.split("ox")]
        if len(parts) != 2:
            raise ParseError(f"product label needs exactly one 'ox': {text!r}")
        return (
            _parse_base_label(ring.left, parts[0]),
            _parse_base_label(ring.right, parts[1]),
        )
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
    raise ParseError(f"unrecognized basis label {text!r} for {type(ring).__name__}")


def _parse_term(ring: RingPresentation, text: str):
    """One product of a coefficient, q-powers, and one basis label."""
    coeff = Fraction(1)
    qpow = 0
    label = None
    factors = [f.strip() for f in text.split("*")]
    label_parts = []
    for f in factors:
        if not f:
            raise ParseError(f"empty factor in term {text!r}")
        if _NUM_RE.match(f):
            coeff *= frac_from_str(f)
            continue
        mq = _Q_RE.match(f)
        if mq:
            qpow += int(mq.group(2) or 1)
            continue
        label_parts.append(f)
    if not label_parts:
        label = ring.unit_label()
    elif len(label_parts) == 1:
        label = _parse_base_label(ring, label_parts[0])
    else:
        raise ParseError(f"more than one basis label in term {text!r}")
    return (label, qpow), coeff


def class_from_str(ring: RingPresentation, text: str) -> QuantumClass:
    """Parse a class literal; labels are normalised as they are parsed and
    coefficients coerced below, so the terms are assembled as they are."""
    text = text.strip()
    if not text:
        raise ParseError("empty class literal")
    acc = {}
    field = ring.field
    for sign, term in _split_terms(text):
        key, coeff = _parse_term(ring, term)
        try:
            coeff = field.coerce(sign * coeff)
        except ZeroDivisionError as exc:
            raise ParseError(
                f"coefficient in term {term!r} is not in {field.spec()}: {exc}"
            ) from exc
        acc[key] = field.add(acc.get(key, 0), coeff)
    return QuantumClass._assemble(ring, acc)


def _label_to_str(ring: RingPresentation, label) -> str:
    if isinstance(ring, ProductRing):
        return (
            f"{_label_to_str(ring.left, label[0])} ox "
            f"{_label_to_str(ring.right, label[1])}"
        )
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


def ring_from_json(data, field: GroundField = None) -> RingPresentation:
    """The ring of a record.

    A given ``field`` (the CLI's ``--field``) overrides every field spec in
    the record.  Otherwise a CP^n or G(k,N) reads its own ``"field"``
    (default Q), and each factor of a product reads its own: the product's
    ``"field"``, if it has one, is the default of its factors and must agree
    with every factor's field.
    """
    with reading("ring spec"):
        kind = data["kind"]
        lambda0 = frac_from_str(data.get("lambda0", "1"))
        if kind == "product":
            factors = json_list(data["factors"], "factors")
            return _product_from_json(factors, field, data.get("field"))
        if field is None:
            field = GroundField.from_spec(data.get("field", "Q"))
        if kind == "cpn":
            return CPn(n=json_int(data["n"], "n"), field=field, lambda0=lambda0)
        if kind == "grassmannian":
            return Grassmannian(
                k=json_int(data["k"], "k"), N=json_int(data["N"], "N"),
                field=field, lambda0=lambda0,
            )
    raise ParseError(f"unknown ring kind {kind!r}")


def _product_from_json(factor_records, field: GroundField, spec) -> RingPresentation:
    """A product of the factor records; ``spec`` is the product's own field."""
    if not factor_records:
        raise ParseError("product ring spec has no factors")
    top = None if field is not None or spec is None else GroundField.from_spec(spec)
    factors = []
    for record in factor_records:
        if top is not None and isinstance(record, dict):
            record = {"field": spec, **record}
        factor = ring_from_json(record, field=field)
        if top is not None and factor.field != top:
            raise ParseError(
                f"product field {top.spec()} disagrees with factor field "
                f"{factor.field.spec()}"
            )
        factors.append(factor)
    ring = factors[0]
    for f in factors[1:]:
        ring = ProductRing(left=ring, right=f)
    return ring


def ring_to_json(ring: RingPresentation) -> dict:
    """The ring record; a product's lambda0 follows from its factors' by Kunneth."""
    if isinstance(ring, CPn):
        return {
            "kind": "cpn", "n": ring.n, "field": ring.field.spec(),
            "lambda0": frac_to_str(ring.lambda0),
        }
    if isinstance(ring, Grassmannian):
        return {
            "kind": "grassmannian", "k": ring.k, "N": ring.N,
            "field": ring.field.spec(), "lambda0": frac_to_str(ring.lambda0),
        }
    return {
        "kind": "product",
        "factors": [ring_to_json(ring.left), ring_to_json(ring.right)],
        "field": ring.field.spec(),
    }


# ---------------------------------------------------------------------------
# decompositions


def decomposition_from_json(ring: RingPresentation, data) -> Decomposition:
    with reading("decomposition"):
        u0 = class_from_str(ring, data["u0"])
        factors = tuple(
            class_from_str(ring, f) for f in json_list(data["factors"], "factors")
        )
        nu = json_int(data["nu"], "nu")
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
        return CappedOrbit(
            orbit_id=data["id"],
            m=json_int(data.get("m", 0), "m"),
            action=frac_from_str(data["action"]),
            mean_index=frac_from_str(data["delta"]),
            cz_index=None if data.get("cz") is None else json_int(data["cz"], "cz"),
            weakly_nondegenerate=json_bool(
                data.get("weakly_nondegenerate", False), "weakly_nondegenerate"
            ),
        )


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
        return MonotoneData(N=json_int(data["N"], "N"), lam=frac_from_str(data["lambda"]))


def monotone_to_json(md: MonotoneData) -> dict:
    return {"N": md.N, "lambda": frac_to_str(md.lam)}


def table_from_json(data) -> OrbitTable:
    with reading("scenario"):
        md = monotone_from_json(data["monotone"])
        orbits = tuple(orbit_from_json(o) for o in json_list(data["orbits"], "orbits"))
        n = json_int(data["n"], "n")
    return OrbitTable(md=md, n=n, orbits=orbits)


def model_from_json(data):
    """A CP^n model or a product of models; nested products flatten."""
    with reading("model spec"):
        kind = data["kind"]
        if kind == "cpn":
            lambdas = json_list(data["lambdas"], "lambdas")
            return CPnQuadraticModel(lambdas=tuple(frac_from_str(x) for x in lambdas))
        if kind == "product":
            factors = json_list(data["factors"], "factors")
            return ProductModel(factors=tuple(model_from_json(f) for f in factors))
    raise ParseError(f"unknown model kind {kind!r}")


def model_to_json(model) -> dict:
    if isinstance(model, ProductModel):
        return {
            "kind": "product",
            "factors": [model_to_json(f) for f in model.factors],
        }
    return {"kind": "cpn", "lambdas": [frac_to_str(x) for x in model.lambdas]}
