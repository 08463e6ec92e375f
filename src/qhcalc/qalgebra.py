"""Exact ground-field arithmetic and Novikov-graded quantum classes.

Everything here is exact, and every scalar has one canonical form.  Over
the rationals an integral value is an ``int`` and any other value a
``fractions.Fraction``; prime-field elements are ``int`` residues in
``[0, p)``.  No floats anywhere.  Structure constants are integers, so
products of integral classes over Q never build a ``Fraction``.

``GroundField.coerce`` is the one entry point for scalars from outside
(``QuantumClass.build``, ``scale``, class literals, ``one``).  It passes an
``int`` straight through (reduced mod p), and reads anything else through
``exact_fraction``, which refuses a float with ``TypeError``; a ring's
``lambda0`` and the numbers of ``spectra`` and ``models`` are read through
``exact_fraction`` too.  Past it, ring operations combine coefficients
with plain ``+``, ``-`` and ``*``, and
``reduce_terms`` is the one rule that brings the sums to canonical form and
drops zeros: ``QuantumClass._assemble`` applies it to every class, and the
decomposition search to its plain integer term dicts.
The basis labels' order and degrees live in one table per ring
(``RingPresentation._label_table``, built on first use from the ring
kind's ``_basis``, its (label, degree) list in basis order): ``_assemble``
sorts terms by a label's position there, and ``_degrees``, the one set of
term degrees, reads each degree from it.
``QuantumClass.build`` is the checked entry for outside terms (it
normalises labels and coerces scalars); it and ``q_shift`` read a q exponent
through ``operator.index``, so a float exponent raises ``TypeError``.
``QuantumClass.__pow__`` reads its power d the same way and squares
repeatedly, so x ** d costs O(log d) products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Dict, Mapping, Tuple, Union

Scalar = Union[int, Fraction]


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Miller-Rabin over the primes up to 37, exact for every p < 3.18e23
    (Sorenson and Webster, 2015), so for every field order below 2^64."""
    if p < 2 or any(p % a == 0 for a in _BASES):
        return p in _BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    return all(pow(a, d, p) == 1 or any(pow(a, d << i, p) == p - 1 for i in range(s))
               for a in _BASES)


def exact_fraction(x) -> Fraction:
    """x as a ``Fraction``: an ``int``, a ``Fraction`` (returned as it is) or
    a string such as ``"1/3"``.  A float is refused, since it is a binary
    approximation: ``Fraction(0.1)`` is 3602879701896397/36028797018963968,
    not 1/10."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"{x!r} is a float; pass an exact int, Fraction or string such as '1/3'")
    return Fraction(x)


@dataclass(frozen=True)
class GroundField:
    """The coefficient field: the rationals (p == 0) or a prime field F_p."""

    p: int = 0

    def __post_init__(self):
        if index(self.p) >= 1 << 64:
            raise ValueError(f"field order must be below 2^64, got {self.p}")
        if self.p != 0 and not _is_prime(self.p):
            raise ValueError(f"field order must be 0 (rationals) or prime, got {self.p}")

    @property
    def characteristic(self) -> int:
        return self.p

    def coerce(self, x: Scalar) -> Scalar:
        """Bring an integer or rational into canonical form for this field;
        an ``int`` builds no ``Fraction``, and a float is refused
        (``exact_fraction``)."""
        if type(x) is int:
            return x % self.p if self.p else x
        x = exact_fraction(x)
        if self.p == 0:
            return x.numerator if x.denominator == 1 else x
        if x.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator {x.denominator} not invertible mod {self.p}")
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def one(self) -> Scalar:
        return self.coerce(1)

    def inv(self, a: Scalar) -> Scalar:
        a = self.coerce(a)
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        if self.p == 0:
            return self.coerce(Fraction(1) / a)
        return pow(int(a), -1, self.p)

    def spec(self) -> str:
        return "Q" if self.p == 0 else f"Fp:{self.p}"

    @classmethod
    def from_spec(cls, spec: str) -> "GroundField":
        """The field named ``Q`` or ``Fp:<p>``, the two forms ``spec`` prints."""
        spec = spec.strip()
        if spec == "Q":
            return cls(0)
        try:
            p = int(spec[3:]) if spec.startswith("Fp:") else 0
        except ValueError:
            p = 0
        if p == 0:  # Fp:0 would be the rationals, printed back as Q
            raise ValueError(
                f"unknown field spec {spec!r} (expected 'Q' or 'Fp:<p>' with p prime)")
        return cls(p)


TermKey = Tuple[object, int]  # (basis label, q exponent)


def reduce_terms(terms: Mapping[TermKey, Scalar], p: int) -> Dict[TermKey, Scalar]:
    """The nonzero terms, each coefficient in canonical form (integers
    standing for their residues in F_p when p > 0): the one reduction."""
    if p:
        return {key: r for key, c in terms.items() if (r := c % p)}
    return {key: c if c.denominator != 1 else c.numerator
            for key, c in terms.items() if c}


@dataclass(frozen=True)
class QuantumClass:
    """A finite sum of (basis label, q^m) terms with exact coefficients.

    The ring context supplies the basis family, the minimal Chern number N,
    and the ground field.  Cohomological grading: a term (b, q^m) sits in
    degree |b| + 2N*m.  Zero coefficients are never stored.
    """

    ring: object
    terms: Tuple[Tuple[TermKey, Scalar], ...]

    @classmethod
    def build(cls, ring, mapping: Mapping[TermKey, Scalar]) -> "QuantumClass":
        """The class of caller-supplied terms: the checked entry, which
        normalises each label and coerces each scalar."""
        field = ring.field
        cleaned = {}
        for (label, m), c in mapping.items():
            c = field.coerce(c)
            if c == 0:
                continue
            key = (ring.normalize_label(label), index(m))
            cleaned[key] = cleaned.get(key, 0) + c
        return cls._assemble(ring, cleaned)

    @classmethod
    def _assemble(cls, ring, terms: Mapping[TermKey, Scalar]) -> "QuantumClass":
        """The class of terms with normalised labels and coefficients in the
        field (integers standing for their residues over F_p): reduces each
        coefficient mod p, drops zeros and sorts."""
        table = ring._label_table
        ordered = sorted(
            reduce_terms(terms, ring.field.p).items(),
            key=lambda kv: (table[kv[0][0]][0], kv[0][1]),
        )
        return cls(ring, tuple(ordered))

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _check_ring(self, other: "QuantumClass"):
        if self.ring != other.ring:
            raise ValueError(f"ring contexts differ: {self.ring} vs {other.ring}")

    def __add__(self, other: "QuantumClass") -> "QuantumClass":
        self._check_ring(other)
        acc = dict(self.terms)
        for key, c in other.terms:
            acc[key] = acc.get(key, 0) + c
        return QuantumClass._assemble(self.ring, acc)

    def __neg__(self) -> "QuantumClass":
        return QuantumClass._assemble(self.ring, {k: -c for k, c in self.terms})

    def __sub__(self, other: "QuantumClass") -> "QuantumClass":
        return self + (-other)

    def scale(self, c: Scalar) -> "QuantumClass":
        c = self.ring.field.coerce(c)
        return QuantumClass._assemble(self.ring, {k: v * c for k, v in self.terms})

    def __mul__(self, other: "QuantumClass") -> "QuantumClass":
        return self.ring.quantum_product(self, other)

    def __pow__(self, d: int) -> "QuantumClass":
        """The d-th power by repeated squaring: O(log d) products."""
        d = index(d)
        if d < 0:
            raise ValueError("negative powers are not defined")
        result, square = self.ring.one(), self
        while d:
            if d & 1:
                result = result * square
            d >>= 1
            if d:
                square = square * square
        return result

    # -- grading -----------------------------------------------------------

    def _degrees(self) -> set:
        """The degrees |b| + 2N*m of the terms; a class is homogeneous iff
        this set has at most one element."""
        table = self.ring._label_table
        two_n_chern = 2 * self.ring.N_chern
        return {table[label][1] + two_n_chern * m for (label, m), _ in self.terms}

    def degree(self) -> int:
        """Cohomological degree of a nonzero homogeneous class."""
        degs = self._degrees()
        if not degs:
            raise ValueError("zero class has no degree")
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous class, term degrees {sorted(degs)}")
        return degs.pop()

    def q_shift(self, m: int) -> "QuantumClass":
        """Multiply by q^m: every Novikov exponent moves by m."""
        m = index(m)
        return QuantumClass._assemble(
            self.ring, {(label, e + m): c for (label, e), c in self.terms}
        )
