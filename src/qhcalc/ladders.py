"""Product decompositions u0*u1*...*ul = q^nu u0 and their ladders.

A decomposition is verified against four conditions: the exact product
relation, nu > 0, positive-degree factors, and the interior degree bound
|u1| + ... + |u_{l-1}| < 2N.  Its ladder is the q^nu-periodic sequence v_j
with v_0 = u0 and v_j = v_{j-1} * u_j, stored on one period window and
extended in both directions by index arithmetic.  One walk of running
products, `_walk`, gives the verification's u0, u0*u1, ..., u0*u1*...*ul,
whose first l entries are the window, and the Case II powers u, u^2, ...,
whose window starts at u^{s_-}.  Its homology degrees strictly decrease into
the next period with no check of their own: each step is a positive factor
degree (no v_j of a verified decomposition is 0), and the wrap-around step is
2N minus the interior sum.  A Case II window steps by |u| > 0, and
(l - 1)|u| < 2N for l = floor(2N/|u|).  The Case II orbit count and the
pair s_-, s_+ are read through `operator.index`.

The decomposition search runs on plain integer term dicts {(label, m): c},
through the ring's structure-constant contraction and `qalgebra.reduce_terms`
(the one reduction mod p), and builds `QuantumClass`es only for what it
finds.  The ring is commutative (every basis class has even degree), so it
walks each multiset of factors once, adding factors lightest first.  A
multiset grows only while its degree, the least interior degree of any order
of a multiset one factor larger, is below 2N; one that can neither grow nor
close (degree a multiple of 2N) costs no product.  A closed multiset is
listed in each distinct order whose interior degree is below 2N, under one
explicit sort key.  Verification and ladders stay on `QuantumClass`, so the
checker shares no walk with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from operator import index
from typing import List, NamedTuple, Sequence, Tuple

from .qalgebra import QuantumClass, reduce_terms


class InvalidDecompositionError(ValueError):
    """A ladder was requested from a decomposition that fails verification."""


class PowerVanishesError(ValueError):
    """u^d = 0 before the exponent required by the pigeonhole argument."""

    def __init__(self, exponent: int):
        self.exponent = exponent
        super().__init__(f"power vanishes: u^{exponent} = 0")


@dataclass(frozen=True)
class Decomposition:
    u0: QuantumClass
    factors: Tuple[QuantumClass, ...]
    nu: int

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def ell(self) -> int:
        return len(self.factors)


class VerificationReport(NamedTuple):
    valid: bool
    reasons: Tuple[str, ...]


@dataclass(frozen=True)
class Ladder:
    window: Tuple[QuantumClass, ...]
    nu: int
    hom_degrees: Tuple[int, ...]

    @property
    def ell(self) -> int:
        return len(self.window)


class CaseTwoParameters(NamedTuple):
    d: int
    ell: int


def verify_decomposition(ring, dec: Decomposition) -> VerificationReport:
    return _verify(ring, dec)[0]


def _verify(ring, dec: Decomposition) -> Tuple[VerificationReport, List[QuantumClass]]:
    """The verification report and the walk [u0, u0*u1, ..., u0*u1*...*ul]
    of products it checked."""
    if dec.u0.is_zero():
        raise ValueError("u0 must be nonzero")
    # one degree set per class: at most one element iff it is homogeneous
    degree_sets = [cls._degrees() for cls in (dec.u0,) + dec.factors]
    if any(len(degs) > 1 for degs in degree_sets):
        raise ValueError("all classes in a decomposition must be homogeneous")
    reasons: List[str] = []
    if dec.nu <= 0:
        reasons.append(f"nu must be positive, got {dec.nu}")
    degrees = [degs.pop() if degs else 0 for degs in degree_sets[1:]]
    for i, deg in enumerate(degrees, start=1):
        if deg <= 0:
            reasons.append(f"factor u{i} does not have positive degree")
    two_n_chern = 2 * ring.N_chern
    interior = sum(degrees[:-1])
    if interior >= two_n_chern:
        reasons.append(
            f"interior degree sum {interior} is not < 2N = {two_n_chern}"
        )
    walk = _walk(ring, dec.u0, dec.factors)
    if walk[-1] != dec.u0.q_shift(dec.nu):
        reasons.append("product does not equal q^nu * u0")
    return VerificationReport(valid=not reasons, reasons=tuple(reasons)), walk


def _walk(ring, v: QuantumClass, factors: Sequence[QuantumClass]) -> List[QuantumClass]:
    """The running products [v, v*f1, v*f1*f2, ...] of v by the factors."""
    walk = [v]
    for f in factors:
        walk.append(ring.quantum_product(walk[-1], f))
    return walk


def search_decompositions(ring, ell_max: int, nu_max: int) -> List[Decomposition]:
    """Exhaustive search over additive basis classes.

    Factors range over positive-degree basis labels.  Results are sorted by
    one explicit key: ell descending, nu ascending, then the basis-order
    positions of u0 and of the factors.  Each multiset of factors is
    multiplied once, adding factors lightest first, on integer term dicts; a
    product that vanishes prunes its branch.  A multiset whose product is
    q^nu u0 is listed in each distinct order whose interior degree is below
    2N.  Basis classes are built only for the decompositions found, and
    `verify_decomposition` checks those independently on `QuantumClass`es.
    ell_max and nu_max are read through `operator.index`.
    """
    ell_max, nu_max = index(ell_max), index(nu_max)
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    if nu_max < 1:
        raise ValueError("nu_max must be >= 1")
    two_n_chern = 2 * ring.N_chern
    cap = two_n_chern * nu_max
    p = ring.field.p
    labels = list(ring._label_table)
    degrees = [d for _, d in ring._label_table.values()]
    # (degree, position, the label's basis class as a term list), lightest first
    factors = sorted((d, i, (((labels[i], 0), 1),)) for i, d in enumerate(degrees) if d > 0)
    # (-ell, nu, position of u0, positions of the factors): the output order
    found: List[Tuple] = []

    def grow(u0, multiset, partial, deg, start):
        # multiset: the factor positions in walk order, of degree deg < 2N
        for i in range(start, len(factors)):
            d, pos, terms = factors[i]
            child_deg = deg + d
            if child_deg > cap:
                break
            grows = child_deg < two_n_chern and len(multiset) + 1 < ell_max
            nu, off = divmod(child_deg, two_n_chern)
            if not grows and off:
                continue
            step = reduce_terms(ring._contract(partial.items(), terms), p)
            if not step:
                continue
            child = multiset + (pos,)
            if grows:
                grow(u0, child, step, child_deg, i)
            elif step == {(labels[u0], nu): 1}:
                # each distinct last factor that keeps the interior below 2N
                for j, last in enumerate(child):
                    if degrees[last] > child_deg - two_n_chern and child[j - 1:j] != (last,):
                        found.extend((-len(child), nu, u0, order + (last,))
                                     for order in _orders(child[:j] + child[j + 1:]))

    for u0 in range(len(labels)):
        grow(u0, (), {(labels[u0], 0): 1}, 0, 0)
    found.sort()
    used = {i for _, _, u0, order in found for i in (u0, *order)}
    classes = {i: ring.basis_class(labels[i]) for i in used}
    return [Decomposition(classes[u0], tuple(classes[i] for i in order), nu)
            for _, nu, u0, order in found]


def _orders(items: Tuple[int, ...]):
    """Each distinct order of items, whose equal entries are adjacent."""
    if not items:
        yield ()
    for j, x in enumerate(items):
        if items[j - 1:j] != (x,):
            for rest in _orders(items[:j] + items[j + 1:]):
                yield (x,) + rest


def build_ladder(ring, dec: Decomposition) -> Ladder:
    report, walk = _verify(ring, dec)
    if not report.valid:
        raise InvalidDecompositionError("; ".join(report.reasons))
    return _ladder(ring, walk[:-1], dec.nu)


def _ladder(ring, window, nu: int) -> Ladder:
    hom = tuple(ring.convert_grading(v.degree()) for v in window)
    return Ladder(window=tuple(window), nu=nu, hom_degrees=hom)


def ladder_class(ladder: Ladder, j: int) -> QuantumClass:
    block, pos = divmod(j, ladder.ell)
    return ladder.window[pos].q_shift(ladder.nu * block)


def _case_ii_degree(ring, u: QuantumClass) -> Tuple[int, int]:
    """|u| and the Case II ladder length ell = floor(2N/|u|), which is >= 1
    only when |u| <= 2N."""
    deg = u.degree()
    if not 0 < deg < 2 * ring.complex_dim or deg > 2 * ring.N_chern:
        raise ValueError(f"need 0 < |u| < 2n and |u| <= 2N, got |u| = {deg}")
    return deg, 2 * ring.N_chern // deg


def case_ii_parameters(ring, u: QuantumClass, n_orbits: int) -> CaseTwoParameters:
    deg, ell = _case_ii_degree(ring, u)
    n_orbits = index(n_orbits)
    if n_orbits < 1:
        raise ValueError("n_orbits must be >= 1")
    d = ceil(Fraction(2 * ring.N_chern * n_orbits, deg)) + 1
    # u^1, ..., u^d are nonzero iff the first min(d, m) are, m the rank: a
    # nilpotent u in an algebra of rank m over F(q) has u^m = 0
    walked = min(d, len(ring.basis_labels()))
    for r, power in enumerate(_walk(ring, u, [u] * (walked - 1)), start=1):
        if power.is_zero():
            raise PowerVanishesError(r)
    return CaseTwoParameters(d=d, ell=ell)


def pigeonhole_pair(carrier_orbit_ids: Sequence, ring, u: QuantumClass) -> Tuple[int, int]:
    """Smallest s_minus, then smallest s_plus, with equal ids and gap > 2N/|u|,
    for a u that obeys the Case II degree rule."""
    d = len(carrier_orbit_ids)
    gap = Fraction(2 * ring.N_chern, _case_ii_degree(ring, u)[0])
    for s_minus in range(1, d + 1):
        for s_plus in range(s_minus + 1, d + 1):
            if (
                carrier_orbit_ids[s_plus - 1] == carrier_orbit_ids[s_minus - 1]
                and s_plus - s_minus > gap
            ):
                return s_minus, s_plus
    raise ValueError(
        "no admissible pair: the id list has too many distinct values "
        "for the declared orbit count"
    )


def case_ii_ladder(ring, u: QuantumClass, s_minus: int, s_plus: int) -> Ladder:
    s_minus, s_plus = index(s_minus), index(s_plus)
    deg, ell = _case_ii_degree(ring, u)
    nu_frac = Fraction((s_plus - s_minus) * deg, 2 * ring.N_chern)
    if nu_frac.denominator != 1:
        raise ValueError(
            f"nu = {nu_frac} is not an integer; the non-degeneracy hypothesis "
            "is required to rule this pair out"
        )
    if s_minus < 1 or s_plus - s_minus - ell + 1 <= 0:
        raise ValueError("need s_minus >= 1 and a gap s_plus - s_minus - ell + 1 > 0")
    window = _walk(ring, u, [u] * (s_minus + ell - 2))[s_minus - 1:]
    for j, v in enumerate(window):
        if v.is_zero():
            raise PowerVanishesError(s_minus + j)
    return _ladder(ring, window, int(nu_frac))
