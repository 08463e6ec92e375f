"""Axiomatic action-selector carrier simulation over finite orbit tables.

The selector itself is never computed; only the axioms the counting
arguments use are enforced: recapping equivariance along the ladder, the
mean-index window per class, and the (weakly) decreasing action ordering.
Every verdict is decided with exact arithmetic.

The search runs on integers.  Each table is scaled once by the common
denominator D of its actions, its mean indices and lambda0
(`OrbitTable.scaled`).  `_cappings` is the search's one copy of the index
window: the cappings m of a k-th iterate that put its scaled mean index
k*Delta*D - 2N*D*m inside [(d - 2n)*D, d*D] come from integer floor and ceil
division, both ends strict for a weakly nondegenerate row.  The assignment
search, the fundamental-class carrier and the counting check read the scaled
actions k*a*D - m*lambda0*D of those cappings.  `check_assignment` stays the
independent checker: it rebuilds each capped orbit with `Fraction`s and
tests it with `spectra.index_window_check`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .ladders import Ladder
from .spectra import (
    CappedOrbit,
    MonotoneData,
    augmented_action,
    index_window_check,
    iterate,
    recap,
)

# A table row is a fixed point: a capped orbit with the trivial capping.
TableOrbit = CappedOrbit


class ScaledTable(NamedTuple):
    """An orbit table over the common denominator D of its rows' actions and
    mean indices and of lambda0: each row as (orbit id, action * D,
    mean index * D, weakly nondegenerate), sorted by id, and lambda0 * D."""

    D: int
    rows: Tuple[Tuple[str, int, int, bool], ...]
    lambda0: int


@dataclass(frozen=True)
class OrbitTable:
    md: MonotoneData
    n: int
    orbits: Tuple[CappedOrbit, ...]

    def __post_init__(self):
        object.__setattr__(self, "orbits", tuple(self.orbits))
        ids = [o.orbit_id for o in self.orbits]
        if len(set(ids)) != len(ids):
            raise ValueError("orbit ids must be unique")
        if not self.orbits:
            raise ValueError("orbit table must be non-empty")
        for o in self.orbits:
            if o.m != 0:
                raise ValueError(
                    f"table orbit {o.orbit_id} has capping m = {o.m}; table rows "
                    "are fixed points with m = 0, cappings live in the slots"
                )

    def orbit(self, orbit_id: str) -> CappedOrbit:
        for o in self.orbits:
            if o.orbit_id == orbit_id:
                return o
        raise KeyError(orbit_id)

    def capped(self, orbit_id: str, m: int, k: int) -> CappedOrbit:
        """The k-th iterate of a table orbit with m extra copies of A."""
        return recap(iterate(self.orbit(orbit_id), k), m, self.md)

    @cached_property
    def scaled(self) -> ScaledTable:
        lambda0 = self.md.lambda0
        D = math.lcm(lambda0.denominator, *(
            x.denominator for o in self.orbits for x in (o.action, o.mean_index)))
        rows = sorted(
            (o.orbit_id, int(o.action * D), int(o.mean_index * D), o.weakly_nondegenerate)
            for o in self.orbits
        )
        return ScaledTable(D, tuple(rows), int(lambda0 * D))


Slot = Tuple[str, int]  # (orbit id, capping)


@dataclass(frozen=True)
class CarrierAssignment:
    """One ladder period of carrier choices at iteration k.

    slots[j] is the capped orbit assigned to v_j; the assignment extends to
    all of Z equivariantly: slot j + ell repeats slot j with capping + nu.
    """

    k: int
    slots: Tuple[Slot, ...]

    def phi(self) -> Tuple[str, ...]:
        return tuple(oid for oid, _ in self.slots)


def _cappings(table: OrbitTable, deg_hom: int, k: int) -> List[Tuple[str, int, int]]:
    """Every capped k-th iterate in the index window of a class of homology
    degree deg_hom, as (orbit id, capping m, action * D), in (id, m) order.

    The scaled mean index k*Delta*D - 2N*D*m must lie in [(deg_hom - 2n)*D,
    deg_hom*D]; every term is an integer, so a strict end moves in by one.
    """
    D, rows, lambda0 = table.scaled
    step = 2 * table.md.N * D
    out: List[Tuple[str, int, int]] = []
    for oid, action, mean_index, flag in rows:
        strict = int(flag)
        lo = (deg_hom - 2 * table.n) * D + strict
        hi = deg_hom * D - strict
        x, a = k * mean_index, k * action
        # lo <= x - step*m <= hi  <=>  ceil((x - hi)/step) <= m <= floor((x - lo)/step)
        m_lo, m_hi = -((hi - x) // step), (x - lo) // step
        out.extend((oid, m, a - m * lambda0) for m in range(m_lo, m_hi + 1))
    return out


def _ordering_ok(
    assignment: Sequence[CappedOrbit], nu: int, md: MonotoneData
) -> bool:
    """Weakly decreasing actions around one period; ties only between
    distinct capped orbits.  The period closes on slot 0 recapped by nu."""
    chain = list(assignment)
    chain.append(recap(chain[0], nu, md))
    for a, b in zip(chain, chain[1:]):
        if a.action < b.action:
            return False
        if a.action == b.action and (a.orbit_id, a.m) == (b.orbit_id, b.m):
            return False
    return True


def check_assignment(table: OrbitTable, ladder: Ladder, a: CarrierAssignment) -> bool:
    """Independent re-verification of one assignment (post-hoc checker)."""
    if len(a.slots) != ladder.ell:
        return False
    capped = []
    for (oid, m), deg in zip(a.slots, ladder.hom_degrees):
        c = table.capped(oid, m, a.k)
        if not index_window_check(c, deg, table.n):
            return False
        capped.append(c)
    if len(set(a.slots)) != len(a.slots):
        return False
    return _ordering_ok(capped, ladder.nu, table.md)


def _assignments(
    table: OrbitTable, ladder: Ladder, k: int
) -> Iterator[CarrierAssignment]:
    """Admissible assignments at iteration k in slot order, depth first.

    The slot candidates of `_cappings` are in (orbit id, capping) order, so
    walking them slot by slot visits the assignments in slot order.  A prefix
    is cut as soon as it repeats a capped orbit, raises the action, or falls
    below the action of slot 0 recapped by nu, the floor the period must close
    on; a full period is kept when its last slot lies above the floor, or on
    it as another capped orbit (the wrap-around pair of `_ordering_ok`).
    Actions are compared as the scaled integers of `OrbitTable.scaled`.
    """
    if k < 1:
        raise ValueError("iteration order must be >= 1")
    nu = ladder.nu
    period_drop = nu * table.scaled.lambda0
    candidates = [
        [((oid, m), action) for oid, m, action in _cappings(table, deg, k)]
        for deg in ladder.hom_degrees
    ]
    chain: List[Slot] = []
    used: Set[Slot] = set()

    def extend(floor: Optional[int], last: Optional[int]) -> Iterator[CarrierAssignment]:
        j = len(chain)
        if j == len(candidates):
            oid, m = chain[0]
            if last > floor or (last == floor and chain[-1] != (oid, m + nu)):
                yield CarrierAssignment(k=k, slots=tuple(chain))
            return
        for key, action in candidates[j]:
            if key in used or (j and not floor <= action <= last):
                continue
            chain.append(key)
            used.add(key)
            # slot 0 sets the floor
            yield from extend(floor if j else action - period_drop, action)
            chain.pop()
            used.remove(key)

    yield from extend(None, None)


def admissible_assignments(
    table: OrbitTable, ladder: Ladder, k: int
) -> List[CarrierAssignment]:
    """Every admissible assignment at iteration k, in slot order.

    This lists the whole depth-first search of `_assignments`; verdicts
    read only its first element, through `stable_subsequence`.
    """
    return list(_assignments(table, ladder, k))


@dataclass(frozen=True)
class StabilityReport:
    table: OrbitTable
    ladder: Ladder
    primes: Tuple[int, ...]
    assignments: Tuple[Tuple[int, CarrierAssignment], ...]
    stable_ks: Tuple[int, ...]
    phi: Tuple[str, ...]
    failures: Tuple[int, ...] = ()


def _increasing(primes: Sequence[int]) -> Tuple[int, ...]:
    """The iterations as a tuple; each verdict reads them in increasing order."""
    primes = tuple(primes)
    if any(b <= a for a, b in zip(primes, primes[1:])):
        raise ValueError("primes must be strictly increasing")
    return primes


def stable_subsequence(
    table: OrbitTable, ladder: Ladder, primes: Sequence[int]
) -> StabilityReport:
    """Follow the first admissible assignment along the iterations.

    At each k the first assignment in slot order, the first one the search
    of `_assignments` finds, is chosen; k with none are failures.  The ks are
    grouped by the orbit ids phi of their choice, and the largest group (ties
    to the smallest phi) is the stable subsequence.
    """
    primes = _increasing(primes)
    chosen: List[Tuple[int, CarrierAssignment]] = []
    failures: List[int] = []
    for k in primes:
        first = next(_assignments(table, ladder, k), None)
        if first is None:
            failures.append(k)
            continue
        chosen.append((k, first))
    groups: Dict[Tuple[str, ...], List[int]] = {}
    for k, a in chosen:
        groups.setdefault(a.phi(), []).append(k)
    if groups:
        phi = min(groups, key=lambda p: (-len(groups[p]), p))
        stable = tuple(groups[phi])
    else:
        phi, stable = (), ()
    return StabilityReport(
        table=table,
        ladder=ladder,
        primes=primes,
        assignments=tuple(chosen),
        stable_ks=stable,
        phi=phi,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class CountingVerdict:
    ok: bool
    slope: Fraction
    bound: Fraction
    per_k: Tuple[Tuple[int, Fraction, Fraction, Fraction], ...]

    @property
    def status(self) -> str:
        return "consistent" if self.ok else "divergent"


def counting_check(report: StabilityReport, x_id: str, y_id: str) -> CountingVerdict:
    """Compare the action-based and index-based orbit counts between x and y.

    Per stable k the number of image points between the carriers of x and y
    is estimated from the action spacing (period lambda0*nu) and from the
    index spacing (period 2N*nu); the two counts diverge linearly in k
    exactly when the augmented actions of x and y differ.
    """
    table, ladder = report.table, report.ladder
    md = table.md
    ell = ladder.ell
    nu = ladder.nu
    image = sorted(set(report.phi))
    bound = Fraction(3, 2) * len(image) + 2
    if x_id == y_id:
        return CountingVerdict(ok=True, slope=Fraction(0), bound=bound, per_k=())
    for oid in (x_id, y_id):
        if oid not in report.phi:
            raise ValueError(f"{oid} is not in the stable image")
    slope = (
        augmented_action(table.orbit(x_id), md) - augmented_action(table.orbit(y_id), md)
    ) / md.lambda0
    # the carriers' actions and mean indices times D, over the scaled rows
    D, rows, lambda0 = table.scaled
    step = 2 * md.N * D
    row = {oid: (action, mean_index) for oid, action, mean_index, _ in rows}
    (ax, dx), (ay, dy) = row[x_id], row[y_id]
    assignments = dict(report.assignments)
    per_k = []
    for k in report.stable_ks:
        a = assignments[k]
        phi = a.phi()
        dm = a.slots[phi.index(x_id)][1] - a.slots[phi.index(y_id)][1]
        m_act = Fraction(ell * (k * (ax - ay) - dm * lambda0), nu * lambda0)
        m_idx = Fraction(ell * (k * (dx - dy) - dm * step), nu * step)
        per_k.append((k, m_act, m_idx, m_act - m_idx))
    return CountingVerdict(ok=(slope == 0), slope=slope, bound=bound, per_k=tuple(per_k))


@dataclass(frozen=True)
class RelationVerdict:
    status: str  # "consistent" | "contradiction"
    witness: Tuple = ()
    details: Tuple[str, ...] = ()


def relation_verdict(
    table: OrbitTable, ladder: Ladder, primes: Sequence[int]
) -> RelationVerdict:
    """All pairs in the stable image must share the augmented action."""
    report = stable_subsequence(table, ladder, primes)
    if report.failures:
        return RelationVerdict(
            status="contradiction",
            witness=("no admissible assignment", report.failures),
            details=tuple(
                f"k={k}: no carrier assignment satisfies the constraints"
                for k in report.failures
            ),
        )
    if not report.stable_ks:
        return RelationVerdict(
            status="contradiction",
            witness=("empty stable subsequence",),
        )
    image = sorted(set(report.phi))
    for x_id, y_id in itertools.combinations(image, 2):
        verdict = counting_check(report, x_id, y_id)
        if not verdict.ok:
            return RelationVerdict(
                status="contradiction",
                witness=(x_id, y_id, verdict.slope),
                details=(
                    f"augmented actions of {x_id} and {y_id} differ: "
                    f"counts diverge with slope {verdict.slope} per iteration",
                ),
            )
    return RelationVerdict(status="consistent")


@dataclass(frozen=True)
class DistinctnessVerdict:
    status: str  # "distinct" | "not_distinct" | "inconclusive"
    mechanism: str  # "action" | "index" | "none"
    witness: Tuple = ()


def distinctness_check(
    ladder: Ladder, assignment: CarrierAssignment, nondegenerate: bool
) -> DistinctnessVerdict:
    """Certify that the ell assigned orbits are pairwise distinct.

    nu = 1 ladders certify via the action chain; nu > 1 needs the
    non-degeneracy hypothesis to run the Conley-Zehnder degree chain.
    """
    if ladder.nu > 1 and not nondegenerate:
        return DistinctnessVerdict(
            status="inconclusive",
            mechanism="none",
            witness=("non-degeneracy required for nu > 1",),
        )
    mechanism = "action" if ladder.nu == 1 else "index"
    ids = assignment.phi()
    seen = {}
    for j, oid in enumerate(ids):
        if oid in seen:
            return DistinctnessVerdict(
                status="not_distinct", mechanism=mechanism, witness=(seen[oid], j, oid)
            )
        seen[oid] = j
    return DistinctnessVerdict(status="distinct", mechanism=mechanism)


@dataclass(frozen=True)
class ObstructionVerdict:
    status: str  # "contradiction" | "no_obstruction"
    witness: Tuple = ()
    details: Tuple[str, ...] = ()


def _fundamental_class_carrier(table: OrbitTable, k: int) -> Optional[CappedOrbit]:
    """Action maximizer among capped orbits with mean index in [0, 2n]; ties
    go to the smallest (orbit id, capping), the first in `_cappings` order."""
    best = max(_cappings(table, 2 * table.n, k), key=itemgetter(2), default=None)
    return None if best is None else table.capped(best[0], best[1], k)


def neg_monotone_obstruction(
    table: OrbitTable, primes: Sequence[int]
) -> ObstructionVerdict:
    """Run the finite-orbit contradiction for negative monotone data.

    The carrier of the fundamental class at iteration k_i is a capping of an
    iterate of the stable orbit x of the carrier at k_1; its extra capping
    nu_i grows linearly with the mean index of x, while sub-additivity caps
    nu_i * I_omega(A) by a constant.  A positive mean index at k_1 therefore
    forces a contradiction at finite k.
    """
    md = table.md
    if md.lam >= 0:
        raise ValueError("negative monotone data required")
    primes = _increasing(primes)
    carriers: List[Tuple[int, CappedOrbit]] = []
    for k in primes:
        found = _fundamental_class_carrier(table, k)
        if found is not None:
            carriers.append((k, found))
    if not carriers:
        return ObstructionVerdict(
            status="no_obstruction",
            details=("no feasible fundamental-class carrier at any iteration",),
        )
    counts: Dict[str, int] = {}
    for _, c in carriers:
        counts[c.orbit_id] = counts.get(c.orbit_id, 0) + 1
    stable_id = min(counts, key=lambda i: (-counts[i], i))
    stable = [(k, c) for k, c in carriers if c.orbit_id == stable_id]
    k1, carrier1 = stable[0]
    if carrier1.mean_index == 0:
        return ObstructionVerdict(
            status="no_obstruction",
            details=(
                "degenerate branch: stable carrier has zero mean index at k1",
            ),
        )
    # sub-additivity constant: max over remainders r < k1 of c(r) - r * a_x
    x = table.orbit(stable_id)
    c0 = Fraction(0)
    for r in range(1, k1):
        found = _fundamental_class_carrier(table, r)
        if found is not None:
            c0 = max(c0, found.action - iterate(x, r).action)
    i_omega = md.I_omega_A
    for k_i, carrier_i in stable[1:]:
        l_i = k_i // k1
        nu_i = carrier_i.m - l_i * carrier1.m
        if nu_i * i_omega > c0:
            return ObstructionVerdict(
                status="contradiction",
                witness=(k_i, nu_i),
                details=(
                    f"nu_{k_i} * I_omega(A) = {nu_i * i_omega} exceeds the "
                    f"sub-additivity bound {c0}; a finite orbit set cannot "
                    "carry the fundamental class at all iterations",
                ),
            )
    return ObstructionVerdict(
        status="no_obstruction",
        details=("bound not exceeded within the supplied iterations",),
    )
