"""Axiomatic action-selector carrier simulation over finite orbit tables.

The selector itself is never computed; only the axioms the counting
arguments use are enforced: recapping equivariance along the ladder, the
mean-index window per class, and the (weakly) decreasing action ordering.
Every verdict is decided with exact arithmetic.  The action-index relation
(`relation_verdict`) holds its preconditions in `relation_preconditions`: the
ladder's ring is the table's manifold (its N, lambda and n), and lambda > 0.
The search itself (`admissible_assignments`, `stable_subsequence`) stays
general, for either sign and any ladder.  Both verdicts follow one carrier
along the iterations through one walk, `_stable_walk`.  The relation, the
counting check it runs of the first stable-image orbit with each other
(`counting_check`), the negative-monotone obstruction
(`neg_monotone_obstruction`, its degenerate branch the one `DEGENERATE`) and
the distinctness gate (`distinctness_check`) each return one `Verdict`: a
status, a witness and human-readable details.  The action and index counts
of a pair differ by ell*k*slope/nu at each stable k, so the counting check
decides on the slope alone and builds no per-k table.

The search runs on integers.  Each table is scaled once by the common
denominator D of its actions, its mean indices and lambda0
(`OrbitTable.scaled`, its rows keyed by orbit id).  `_cappings` is the
search's one copy of the index window: at each k, one pass over the rows
lists every slot's cappings m of the k-th iterate whose scaled mean index
k*Delta*D - 2N*D*m lies in [(d - 2n)*D, d*D], from one floor division and
an ascending loop, both ends strict for a weakly nondegenerate row.  Its
candidates ((orbit id, m), k*a*D - m*lambda0*D) are the search's (slot,
action) pairs; the fundamental-class carrier and the negative-monotone
verdict read them too, the verdict turning them into `Fraction`s only in
its details.  `_assignments` walks the slots depth first on an explicit
stack, the next candidate index of each slot, with no generator per search
node and no set of used slots, since a repeated capped orbit ties the last
action; it stays lazy, so a verdict's `next()` stops at the first one.
`check_assignment` stays the independent checker: it rebuilds each capped
orbit with `Fraction`s and tests it with `spectra.index_window_check`.
A table's n is read through `operator.index`, and an iteration k and the
primes through `spectra.iteration_orders`, so a float is refused with
`TypeError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import index, itemgetter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .ladders import Ladder
from .spectra import (
    CappedOrbit,
    MonotoneData,
    augmented_action,
    index_window_check,
    iterate,
    iteration_orders,
    recap,
)

# kept because perfbench calls it; ROADMAP items 8 and 11
TableOrbit = CappedOrbit


class ScaledTable(NamedTuple):
    """An orbit table over the common denominator D of its rows' actions and
    mean indices and of lambda0: the rows keyed by orbit id, in id order, as
    (action * D, mean index * D, weakly nondegenerate), and lambda0 * D."""

    D: int
    rows: Dict[str, Tuple[int, int, bool]]
    lambda0: int


@dataclass(frozen=True)
class OrbitTable:
    md: MonotoneData
    n: int
    orbits: Tuple[CappedOrbit, ...]

    def __post_init__(self):
        object.__setattr__(self, "orbits", tuple(self.orbits))
        object.__setattr__(self, "n", index(self.n))
        ids = [o.orbit_id for o in self.orbits]
        if len(set(ids)) != len(ids):
            raise ValueError("orbit ids must be unique")
        if not self.orbits:
            raise ValueError("orbit table must be non-empty")
        if self.n < 1:
            raise ValueError(f"complex dimension n must be >= 1, got n = {self.n}")
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

    @cached_property
    def scaled(self) -> ScaledTable:
        lambda0 = self.md.lambda0
        D = math.lcm(lambda0.denominator, *(
            x.denominator for o in self.orbits for x in (o.action, o.mean_index)))
        rows = dict(sorted(
            (o.orbit_id, (int(o.action * D), int(o.mean_index * D), o.weakly_nondegenerate))
            for o in self.orbits
        ))
        return ScaledTable(D, rows, int(lambda0 * D))


Slot = Tuple[str, int]  # (orbit id, capping)


class CarrierAssignment(NamedTuple):
    """One ladder period of carrier choices at iteration k.

    slots[j] is the capped orbit assigned to v_j; the assignment extends to
    all of Z equivariantly: slot j + ell repeats slot j with capping + nu.
    """

    k: int
    slots: Tuple[Slot, ...]

    def phi(self) -> Tuple[str, ...]:
        return tuple(oid for oid, _ in self.slots)


def _cappings(table: OrbitTable, degrees: Sequence[int], k: int) -> List[List[Tuple[Slot, int]]]:
    """Per homology degree d of degrees, every capped k-th iterate in the
    index window of a class of degree d, as ((orbit id, capping m), action * D),
    in (id, m) order, all from one pass over the rows.  The scaled mean index
    k*Delta*D - 2N*D*m must lie in [(d - 2n)*D, d*D], a row's flag making both
    ends strict; every term is an integer.
    """
    D, rows, lambda0 = table.scaled
    step = 2 * table.md.N * D
    windows = [((d - 2 * table.n) * D, d * D) for d in degrees]
    out: List[List[Tuple[Slot, int]]] = [[] for _ in windows]
    for oid, (action, mean_index, flag) in rows.items():
        x, a = k * mean_index, k * action
        x_lo, x_hi = x - flag, x + flag  # a strict end moves in by one
        for (lo, hi), found in zip(windows, out):
            # the smallest m with x_hi - step*m <= hi, then up while x_lo - step*m >= lo
            m = -((hi - x_hi) // step)
            y = x_lo - step * m
            while y >= lo:
                found.append(((oid, m), a - m * lambda0))
                m, y = m + 1, y - step
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
        c = recap(iterate(table.orbit(oid), a.k), m, table.md)
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

    One `_cappings` pass lists every slot's candidates in (id, m) order, so
    a walk slot by slot visits the assignments in slot order.  A prefix is
    cut as soon as it raises the action, falls below the floor the period
    closes on (slot 0's action recapped by nu), or repeats a capped orbit;
    as a candidate's action depends only on its (id, m) and the prefix's
    actions weakly decrease, a repeat ties the last action, so only a tie
    is looked up in the prefix.  A full period is kept when its last slot
    lies above the floor, or on it as another capped orbit (the wrap-around
    pair of `_ordering_ok`).  The walk keeps an explicit stack, the next
    candidate index of each slot, and compares the scaled integer actions
    of `OrbitTable.scaled`; it yields each assignment as soon as its last
    slot is found.  Its callers read k through `spectra.iteration_orders`.
    """
    nu = ladder.nu
    period_drop = nu * table.scaled.lambda0
    candidates = _cappings(table, ladder.hom_degrees, k)
    last_slot = len(candidates) - 1
    chain: List[Slot] = []
    floor = wrap = None
    stack = [0]
    while stack:
        j = len(stack) - 1
        row = candidates[j]
        last = candidates[j - 1][stack[j - 1] - 1][1] if j else None  # the prefix's last action
        for i in range(stack[j], len(row)):
            key, action = row[i]
            if j and (not floor <= action <= last or (action == last and key in chain)):
                continue
            if not j:  # slot 0 sets the floor and the capped orbit it closes on
                floor, wrap = action - period_drop, (key[0], key[1] + nu)
            if j < last_slot:
                stack[j] = i + 1
                stack.append(0)
                chain.append(key)
                break
            if action > floor or (action == floor and key != wrap):
                yield CarrierAssignment(k=k, slots=(*chain, key))
        else:
            stack.pop()
            if chain:
                chain.pop()


def admissible_assignments(
    table: OrbitTable, ladder: Ladder, k: int
) -> List[CarrierAssignment]:
    """Every admissible assignment at iteration k, in slot order.

    This lists the whole depth-first search of `_assignments`; verdicts
    read only its first element, through `stable_subsequence`.
    """
    (k,) = iteration_orders((k,))
    return list(_assignments(table, ladder, k))


class StabilityReport(NamedTuple):
    table: OrbitTable
    assignments: Tuple[Tuple[int, CarrierAssignment], ...]
    stable_ks: Tuple[int, ...]
    phi: Tuple[str, ...]
    failures: Tuple[int, ...]


def _stable_walk(primes: Sequence[int], choose: Callable, key: Callable) -> Tuple:
    """Follow one carrier along the increasing iterations, choose(k) or None
    at each k: the (k, choice) pairs, the ks with none, and the key(choice)
    that the most ks share, ties to the smallest, with those ks; () if none."""
    chosen, failures, groups = [], [], {}
    for k in iteration_orders(primes):
        choice = choose(k)
        if choice is None:
            failures.append(k)
            continue
        chosen.append((k, choice))
        groups.setdefault(key(choice), []).append(k)
    best = min(groups, key=lambda p: (-len(groups[p]), p), default=())
    return tuple(chosen), tuple(failures), best, tuple(groups.get(best, ()))


def stable_subsequence(
    table: OrbitTable, ladder: Ladder, primes: Sequence[int]
) -> StabilityReport:
    """Follow the first admissible assignment along the iterations.

    At each k the first assignment in slot order, the first one the search
    of `_assignments` finds, is chosen; k with none are failures.  The ks
    sharing the most frequent orbit ids phi of their choice are the stable
    subsequence.
    """
    chosen, failures, phi, stable = _stable_walk(
        primes, lambda k: next(_assignments(table, ladder, k), None), CarrierAssignment.phi)
    return StabilityReport(
        table=table, assignments=chosen, stable_ks=stable, phi=phi, failures=failures)


@dataclass(frozen=True)
class Verdict:
    """The verdict of `relation_verdict` and of its `counting_check` of one
    pair ("consistent" or "contradiction"), of `neg_monotone_obstruction`
    ("contradiction" or "no_obstruction") or of `distinctness_check`
    ("distinct", "not_distinct" or "inconclusive")."""

    status: str
    witness: Tuple = ()
    details: Tuple[str, ...] = ()


# the obstruction's degenerate branch, which the CLI reports as inconclusive
DEGENERATE = Verdict("no_obstruction", details=(
    "degenerate branch: stable carrier has zero mean index at k1",))


def counting_check(report: StabilityReport, x_id: str, y_id: str) -> Verdict:
    """Compare the action-based and index-based orbit counts between the
    carriers of x and y in the stable image.

    Per stable k the number of image points between the two carriers is
    counted from the action spacing (period lambda0*nu) and from the index
    spacing (period 2N*nu).  The two counts differ by exactly ell*k*slope/nu,
    where slope = (augmented action of x - that of y) / lambda0, so they agree
    at every large k exactly when the slope is 0: "consistent", else a
    "contradiction" whose witness is (x, y, slope).
    """
    for oid in (x_id, y_id):
        if oid not in report.phi:
            raise ValueError(f"{oid} is not in the stable image")
    table = report.table
    x, y = table.orbit(x_id), table.orbit(y_id)
    slope = (augmented_action(x, table.md) - augmented_action(y, table.md)) / table.md.lambda0
    if slope == 0:
        return Verdict(status="consistent")
    return Verdict(
        status="contradiction",
        witness=(x_id, y_id, slope),
        details=(
            f"augmented actions of {x_id} and {y_id} differ: "
            f"counts diverge with slope {slope} per iteration",
        ),
    )


def relation_preconditions(table: OrbitTable, ladder: Ladder) -> None:
    """Raise a ValueError unless the relation is stated for this table and
    ladder: the ladder's ring must have the table's minimal Chern number,
    monotonicity constant and complex dimension, since the ladder and the
    fixed points come from one manifold; and then lambda > 0, since with
    lambda0 < 0 the period floor lies above slot 0, and every search would
    fail by arithmetic."""
    ring = ladder.window[0].ring
    ours = (ring.N_chern, ring.monotonicity, ring.complex_dim)
    theirs = (table.md.N, table.md.lam, table.n)
    for name, a, b in zip(("N_chern", "monotonicity", "complex_dim"), ours, theirs):
        if a != b:
            raise ValueError(f"ladder ring has {name} {a}, the orbit table {b}")
    if table.md.lam <= 0:
        raise ValueError("positive monotone data required")


def relation_verdict(
    table: OrbitTable, ladder: Ladder, primes: Sequence[int]
) -> Verdict:
    """All orbits of the stable image must share the augmented action: the
    first orbit's first contradicting `counting_check` with another gives the
    verdict.  The table and the ladder must meet `relation_preconditions`."""
    relation_preconditions(table, ladder)
    report = stable_subsequence(table, ladder, primes)
    if report.failures:
        return Verdict(
            status="contradiction",
            witness=("no admissible assignment", report.failures),
            details=tuple(
                f"k={k}: no carrier assignment satisfies the constraints"
                for k in report.failures
            ),
        )
    image = sorted(set(report.phi))
    # the first failure of combinations(image, 2) too: a check fails iff augmented actions differ
    for y_id in image[1:]:
        verdict = counting_check(report, image[0], y_id)
        if verdict.status == "contradiction":
            return verdict
    return Verdict(status="consistent")


def distinctness_check(
    ladder: Ladder, assignment: CarrierAssignment, nondegenerate: bool
) -> Verdict:
    """Certify that the ell assigned orbits are pairwise distinct.

    nu = 1 ladders certify via the action chain; nu > 1 needs the
    non-degeneracy hypothesis to run the Conley-Zehnder degree chain.
    """
    if ladder.nu > 1 and not nondegenerate:
        return Verdict(
            status="inconclusive", details=("non-degeneracy required for nu > 1",)
        )
    chain = "action" if ladder.nu == 1 else "Conley-Zehnder index"
    details = (f"mechanism: {chain} chain",)
    ids = assignment.phi()
    seen = {}
    for j, oid in enumerate(ids):
        if oid in seen:
            return Verdict(
                status="not_distinct", witness=(seen[oid], j, oid), details=details
            )
        seen[oid] = j
    return Verdict(status="distinct", details=details)


def _fundamental_class_carrier(table: OrbitTable, k: int) -> Optional[Tuple[Slot, int]]:
    """Action maximizer among capped k-th iterates with mean index in [0, 2n],
    as ((orbit id, m), action * D), ties to the first in `_cappings` order."""
    return max(_cappings(table, (2 * table.n,), k)[0], key=itemgetter(1), default=None)


def neg_monotone_obstruction(
    table: OrbitTable, primes: Sequence[int]
) -> Verdict:
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
    found, _, x_id, stable = _stable_walk(
        primes, lambda k: _fundamental_class_carrier(table, k), lambda c: c[0][0])
    if not found:
        return Verdict(
            status="no_obstruction",
            details=("no feasible fundamental-class carrier at any iteration",),
        )
    carriers = dict(found)
    D, rows, lambda0 = table.scaled
    a_x, delta_x, _ = rows[x_id]
    k1 = stable[0]
    (_, m1), _ = carriers[k1]
    if k1 * delta_x == 2 * md.N * D * m1:
        return DEGENERATE
    # sub-additivity constant: max over remainders r < k1 of c(r) - r * a_x
    c0 = 0
    for r in range(1, k1):
        found = _fundamental_class_carrier(table, r)
        if found is not None:
            c0 = max(c0, found[1] - r * a_x)
    for k_i in stable[1:]:
        (_, m_i), _ = carriers[k_i]
        nu_i = m_i - (k_i // k1) * m1
        # nu_i * I_omega(A) = -nu_i * lambda0
        if -nu_i * lambda0 > c0:
            return Verdict(
                status="contradiction",
                witness=(k_i, nu_i),
                details=(
                    f"nu_{k_i} * I_omega(A) = {Fraction(-nu_i * lambda0, D)} exceeds the "
                    f"sub-additivity bound {Fraction(c0, D)}; a finite orbit set cannot "
                    "carry the fundamental class at all iterations",
                ),
            )
    return Verdict(
        status="no_obstruction",
        details=("bound not exceeded within the supplied iterations",),
    )
