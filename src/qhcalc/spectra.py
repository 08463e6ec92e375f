"""Exact action/index calculus: recapping, iteration, augmented action.

All actions and areas are rational multiples of pi ("pi-units"), so every
identity is checked with exact arithmetic.  Conventions: the distinguished
sphere class A has I_omega(A) = -lambda0 and I_c1(A) = -2N; a planar rotation
by total angle 2*pi*theta over one period contributes 2*theta to the mean
index, and mu_CZ of a split nondegenerate flow is sum(2*floor(theta) + 1).
Numbers are read through ``qalgebra.exact_fraction`` and integers (N, a
capping m, mu_CZ, an iteration order) through ``operator.index``, so a float
is refused with ``TypeError``; `iteration_orders` is the one reader of
iteration orders, each >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Optional, Sequence, Tuple

from .qalgebra import exact_fraction


@dataclass(frozen=True)
class MonotoneData:
    """Monotonicity bookkeeping: N, lambda, lambda0 = lambda * N.

    I_omega(A) = -lambda0 and I_c1(A) = -2N for the distinguished generator A,
    so I_omega = (lambda/2) * I_c1 holds identically.
    """

    N: int
    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "N", index(self.N))
        if self.N < 1:
            raise ValueError("minimal Chern number must be positive")
        object.__setattr__(self, "lam", exact_fraction(self.lam))
        if self.lam == 0:
            raise ValueError("monotonicity constant must be nonzero")

    @property
    def lambda0(self) -> Fraction:
        return self.lam * self.N

    @property
    def I_omega_A(self) -> Fraction:
        return -self.lambda0

    @property
    def I_c1_A(self) -> int:
        return -2 * self.N


@dataclass(frozen=True)
class CappedOrbit:
    """A capped periodic orbit with exact action and mean index data.

    It is also the row type of a carrier orbit table
    (``carriers.OrbitTable``): a table row is a fixed point with m = 0, and
    ``carriers.check_assignment`` rebuilds capped iterates with ``recap``
    and ``iterate``.
    The field order lets a row be written ``CappedOrbit(id, action, delta)``.
    """

    orbit_id: str
    action: Fraction = Fraction(0)
    mean_index: Fraction = Fraction(0)
    weakly_nondegenerate: bool = False
    m: int = 0
    cz_index: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "action", exact_fraction(self.action))
        object.__setattr__(self, "mean_index", exact_fraction(self.mean_index))
        object.__setattr__(self, "m", index(self.m))
        if self.cz_index is not None:
            object.__setattr__(self, "cz_index", index(self.cz_index))


def recap(o: CappedOrbit, m: int, md: MonotoneData) -> CappedOrbit:
    """Attach m copies of the generator A to the capping."""
    return CappedOrbit(
        o.orbit_id,
        o.action + m * md.I_omega_A,
        o.mean_index + m * md.I_c1_A,
        o.weakly_nondegenerate,
        o.m + m,
        None if o.cz_index is None else o.cz_index + m * md.I_c1_A,
    )


def iteration_orders(ks: Sequence[int]) -> Tuple[int, ...]:
    """The iteration orders as a tuple: at least one, each >= 1, and strictly
    increasing, the order in which the carrier verdicts read them."""
    ks = tuple(map(index, ks))
    if not ks:
        raise ValueError("at least one iteration order is required")
    if ks[0] < 1:
        raise ValueError("iteration order must be >= 1")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("primes must be strictly increasing")
    return ks


def iterate(o: CappedOrbit, k: int) -> CappedOrbit:
    """The k-th iterate: action and mean index are homogeneous; mu_CZ is not."""
    (k,) = iteration_orders((k,))
    return CappedOrbit(
        o.orbit_id,
        k * o.action,
        k * o.mean_index,
        o.weakly_nondegenerate,
        o.m,
        o.cz_index if k == 1 else None,
    )


def augmented_action(o: CappedOrbit, md: MonotoneData) -> Fraction:
    """A - (lambda/2) * Delta: capping-independent, iteration-homogeneous."""
    return o.action - (md.lam / 2) * o.mean_index


def mean_index_split(av: Sequence) -> Fraction:
    """Mean index of a split linear flow with rotation numbers theta_j."""
    return 2 * sum((exact_fraction(a) for a in av), Fraction(0))


def cz_index_split(av: Sequence) -> int:
    """Conley-Zehnder index sum(2*floor(theta_j) + 1) of a split flow.

    With all theta_j in (0, 1) this gives n, the normalization at a
    nondegenerate maximum.  Integer angles are degenerate directions.
    """
    total = 0
    for a in av:
        theta = exact_fraction(a)
        if theta.denominator == 1:
            raise ValueError(f"degenerate direction: theta = {theta}")
        total += 2 * math.floor(theta) + 1
    return total


def index_window_check(o: CappedOrbit, class_degree_hom: int, n: int) -> bool:
    """Carrier window |v| - 2n <= Delta <= |v|, strict when weakly nondegenerate."""
    lo = Fraction(class_degree_hom - 2 * n)
    hi = Fraction(class_degree_hom)
    if o.weakly_nondegenerate:
        return lo < o.mean_index < hi
    return lo <= o.mean_index <= hi
