"""Explicit Hamiltonian models: quadratic flows on CP^n and their products.

The quadratic Hamiltonian with pairwise-distinct rational coefficients
lambda_0..lambda_n has exactly n+1 fixed points (the coordinate axes).  The
axis x_j rotates with angles lambda_j - lambda_i, i != j, and everything in
its row follows from those angles by one rule (``_fixed_point``): the mean
index is twice their sum, the Conley-Zehnder index is defined and the row
flagged nondegenerate exactly when no angle is an integer.  With the trivial
capping x_j has action lambda_j and mean index 2*((n+1)*lambda_j -
sum(lambda_i)), so every fixed point carries the same augmented action
sum(lambda_i)/(n+1).

A product of such models with equal n (equal monotonicity constants
1/(n+1)) has one fixed point per tuple of factor axes: the ids join with
``*``, the actions add and the angles concatenate, so mean indices and
Conley-Zehnder indices add, the flags AND, and the common augmented action
is the sum of the factors'.  Coefficients are read through
``qalgebra.exact_fraction``, so a float is refused with ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import List, NamedTuple, Sequence, Tuple

from .qalgebra import exact_fraction
from .spectra import (
    CappedOrbit,
    MonotoneData,
    augmented_action,
    cz_index_split,
    mean_index_split,
)


@dataclass(frozen=True)
class CPnQuadraticModel:
    lambdas: Tuple[Fraction, ...]

    def __post_init__(self):
        lams = tuple(exact_fraction(x) for x in self.lambdas)
        if len(lams) < 2:
            raise ValueError("need at least two coefficients (n >= 1)")
        if len(set(lams)) != len(lams):
            raise ValueError("coefficients must be pairwise distinct")
        object.__setattr__(self, "lambdas", lams)

    @property
    def n(self) -> int:
        return len(self.lambdas) - 1

    @property
    def monotone_data(self) -> MonotoneData:
        return MonotoneData(N=self.n + 1, lam=Fraction(1, self.n + 1))

    @property
    def factors(self) -> Tuple["CPnQuadraticModel", ...]:
        return (self,)


@dataclass(frozen=True)
class ProductModel:
    """A product of CP^n models; a factor that is itself a product is
    replaced by its factors."""

    factors: Tuple[CPnQuadraticModel, ...]

    def __post_init__(self):
        facs = tuple(chain.from_iterable(f.factors for f in self.factors))
        if not facs:
            raise ValueError("need at least one factor")
        lam = facs[0].monotone_data.lam
        for f in facs[1:]:
            if f.monotone_data.lam != lam:
                raise ValueError(
                    "mismatched monotonicity constants: "
                    f"{f.monotone_data.lam} vs {lam}"
                )
        object.__setattr__(self, "factors", facs)

    @property
    def n(self) -> int:
        return sum(f.n for f in self.factors)

    @property
    def monotone_data(self) -> MonotoneData:
        # every factor has the same n, hence the same N and lambda
        return self.factors[0].monotone_data


class ModelReport(NamedTuple):
    ok: bool
    common_value: Fraction
    details: Tuple[str, ...]


def _axes(model: CPnQuadraticModel) -> List[Tuple[str, Fraction, Tuple[Fraction, ...]]]:
    """(id, action, rotation angles) of each fixed point x_j."""
    lams = model.lambdas
    return [
        (f"x{j}", lj, tuple(lj - li for i, li in enumerate(lams) if i != j))
        for j, lj in enumerate(lams)
    ]


def _fixed_point(orbit_id: str, action: Fraction, angles: Sequence[Fraction]) -> CappedOrbit:
    """The trivially capped row of a fixed point with these rotation angles."""
    nondegenerate = all(a.denominator != 1 for a in angles)
    return CappedOrbit(
        orbit_id=orbit_id,
        m=0,
        action=action,
        mean_index=mean_index_split(angles),
        cz_index=cz_index_split(angles) if nondegenerate else None,
        weakly_nondegenerate=nondegenerate,
    )


# kept because perfbench calls it; ROADMAP items 8 and 11
def cpn_fixed_points(model: CPnQuadraticModel) -> List[CappedOrbit]:
    """Fixed points x_0..x_n with the trivial capping."""
    return fixed_points(model)


def fixed_points(model) -> List[CappedOrbit]:
    """One fixed point per tuple of factor axes, in lexicographic order."""
    rows = []
    for axes in product(*(_axes(f) for f in model.factors)):
        ids, actions, angles = zip(*axes)
        rows.append(_fixed_point("*".join(ids), sum(actions), tuple(chain.from_iterable(angles))))
    return rows


def verify_equal_augmented_actions(model, orbits=None) -> ModelReport:
    """Check every fixed point against the augmented action the model
    predicts, sum(lambda_i)/(n+1) summed over its factors.

    An explicit orbit table may be supplied (e.g. a perturbed one); the
    default is the model's own fixed points.  Each orbit whose augmented
    action differs is named.
    """
    md = model.monotone_data
    if orbits is None:
        orbits = fixed_points(model)
    expected = sum(sum(f.lambdas) / (f.n + 1) for f in model.factors)
    details = tuple(
        f"{o.orbit_id}: augmented action {v} != {expected}"
        for o in orbits
        if (v := augmented_action(o, md)) != expected
    )
    return ModelReport(ok=not details, common_value=expected, details=details)
