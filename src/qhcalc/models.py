"""Explicit Hamiltonian models: quadratic flows on CP^n and their products.

The quadratic Hamiltonian with pairwise-distinct rational coefficients
lambda_0..lambda_n has exactly n+1 fixed points (the coordinate axes); with
the trivial capping, x_j has action lambda_j and mean index
2*((n+1)*lambda_j - sum(lambda_i)), so every fixed point carries the same
augmented action sum(lambda_i)/(n+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .spectra import (
    CappedOrbit,
    DegenerateAngleError,
    MonotoneData,
    augmented_action,
    cz_index_split,
    mean_index_split,
)


@dataclass(frozen=True)
class CPnQuadraticModel:
    lambdas: Tuple[Fraction, ...]

    def __post_init__(self):
        lams = tuple(Fraction(x) for x in self.lambdas)
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


@dataclass(frozen=True)
class ProductModel:
    factors: Tuple[CPnQuadraticModel, ...]

    def __post_init__(self):
        facs = tuple(self.factors)
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
        lam = self.factors[0].monotone_data.lam
        from math import gcd
        from functools import reduce

        n_chern = reduce(gcd, (f.monotone_data.N for f in self.factors))
        return MonotoneData(N=n_chern, lam=lam)


@dataclass(frozen=True)
class ModelReport:
    ok: bool
    common_value: Fraction = None
    details: Tuple[str, ...] = ()


def cpn_fixed_points(model: CPnQuadraticModel) -> List[CappedOrbit]:
    """Fixed points x_0..x_n with the trivial capping."""
    n = model.n
    lams = model.lambdas
    total = sum(lams)
    orbits = []
    for j, lj in enumerate(lams):
        angles = tuple(lj - li for i, li in enumerate(lams) if i != j)
        delta = mean_index_split(angles)
        assert delta == 2 * ((n + 1) * lj - total)
        try:
            cz = cz_index_split(angles)
        except DegenerateAngleError:
            cz = None
        orbits.append(
            CappedOrbit(
                orbit_id=f"x{j}",
                m=0,
                action=lj,
                mean_index=delta,
                cz_index=cz,
                weakly_nondegenerate=all(a != int(a) for a in angles),
            )
        )
    return orbits


def product_fixed_points(model: ProductModel) -> List[CappedOrbit]:
    """Cartesian products of factor fixed points; actions and indices add."""
    tables = [cpn_fixed_points(f) for f in model.factors]
    combos: List[CappedOrbit] = [
        CappedOrbit(orbit_id="", action=Fraction(0), mean_index=Fraction(0))
    ]
    for table in tables:
        new = []
        for base in combos:
            for o in table:
                oid = o.orbit_id if not base.orbit_id else f"{base.orbit_id}*{o.orbit_id}"
                new.append(
                    CappedOrbit(
                        orbit_id=oid,
                        action=base.action + o.action,
                        mean_index=base.mean_index + o.mean_index,
                        cz_index=None,
                        weakly_nondegenerate=base.weakly_nondegenerate
                        and o.weakly_nondegenerate
                        if base.orbit_id
                        else o.weakly_nondegenerate,
                    )
                )
        combos = new
    return combos


def fixed_points(model) -> List[CappedOrbit]:
    if isinstance(model, ProductModel):
        return product_fixed_points(model)
    return cpn_fixed_points(model)


def verify_equal_augmented_actions(model, orbits=None) -> ModelReport:
    """Check that every fixed point has the same augmented action.

    An explicit orbit table may be supplied (e.g. a perturbed one); the
    default is the model's own fixed points.
    """
    md = model.monotone_data
    if orbits is None:
        orbits = fixed_points(model)
    values = [(o.orbit_id, augmented_action(o, md)) for o in orbits]
    expected = values[0][1]
    if isinstance(model, CPnQuadraticModel):
        expected = sum(model.lambdas) / (model.n + 1)
    bad = [(oid, v) for oid, v in values if v != expected]
    if bad:
        return ModelReport(
            ok=False,
            common_value=expected,
            details=tuple(f"{oid}: augmented action {v} != {expected}" for oid, v in bad),
        )
    return ModelReport(ok=True, common_value=expected)


def product_model(models: Sequence[CPnQuadraticModel]) -> ProductModel:
    return ProductModel(factors=tuple(models))


def theorem_consistency_report(model, ring, dec) -> ModelReport:
    """At least ell distinct fixed points share the common augmented action."""
    orbits = fixed_points(model)
    eq_report = verify_equal_augmented_actions(model, orbits)
    if not eq_report.ok:
        return ModelReport(
            ok=False,
            common_value=eq_report.common_value,
            details=("augmented actions are not all equal",) + eq_report.details,
        )
    common = eq_report.common_value
    sharing = {o.orbit_id for o in orbits}  # the report is ok: all share the value
    ell = dec.ell
    if len(sharing) >= ell:
        return ModelReport(
            ok=True,
            common_value=common,
            details=(f"{len(sharing)} fixed points share the value, ell = {ell}",),
        )
    return ModelReport(
        ok=False,
        common_value=common,
        details=(f"only {len(sharing)} fixed points share the value, ell = {ell}",),
    )
