"""Quantum cohomology ring presentations: CP^n, Grassmannians, monotone products.

Grassmannian products run through the classical Littlewood-Richardson rule
followed by rim-hook reduction of out-of-box terms; the quantum Pieri rule is
kept as an independent implementation and used as a cross-check oracle.
Structure constants are integers independent of the ground field; those of
G(k,N) are computed once over Z and cached, a product recombines its factors'
tables on each call.  A product ring is its two factors: its ground field and
lambda0 come from theirs.

Basis labels are checked once, where they enter, by each ring's
``normalize_label``; past that point partitions are normalised tuples and no
loop re-checks them.  ``partitions_in_box`` is the one partition enumerator:
the Grassmannian basis and the candidate shapes nu of the LR rule both come
from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from .qalgebra import GroundField, QuantumClass, RingMismatchError

Partition = Tuple[int, ...]


# ---------------------------------------------------------------------------
# partitions


def normalize_partition(parts) -> Partition:
    t = tuple(int(x) for x in parts)
    while t and t[-1] == 0:
        t = t[:-1]
    if any(x < 0 for x in t):
        raise ValueError(f"negative part in partition {parts}")
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    return t


def fits_box(lam: Partition, rows: int, cols: int) -> bool:
    """Whether a normalised partition fits the rows x cols box."""
    return len(lam) <= rows and (not lam or lam[0] <= cols)


def partitions_in_box(
    rows: int, cols: int, weight=None, inner: Partition = ()
) -> List[Partition]:
    """The partitions inside a rows x cols box, in lexicographic order.

    This is the one partition enumerator.  ``weight`` keeps only |lam| ==
    weight; ``inner`` (a normalised partition) keeps only lam containing it.
    """
    if len(inner) > rows:
        return []
    inner = inner + (0,) * (rows - len(inner))
    out = []

    def rec(prefix, maxpart, left):
        row = len(prefix)
        if (left is None or left == 0) and (row == rows or inner[row] == 0):
            out.append(tuple(prefix))
        if row == rows:
            return
        for part in range(max(inner[row], 1), maxpart + 1):
            if left is not None:
                if part > left:
                    break
                if left - part > part * (rows - row - 1):
                    continue
            prefix.append(part)
            rec(prefix, part, None if left is None else left - part)
            prefix.pop()

    rec([], cols, weight)
    return out


# ---------------------------------------------------------------------------
# Littlewood-Richardson


def _lr_count(nu: Partition, lam: Partition, mu: Partition) -> int:
    """Count LR skew tableaux of shape nu/lam and content mu.

    Cells are filled in reading order (top row first, right to left) so the
    lattice-word condition can be checked as each entry is placed.
    """
    rows = len(nu)
    lam_p = lam + (0,) * (rows - len(lam))
    cells = []
    for r in range(rows):
        for c in range(nu[r] - 1, lam_p[r] - 1, -1):
            cells.append((r, c))
    nvals = len(mu)
    remaining = list(mu)
    entry = [[0] * nu[r] for r in range(rows)]

    def rec(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        total = 0
        for v in range(1, nvals + 1):
            if remaining[v - 1] == 0:
                continue
            # column strict with the cell above, when that cell is in nu/lam
            if r > 0 and c < nu[r - 1] and (c >= lam_p[r - 1]) and entry[r - 1][c] >= v:
                continue
            # rows weakly increase left to right: entry <= the one to its right
            if c + 1 < nu[r] and entry[r][c + 1] != 0 and v > entry[r][c + 1]:
                continue
            # lattice condition in reverse reading order: before placing v,
            # v-1 must have been placed strictly more often than v
            if v > 1 and (mu[v - 2] - remaining[v - 2]) <= (mu[v - 1] - remaining[v - 1]):
                continue
            entry[r][c] = v
            remaining[v - 1] -= 1
            total += rec(idx + 1)
            remaining[v - 1] += 1
            entry[r][c] = 0
        return total

    return rec(0)


def littlewood_richardson(lam, mu, rows: int) -> Dict[Partition, int]:
    """Classical LR coefficients c^nu_{lam,mu} over all nu with <= rows parts."""
    lam = normalize_partition(lam)
    mu = normalize_partition(mu)
    if len(lam) > rows or len(mu) > rows:
        raise ValueError(f"inputs must have at most {rows} parts")
    if not mu:
        return {lam: 1}
    if not lam:
        return {mu: 1}
    out: Dict[Partition, int] = {}
    for nu in partitions_in_box(rows, lam[0] + mu[0], sum(lam) + sum(mu), inner=lam):
        c = _lr_count(nu, lam, mu)
        if c:
            out[nu] = c
    return out


# ---------------------------------------------------------------------------
# rim-hook reduction


def rim_hook_reduce(nu, k: int, N: int):
    """Reduce a <=k-row partition modulo rim hooks of size N.

    Returns (partition in the k x (N-k) box, q-power, sign) or None when the
    reduction dies.  Encoded via beta-numbers: beta_i = nu_i + (k - i); a rim
    hook of size N is removable iff some beta_i - N is a fresh beta value, and
    its height is one more than the number of beta values it jumps over.
    Each removal contributes one q and a sign (-1)^(k - height).
    """
    nu = normalize_partition(nu)
    if len(nu) > k:
        raise ValueError(f"partition {nu} has more than {k} parts")
    padded = nu + (0,) * (k - len(nu))
    beta = [padded[i] + (k - 1 - i) for i in range(k)]  # strictly decreasing
    d = 0
    sign = 1
    while beta[0] - (k - 1) > N - k:  # the first row overflows the box
        for i in range(k):
            target = beta[i] - N
            if target < 0 or target in beta:
                continue
            crossings = sum(1 for b in beta if target < b < beta[i])
            height = crossings + 1
            sign *= (-1) ** (k - height)
            d += 1
            beta[i] = target
            beta.sort(reverse=True)
            break
        else:
            return None
    parts = (b - (k - 1 - i) for i, b in enumerate(beta))
    return tuple(part for part in parts if part), d, sign


# ---------------------------------------------------------------------------
# field-independent structure constants (over Z)

StructTable = Dict[Tuple[object, int], int]


@lru_cache(maxsize=None)
def _grassmannian_structure(k: int, N: int, lam: Partition, mu: Partition) -> Tuple:
    acc: StructTable = {}
    for nu, c in littlewood_richardson(lam, mu, k).items():
        reduced = rim_hook_reduce(nu, k, N)
        if reduced is None:
            continue
        core, d, sign = reduced
        key = (core, d)
        acc[key] = acc.get(key, 0) + c * sign
    return tuple(sorted((kv for kv in acc.items() if kv[1] != 0)))


# ---------------------------------------------------------------------------
# ring presentations


@dataclass(frozen=True)
class RingPresentation:
    """Common surface of the three presentation kinds."""

    field: GroundField = dc_field(default_factory=GroundField, kw_only=True)
    lambda0: Fraction = dc_field(default=Fraction(1), kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "lambda0", Fraction(self.lambda0))
        if self.lambda0 == 0:
            raise ValueError("monotonicity requires lambda0 != 0")

    # subclasses: complex_dim, N_chern, basis_labels, label_degree,
    # label_key, normalize_label, structure

    @property
    def monotonicity(self) -> Fraction:
        return self.lambda0 / self.N_chern

    def one(self) -> QuantumClass:
        return self.basis_class(self.unit_label())

    def basis_class(self, label, m: int = 0, coeff=1) -> QuantumClass:
        return QuantumClass.build(self, {(label, m): coeff})

    def zero(self) -> QuantumClass:
        return QuantumClass._assemble(self, {})

    def basis(self, degree: int) -> List:
        if degree < 0:
            raise ValueError("degree must be non-negative")
        return sorted(
            (lbl for lbl in self.basis_labels() if self.label_degree(lbl) == degree),
            key=self.label_key,
        )

    def quantum_product(self, a: QuantumClass, b: QuantumClass) -> QuantumClass:
        if a.ring != self or b.ring != self:
            raise RingMismatchError("classes do not belong to this ring")
        fld = self.field
        acc: dict = {}
        for (la, ma), ca in a.terms:
            for (lb, mb), cb in b.terms:
                cab = fld.mul(ca, cb)
                for (lc, mc), n in self.structure(la, lb):
                    key = (lc, ma + mb + mc)
                    acc[key] = fld.add(acc.get(key, 0), fld.mul(cab, n))
        return QuantumClass._assemble(self, acc)

    def convert_grading(self, degree_coh: int) -> int:
        return 2 * self.complex_dim - degree_coh


@dataclass(frozen=True)
class CPn(RingPresentation):
    """HQ^*(CP^n): basis 1, u, ..., u^n with u^{n+1} = q."""

    n: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def complex_dim(self) -> int:
        return self.n

    @property
    def N_chern(self) -> int:
        return self.n + 1

    def unit_label(self):
        return 0

    def basis_labels(self):
        return list(range(self.n + 1))

    def normalize_label(self, label):
        label = int(label)
        if not 0 <= label <= self.n:
            raise ValueError(f"u^{label} is not a basis label of CP^{self.n}")
        return label

    def label_degree(self, label) -> int:
        return 2 * label

    def label_key(self, label):
        return (label,)

    def structure(self, a, b):
        e = a + b
        return (((e % (self.n + 1), e // (self.n + 1)), 1),)

    def first_chern_generator(self) -> QuantumClass:
        return self.basis_class(1)


@dataclass(frozen=True)
class Grassmannian(RingPresentation):
    """HQ^*(G(k,N)): Schubert basis sigma_lam, lam in the k x (N-k) box."""

    k: int = 2
    N: int = 4

    def __post_init__(self):
        super().__post_init__()
        if not 1 <= self.k < self.N:
            raise ValueError("need 1 <= k < N")

    @property
    def complex_dim(self) -> int:
        return self.k * (self.N - self.k)

    @property
    def N_chern(self) -> int:
        return self.N

    def unit_label(self):
        return ()

    def basis_labels(self):
        return partitions_in_box(self.k, self.N - self.k)

    def normalize_label(self, label):
        lam = normalize_partition(label)
        if not fits_box(lam, self.k, self.N - self.k):
            raise ValueError(f"{lam} does not fit the {self.k}x{self.N - self.k} box")
        return lam

    def label_degree(self, label) -> int:
        return 2 * sum(label)

    def label_key(self, label):
        return (sum(label), label)

    def structure(self, a, b):
        return _grassmannian_structure(self.k, self.N, a, b)

    def first_chern_generator(self) -> QuantumClass:
        return self.basis_class((1,))


@dataclass(frozen=True)
class ProductRing(RingPresentation):
    """Monotone product via the quantum Kunneth formula.

    Both factors must carry the same monotonicity constant and ground field,
    which the product takes; its minimal Chern number is N = gcd(N_left,
    N_right), so lambda0 = monotonicity * N.  Factor q-powers convert by the
    ratios N_left/N and N_right/N.
    """

    left: RingPresentation
    right: RingPresentation
    field: GroundField = dc_field(init=False)
    lambda0: Fraction = dc_field(init=False)

    def __post_init__(self):
        if self.left.monotonicity != self.right.monotonicity:
            raise ValueError(
                "mismatched monotonicity constants: "
                f"{self.left.monotonicity} vs {self.right.monotonicity}"
            )
        if self.left.field != self.right.field:
            raise ValueError(
                "factors must share the ground field: "
                f"{self.left.field.spec()} vs {self.right.field.spec()}"
            )
        object.__setattr__(self, "field", self.left.field)
        object.__setattr__(self, "lambda0", self.left.monotonicity * self.N_chern)
        super().__post_init__()

    @property
    def complex_dim(self) -> int:
        return self.left.complex_dim + self.right.complex_dim

    @property
    def N_chern(self) -> int:
        return math.gcd(self.left.N_chern, self.right.N_chern)

    def unit_label(self):
        return (self.left.unit_label(), self.right.unit_label())

    def basis_labels(self):
        return [
            (a, b) for a in self.left.basis_labels() for b in self.right.basis_labels()
        ]

    def normalize_label(self, label):
        a, b = label
        return (self.left.normalize_label(a), self.right.normalize_label(b))

    def label_degree(self, label) -> int:
        a, b = label
        return self.left.label_degree(a) + self.right.label_degree(b)

    def label_key(self, label):
        a, b = label
        return (self.left.label_key(a), self.right.label_key(b))

    def structure(self, la, lb):
        ra = self.left.N_chern // self.N_chern
        rb = self.right.N_chern // self.N_chern
        out: StructTable = {}
        for (l1, m1), n1 in self.left.structure(la[0], lb[0]):
            for (l2, m2), n2 in self.right.structure(la[1], lb[1]):
                key = ((l1, l2), m1 * ra + m2 * rb)
                out[key] = out.get(key, 0) + n1 * n2
        return tuple(sorted(kv for kv in out.items() if kv[1] != 0))

    def first_chern_generator(self) -> QuantumClass:
        one_a, one_b = self.left.unit_label(), self.right.unit_label()
        ua = {((la, one_b), m): c for (la, m), c in self.left.first_chern_generator().terms}
        ub = {((one_a, lb), m): c for (lb, m), c in self.right.first_chern_generator().terms}
        return QuantumClass._assemble(self, ua) + QuantumClass._assemble(self, ub)


# ---------------------------------------------------------------------------
# quantum Pieri (independent cross-check implementation)


def quantum_pieri(ring: Grassmannian, lam, p: int) -> QuantumClass:
    """sigma_lam * sigma_p by the quantum Pieri rule.

    Classical part: horizontal strips mu >= lam inside the box with
    |mu| = |lam| + p.  Quantum part: one power of q on each rho with
    |rho| = |lam| + p - N and lam_1 - 1 >= rho_1 >= lam_2 - 1 >= rho_2 >= ...
    >= lam_k - 1 >= rho_k >= 0.
    """
    if not isinstance(ring, Grassmannian):
        raise TypeError("quantum Pieri applies to Grassmannian rings")
    k, N = ring.k, ring.N
    lam = ring.normalize_label(lam)
    if not 1 <= p <= N - k:
        raise ValueError(f"Pieri degree p={p} out of range [1, {N - k}]")
    lam_p = lam + (0,) * (k - len(lam))
    acc: dict = {}

    # classical horizontal strips
    target = sum(lam) + p

    def strips(i, prefix):
        if i == k:
            mu = normalize_partition(prefix)
            if sum(mu) == target:
                acc[(mu, 0)] = acc.get((mu, 0), 0) + 1
            return
        lo = lam_p[i]
        hi = lam_p[i - 1] if i > 0 else N - k
        hi = min(hi, N - k)
        for val in range(lo, hi + 1):
            if sum(prefix) + val > target:
                break
            strips(i + 1, prefix + [val])

    strips(0, [])

    # quantum part
    qtarget = sum(lam) + p - N
    if qtarget >= 0 and all(lam_p[i] >= 1 for i in range(k)):

        def rhos(i, prefix):
            if i == k:
                rho = normalize_partition(prefix)
                if sum(rho) == qtarget:
                    acc[(rho, 1)] = acc.get((rho, 1), 0) + 1
                return
            hi = lam_p[i] - 1
            lo = lam_p[i + 1] - 1 if i + 1 < k else 0
            lo = max(lo, 0)
            for val in range(lo, hi + 1):
                rhos(i + 1, prefix + [val])

        rhos(0, [])

    return QuantumClass.build(ring, acc)


# ---------------------------------------------------------------------------
# monotone products


def kunneth(ring_a: RingPresentation, ring_b: RingPresentation) -> ProductRing:
    return ProductRing(left=ring_a, right=ring_b)
