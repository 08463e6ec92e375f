"""Quantum cohomology ring presentations: CP^n, Grassmannians, monotone products.

Grassmannian products run through the classical Littlewood-Richardson rule
followed by rim-hook reduction of out-of-box terms; the quantum Pieri rule is
kept as an independent implementation and used as a cross-check oracle.  It
shares no code with either: it is two filters over ``partitions_in_box``.
The LR rule is one walk that adds the content's boxes to the other shape as
horizontal strips under the lattice condition, so it meets only the nu with
a nonzero coefficient.  Label i starts on row i, and each row takes at
least what the rows below it have no room for, so no branch of the walk
dead-ends for want of room.  Structure constants are integers independent
of the ground field; those of G(k,N) are computed once over Z and cached
under the unordered pair of labels, since c^nu_{lam,mu} = c^nu_{mu,lam},
with the smaller label as the content: one comparison of the two labels'
positions in the ring's label table orders the pair, without a sort.
Multiplying by sigma_(N-k), the Seidel element of the Z/N loop (Seidel
1997), permutes the Schubert basis up to powers of q: sigma_(N-k) * sigma_lam
= q^e sigma_rho(lam), where rho prepends a row N-k to a lam with fewer than
k parts (e = 0) and otherwise takes one box off each row (e = 1).  This is
the cyclic symmetry of Grassmannian Gromov-Witten invariants (Postnikov
2005), so only a pair of the rho-orbits' representatives, each orbit's first
label in basis order, is walked: sigma_rho^i(a) * sigma_rho^j(b) is
sigma_a * sigma_b with each term's partition moved i + j steps along its
orbit and its q-power shifted by the e's that the steps gather and the
factors' steps shed.  Each G(k,N)'s orbits and steps are computed once, on
first use.  A product's constants live in one module table per signature of its
factors (each factor's kind, its n or k and N, and its q-power ratio
N_f/N), computed once when the ring is built: equal products over any field
share the table, and a lookup hashes only the pair of labels.  A product
ring is its flat tuple of factors, one label entry per factor: its ground
field and lambda0 come from theirs.

Each ring kind states its basis once, in ``_basis``: every basis label with
its degree, in basis order (u^j of degree 2j for CP^n; the box's partitions
by (|lam|, lam), of degree 2|lam|, for G(k,N); the lexicographic product of
the factors' lists, degrees summed, for a product).  Each ring builds one
label table from it, on first use: every label's position and degree.
``QuantumClass`` sorts terms and reads degrees from it, and ``basis``,
``normalize_label``, ``Grassmannian.structure`` and the decomposition
search read it too.  The ring's unit label (its first key, of degree 0) and
its complex dimension (half its top degree) are read off it.

Basis labels are checked once, where they enter, by each ring's
``normalize_label``, which reads each integer (a part, a power of u)
through ``operator.index``, as a kind's n, k and N, a basis degree and a
Pieri degree p are read, so a float, a ``Fraction`` or a string raises
``TypeError`` instead of being truncated; past that point partitions are
normalised tuples, and the LR walk and the rim-hook reduction take them as
they are.  The reduction is the N-core of the partition's abacus, read off
in closed form and cached like the structure constants.  ``first_chern_generator`` is one rule on
``RingPresentation``, the sum of the degree-2 basis classes assembled from
the ring's own labels, so a product's q-power conversion lives only in its
structure constants.
``RingPresentation._contract`` is the one contraction of two term lists with
the structure constants: ``quantum_product`` assembles its sums into a class,
and the decomposition search keeps them as plain integer term dicts.  Either
way coefficients are combined with plain arithmetic (a new key takes its
value as it is, and a structure constant of 1 does not multiply) and
reduced mod p by ``qalgebra.reduce_terms``.
``partitions_in_box`` is the one partition enumerator: it lists the
Grassmannian basis and is the set the Pieri oracle filters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations, combinations_with_replacement, product
from operator import index
from typing import Dict, List, Tuple

from .qalgebra import GroundField, QuantumClass, exact_fraction

Partition = Tuple[int, ...]


# ---------------------------------------------------------------------------
# partitions


def normalize_partition(parts) -> Partition:
    t = tuple(map(index, parts))
    while t and t[-1] == 0:
        t = t[:-1]
    if any(x < 0 for x in t):
        raise ValueError(f"negative part in partition {parts}")
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"parts not weakly decreasing: {parts}")
    return t


def partitions_in_box(rows: int, cols: int) -> List[Partition]:
    """The partitions inside a rows x cols box, in lexicographic order."""
    return sorted(lam for length in range(rows + 1)
                  for lam in combinations_with_replacement(range(cols, 0, -1), length))


# ---------------------------------------------------------------------------
# Littlewood-Richardson


def littlewood_richardson(lam, mu, rows: int) -> Dict[Partition, int]:
    """Classical LR coefficients c^nu_{lam,mu} over all nu with <= rows parts.

    One depth-first walk over the LR tableaux of shape nu/lam and content mu
    (Fulton, Young Tableaux, section 5).  Label i adds mu_i boxes to the
    shape as a horizontal strip, filling the rows from the top: row r takes
    no box past the end of row r-1 in the shape before label i.  The lattice
    condition is kept as each row is filled: the i's in rows <= r are at most
    the (i-1)'s in rows < r.  So label i has no box above row i, and its
    walk starts there.  The strip's capacity bounds each row from below: in
    the shape before label i, the rows under r have room for at most
    shape[r] - shape[-1] boxes between them (their row-by-row capacities
    telescope), so row r takes at least the rest, and the last row takes all
    that is left.  No branch dead-ends for want of room; each leaf is one
    tableau, so exactly the nu with c^nu_{lam,mu} > 0 appear, with their
    multiplicities, in lexicographic order.  The walk's cost grows with mu,
    so callers that may swap the factors pass the smaller one as mu.  lam
    and mu are normalised tuples; only their part counts are checked.
    """
    if len(lam) > rows or len(mu) > rows:
        raise ValueError(f"inputs must have at most {rows} parts")
    if not mu:
        return {lam: 1}
    shape = list(lam) + [0] * (rows - len(lam))
    strips = [[0] * rows for _ in mu]  # strips[i][r]: boxes labelled i+1 in row r
    out: Dict[Partition, int] = {}

    def walk(i: int, r: int, left: int, placed: int, above: int) -> None:
        # label i has `left` boxes still to place from row r down; `placed`
        # of its boxes and `above` boxes of label i-1 are in rows < r
        if left == 0:
            if i + 1 < len(mu):
                # label i's boxes in rows <= i all lie in row i
                walk(i + 1, i + 1, mu[i + 1], 0, strips[i][i])
            else:
                nu = tuple(part for part in shape if part)
                out[nu] = out.get(nu, 0) + 1
            return
        strip = strips[i]
        base = shape[r]
        most = left
        if i and above - placed < most:
            most = above - placed
        if r and shape[r - 1] - strip[r - 1] - base < most:
            most = shape[r - 1] - strip[r - 1] - base
        fewest = left - (base - shape[-1])
        if fewest < 0:
            fewest = 0
        below = above + strips[i - 1][r] if i else 0
        for n in range(fewest, most + 1):
            shape[r] = base + n
            strip[r] = n
            walk(i, r + 1, left - n, placed + n, below)
        shape[r] = base
        strip[r] = 0

    walk(0, 0, mu[0], 0, 0)
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# rim-hook reduction


@lru_cache(maxsize=None)
def rim_hook_reduce(nu, k: int, N: int):
    """Reduce a <=k-row partition modulo rim hooks of size N.

    Returns (partition in the k x (N-k) box, q-power, sign) or None when the
    reduction dies.  On the N-abacus of the beta-numbers
    beta_i = nu_i + (k - 1 - i), removing an N-rim hook moves one bead up its
    runner r_i = beta_i mod N, so the reduction is the N-core, reached after
    d = sum(beta_i // N) removals whatever their order.  It dies iff two beads
    share a runner; otherwise the core's beta-numbers are the r_i in
    descending order.  A removal of height h contributes one q and the sign
    (-1)^(k - h), that is (-1)^(k - 1) times -1 for each bead it jumps, so the
    sign is (-1)^((k - 1) d + inv) with inv = #{i < j : r_i < r_j}, the bead
    order the removals undo.  nu is a normalised tuple; only its part count is
    checked.  Results are cached, as many LR terms of one G(k,N) reduce the
    same nu.
    """
    if len(nu) > k:
        raise ValueError(f"partition {nu} has more than {k} parts")
    padded = nu + (0,) * (k - len(nu))
    beta = [padded[i] + (k - 1 - i) for i in range(k)]  # strictly decreasing
    runners = [b % N for b in beta]
    if len(set(runners)) < k:
        return None
    d = sum(b // N for b in beta)
    inv = sum(a < b for a, b in combinations(runners, 2))
    parts = (b - (k - 1 - i) for i, b in enumerate(sorted(runners, reverse=True)))
    return tuple(part for part in parts if part), d, (-1) ** ((k - 1) * d + inv)


# ---------------------------------------------------------------------------
# field-independent structure constants (over Z)

StructTable = Dict[Tuple[object, int], int]


@lru_cache(maxsize=None)
def _rotation(k: int, N: int) -> Dict[Partition, Tuple]:
    """label -> (rep, s, E_s, images) for the Seidel rotation rho of G(k,N).

    sigma_(N-k) * sigma_lam = q^e sigma_rho(lam): rho(lam) = (N-k, lam) with
    e = 0 when lam has fewer than k parts, else lam with one box taken off
    each row and e = 1 (quantum Pieri).  images[t] = (rho^t(lam), E_t), with
    E_t the sum of the e's along the t steps, for t < 2N - 1, the most steps
    that a product of two labels in orbits of length <= N moves.  rep is the
    first label of lam's orbit in basis order, and lam = rho^s(rep), with
    sigma_(N-k)^s * sigma_rep = q^(E_s) sigma_lam.
    """
    step = {lam: ((N - k,) + lam, 0) if len(lam) < k else
            (tuple(part - 1 for part in lam if part > 1), 1)
            for lam in partitions_in_box(k, N - k)}
    images = {}
    for lam in step:
        walk = [(lam, 0)]
        for _ in range(2 * N - 2):
            nu, e = walk[-1]
            rho, de = step[nu]
            walk.append((rho, e + de))
        images[lam] = walk
    out: Dict[Partition, Tuple] = {}
    for lam, walk in images.items():
        if lam in out:
            continue
        length = next(t for t in range(1, N + 1) if walk[t][0] == lam)
        orbit = [nu for nu, _ in walk[:length]]
        rep = min(orbit, key=lambda nu: (sum(nu), nu))
        first = orbit.index(rep)
        for t, nu in enumerate(orbit):
            s = (t - first) % length
            out[nu] = (rep, s, images[rep][s][1], images[nu])
    return out


@lru_cache(maxsize=None)
def _grassmannian_structure(k: int, N: int, lam: Partition, mu: Partition) -> Tuple:
    # lam = rho^i(a) and mu = rho^j(b), with a and b their orbits'
    # representatives, so sigma_lam * sigma_mu = q^-(E_i + E_j)
    # sigma_(N-k)^(i+j) * sigma_a * sigma_b: each term q^d sigma_nu of the
    # representatives' product, put in (sum, label) order, moves i + j steps
    # along nu's orbit.  Only a pair of representatives is walked.
    rotation = _rotation(k, N)
    a, i, e_i, _ = rotation[lam]
    b, j, e_j, _ = rotation[mu]
    if i or j:
        if (sum(a), a) < (sum(b), b):
            a, b = b, a
        t, shift = i + j, e_i + e_j
        terms = []
        for (nu, d), n in _grassmannian_structure(k, N, a, b):
            nu_t, e_t = rotation[nu][3][t]
            terms.append(((nu_t, d + e_t - shift), n))
        return tuple(sorted(terms))
    acc: StructTable = {}
    for nu, c in littlewood_richardson(lam, mu, k).items():
        reduced = rim_hook_reduce(nu, k, N)
        if reduced is None:
            continue
        core, d, sign = reduced
        key = (core, d)
        acc[key] = acc.get(key, 0) + c * sign
    return tuple(sorted((kv for kv in acc.items() if kv[1] != 0)))


# signature -> {(label, label): terms}; ProductRing.__post_init__ computes the
# signature, which fixes the structure constants over Z
_PRODUCT_TABLES: Dict[Tuple, Dict] = {}


def _product_structure(factors: Tuple, la: Tuple, lb: Tuple) -> Tuple:
    N = math.gcd(*(f.N_chern for f in factors))
    ratios = [f.N_chern // N for f in factors]
    tables = [f.structure(a, b) for f, a, b in zip(factors, la, lb)]
    out: StructTable = {}
    for terms in product(*tables):
        key = (
            tuple(lbl for (lbl, _), _ in terms),
            sum(m * r for ((_, m), _), r in zip(terms, ratios)),
        )
        out[key] = out.get(key, 0) + math.prod(n for _, n in terms)
    return tuple(sorted(kv for kv in out.items() if kv[1] != 0))


# ---------------------------------------------------------------------------
# ring presentations


@dataclass(frozen=True)
class RingPresentation:
    """Common surface of the three presentation kinds."""

    field: GroundField = dc_field(default_factory=GroundField, kw_only=True)
    lambda0: Fraction = dc_field(default=Fraction(1), kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "lambda0", exact_fraction(self.lambda0))
        if self.lambda0 == 0:
            raise ValueError("monotonicity requires lambda0 != 0")

    # subclasses: N_chern, _basis, normalize_label, structure; the basis
    # labels, the unit label and the complex dimension are read off the
    # label table

    @property
    def monotonicity(self) -> Fraction:
        return self.lambda0 / self.N_chern

    @cached_property
    def _label_table(self) -> Dict:
        """label -> (position in basis order, degree) for every basis label:
        built once per ring, on first use, from ``_basis``."""
        return {label: (i, d) for i, (label, d) in enumerate(self._basis())}

    def basis_labels(self) -> List:
        """The basis labels in sorted order."""
        return sorted(self._label_table)

    def unit_label(self):
        """The degree-0 label, first in basis order."""
        return next(iter(self._label_table))

    @cached_property
    def complex_dim(self) -> int:
        """Half the top degree of the basis."""
        return max(d for _, d in self._label_table.values()) // 2

    def one(self) -> QuantumClass:
        return self.basis_class(self.unit_label())

    def basis_class(self, label, m: int = 0) -> QuantumClass:
        return QuantumClass.build(self, {(label, m): 1})

    def zero(self) -> QuantumClass:
        return QuantumClass._assemble(self, {})

    def basis(self, degree: int) -> List:
        degree = index(degree)
        if degree < 0:
            raise ValueError("degree must be non-negative")
        return [lbl for lbl, (_, d) in self._label_table.items() if d == degree]

    def quantum_product(self, a: QuantumClass, b: QuantumClass) -> QuantumClass:
        # identity first, so a class of this ring skips the dataclass ==
        if (a.ring is not self and a.ring != self) or (b.ring is not self and b.ring != self):
            raise ValueError("classes do not belong to this ring")
        return QuantumClass._assemble(self, self._contract(a.terms, b.terms))

    def _contract(self, a_terms, b_terms) -> dict:
        """The terms of a*b before reduction mod p, from the ((label, m), c)
        terms of a and b: the one contraction with the structure constants."""
        acc: dict = {}
        for (la, ma), ca in a_terms:
            for (lb, mb), cb in b_terms:
                cab = ca * cb
                for (lc, mc), n in self.structure(la, lb):
                    key = (lc, ma + mb + mc)
                    c = cab if n == 1 else cab * n
                    prev = acc.get(key)
                    acc[key] = c if prev is None else prev + c
        return acc

    def first_chern_generator(self) -> QuantumClass:
        """The sum of the degree-2 basis classes: u for CP^n, sigma_1 for
        G(k,N), and each factor's generator tensored with the others' units
        for a product."""
        one = self.field.one()
        return QuantumClass._assemble(self, {(lbl, 0): one for lbl in self.basis(2)})

    def convert_grading(self, degree_coh: int) -> int:
        return 2 * self.complex_dim - degree_coh


@dataclass(frozen=True)
class CPn(RingPresentation):
    """HQ^*(CP^n): basis 1, u, ..., u^n with u^{n+1} = q."""

    n: int = 1

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "n", index(self.n))
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def N_chern(self) -> int:
        return self.n + 1

    def _basis(self):
        return [(j, 2 * j) for j in range(self.n + 1)]

    def normalize_label(self, label):
        label = index(label)
        if label not in self._label_table:
            raise ValueError(f"u^{label} is not a basis label of CP^{self.n}")
        return label

    def structure(self, a, b):
        e = a + b
        return (((e % (self.n + 1), e // (self.n + 1)), 1),)


@dataclass(frozen=True)
class Grassmannian(RingPresentation):
    """HQ^*(G(k,N)): Schubert basis sigma_lam, lam in the k x (N-k) box."""

    k: int = 2
    N: int = 4

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "k", index(self.k))
        object.__setattr__(self, "N", index(self.N))
        if not 1 <= self.k < self.N:
            raise ValueError("need 1 <= k < N")

    @property
    def N_chern(self) -> int:
        return self.N

    def _basis(self):
        box = sorted(partitions_in_box(self.k, self.N - self.k), key=lambda lam: (sum(lam), lam))
        return [(lam, 2 * sum(lam)) for lam in box]

    def normalize_label(self, label):
        lam = normalize_partition(label)
        if lam not in self._label_table:
            raise ValueError(f"{lam} does not fit the {self.k}x{self.N - self.k} box")
        return lam

    def structure(self, a, b):
        # c^nu_{a,b} = c^nu_{b,a}: one cache entry per unordered pair, with
        # the smaller class in basis order as the LR content, the pair
        # ordered by one comparison of label-table positions
        table = self._label_table
        if table[a][0] > table[b][0]:
            return _grassmannian_structure(self.k, self.N, a, b)
        return _grassmannian_structure(self.k, self.N, b, a)


@dataclass(frozen=True)
class ProductRing(RingPresentation):
    """Monotone product via the quantum Kunneth formula.

    A product is its tuple of factors: a factor that is itself a product is
    replaced by its own factors, so a label is one tuple with one entry per
    factor.  The factors must share the monotonicity constant and the ground
    field, which the product takes; its minimal Chern number is the gcd N of
    theirs, so lambda0 = monotonicity * N, and a factor's q-powers convert by
    its ratio N_f/N.
    """

    factors: Tuple[RingPresentation, ...]
    field: GroundField = dc_field(init=False)
    lambda0: Fraction = dc_field(init=False)

    def __post_init__(self):
        facs = tuple(chain.from_iterable(
            f.factors if isinstance(f, ProductRing) else (f,) for f in self.factors
        ))
        if len(facs) < 2:
            raise ValueError("a product ring needs at least two factors")
        first = facs[0]
        for f in facs[1:]:
            if f.monotonicity != first.monotonicity:
                raise ValueError(
                    "mismatched monotonicity constants: "
                    f"{first.monotonicity} vs {f.monotonicity}"
                )
            if f.field != first.field:
                raise ValueError(
                    "factors must share the ground field: "
                    f"{first.field.spec()} vs {f.field.spec()}"
                )
        object.__setattr__(self, "factors", facs)
        object.__setattr__(self, "field", first.field)
        object.__setattr__(self, "lambda0", first.monotonicity * self.N_chern)
        super().__post_init__()
        # per factor: its kind, its own fields (those that are not
        # keyword-only: n, or k and N) and its q-power ratio N_f/N
        N = self.N_chern
        signature = tuple(
            (type(f).__name__, *(getattr(f, fl.name) for fl in fields(f) if not fl.kw_only),
             f.N_chern // N)
            for f in facs
        )
        object.__setattr__(self, "_structure_table", _PRODUCT_TABLES.setdefault(signature, {}))

    @property
    def N_chern(self) -> int:
        return math.gcd(*(f.N_chern for f in self.factors))

    def _basis(self):
        return [(tuple(label for label, _ in entries), sum(d for _, d in entries))
                for entries in product(*(f._basis() for f in self.factors))]

    def normalize_label(self, label):
        label = tuple(label)
        if len(label) != len(self.factors):
            raise ValueError(f"label {label} needs one entry per factor")
        return tuple(f.normalize_label(a) for f, a in zip(self.factors, label))

    def structure(self, la, lb):
        table = self._structure_table
        terms = table.get((la, lb))
        if terms is None:
            terms = table[la, lb] = _product_structure(self.factors, la, lb)
        return terms


# ---------------------------------------------------------------------------
# quantum Pieri (independent cross-check implementation)


def quantum_pieri(ring: Grassmannian, lam, p: int) -> QuantumClass:
    """sigma_lam * sigma_p by the quantum Pieri rule (Bertram 1997).

    Two filters over the k x (N-k) box, with lam and each mu padded to k
    parts and lam_0 := N - k.  Classical term sigma_mu: |mu| = |lam| + p and
    lam_i <= mu_i <= lam_{i-1} for every i, the horizontal strips.  Quantum
    term q sigma_mu: lam has k nonzero parts, |mu| = |lam| + p - N and
    lam_{i+1} - 1 <= mu_i <= lam_i - 1 for every i, with lam_{k+1} - 1 := 0.
    """
    if not isinstance(ring, Grassmannian):
        raise TypeError("quantum Pieri applies to Grassmannian rings")
    k, N = ring.k, ring.N
    lam = ring.normalize_label(lam)
    p = index(p)
    if not 1 <= p <= N - k:
        raise ValueError(f"Pieri degree p={p} out of range [1, {N - k}]")
    lam_p = lam + (0,) * (k - len(lam))
    above = (N - k,) + lam_p  # lam_{i-1}
    below = lam_p[1:] + (1,)  # lam_{i+1}, and lam_{k+1} - 1 = 0
    size = sum(lam) + p
    acc: dict = {}
    for mu in partitions_in_box(k, N - k):
        mu_p = mu + (0,) * (k - len(mu))
        if sum(mu) == size and all(l <= m <= a for l, m, a in zip(lam_p, mu_p, above)):
            acc[(mu, 0)] = 1
        if (len(lam) == k and sum(mu) == size - N
                and all(b - 1 <= m <= l - 1 for b, m, l in zip(below, mu_p, lam_p))):
            acc[(mu, 1)] = 1
    return QuantumClass.build(ring, acc)


# ---------------------------------------------------------------------------
# monotone products


# kept because perfbench calls it; ROADMAP items 8 and 11
def kunneth(ring_a: RingPresentation, ring_b: RingPresentation) -> ProductRing:
    return ProductRing(factors=(ring_a, ring_b))
