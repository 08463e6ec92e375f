"""Independent oracles used to cross-check the library's combinatorics.

The Littlewood-Richardson oracle multiplies Schur polynomials in finitely
many variables (monomial expansion via semistandard tableaux) and peels the
product back into the Schur basis, which shares no code with the package's
walk over Littlewood-Richardson tableaux.

The carrier oracle finds each slot's candidates with `Fraction`s, from
spectra's public `iterate`, `recap` and `index_window_check`, then builds the
whole Cartesian product of the slot candidates and filters it, with no
pruning.  It shares the ordering rule `_ordering_ok` with the package's
checker, and no candidate code with the search, which runs on the scaled
integers of `OrbitTable.scaled`.

The relation oracle takes each iteration's first assignment from that full
enumeration and compares the stable image's augmented actions as
`Fraction`s, with no scaled row and no count.

The negative-monotone oracle picks each fundamental-class carrier from the
same `Fraction` slot candidates and runs the whole obstruction on capped
orbits and `Fraction`s, where the package runs it on scaled integers.

The decomposition oracle is the depth-first search on `QuantumClass`es: each
step is a full `quantum_product`, and each candidate is compared with the
class q^nu u0, where the package's search runs on integer term dicts.

The rim-hook oracle removes N-rim hooks one at a time on the beta-numbers,
with each removal's height read off the beads it jumps, where the package
reads the N-core and the sign off the abacus runners in closed form.

The Grassmannian structure oracle is the rule without the duality
G(k,N) = G(N-k,N): the package's LR walk on the pair in (sum, label) order,
in G(k,N) itself, then its rim-hook reduction, summed and sorted.  It checks
that reading a pair off its transpose changes no structure constant.
"""

import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, product

from qhcalc.carriers import CarrierAssignment, _ordering_ok
from qhcalc.ladders import Decomposition
from qhcalc.rings import littlewood_richardson, rim_hook_reduce
from qhcalc.spectra import index_window_check, iterate, recap


@lru_cache(maxsize=None)
def schur_poly(lam, nvars):
    """Monomial expansion {exponent vector: coeff} of s_lam(x_1..x_nvars)."""
    lam = tuple(lam)
    if len(lam) > nvars:
        return {}
    if not lam:
        return {(0,) * nvars: 1}
    # enumerate semistandard tableaux of shape lam with entries 1..nvars
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r])]
    out = {}

    def rec(idx, entry):
        if idx == len(cells):
            weight = [0] * nvars
            for v in entry.values():
                weight[v - 1] += 1
            key = tuple(weight)
            out[key] = out.get(key, 0) + 1
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, entry[(r, c - 1)])
        if r > 0:
            lo = max(lo, entry[(r - 1, c)] + 1)
        for v in range(lo, nvars + 1):
            entry[(r, c)] = v
            rec(idx + 1, entry)
        entry.pop((r, c), None)

    rec(0, {})
    return out


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def lr_coefficients_oracle(lam, mu, rows):
    """c^nu_{lam,mu} over partitions nu with at most `rows` parts."""
    nvars = rows
    poly = _poly_mul(schur_poly(tuple(lam), nvars), schur_poly(tuple(mu), nvars))
    result = {}
    while poly:
        lead = max(poly)
        coeff = poly[lead]
        nu = tuple(p for p in lead if p)
        assert all(lead[i] >= lead[i + 1] for i in range(nvars - 1)), lead
        result[nu] = result.get(nu, 0) + coeff
        for e, c in schur_poly(nu, nvars).items():
            poly[e] = poly.get(e, 0) - coeff * c
            if poly[e] == 0:
                del poly[e]
    return {k: v for k, v in result.items() if v}


def slot_candidates(table, deg_hom, k):
    """Capped k-th iterates that pass the index window of a class of
    homology degree deg_hom, sorted by (orbit id, capping)."""
    md = table.md
    two_n_chern = 2 * md.N
    out = []
    for o in table.orbits:
        it = iterate(o, k)
        # only these cappings can bring the mean index into [deg - 2n, deg]
        m_lo = math.ceil((it.mean_index - deg_hom) / two_n_chern)
        m_hi = math.floor((it.mean_index - deg_hom + 2 * table.n) / two_n_chern)
        for m in range(m_lo, m_hi + 1):
            c = recap(it, m, md)
            if index_window_check(c, deg_hom, table.n):
                out.append(c)
    out.sort(key=lambda c: (c.orbit_id, c.m))
    return out


def brute_force_assignments(table, ladder, k):
    """Every admissible assignment at iteration k, by full enumeration.

    The candidates are sorted by (orbit id, capping), so the product, and the
    list, is in slot order.
    """
    candidates = [slot_candidates(table, deg, k) for deg in ladder.hom_degrees]
    out = []
    for combo in product(*candidates):
        slots = tuple((c.orbit_id, c.m) for c in combo)
        if len(set(slots)) != len(slots):
            continue
        if _ordering_ok(combo, ladder.nu, table.md):
            out.append(CarrierAssignment(k=k, slots=slots))
    return out


def relation_oracle(table, ladder, primes):
    """(status, witness, details) of the action-index relation over the
    increasing iterations primes: the stable image is the orbit ids phi of
    the first assignment at each k that the most ks share, ties to the
    smallest phi, and its pairs, in `combinations` order, must have equal
    augmented actions A - (lambda/2) * Delta."""
    md = table.md
    firsts = {k: found[0] for k in primes if (found := brute_force_assignments(table, ladder, k))}
    failures = tuple(k for k in primes if k not in firsts)
    if failures:
        return "contradiction", ("no admissible assignment", failures), tuple(
            f"k={k}: no carrier assignment satisfies the constraints" for k in failures)
    phis = [tuple(oid for oid, _ in a.slots) for a in firsts.values()]
    phi = min(set(phis), key=lambda p: (-phis.count(p), p))
    augmented = {o.orbit_id: o.action - md.lam / 2 * o.mean_index for o in table.orbits}
    for x_id, y_id in combinations(sorted(set(phi)), 2):
        slope = (augmented[x_id] - augmented[y_id]) / md.lambda0
        if slope:
            return "contradiction", (x_id, y_id, slope), (
                f"augmented actions of {x_id} and {y_id} differ: "
                f"counts diverge with slope {slope} per iteration",)
    return "consistent", (), ()


def fundamental_class_carrier(table, k):
    """The action maximizer among the capped k-th iterates in the window
    [0, 2n] of the fundamental class, ties to the smallest (id, capping)."""
    return min(slot_candidates(table, 2 * table.n, k),
               key=lambda c: (-c.action, c.orbit_id, c.m), default=None)


def neg_monotone_oracle(table, primes):
    """(status, witness, details) of the negative-monotone obstruction over
    the increasing iterations primes, every quantity a `Fraction`."""
    md = table.md
    carrier = partial(fundamental_class_carrier, table)
    found = [(k, c) for k in primes if (c := carrier(k)) is not None]
    if not found:
        return "no_obstruction", (), (
            "no feasible fundamental-class carrier at any iteration",)
    ids = [c.orbit_id for _, c in found]
    x_id = min(set(ids), key=lambda i: (-ids.count(i), i))
    stable = [(k, c) for k, c in found if c.orbit_id == x_id]
    k1, c1 = stable[0]
    if c1.mean_index == 0:
        return "no_obstruction", (), (
            "degenerate branch: stable carrier has zero mean index at k1",)
    x = next(o for o in table.orbits if o.orbit_id == x_id)
    c0 = max([Fraction(0)] + [
        c.action - iterate(x, r).action for r in range(1, k1) if (c := carrier(r)) is not None
    ])
    for k, c in stable[1:]:
        nu = c.m - (k // k1) * c1.m
        if nu * md.I_omega_A > c0:
            return "contradiction", (k, nu), (
                f"nu_{k} * I_omega(A) = {nu * md.I_omega_A} exceeds the "
                f"sub-additivity bound {c0}; a finite orbit set cannot "
                "carry the fundamental class at all iterations",)
    return "no_obstruction", (), ("bound not exceeded within the supplied iterations",)


def search_decompositions_oracle(ring, ell_max, nu_max):
    """Every decomposition u0*u1*...*ul = q^nu u0 over basis classes, with
    ell <= ell_max, 1 <= nu <= nu_max, positive-degree factors and interior
    degree sum < 2N, in the package's order: ell descending, nu ascending,
    then the labels of u0 and of the factors."""
    two_n_chern = 2 * ring.N_chern
    table = ring._label_table  # label -> (position, degree)
    labels = list(table)
    classes = {lbl: ring.basis_class(lbl) for lbl in labels}
    degree = {lbl: d for lbl, (_, d) in table.items()}
    pos_labels = [lbl for lbl in labels if degree[lbl] > 0]
    found = []

    def dfs(u0_label, chain, partial, interior_deg, total_deg):
        if chain and total_deg % two_n_chern == 0:
            nu = total_deg // two_n_chern
            if 1 <= nu <= nu_max and partial == classes[u0_label].q_shift(nu):
                found.append((u0_label, tuple(chain), nu))
        new_interior = interior_deg + (degree[chain[-1]] if chain else 0)
        if len(chain) == ell_max or new_interior >= two_n_chern:
            return
        for lbl in pos_labels:
            if total_deg + degree[lbl] > two_n_chern * nu_max:
                continue
            step = ring.quantum_product(partial, classes[lbl])
            if not step.is_zero():
                dfs(u0_label, chain + [lbl], step, new_interior, total_deg + degree[lbl])

    for u0_label in labels:
        dfs(u0_label, [], classes[u0_label], 0, 0)
    found.sort(key=lambda t: (-len(t[1]), t[2], table[t[0]][0],
                              tuple(table[lbl][0] for lbl in t[1])))
    return [Decomposition(classes[u0], tuple(classes[lbl] for lbl in fl), nu)
            for u0, fl, nu in found]


def rim_hook_reduce_oracle(nu, k, N):
    """(core, q-power, sign) of nu modulo N-rim hooks, or None, by removing
    the hooks one at a time."""
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


def grassmannian_structure_oracle(k, N, lam, mu):
    """The ((core, q-power), coefficient) terms of sigma_lam * sigma_mu in
    G(k,N), sorted: LR with the smaller label in (sum, label) order as the
    content, each nu reduced by rim hooks, zero sums dropped."""
    if (sum(lam), lam) < (sum(mu), mu):
        lam, mu = mu, lam
    acc = {}
    for nu, c in littlewood_richardson(lam, mu, k).items():
        reduced = rim_hook_reduce(nu, k, N)
        if reduced is not None:
            core, d, sign = reduced
            acc[core, d] = acc.get((core, d), 0) + c * sign
    return tuple(sorted(kv for kv in acc.items() if kv[1]))
