"""The four seeded workloads of the qhcalc benchmark.

Each workload has three parts:

* ``generate(seed)`` makes the inputs as plain data (no qhcalc objects), so the
  same seed gives the same inputs and the program receives nothing else;
* ``sweep(qh, spec, ctx)`` is a generator: its body up to the first ``yield``
  turns the inputs into program objects (set-up), then it yields one ``Job``
  at a time; the harness times ``job.run()`` and sends the result back;
* ``check(qh, spec, records)`` checks every result against an independent
  oracle outside the timed interval and returns the failures.

``qh`` is a namespace of freshly imported ``qhcalc`` modules, so every sweep
starts with empty structure-constant caches, as every CLI call does.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import json
import math
import operator
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Optional

MODULES = ("qalgebra", "rings", "ladders", "spectra", "models", "carriers", "serialize")
PRIMES_BELOW_100 = tuple(p for p in range(2, 100) if all(p % d for d in range(2, p)))
PERFBENCH = Path(__file__).resolve().parent

# Program defects known at the time the benchmark was defined.  A failed check
# that is an instance of one of these still counts as failed; only a failure
# outside this list makes a run incorrect.
KNOWN_DEFECTS = {
    "iterate-nondegeneracy": (
        "a weakly nondegenerate flag is applied at every iteration k, so an iterate "
        "with k*theta integral gets a strict index window and a genuine model a "
        "spurious contradiction"),
    "build-exit-64": (
        "`ladders build` on an invalid decomposition exits 64 (usage) where "
        "`ladders verify` exits 2 (contradiction)"),
}


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    info: dict = field(default_factory=dict)


@dataclass
class Failure:
    job: int
    message: str
    defect: Optional[str] = None  # a key of KNOWN_DEFECTS, or None if unexpected


@dataclass
class JobError:
    """What a job that raised returns in place of a result."""

    error: str


def fresh_import(uses_cli):
    """Import qhcalc as a new process would: nothing cached from earlier sweeps."""
    for name in [n for n in sys.modules if n.split(".")[0] in ("qhcalc", "click")]:
        del sys.modules[name]
    gc.collect()
    mods = {m: importlib.import_module(f"qhcalc.{m}") for m in MODULES}
    if uses_cli:
        mods["cli"] = importlib.import_module("qhcalc.cli")
    return SimpleNamespace(**mods)


def results(records):
    """(index, job, result) for every job that returned normally."""
    for i, (job, res) in enumerate(records):
        if not isinstance(res, JobError):
            yield i, job, res


def box_partitions(rows, cols):
    """Partitions in a rows x cols box, enumerated independently of qhcalc."""
    out = [()]
    if rows:
        for first in range(1, cols + 1):
            out += [(first,) + rest for rest in box_partitions(rows - 1, first)]
    return out


# ---------------------------------------------------------------------------


class SchubertTable:
    """Every ordered pair of Schubert classes of five Grassmannians, multiplied once."""

    name = "schubert-table"
    uses_cli = False
    # (k, N, field): G(3,6) appears over Q and over a seeded F_p, so its second
    # table runs against the structure constants the first one filled.
    RINGS = ((2, 6, "Q"), (2, 8, "Fp"), (3, 6, "Q"), (3, 6, "Fp"), (3, 7, "Fp"), (4, 8, "Q"))
    ASSOCIATIVITY_SAMPLES = 40

    @staticmethod
    def generate(seed):
        rng = random.Random(f"schubert-table:{seed}")
        rings = [(k, N, 0 if f == "Q" else rng.choice((2, 3, 5, 7)))
                 for k, N, f in SchubertTable.RINGS]
        pairs, triples = [], []
        for r, (k, N, _) in enumerate(rings):
            labels = box_partitions(k, N - k)
            pairs += [(r, a, b) for a in labels for b in labels]
            triples += [(r, tuple(rng.choice(labels) for _ in range(3)))
                        for _ in range(SchubertTable.ASSOCIATIVITY_SAMPLES)]
        rng.shuffle(pairs)
        return {"rings": rings, "pairs": pairs, "triples": triples}

    @staticmethod
    def sweep(qh, spec, ctx):
        rings = [qh.rings.Grassmannian(k=k, N=N, field=qh.qalgebra.GroundField(p))
                 for k, N, p in spec["rings"]]
        classes = {}
        for r, ring in enumerate(rings):
            for lam in box_partitions(ring.k, ring.N - ring.k):
                classes[r, lam] = ring.basis_class(lam)
        for r, a, b in spec["pairs"]:
            yield Job("product", partial(operator.mul, classes[r, a], classes[r, b]),
                      {"ring": rings[r], "r": r, "a": a, "b": b})

    @staticmethod
    def check(qh, spec, records):
        fails = []
        table = {}
        for i, job, res in results(records):
            info = job.info
            table[info["r"], info["a"], info["b"]] = (i, res)
        for i, job, res in results(records):
            ring, r, a, b = job.info["ring"], job.info["r"], job.info["a"], job.info["b"]
            if len(b) == 1 and res != qh.rings.quantum_pieri(ring, a, b[0]):
                fails.append(Failure(i, f"G({ring.k},{ring.N}) s{a}*s{b} disagrees with quantum Pieri"))
            if (r, b, a) in table and res != table[r, b, a][1]:
                fails.append(Failure(i, f"G({ring.k},{ring.N}) s{a}*s{b} != s{b}*s{a}"))
        rings = {job.info["r"]: job.info["ring"] for job, _ in records}
        for r, (a, b, c) in spec["triples"]:
            ring = rings[r]
            x, y, z = (ring.basis_class(lam) for lam in (a, b, c))
            if (x * y) * z != x * (y * z):
                fails.append(Failure(table.get((r, a, b), (0,))[0],
                                     f"G({ring.k},{ring.N}) not associative on s{a}, s{b}, s{c}"))
        return fails


# ---------------------------------------------------------------------------


class LadderSearch:
    """Decomposition search on small rings; every result verified and built into a ladder."""

    name = "ladder-search"
    uses_cli = False
    # (ring, ell_max, nu_max); a ring is ("cpn", n, p), ("grassmannian", k, N, p)
    # or ("cp1xcp1", p).
    SEARCHES = (
        *((("cpn", n, 0), n + 1, 2) for n in range(1, 7)),
        *((("grassmannian", 2, N, p), 3, 2 if N < 6 else 1) for N in (4, 5, 6) for p in (0, 2, 3)),
        (("grassmannian", 3, 6, 0), 3, 1),
        (("cp1xcp1", 0), 3, 2),
    )

    @staticmethod
    def generate(seed):
        rng = random.Random(f"ladder-search:{seed}")
        searches = [(ring, ell, nu, rng.getrandbits(32)) for ring, ell, nu in LadderSearch.SEARCHES]
        rng.shuffle(searches)
        return {"searches": searches}

    @staticmethod
    def make_ring(qh, spec):
        kind, *params, p = spec
        fld = qh.qalgebra.GroundField(p)
        if kind == "cpn":
            return qh.rings.CPn(n=params[0], field=fld)
        if kind == "grassmannian":
            return qh.rings.Grassmannian(k=params[0], N=params[1], field=fld)
        return qh.rings.kunneth(qh.rings.CPn(n=1, field=fld), qh.rings.CPn(n=1, field=fld))

    @staticmethod
    def scaled(qh, ring, dec, rng):
        """The same decomposition with seeded nonzero scalars whose factor product is 1."""
        p = ring.field.characteristic

        def scalar():
            if p:
                return rng.randint(1, p - 1)
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))

        coeffs = [scalar() for _ in dec.factors[:-1]]
        coeffs.append(ring.field.inv(math.prod(coeffs, start=ring.field.one())))
        return qh.ladders.Decomposition(
            dec.u0.scale(scalar()), tuple(f.scale(c) for f, c in zip(dec.factors, coeffs)), dec.nu)

    @staticmethod
    def sweep(qh, spec, ctx):
        searches = [(LadderSearch.make_ring(qh, r), r, ell, nu, s) for r, ell, nu, s in spec["searches"]]
        for ring, rspec, ell, nu, scale_seed in searches:
            decs = yield Job("search", partial(qh.ladders.search_decompositions, ring, ell, nu),
                             {"ring": ring, "spec": rspec, "ell_max": ell})
            if isinstance(decs, JobError):
                continue
            rng = random.Random(scale_seed)
            for dec in decs:
                scaled = LadderSearch.scaled(qh, ring, dec, rng)
                yield Job("ladder", partial(LadderSearch.verify_and_build, qh, ring, scaled),
                          {"ring": ring, "dec": scaled})

    @staticmethod
    def verify_and_build(qh, ring, dec):
        return qh.ladders.verify_decomposition(ring, dec), qh.ladders.build_ladder(ring, dec)

    @staticmethod
    def check(qh, spec, records):
        fails = []
        for i, job, res in results(records):
            ring = job.info["ring"]
            if job.kind == "search":
                for dec in res:
                    if not qh.ladders.verify_decomposition(ring, dec).valid:
                        fails.append(Failure(i, f"{job.info['spec']}: search result fails verification"))
                rspec = job.info["spec"]
                if rspec[0] == "cpn" and job.info["ell_max"] > rspec[1]:
                    n = rspec[1]
                    u = ring.basis_class(1)
                    known = qh.ladders.Decomposition(ring.one(), (u,) * (n + 1), 1)
                    if known not in res:
                        fails.append(Failure(i, f"CP^{n}: u^{n + 1} = q missing from the search"))
                continue
            report, ladder = res
            dec = job.info["dec"]
            window = [dec.u0]
            for f in dec.factors[:-1]:
                window.append(window[-1] * f)
            hom = [2 * ring.complex_dim - v.degree() for v in window]
            chain = hom + [hom[0] - 2 * ring.N_chern]
            if not report.valid:
                fails.append(Failure(i, f"valid decomposition reported invalid: {report.reasons}"))
            if list(ladder.window) != window or list(ladder.hom_degrees) != hom or ladder.nu != dec.nu:
                fails.append(Failure(i, "ladder window or degrees differ from the step products"))
            if any(x <= y for x, y in zip(chain, chain[1:])):
                fails.append(Failure(i, f"homology chain {chain} not strictly decreasing"))
        return fails


# ---------------------------------------------------------------------------


def model_lambdas(rng, n):
    """n + 1 distinct coefficients over a common denominator in [2, 30]."""
    d = rng.randint(2, 30)
    return tuple(sorted(Fraction(x, d) for x in rng.sample(range(-2 * d, 2 * d + 1), n + 1)))


def flagged_prime_angle(lambdas):
    """True when a fixed point flagged weakly nondegenerate has an angle with a
    prime denominator below 100, i.e. an iterate k*theta in Z at a prime k."""
    for j, lj in enumerate(lambdas):
        angles = [lj - li for i, li in enumerate(lambdas) if i != j]
        if all(a.denominator != 1 for a in angles) and any(
                a.denominator in PRIMES_BELOW_100 for a in angles):
            return True
    return False


class CarrierSweep:
    """Quadratic models on CP^1..CP^5, from coefficients to a carrier verdict."""

    name = "carrier-sweep"
    uses_cli = False
    # (kind, n, jobs per sweep)
    FAMILIES = (
        ("genuine", 1, 16), ("genuine", 2, 12), ("genuine", 3, 8), ("genuine", 4, 3), ("genuine", 5, 1),
        ("perturbed", 1, 16), ("perturbed", 2, 12), ("perturbed", 3, 8), ("perturbed", 4, 3),
        ("enumerate", 4, 6), ("enumerate", 5, 6),
        ("negmon", 1, 20), ("degenerate", 1, 10),
    )
    # Coefficient vectors come from a pool that is the same for every seed; the
    # seed translates each vector by a rational b.  lambda -> lambda + b keeps
    # every angle and mean index, so the carrier search does the same work for
    # every seed while every action the program sees differs.  Without the pool
    # one CP^5 verdict varies by 2x from seed to seed.
    POOL_SEED = "carrier-sweep-pool"

    @staticmethod
    def generate(seed):
        pool = random.Random(CarrierSweep.POOL_SEED)
        rng = random.Random(f"carrier-sweep:{seed}")
        jobs = []
        for kind, n, count in CarrierSweep.FAMILIES:
            for _ in range(count):
                if kind in ("negmon", "degenerate"):
                    jobs.append((kind, n, CarrierSweep.negmon_orbits(rng, kind)))
                    continue
                base = model_lambdas(pool, n)
                d = math.lcm(*(x.denominator for x in base))
                shift = Fraction(rng.randint(-4 * d, 4 * d), d)
                lambdas = tuple(x + shift for x in base)
                if kind == "genuine":
                    extra = None
                elif kind == "perturbed":
                    extra = (rng.randrange(n + 1), Fraction(rng.choice(range(-15, 16, 2)), 16))
                else:
                    extra = pool.choice(PRIMES_BELOW_100)
                jobs.append((kind, n, (lambdas, extra)))
        rng.shuffle(jobs)
        return {"jobs": jobs}

    @staticmethod
    def negmon_orbits(rng, kind):
        """Orbit records (id, action, delta) in the style of criterion 9."""
        if kind == "negmon":
            return (("x", Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                     Fraction(rng.choice((1, 3, 5, 7, 9)), 2)),)
        return tuple((f"x{i}", Fraction(rng.randint(-9, 9), 3), Fraction(0))
                     for i in range(rng.randint(1, 3)))

    @staticmethod
    def sweep(qh, spec, ctx):
        md_neg = qh.spectra.MonotoneData(N=1, lam=Fraction(-1))
        jobs = []
        for kind, n, data in spec["jobs"]:
            if kind in ("negmon", "degenerate"):
                table = qh.carriers.OrbitTable(md=md_neg, n=n, orbits=tuple(
                    qh.carriers.TableOrbit(oid, a, d) for oid, a, d in data))
                run = partial(qh.carriers.neg_monotone_obstruction, table, PRIMES_BELOW_100)
            elif kind == "enumerate":
                run = partial(CarrierSweep.enumerate, qh, *data)
            else:
                run = partial(CarrierSweep.verdict, qh, *data)
            jobs.append(Job(kind, run, {"n": n, "data": data}))
        for job in jobs:
            yield job

    @staticmethod
    def table_and_ladder(qh, lambdas, perturb=None):
        """Fixed points -> orbit table (flags as reported) and the CP^n ladder u^(n+1) = q."""
        model = qh.models.CPnQuadraticModel(lambdas=lambdas)
        orbits = qh.models.cpn_fixed_points(model)
        if perturb is not None:
            idx, delta = perturb
            orbits[idx] = dataclasses.replace(orbits[idx], action=orbits[idx].action + delta)
        report = qh.models.verify_equal_augmented_actions(model, orbits)
        table = qh.carriers.OrbitTable(md=model.monotone_data, n=model.n, orbits=tuple(
            qh.carriers.TableOrbit(o.orbit_id, o.action, o.mean_index, o.weakly_nondegenerate)
            for o in orbits))
        ring = qh.rings.CPn(n=model.n)
        u = ring.basis_class(1)
        ladder = qh.ladders.build_ladder(
            ring, qh.ladders.Decomposition(ring.one(), (u,) * (model.n + 1), 1))
        return report, table, ladder

    @staticmethod
    def verdict(qh, lambdas, perturb):
        report, table, ladder = CarrierSweep.table_and_ladder(qh, lambdas, perturb)
        return report, qh.carriers.relation_verdict(table, ladder, PRIMES_BELOW_100)

    @staticmethod
    def enumerate(qh, lambdas, k):
        _, table, ladder = CarrierSweep.table_and_ladder(qh, lambdas)
        return table, ladder, list(qh.carriers.admissible_assignments(table, ladder, k))

    @staticmethod
    def check(qh, spec, records):
        fails = []
        for i, job, res in results(records):
            kind, n = job.kind, job.info["n"]
            if kind == "genuine":
                report, verdict = res
                lambdas = job.info["data"][0]
                if not report.ok:
                    fails.append(Failure(i, f"CP^{n} {lambdas}: augmented actions not all equal"))
                if verdict.status != "consistent":
                    defect = "iterate-nondegeneracy" if flagged_prime_angle(lambdas) else None
                    fails.append(Failure(i, f"CP^{n} {lambdas}: genuine model gives "
                                            f"{verdict.status} {verdict.witness}", defect))
            elif kind == "perturbed":
                report, verdict = res
                if report.ok or verdict.status != "contradiction":
                    fails.append(Failure(i, f"CP^{n} {job.info['data']}: perturbed table gives "
                                            f"{verdict.status}, equal actions {report.ok}"))
            elif kind == "enumerate":
                table, ladder, assignments = res
                bad = [a for a in assignments if not qh.carriers.check_assignment(table, ladder, a)]
                if bad:
                    fails.append(Failure(i, f"CP^{n}: {len(bad)} enumerated assignments fail check_assignment"))
            elif kind == "negmon":
                if res.status != "contradiction":
                    fails.append(Failure(i, f"negative monotone {job.info['data']}: {res.status}"))
            elif res.status != "no_obstruction" or not any("degenerate" in d for d in res.details):
                fails.append(Failure(i, f"degenerate branch {job.info['data']}: {res.status}"))
        return fails


# ---------------------------------------------------------------------------


def cpn_class_str(e, n):
    """The CLI's literal for u^e in CP^n, written out independently."""
    m, e = divmod(e, n + 1)
    factors = [] if m == 0 else ["q" if m == 1 else f"q^{m}"]
    if e or not factors:
        factors.append("1" if e == 0 else "u" if e == 1 else f"u^{e}")
    return "*".join(factors)


def cpn_orbits(lambdas):
    """Fixed points of a CP^n quadratic model by the closed form (no qhcalc)."""
    n, total = len(lambdas) - 1, sum(lambdas)
    return [{"id": f"x{j}", "action": str(lj), "delta": str(2 * ((n + 1) * lj - total))}
            for j, lj in enumerate(lambdas)]


class CliReadme:
    """The README commands and the exit-code paths 0/2/3/64, one child process each."""

    name = "cli-readme"
    uses_cli = True

    @staticmethod
    def generate(seed):
        rng = random.Random(f"cli-readme:{seed}")
        n = rng.randint(2, 4)
        i, j = rng.randint(1, n), rng.randint(1, n)
        p, d = rng.choice((2, 3, 5)), rng.randint(3, 6)
        weight = rng.randint(0, 4)
        n_orbits = rng.randint(1, 8)
        model = sorted(Fraction(x, 4) for x in rng.sample(range(-12, 13), rng.randint(2, 5)))
        factors = [sorted(Fraction(x, 4) for x in rng.sample(range(-8, 9), 2)) for _ in range(2)]
        orbit = {"id": "x0", "m": 0, "action": str(Fraction(rng.randint(-9, 9), rng.randint(1, 6))),
                 "delta": str(Fraction(rng.randint(-9, 9), rng.randint(1, 4))), "cz": None}
        recap_m, chern = rng.randint(-3, 3), rng.randint(1, 4)
        lam = Fraction(rng.choice((-1, 1)), chern)
        k_iter = rng.randint(2, 9)
        cp1 = (Fraction(0), Fraction(rng.choice((1, 3, 5, 7)), 8))
        perturb = Fraction(rng.choice(range(-15, 16, 2)), 16)
        k_assign = rng.choice(PRIMES_BELOW_100[:9])
        neg_action = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        neg_delta = Fraction(rng.choice((1, 3, 5, 7, 9)), 2)

        def scenario(orbits, ring=None, nu=1, primes=PRIMES_BELOW_100[:9], md=("2", "1/2")):
            data = {"monotone": {"N": int(md[0]), "lambda": md[1]}, "n": 1,
                    "orbits": orbits, "primes": list(primes)}
            if ring:
                data["ladder"] = {"ring": ring, "decomposition": {
                    "u0": "1", "factors": ["u", "u"], "nu": nu}}
            return data

        cp1_ring = {"kind": "cpn", "n": 1, "field": "Q"}
        ok_orbits = cpn_orbits(cp1)
        bad_orbits = [dict(o) for o in ok_orbits]
        bad_orbits[0]["action"] = str(cp1[0] + perturb)
        files = {
            "cp.json": {"kind": "cpn", "n": n, "field": "Q"},
            "g24.json": {"kind": "grassmannian", "k": 2, "N": 4, "field": "Q"},
            "dec_ok.json": {"u0": "1", "factors": ["u"] * (n + 1), "nu": 1},
            "dec_bad.json": {"u0": "1", "factors": ["u"] * n, "nu": 1},
            "orbit.json": orbit,
            "s_ok.json": scenario(ok_orbits, cp1_ring),
            "s_bad.json": scenario(bad_orbits, cp1_ring),
            "neg.json": scenario([{"id": "x", "action": str(neg_action), "delta": str(neg_delta)}],
                                 primes=PRIMES_BELOW_100, md=("1", "-1")),
            "neg_degen.json": scenario([{"id": "x", "action": str(neg_action), "delta": "0"}],
                                       primes=PRIMES_BELOW_100[:4], md=("1", "-1")),
        }
        fmt = lambda xs: ",".join(str(x) for x in xs)  # noqa: E731
        commands = [
            ("ring mul", ["ring", "mul", "--ring", "cp.json", "--a", cpn_class_str(i, n),
                          "--b", cpn_class_str(j, n)], 0, {"result": cpn_class_str(i + j, n)}),
            ("ring power", ["ring", "power", "--ring", "g24.json", "--class", "s[1]", "--d", str(d),
                            "--field", f"Fp:{p}"], 0, {"p": p, "d": d}),
            ("ring basis", ["ring", "basis", "--ring", "g24.json", "--degree", str(2 * weight)], 0,
             {"result": ["1" if not lam_ else "s[" + fmt(lam_) + "]"
                         for lam_ in sorted(box_partitions(2, 2)) if sum(lam_) == weight]}),
            ("ladders search", ["ladders", "search", "--ring", "cp.json", "--ell-max", str(n + 1),
                                "--nu-max", "1", "--out", "decs.json"], 0, {"n": n}),
            ("ladders verify", ["ladders", "verify", "--ring", "cp.json", "--dec", "dec_ok.json"], 0, {}),
            ("ladders verify invalid", ["ladders", "verify", "--ring", "cp.json", "--dec",
                                        "dec_bad.json"], 2, {}),
            ("ladders build", ["ladders", "build", "--ring", "cp.json", "--dec", "dec_ok.json"], 0,
             {"hom_degrees": list(range(2 * n, -1, -2))}),
            ("ladders build invalid", ["ladders", "build", "--ring", "cp.json", "--dec",
                                       "dec_bad.json"], 2, {}),
            ("ladders case2", ["ladders", "case2", "--ring", "g24.json", "--orbits", str(n_orbits)], 0,
             {"result": {"d": 4 * n_orbits + 1, "ell": 4}}),
            ("models cpn", ["models", "cpn", "--lambdas", fmt(model), "--verify"], 0,
             {"lambdas": model}),
            ("models product", ["models", "product", "--factors", ";".join(fmt(f) for f in factors)],
             0, {"orbits": 4}),
            ("spectra recap", ["spectra", "recap", "--orbit", "orbit.json", "--m", str(recap_m),
                               "--chern", str(chern), "--lam", str(lam)], 0,
             {"action": str(Fraction(orbit["action"]) - recap_m * lam * chern),
              "delta": str(Fraction(orbit["delta"]) - 2 * chern * recap_m)}),
            ("spectra iterate", ["spectra", "iterate", "--orbit", "orbit.json", "--k", str(k_iter)], 0,
             {"action": str(k_iter * Fraction(orbit["action"])),
              "delta": str(k_iter * Fraction(orbit["delta"]))}),
            ("spectra augmented", ["spectra", "augmented", "--orbit", "orbit.json", "--chern",
                                   str(chern), "--lam", str(lam)], 0,
             {"result": str(Fraction(orbit["action"]) - lam / 2 * Fraction(orbit["delta"]))}),
            ("carriers verify", ["carriers", "verify", "--scenario", "s_ok.json"], 0,
             {"status": "consistent"}),
            ("carriers verify perturbed", ["carriers", "verify", "--scenario", "s_bad.json"], 2, {}),
            ("carriers assignments", ["carriers", "assignments", "--scenario", "s_ok.json",
                                      "--k", str(k_assign)], 0, {"k": k_assign}),
            ("carriers negmon", ["carriers", "negmon", "--scenario", "neg.json"], 2, {}),
            ("carriers negmon degenerate", ["carriers", "negmon", "--scenario", "neg_degen.json"], 3, {}),
            ("missing file", ["ring", "mul", "--ring", "missing.json", "--a", "u", "--b", "u"], 64, {}),
            ("bad literal", ["ring", "mul", "--ring", "cp.json", "--a", "wat", "--b", "u"], 64, {}),
        ]
        return {"files": files, "commands": commands}

    @staticmethod
    def sweep(qh, spec, ctx):
        ctx.tmp.mkdir(parents=True, exist_ok=True)
        for name, data in spec["files"].items():
            (ctx.tmp / name).write_text(json.dumps(data))
        env = {**ctx.env, "PYTHONPATH": str(ctx.src)}
        for name, argv, rc, expect in spec["commands"]:
            run = partial(CliReadme.run_command, argv, ctx.tmp, env, ctx.tracer)
            yield Job(name, run, {"rc": rc, "expect": expect})

    @staticmethod
    def run_command(argv, cwd, env, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "qhcalc.cli", *argv]
        else:
            trace_file = cwd / f"trace-{tracer.job}.json"
            cmd = [sys.executable, str(PERFBENCH / "cli_child.py"), str(trace_file), *argv]
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
        wall = perf_counter() - start
        if tracer is not None:
            tracer.add_child(json.loads(trace_file.read_text()), tracer.job, wall)
            trace_file.unlink()
        return proc.returncode, proc.stdout

    @staticmethod
    def check(qh, spec, records):
        fails = []
        tmp_files = spec["files"]
        for i, job, (rc, stdout) in results(records):
            name, expect = job.kind, job.info["expect"]
            if rc != job.info["rc"]:
                defect = "build-exit-64" if name == "ladders build invalid" and rc == 64 else None
                fails.append(Failure(i, f"{name}: exit {rc}, expected {job.info['rc']}", defect))
                continue
            if rc != 0:
                continue
            try:
                result = json.loads(stdout)["result"]
                problem = CliReadme.check_result(qh, name, expect, result, tmp_files)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output ({exc})"
            if problem:
                fails.append(Failure(i, f"{name}: {problem}"))
        return fails

    @staticmethod
    def check_result(qh, name, expect, result, files):
        """None when one command's JSON result is right, else what is wrong."""
        if "result" in expect and result != expect["result"]:
            return f"result {result!r}, expected {expect['result']!r}"
        if name == "ring power":
            ring = qh.rings.Grassmannian(k=2, N=4, field=qh.qalgebra.GroundField(expect["p"]))
            power = ring.one()
            for _ in range(expect["d"]):
                acc = ring.zero()
                for (lam, m), c in power.terms:
                    acc = acc + qh.rings.quantum_pieri(ring, lam, 1).q_shift(m).scale(c)
                power = acc
            if qh.serialize.class_from_str(ring, result) != power:
                return f"{result!r} differs from the iterated Pieri power"
        elif name == "ladders search":
            n = expect["n"]
            ring = qh.rings.CPn(n=n)
            if {"u0": "1", "factors": ["u"] * (n + 1), "nu": 1} not in result:
                return f"u^{n + 1} = q missing"
            for rec in result:
                dec = qh.serialize.decomposition_from_json(ring, rec)
                if not qh.ladders.verify_decomposition(ring, dec).valid:
                    return f"{rec} fails verification"
        elif name == "ladders verify" and result["valid"] is not True:
            return "valid decomposition reported invalid"
        elif name == "ladders build" and result["hom_degrees"] != expect["hom_degrees"]:
            return f"hom_degrees {result['hom_degrees']}, expected {expect['hom_degrees']}"
        elif name == "models cpn":
            lambdas = expect["lambdas"]
            if (result["equal_augmented_actions"] is not True or len(result["orbits"]) != len(lambdas)
                    or Fraction(result["common_value"]) != sum(lambdas) / len(lambdas)):
                return "fixed points or common augmented action wrong"
        elif name == "models product":
            if result["equal_augmented_actions"] is not True or len(result["orbits"]) != expect["orbits"]:
                return "product fixed points wrong"
        elif name in ("spectra recap", "spectra iterate"):
            if (Fraction(result["action"]), Fraction(result["delta"])) != (
                    Fraction(expect["action"]), Fraction(expect["delta"])):
                return f"orbit {result}, expected {expect}"
        elif name == "carriers verify" and result["status"] != expect["status"]:
            return f"status {result['status']}"
        elif name == "carriers assignments":
            table = qh.serialize.table_from_json(files["s_ok.json"])
            ring = qh.rings.CPn(n=1)
            u = ring.basis_class(1)
            ladder = qh.ladders.build_ladder(ring, qh.ladders.Decomposition(ring.one(), (u, u), 1))
            for rec in result:
                a = qh.carriers.CarrierAssignment(k=rec["k"], slots=tuple(tuple(s) for s in rec["slots"]))
                if a.k != expect["k"] or not qh.carriers.check_assignment(table, ladder, a):
                    return f"assignment {rec} fails check_assignment"
        return None


WORKLOADS = {w.name: w for w in (SchubertTable, LadderSearch, CarrierSweep, CliReadme)}
