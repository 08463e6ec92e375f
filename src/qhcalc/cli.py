"""Command-line front end with reproducible JSON output.

Exit codes: 0 ok/consistent, 2 mathematical contradiction found,
3 inconclusive (a hypothesis gate fired), 64 usage or input error.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import carriers as carriers_mod
from . import ladders as ladders_mod
from . import models as models_mod
from . import serialize as ser
from .qalgebra import GroundField
from .spectra import MonotoneData, augmented_action, iterate, recap

EXIT_OK = 0
EXIT_CONTRADICTION = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64


class Contradiction(click.ClickException):
    exit_code = EXIT_CONTRADICTION


class Inconclusive(click.ClickException):
    exit_code = EXIT_INCONCLUSIVE


def _emit(result, invocation: dict):
    envelope = {"invocation": invocation, "result": result}
    click.echo(json.dumps(envelope, indent=2, sort_keys=True))


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"malformed JSON in {path}: {exc}")


def _load_ring(path: str, field_spec: str = None):
    field = GroundField.from_spec(field_spec) if field_spec else None
    return ser.ring_from_json(_load_json(path), field=field)


@click.group()
def cli():
    """Exact quantum cohomology and action/index calculus."""


# ---------------------------------------------------------------------------
# ring


@cli.group()
def ring():
    """Quantum ring computations."""


@ring.command("mul")
@click.option("--ring", "ring_path", required=True)
@click.option("--a", "a_lit", required=True)
@click.option("--b", "b_lit", required=True)
@click.option("--field", "field_spec", default=None)
def ring_mul(ring_path, a_lit, b_lit, field_spec):
    r = _load_ring(ring_path, field_spec)
    a = ser.class_from_str(r, a_lit)
    b = ser.class_from_str(r, b_lit)
    out = ser.class_to_str(r.quantum_product(a, b))
    _emit(out, {"cmd": "ring mul", "ring": ring_path, "a": a_lit, "b": b_lit,
                "field": field_spec})


@ring.command("power")
@click.option("--ring", "ring_path", required=True)
@click.option("--class", "cls_lit", required=True)
@click.option("--d", required=True, type=int)
@click.option("--field", "field_spec", default=None)
def ring_power(ring_path, cls_lit, d, field_spec):
    r = _load_ring(ring_path, field_spec)
    u = ser.class_from_str(r, cls_lit)
    out = ser.class_to_str(u ** d)
    _emit(out, {"cmd": "ring power", "ring": ring_path, "class": cls_lit,
                "d": d, "field": field_spec})


@ring.command("basis")
@click.option("--ring", "ring_path", required=True)
@click.option("--degree", required=True, type=int)
@click.option("--field", "field_spec", default=None)
def ring_basis(ring_path, degree, field_spec):
    r = _load_ring(ring_path, field_spec)
    labels = [ser.class_to_str(r.basis_class(lbl)) for lbl in r.basis(degree)]
    _emit(labels, {"cmd": "ring basis", "ring": ring_path, "degree": degree,
                   "field": field_spec})


# ---------------------------------------------------------------------------
# ladders


@cli.group()
def ladders():
    """Product decompositions and ladders."""


@ladders.command("search")
@click.option("--ring", "ring_path", required=True)
@click.option("--ell-max", required=True, type=int)
@click.option("--nu-max", default=2, type=int)
@click.option("--out", "out_path", default=None)
def ladders_search(ring_path, ell_max, nu_max, out_path):
    r = _load_ring(ring_path)
    decs = ladders_mod.search_decompositions(r, ell_max, nu_max)
    payload = [ser.decomposition_to_json(d) for d in decs]
    if out_path:
        Path(out_path).write_text(json.dumps(payload, indent=2))
    _emit(payload, {"cmd": "ladders search", "ring": ring_path,
                    "ell_max": ell_max, "nu_max": nu_max, "out": out_path})


@ladders.command("verify")
@click.option("--ring", "ring_path", required=True)
@click.option("--dec", "dec_path", required=True)
def ladders_verify(ring_path, dec_path):
    r = _load_ring(ring_path)
    dec = ser.decomposition_from_json(r, _load_json(dec_path))
    report = ladders_mod.verify_decomposition(r, dec)
    _emit({"valid": report.valid, "reasons": list(report.reasons)},
          {"cmd": "ladders verify", "ring": ring_path, "dec": dec_path})
    if not report.valid:
        raise Contradiction("decomposition invalid: " + "; ".join(report.reasons))


@ladders.command("build")
@click.option("--ring", "ring_path", required=True)
@click.option("--dec", "dec_path", required=True)
def ladders_build(ring_path, dec_path):
    r = _load_ring(ring_path)
    dec = ser.decomposition_from_json(r, _load_json(dec_path))
    ladder = ladders_mod.build_ladder(r, dec)
    _emit({
        "window": [ser.class_to_str(v) for v in ladder.window],
        "hom_degrees": list(ladder.hom_degrees),
        "nu": ladder.nu,
        "ell": ladder.ell,
    }, {"cmd": "ladders build", "ring": ring_path, "dec": dec_path})


@ladders.command("case2")
@click.option("--ring", "ring_path", required=True)
@click.option("--class", "cls_lit", default=None)
@click.option("--orbits", required=True, type=int)
def ladders_case2(ring_path, cls_lit, orbits):
    invocation = {"cmd": "ladders case2", "ring": ring_path, "class": cls_lit,
                  "orbits": orbits}
    r = _load_ring(ring_path)
    u = ser.class_from_str(r, cls_lit) if cls_lit else r.first_chern_generator()
    try:
        params = ladders_mod.case_ii_parameters(r, u, orbits)
    except ladders_mod.PowerVanishesError as exc:
        _emit({"error": str(exc), "vanishing_exponent": exc.exponent}, invocation)
        raise Contradiction(str(exc))
    _emit({"d": params.d, "ell": params.ell}, invocation)


# ---------------------------------------------------------------------------
# spectra


@cli.group()
def spectra():
    """Action, index, and augmented-action calculus."""


def _orbit_and_md(orbit_path, n_chern, lam):
    orbit = ser.orbit_from_json(_load_json(orbit_path))
    md = MonotoneData(N=n_chern, lam=ser.frac_from_str(lam))
    return orbit, md


@spectra.command("recap")
@click.option("--orbit", "orbit_path", required=True)
@click.option("--m", required=True, type=int)
@click.option("--chern", "n_chern", required=True, type=int)
@click.option("--lam", required=True)
def spectra_recap(orbit_path, m, n_chern, lam):
    orbit, md = _orbit_and_md(orbit_path, n_chern, lam)
    out = recap(orbit, m, md)
    _emit(ser.orbit_to_json(out),
          {"cmd": "spectra recap", "orbit": orbit_path, "m": m,
           "chern": n_chern, "lambda": lam})


@spectra.command("iterate")
@click.option("--orbit", "orbit_path", required=True)
@click.option("--k", required=True, type=int)
def spectra_iterate(orbit_path, k):
    orbit = ser.orbit_from_json(_load_json(orbit_path))
    _emit(ser.orbit_to_json(iterate(orbit, k)),
          {"cmd": "spectra iterate", "orbit": orbit_path, "k": k})


@spectra.command("augmented")
@click.option("--orbit", "orbit_path", required=True)
@click.option("--chern", "n_chern", required=True, type=int)
@click.option("--lam", required=True)
def spectra_augmented(orbit_path, n_chern, lam):
    orbit, md = _orbit_and_md(orbit_path, n_chern, lam)
    _emit(ser.frac_to_str(augmented_action(orbit, md)),
          {"cmd": "spectra augmented", "orbit": orbit_path,
           "chern": n_chern, "lambda": lam})


# ---------------------------------------------------------------------------
# models


@cli.group()
def models():
    """Explicit Hamiltonian models."""


def _parse_lambdas(text):
    try:
        return tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"bad --lambdas value {text!r}: {exc}")


def _model_report(model):
    orbits = models_mod.fixed_points(model)
    report = models_mod.verify_equal_augmented_actions(model, orbits)
    return {
        "orbits": [ser.orbit_to_json(o) for o in orbits],
        "equal_augmented_actions": report.ok,
        "common_value": ser.frac_to_str(report.common_value),
        "details": list(report.details),
    }


@models.command("cpn")
@click.option("--lambdas", required=True)
@click.option("--verify", is_flag=True, default=False)
def models_cpn(lambdas, verify):
    model = models_mod.CPnQuadraticModel(lambdas=_parse_lambdas(lambdas))
    payload = _model_report(model)
    if not verify:
        payload.pop("equal_augmented_actions")
        payload.pop("details")
    _emit(payload, {"cmd": "models cpn", "lambdas": lambdas, "verify": verify})


@models.command("product")
@click.option("--factors", required=True,
              help="factor lambda lists separated by ';', e.g. '0,1;0,1'")
def models_product(factors):
    parts = [p for p in factors.split(";") if p.strip()]
    model = models_mod.product_model(
        [models_mod.CPnQuadraticModel(lambdas=_parse_lambdas(p)) for p in parts]
    )
    _emit(_model_report(model), {"cmd": "models product", "factors": factors})


@models.command("verify")
@click.option("--model", "model_path", required=True)
def models_verify(model_path):
    model = ser.model_from_json(_load_json(model_path))
    payload = _model_report(model)
    _emit(payload, {"cmd": "models verify", "model": model_path})
    if not payload["equal_augmented_actions"]:
        raise Contradiction("augmented actions are not all equal")


# ---------------------------------------------------------------------------
# carriers


@cli.group()
def carriers():
    """Action-selector carrier simulation."""


def _load_scenario(path):
    data = _load_json(path)
    table = ser.table_from_json(data)
    with ser.reading("scenario"):
        primes = [ser.json_int(p, "prime") for p in data.get("primes", [])]
    ladder = None
    if "ladder" in data:
        spec = data["ladder"]
        if isinstance(spec, str):
            spec = _load_json(str(Path(path).parent / spec))
        with ser.reading("scenario ladder"):
            ring_spec, dec_spec = spec["ring"], spec["decomposition"]
        ring = ser.ring_from_json(ring_spec)
        ours = (ring.N_chern, ring.monotonicity, ring.complex_dim)
        theirs = (table.md.N, table.md.lam, table.n)
        for name, a, b in zip(("N_chern", "monotonicity", "complex_dim"), ours, theirs):
            if a != b:
                raise click.UsageError(f"ladder ring has {name} {a}, the orbit table {b}")
        dec = ser.decomposition_from_json(ring, dec_spec)
        ladder = ladders_mod.build_ladder(ring, dec)
    return table, ladder, primes


@carriers.command("assignments")
@click.option("--scenario", "scenario_path", required=True)
@click.option("--k", required=True, type=int)
def carriers_assignments(scenario_path, k):
    table, ladder, _ = _load_scenario(scenario_path)
    if ladder is None:
        raise click.UsageError("scenario has no 'ladder' entry")
    assignments = carriers_mod.admissible_assignments(table, ladder, k)
    _emit([
        {"k": a.k, "slots": [[oid, m] for oid, m in a.slots]} for a in assignments
    ], {"cmd": "carriers assignments", "scenario": scenario_path, "k": k})


@carriers.command("verify")
@click.option("--scenario", "scenario_path", required=True)
def carriers_verify(scenario_path):
    table, ladder, primes = _load_scenario(scenario_path)
    if ladder is None:
        raise click.UsageError("scenario has no 'ladder' entry")
    if not primes:
        raise click.UsageError("scenario has no 'primes' entry")
    verdict = carriers_mod.relation_verdict(table, ladder, primes)
    _emit({
        "status": verdict.status,
        "witness": [str(w) for w in verdict.witness],
        "details": list(verdict.details),
    }, {"cmd": "carriers verify", "scenario": scenario_path})
    if verdict.status == "contradiction":
        raise Contradiction("; ".join(verdict.details) or "contradiction")


@carriers.command("negmon")
@click.option("--scenario", "scenario_path", required=True)
def carriers_negmon(scenario_path):
    table, _, primes = _load_scenario(scenario_path)
    if not primes:
        raise click.UsageError("scenario has no 'primes' entry")
    verdict = carriers_mod.neg_monotone_obstruction(table, primes)
    _emit({
        "status": verdict.status,
        "witness": [str(w) for w in verdict.witness],
        "details": list(verdict.details),
    }, {"cmd": "carriers negmon", "scenario": scenario_path})
    if verdict.status == "contradiction":
        raise Contradiction("; ".join(verdict.details))
    if any("degenerate" in d for d in verdict.details):
        raise Inconclusive("; ".join(verdict.details))


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except (Contradiction, Inconclusive) as exc:
        click.echo(exc.format_message(), err=True)
        sys.exit(exc.exit_code)
    except click.ClickException as exc:  # usage errors included
        click.echo(exc.format_message(), err=True)
        sys.exit(EXIT_USAGE)
    except click.exceptions.Abort:
        sys.exit(EXIT_USAGE)
    except (ladders_mod.InvalidDecompositionError, ladders_mod.LadderChainError) as exc:
        click.echo(f"invalid ladder: {exc}", err=True)
        sys.exit(EXIT_CONTRADICTION)
    except (ser.ParseError, ValueError, KeyError) as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
