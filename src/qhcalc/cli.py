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


def _emit(result):
    """Print the envelope of the running command.  The invocation is the
    command's name and every parameter, defaults included, under its Python
    name without a trailing ``_`` (``class_`` records as ``"class"``)."""
    ctx = click.get_current_context()
    invocation = {"cmd": f"{ctx.parent.command.name} {ctx.command.name}"}
    invocation.update((name.rstrip("_"), value) for name, value in ctx.params.items())
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


def _load_ring(path: str, field: str = None):
    ground = GroundField.from_spec(field) if field else None
    return ser.ring_from_json(_load_json(path), field=ground)


@click.group()
def cli():
    """Exact quantum cohomology and action/index calculus."""


# ---------------------------------------------------------------------------
# ring


@cli.group()
def ring():
    """Quantum ring computations."""


@ring.command("mul")
@click.option("--ring", required=True)
@click.option("--a", required=True)
@click.option("--b", required=True)
@click.option("--field", default=None)
def ring_mul(ring, a, b, field):
    r = _load_ring(ring, field)
    product = r.quantum_product(ser.class_from_str(r, a), ser.class_from_str(r, b))
    _emit(ser.class_to_str(product))


@ring.command("power")
@click.option("--ring", required=True)
@click.option("--class", "class_", required=True)
@click.option("--d", required=True, type=int)
@click.option("--field", default=None)
def ring_power(ring, class_, d, field):
    r = _load_ring(ring, field)
    _emit(ser.class_to_str(ser.class_from_str(r, class_) ** d))


@ring.command("basis")
@click.option("--ring", required=True)
@click.option("--degree", required=True, type=int)
@click.option("--field", default=None)
def ring_basis(ring, degree, field):
    r = _load_ring(ring, field)
    _emit([ser.class_to_str(r.basis_class(lbl)) for lbl in r.basis(degree)])


# ---------------------------------------------------------------------------
# ladders


@cli.group()
def ladders():
    """Product decompositions and ladders."""


@ladders.command("search")
@click.option("--ring", required=True)
@click.option("--ell-max", required=True, type=int)
@click.option("--nu-max", default=2, type=int)
@click.option("--out", default=None)
def ladders_search(ring, ell_max, nu_max, out):
    r = _load_ring(ring)
    decs = ladders_mod.search_decompositions(r, ell_max, nu_max)
    payload = [ser.decomposition_to_json(d) for d in decs]
    if out:
        Path(out).write_text(json.dumps(payload, indent=2))
    _emit(payload)


@ladders.command("verify")
@click.option("--ring", required=True)
@click.option("--dec", required=True)
def ladders_verify(ring, dec):
    r = _load_ring(ring)
    report = ladders_mod.verify_decomposition(r, ser.decomposition_from_json(r, _load_json(dec)))
    _emit({"valid": report.valid, "reasons": list(report.reasons)})
    if not report.valid:
        raise Contradiction("decomposition invalid: " + "; ".join(report.reasons))


@ladders.command("build")
@click.option("--ring", required=True)
@click.option("--dec", required=True)
def ladders_build(ring, dec):
    r = _load_ring(ring)
    ladder = ladders_mod.build_ladder(r, ser.decomposition_from_json(r, _load_json(dec)))
    _emit({
        "window": [ser.class_to_str(v) for v in ladder.window],
        "hom_degrees": list(ladder.hom_degrees),
        "nu": ladder.nu,
        "ell": ladder.ell,
    })


@ladders.command("case2")
@click.option("--ring", required=True)
@click.option("--class", "class_", default=None)
@click.option("--orbits", required=True, type=int)
def ladders_case2(ring, class_, orbits):
    r = _load_ring(ring)
    u = ser.class_from_str(r, class_) if class_ else r.first_chern_generator()
    try:
        params = ladders_mod.case_ii_parameters(r, u, orbits)
    except ladders_mod.PowerVanishesError as exc:
        _emit({"error": str(exc), "vanishing_exponent": exc.exponent})
        raise Contradiction(str(exc))
    _emit({"d": params.d, "ell": params.ell})


# ---------------------------------------------------------------------------
# spectra


@cli.group()
def spectra():
    """Action, index, and augmented-action calculus."""


def _orbit_and_md(path, chern, lam):
    orbit = ser.orbit_from_json(_load_json(path))
    md = MonotoneData(N=chern, lam=ser.frac_from_str(lam))
    return orbit, md


@spectra.command("recap")
@click.option("--orbit", required=True)
@click.option("--m", required=True, type=int)
@click.option("--chern", required=True, type=int)
@click.option("--lam", "lambda_", required=True)
def spectra_recap(orbit, m, chern, lambda_):
    x, md = _orbit_and_md(orbit, chern, lambda_)
    _emit(ser.orbit_to_json(recap(x, m, md)))


@spectra.command("iterate")
@click.option("--orbit", required=True)
@click.option("--k", required=True, type=int)
def spectra_iterate(orbit, k):
    _emit(ser.orbit_to_json(iterate(ser.orbit_from_json(_load_json(orbit)), k)))


@spectra.command("augmented")
@click.option("--orbit", required=True)
@click.option("--chern", required=True, type=int)
@click.option("--lam", "lambda_", required=True)
def spectra_augmented(orbit, chern, lambda_):
    x, md = _orbit_and_md(orbit, chern, lambda_)
    _emit(ser.frac_to_str(augmented_action(x, md)))


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
    _emit(payload)


@models.command("product")
@click.option("--factors", required=True,
              help="factor lambda lists separated by ';', e.g. '0,1;0,1'")
def models_product(factors):
    parts = [p for p in factors.split(";") if p.strip()]
    model = models_mod.ProductModel(
        factors=tuple(models_mod.CPnQuadraticModel(lambdas=_parse_lambdas(p)) for p in parts)
    )
    _emit(_model_report(model))


@models.command("verify")
@click.option("--model", required=True)
def models_verify(model):
    payload = _model_report(ser.model_from_json(_load_json(model)))
    _emit(payload)
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
        primes = ser.json_typed(data.get("primes", []), list, "primes")
        primes = [ser.json_typed(p, int, "prime") for p in primes]
    ladder = None
    if "ladder" in data:
        with ser.reading("scenario ladder"):
            ring_spec, dec_spec = data["ladder"]["ring"], data["ladder"]["decomposition"]
        ring = ser.ring_from_json(ring_spec)
        ours = (ring.N_chern, ring.monotonicity, ring.complex_dim)
        theirs = (table.md.N, table.md.lam, table.n)
        for name, a, b in zip(("N_chern", "monotonicity", "complex_dim"), ours, theirs):
            if a != b:
                raise click.UsageError(f"ladder ring has {name} {a}, the orbit table {b}")
        dec = ser.decomposition_from_json(ring, dec_spec)
        ladder = ladders_mod.build_ladder(ring, dec)
    return table, ladder, primes


def _emit_verdict(verdict: carriers_mod.Verdict):
    """Print a carrier verdict; a contradiction exits 2."""
    _emit({
        "status": verdict.status,
        "witness": [str(w) for w in verdict.witness],
        "details": list(verdict.details),
    })
    if verdict.status == "contradiction":
        raise Contradiction("; ".join(verdict.details) or "contradiction")


@carriers.command("assignments")
@click.option("--scenario", required=True)
@click.option("--k", required=True, type=int)
def carriers_assignments(scenario, k):
    table, ladder, _ = _load_scenario(scenario)
    if ladder is None:
        raise click.UsageError("scenario has no 'ladder' entry")
    assignments = carriers_mod.admissible_assignments(table, ladder, k)
    _emit([{"k": a.k, "slots": [[oid, m] for oid, m in a.slots]} for a in assignments])


@carriers.command("verify")
@click.option("--scenario", required=True)
def carriers_verify(scenario):
    table, ladder, primes = _load_scenario(scenario)
    if ladder is None:
        raise click.UsageError("scenario has no 'ladder' entry")
    if not primes:
        raise click.UsageError("scenario has no 'primes' entry")
    _emit_verdict(carriers_mod.relation_verdict(table, ladder, primes))


@carriers.command("negmon")
@click.option("--scenario", required=True)
def carriers_negmon(scenario):
    table, _, primes = _load_scenario(scenario)
    if not primes:
        raise click.UsageError("scenario has no 'primes' entry")
    verdict = carriers_mod.neg_monotone_obstruction(table, primes)
    _emit_verdict(verdict)
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
    except ladders_mod.InvalidDecompositionError as exc:
        click.echo(f"invalid ladder: {exc}", err=True)
        sys.exit(EXIT_CONTRADICTION)
    except (ValueError, KeyError) as exc:  # serialize.ParseError is a ValueError
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
