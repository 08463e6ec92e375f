"""Command-line front end with reproducible JSON output.

Exit codes: 0 ok/consistent, 2 mathematical contradiction found,
3 inconclusive (a hypothesis gate fired), 64 usage or input error.
Every command is one handler in ``COMMANDS``, from which the parser is
built: the handler ``<group>_<command>`` is the command ``<group> <command>``,
and its keyword-only, annotated signature is the command's option list.  A
parameter's annotation is the option's type (``bool`` is a switch), its
default the option's default, and a parameter without one is required.
"""

import argparse
import inspect
import json
import sys
from fractions import Fraction
from pathlib import Path

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


class Exit(Exception):
    """Leave with ``code`` and ``message`` on stderr; a ``result`` is printed first."""

    def __init__(self, code: int, message: str, result=None):
        super().__init__(message)
        self.code, self.message, self.result = code, message, result


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise Exit(EXIT_USAGE, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise Exit(EXIT_USAGE, f"malformed JSON in {path}: {exc}")


def _load_ring(path: str, field: str = None):
    ground = GroundField.from_spec(field) if field is not None else None
    return ser.ring_from_json(_load_json(path), field=ground)


# ---------------------------------------------------------------------------
# ring


def ring_mul(*, ring: str, a: str, b: str, field: str = None):
    r = _load_ring(ring, field)
    return ser.class_to_str(r.quantum_product(ser.class_from_str(r, a), ser.class_from_str(r, b)))


def ring_power(*, ring: str, class_: str, d: int, field: str = None):
    r = _load_ring(ring, field)
    return ser.class_to_str(ser.class_from_str(r, class_) ** d)


def ring_basis(*, ring: str, degree: int, field: str = None):
    r = _load_ring(ring, field)
    return [ser.class_to_str(r.basis_class(lbl)) for lbl in r.basis(degree)]


# ---------------------------------------------------------------------------
# ladders


def ladders_search(*, ring: str, ell_max: int, nu_max: int = 2, out: str = None):
    r = _load_ring(ring)
    decs = ladders_mod.search_decompositions(r, ell_max, nu_max)
    payload = [ser.decomposition_to_json(d) for d in decs]
    if out is not None:
        try:
            Path(out).write_text(json.dumps(payload, indent=2))
        except OSError as exc:
            raise Exit(EXIT_USAGE, f"cannot write {out!r}: {exc}")
    return payload


def ladders_verify(*, ring: str, dec: str):
    r = _load_ring(ring)
    report = ladders_mod.verify_decomposition(r, ser.decomposition_from_json(r, _load_json(dec)))
    payload = {"valid": report.valid, "reasons": list(report.reasons)}
    if not report.valid:
        raise Exit(EXIT_CONTRADICTION, "decomposition invalid: " + "; ".join(report.reasons),
                   payload)
    return payload


def ladders_build(*, ring: str, dec: str):
    r = _load_ring(ring)
    ladder = ladders_mod.build_ladder(r, ser.decomposition_from_json(r, _load_json(dec)))
    return {
        "window": [ser.class_to_str(v) for v in ladder.window],
        "hom_degrees": list(ladder.hom_degrees),
        "nu": ladder.nu,
        "ell": ladder.ell,
    }


def ladders_case2(*, ring: str, class_: str = None, orbits: int):
    r = _load_ring(ring)
    u = ser.class_from_str(r, class_) if class_ is not None else r.first_chern_generator()
    try:
        params = ladders_mod.case_ii_parameters(r, u, orbits)
    except ladders_mod.PowerVanishesError as exc:
        raise Exit(EXIT_CONTRADICTION, str(exc),
                   {"error": str(exc), "vanishing_exponent": exc.exponent})
    return {"d": params.d, "ell": params.ell}


# ---------------------------------------------------------------------------
# spectra


def spectra_recap(*, orbit: str, m: int, chern: int, lambda_: str):
    x = ser.orbit_from_json(_load_json(orbit))
    return ser.orbit_to_json(recap(x, m, MonotoneData(N=chern, lam=ser.frac_from_str(lambda_))))


def spectra_iterate(*, orbit: str, k: int):
    return ser.orbit_to_json(iterate(ser.orbit_from_json(_load_json(orbit)), k))


def spectra_augmented(*, orbit: str, chern: int, lambda_: str):
    x = ser.orbit_from_json(_load_json(orbit))
    md = MonotoneData(N=chern, lam=ser.frac_from_str(lambda_))
    return ser.frac_to_str(augmented_action(x, md))


# ---------------------------------------------------------------------------
# models


def _parse_lambdas(text):
    try:
        return tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise Exit(EXIT_USAGE, f"bad --lambdas value {text!r}: {exc}")


def _model_report(model):
    orbits = models_mod.fixed_points(model)
    report = models_mod.verify_equal_augmented_actions(model, orbits)
    return {
        "orbits": [ser.orbit_to_json(o) for o in orbits],
        "equal_augmented_actions": report.ok,
        "common_value": ser.frac_to_str(report.common_value),
        "details": list(report.details),
    }


def models_cpn(*, lambdas: str, verify: bool = False):
    payload = _model_report(models_mod.CPnQuadraticModel(lambdas=_parse_lambdas(lambdas)))
    if not verify:
        payload.pop("equal_augmented_actions")
        payload.pop("details")
    return payload


def models_product(*, factors: str):
    parts = [p for p in factors.split(";") if p.strip()]
    return _model_report(models_mod.ProductModel(
        factors=tuple(models_mod.CPnQuadraticModel(lambdas=_parse_lambdas(p)) for p in parts)
    ))


def models_verify(*, model: str):
    payload = _model_report(ser.model_from_json(_load_json(model)))
    if not payload["equal_augmented_actions"]:
        raise Exit(EXIT_CONTRADICTION, "augmented actions are not all equal", payload)
    return payload


# ---------------------------------------------------------------------------
# carriers


def _load_scenario(path, need_ladder=False, need_primes=False):
    table, ladder, primes = ser.scenario_from_json(_load_json(path))
    if need_ladder and ladder is None:
        raise Exit(EXIT_USAGE, "scenario has no 'ladder' entry")
    if need_primes and not primes:
        raise Exit(EXIT_USAGE, "scenario has no 'primes' entry")
    return table, ladder, primes


def _typed(value):
    """A witness element as typed JSON: a tuple as an array, a Fraction as
    "a/b", and an int or a string as itself."""
    if isinstance(value, tuple):
        return [_typed(v) for v in value]
    return ser.frac_to_str(value) if isinstance(value, Fraction) else value


def _verdict(verdict: carriers_mod.Verdict):
    """A carrier verdict's payload; a contradiction exits 2, `DEGENERATE` 3."""
    payload = {
        "status": verdict.status,
        "witness": _typed(verdict.witness),
        "details": list(verdict.details),
    }
    if verdict.status == "contradiction":
        raise Exit(EXIT_CONTRADICTION, "; ".join(verdict.details) or "contradiction", payload)
    if verdict == carriers_mod.DEGENERATE:
        raise Exit(EXIT_INCONCLUSIVE, "; ".join(verdict.details), payload)
    return payload


def carriers_assignments(*, scenario: str, k: int):
    table, ladder, _ = _load_scenario(scenario, need_ladder=True)
    # the search runs on any table and ladder; a listing is stated for the relation's
    carriers_mod.relation_preconditions(table, ladder)
    assignments = carriers_mod.admissible_assignments(table, ladder, k)
    return [{"k": a.k, "slots": [[oid, m] for oid, m in a.slots]} for a in assignments]


def carriers_verify(*, scenario: str):
    table, ladder, primes = _load_scenario(scenario, need_ladder=True, need_primes=True)
    return _verdict(carriers_mod.relation_verdict(table, ladder, primes))


def carriers_negmon(*, scenario: str):
    table, _, primes = _load_scenario(scenario, need_primes=True)
    return _verdict(carriers_mod.neg_monotone_obstruction(table, primes))


# ---------------------------------------------------------------------------
# the commands

# A parameter is the flag "--" + its name, with "_" read as "-" and a
# trailing "_" dropped ("class_" is "--class"), except where _FLAG names it.
_FLAG = {"lambda_": "--lam"}

GROUPS = {
    "ring": "Quantum ring computations.",
    "ladders": "Product decompositions and ladders.",
    "spectra": "Action, index, and augmented-action calculus.",
    "models": "Explicit Hamiltonian models.",
    "carriers": "Action-selector carrier simulation.",
}

COMMANDS = (
    ring_mul, ring_power, ring_basis,
    ladders_search, ladders_verify, ladders_build, ladders_case2,
    spectra_recap, spectra_iterate, spectra_augmented,
    models_cpn, models_product, models_verify,
    carriers_assignments, carriers_verify, carriers_negmon,
)


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit 64: argparse's own code, 2, means a
    contradiction here."""

    def error(self, message):
        raise Exit(EXIT_USAGE, f"{self.format_usage()}{self.prog}: error: {message}")

    def parse_known_args(self, args=None, namespace=None):
        # words left over are an error of the innermost parser, the command's,
        # so its own usage line is printed, not the top-level one
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _parser():
    """The parser, and the flags that take a value."""
    parser = _Parser(prog="qhcalc", allow_abbrev=False,
                     description="Exact quantum cohomology and action/index calculus.")
    groups = parser.add_subparsers(dest="group", required=True)
    subgroups = {name: groups.add_parser(name, help=text, description=text, allow_abbrev=False)
                 .add_subparsers(dest="command", required=True)
                 for name, text in GROUPS.items()}
    value_flags = set()
    for handler in COMMANDS:
        group, name = handler.__name__.split("_", 1)
        command = subgroups[group].add_parser(name, allow_abbrev=False)
        command.set_defaults(handler=handler)
        for param in inspect.signature(handler).parameters.values():
            flag = _FLAG.get(param.name, "--" + param.name.rstrip("_").replace("_", "-"))
            required = param.default is param.empty
            if param.annotation is bool:
                keywords = {"action": "store_true"}
            else:
                keywords = {"type": param.annotation, "required": required}
                value_flags.add(flag)
            command.add_argument(flag, dest=param.name,
                                 default=None if required else param.default, **keywords)
    return parser, value_flags


# Each option that takes a value is joined to it as "--opt=value", so a value
# may start with "-" (argparse reads "--lam -1/2" as two options).
def _join_values(argv, value_flags):
    words = iter(argv)
    for word in words:
        value = next(words, None) if word in value_flags else None
        yield word if value is None else f"{word}={value}"


# ---------------------------------------------------------------------------
# entry point


def _emit(invocation, result):
    print(json.dumps({"invocation": invocation, "result": result}, indent=2, sort_keys=True))


def main(argv=None):
    invocation = None
    try:
        parser, value_flags = _parser()
        argv = sys.argv[1:] if argv is None else argv
        params = vars(parser.parse_args(_join_values(argv, value_flags)))
        handler = params.pop("handler")
        # the command's name and every parameter, defaults included, under its
        # name without a trailing "_" ("class_" records as "class")
        invocation = {"cmd": f"{params.pop('group')} {params.pop('command')}"}
        invocation.update((name.rstrip("_"), value) for name, value in params.items())
        _emit(invocation, handler(**params))
    except Exit as exc:
        if exc.result is not None:
            _emit(invocation, exc.result)
        code, message = exc.code, exc.message
    except ladders_mod.InvalidDecompositionError as exc:
        code, message = EXIT_CONTRADICTION, f"invalid ladder: {exc}"
    except ValueError as exc:  # serialize.ParseError is a ValueError
        code, message = EXIT_USAGE, f"input error: {exc}"
    else:
        sys.exit(EXIT_OK)
    print(message, file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
