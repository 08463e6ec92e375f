import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qhcalc

# The directory that holds the imported qhcalc package: src/ for
# PYTHONPATH=src or an editable install. It is absolute, so the child finds
# the same package from any working directory.
PACKAGE_ROOT = str(Path(qhcalc.__file__).resolve().parents[1])


def run_cli(*args, cwd=None):
    pythonpath = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qhcalc.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "cp2.json").write_text(json.dumps({"kind": "cpn", "n": 2, "field": "Q"}))
    (tmp_path / "g24.json").write_text(
        json.dumps({"kind": "grassmannian", "k": 2, "N": 4, "field": "Q"})
    )
    return tmp_path


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["result"]


class TestRing:
    def test_mul_cp2(self, workdir):
        proc = run_cli("ring", "mul", "--ring", "cp2.json", "--a", "u", "--b", "u^2",
                       cwd=workdir)
        assert result_of(proc) == "q"

    def test_power_char_two(self, workdir):
        proc = run_cli("ring", "power", "--ring", "g24.json", "--class", "s[1]",
                       "--d", "3", "--field", "Fp:2", cwd=workdir)
        assert result_of(proc) == "0"

    def test_basis(self, workdir):
        proc = run_cli("ring", "basis", "--ring", "g24.json", "--degree", "4",
                       cwd=workdir)
        assert result_of(proc) == ["s[1,1]", "s[2]"]

    def test_basis_invocation_records_field(self, workdir):
        proc = run_cli("ring", "basis", "--ring", "g24.json", "--degree", "2",
                       "--field", "Fp:2", cwd=workdir)
        assert result_of(proc) == ["s[1]"]
        assert json.loads(proc.stdout)["invocation"]["field"] == "Fp:2"

    def test_missing_file_is_usage_error(self, workdir):
        proc = run_cli("ring", "mul", "--ring", "nope.json", "--a", "u", "--b", "u",
                       cwd=workdir)
        assert proc.returncode == 64, proc.stderr

    def test_bad_literal_is_usage_error(self, workdir):
        proc = run_cli("ring", "mul", "--ring", "cp2.json", "--a", "wat", "--b", "u",
                       cwd=workdir)
        assert proc.returncode == 64, proc.stderr

    def test_zero_denominator_literal_is_usage_error(self, workdir):
        proc = run_cli("ring", "mul", "--ring", "cp2.json", "--a", "1/0*u", "--b", "u",
                       cwd=workdir)
        assert proc.returncode == 64, proc.stderr
        assert "bad rational '1/0'" in proc.stderr

    def test_coefficient_outside_field_is_usage_error(self, workdir):
        proc = run_cli("ring", "mul", "--ring", "g24.json", "--a", "1/2*s[1]", "--b", "s[1]",
                       "--field", "Fp:2", cwd=workdir)
        assert proc.returncode == 64, proc.stderr
        assert "not in Fp:2" in proc.stderr

    def test_product_without_factors_is_usage_error(self, workdir):
        (workdir / "empty.json").write_text(json.dumps({"kind": "product", "factors": []}))
        proc = run_cli("ring", "mul", "--ring", "empty.json", "--a", "1", "--b", "1",
                       cwd=workdir)
        assert proc.returncode == 64, proc.stderr
        assert "no factors" in proc.stderr

    def test_product_factors_keep_their_field(self, workdir):
        cp1_f2 = {"kind": "cpn", "n": 1, "field": "Fp:2"}
        (workdir / "p.json").write_text(
            json.dumps({"kind": "product", "factors": [cp1_f2, cp1_f2]})
        )
        proc = run_cli("ring", "mul", "--ring", "p.json", "--a", "2*u ox 1", "--b", "u ox 1",
                       cwd=workdir)
        assert result_of(proc) == "0"

    def test_product_field_disagreeing_with_factor_is_usage_error(self, workdir):
        (workdir / "p.json").write_text(json.dumps({
            "kind": "product", "field": "Q",
            "factors": [{"kind": "cpn", "n": 1, "field": "Fp:2"}, {"kind": "cpn", "n": 1}],
        }))
        proc = run_cli("ring", "mul", "--ring", "p.json", "--a", "u ox 1", "--b", "u ox 1",
                       cwd=workdir)
        assert proc.returncode == 64, proc.stderr
        assert "product field Q disagrees with factor field Fp:2" in proc.stderr

    def test_product_factors_over_different_fields_is_usage_error(self, workdir):
        (workdir / "p.json").write_text(json.dumps({
            "kind": "product",
            "factors": [{"kind": "cpn", "n": 1, "field": "Fp:2"}, {"kind": "cpn", "n": 1}],
        }))
        proc = run_cli("ring", "mul", "--ring", "p.json", "--a", "u ox 1", "--b", "u ox 1",
                       cwd=workdir)
        assert proc.returncode == 64, proc.stderr
        assert "factors must share the ground field: Fp:2 vs Q" in proc.stderr


class TestLadders:
    def test_search_round_trip(self, workdir):
        proc = run_cli("ladders", "search", "--ring", "cp2.json", "--ell-max", "3",
                       "--nu-max", "1", "--out", "decs.json", cwd=workdir)
        decs = result_of(proc)
        assert {"u0": "1", "factors": ["u", "u", "u"], "nu": 1} in decs
        assert json.loads(proc.stdout)["invocation"]["out"] == "decs.json"
        (workdir / "dec.json").write_text(json.dumps(decs[0]))
        verify = run_cli("ladders", "verify", "--ring", "cp2.json", "--dec", "dec.json",
                         cwd=workdir)
        assert result_of(verify)["valid"] is True

    def test_build(self, workdir):
        (workdir / "dec.json").write_text(
            json.dumps({"u0": "1", "factors": ["u", "u", "u"], "nu": 1})
        )
        proc = run_cli("ladders", "build", "--ring", "cp2.json", "--dec", "dec.json",
                       cwd=workdir)
        assert result_of(proc)["hom_degrees"] == [4, 2, 0]

    def test_case2(self, workdir):
        proc = run_cli("ladders", "case2", "--ring", "g24.json", "--orbits", "6",
                       cwd=workdir)
        assert result_of(proc) == {"d": 25, "ell": 4}

    def test_case2_vanishing_power_invocation_records_class(self, workdir):
        (workdir / "g24f2.json").write_text(
            json.dumps({"kind": "grassmannian", "k": 2, "N": 4, "field": "Fp:2"})
        )
        proc = run_cli("ladders", "case2", "--ring", "g24f2.json", "--class", "s[1]",
                       "--orbits", "6", cwd=workdir)
        assert proc.returncode == 2, proc.stderr
        envelope = json.loads(proc.stdout)
        assert envelope["result"]["vanishing_exponent"] == 3
        assert envelope["invocation"]["class"] == "s[1]"

    def test_invalid_dec_exit_two(self, workdir):
        (workdir / "dec.json").write_text(
            json.dumps({"u0": "1", "factors": ["u"], "nu": 1})
        )
        for command in ("verify", "build"):
            proc = run_cli("ladders", command, "--ring", "cp2.json", "--dec", "dec.json",
                           cwd=workdir)
            assert proc.returncode == 2, (command, proc.stderr)
            assert "product does not equal q^nu * u0" in proc.stderr, command


class TestSpectraAndModels:
    def test_models_cpn_verify(self, workdir):
        proc = run_cli("models", "cpn", "--lambdas", "0,1", "--verify", cwd=workdir)
        result = result_of(proc)
        assert result["common_value"] == "1/2"
        assert result["equal_augmented_actions"] is True
        assert json.loads(proc.stdout)["invocation"]["verify"] is True

    def test_spectra_round_trip(self, workdir):
        orbit = {"id": "x0", "m": 0, "action": "1/2", "delta": "-2", "cz": None}
        (workdir / "orbit.json").write_text(json.dumps(orbit))
        proc = run_cli("spectra", "recap", "--orbit", "orbit.json", "--m", "1",
                       "--chern", "2", "--lam", "1/2", cwd=workdir)
        recapped = result_of(proc)
        assert recapped["action"] == "-1/2"
        assert recapped["delta"] == "-6"
        (workdir / "orbit2.json").write_text(json.dumps(recapped))
        aug1 = run_cli("spectra", "augmented", "--orbit", "orbit.json",
                       "--chern", "2", "--lam", "1/2", cwd=workdir)
        aug2 = run_cli("spectra", "augmented", "--orbit", "orbit2.json",
                       "--chern", "2", "--lam", "1/2", cwd=workdir)
        assert result_of(aug1) == result_of(aug2) == "1"

    def test_spectra_iterate(self, workdir):
        orbit = {"id": "x0", "m": 0, "action": "1/2", "delta": "2", "cz": None}
        (workdir / "orbit.json").write_text(json.dumps(orbit))
        proc = run_cli("spectra", "iterate", "--orbit", "orbit.json", "--k", "5",
                       cwd=workdir)
        assert result_of(proc)["action"] == "5/2"

    def test_models_verify_nested_product(self, workdir):
        cp1 = {"kind": "cpn", "lambdas": ["0", "1/3"]}
        nested = {"kind": "product", "factors": [{"kind": "product", "factors": [cp1, cp1]}, cp1]}
        (workdir / "model.json").write_text(json.dumps(nested))
        proc = run_cli("models", "verify", "--model", "model.json", cwd=workdir)
        flat = run_cli("models", "product", "--factors", "0,1/3;0,1/3;0,1/3", cwd=workdir)
        assert result_of(proc) == result_of(flat)
        orbits = result_of(proc)["orbits"]
        assert [o["cz"] for o in orbits] == [-3, -1, -1, 1, -1, 1, 1, 3]
        assert result_of(proc)["equal_augmented_actions"] is True

    def test_deterministic_output(self, workdir):
        a = run_cli("models", "cpn", "--lambdas", "0,1,3", cwd=workdir)
        b = run_cli("models", "cpn", "--lambdas", "0,1,3", cwd=workdir)
        result_of(a)
        result_of(b)
        assert a.stdout == b.stdout


def scenario_payload(perturb=None):
    orbits = [
        {"id": "x0", "action": "0", "delta": "-1/4"},
        {"id": "x1", "action": "1/8", "delta": "1/4"},
    ]
    if perturb:
        orbits[0]["action"] = perturb
    return {
        "monotone": {"N": 2, "lambda": "1/2"},
        "n": 1,
        "orbits": orbits,
        "ladder": {
            "ring": {"kind": "cpn", "n": 1, "field": "Q"},
            "decomposition": {"u0": "1", "factors": ["u", "u"], "nu": 1},
        },
        "primes": [2, 3, 5, 7, 11, 13, 17, 19, 23],
    }


class TestCarriers:
    def test_verify_consistent(self, workdir):
        (workdir / "s.json").write_text(json.dumps(scenario_payload()))
        proc = run_cli("carriers", "verify", "--scenario", "s.json", cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["status"] == "consistent"

    def test_verify_contradiction_exit_two(self, workdir):
        (workdir / "s.json").write_text(json.dumps(scenario_payload(perturb="3/16")))
        proc = run_cli("carriers", "verify", "--scenario", "s.json", cwd=workdir)
        assert proc.returncode == 2, proc.stderr

    @pytest.mark.parametrize("field, value, named", [
        ("monotone", {"N": 1, "lambda": "1"}, "N_chern"),
        ("monotone", {"N": 2, "lambda": "1/4"}, "monotonicity"),
        ("n", 3, "complex_dim"),
    ])
    def test_ladder_ring_must_match_table(self, workdir, field, value, named):
        payload = scenario_payload()
        payload[field] = value
        (workdir / "s.json").write_text(json.dumps(payload))
        proc = run_cli("carriers", "verify", "--scenario", "s.json", cwd=workdir)
        assert proc.returncode == 64, proc.stderr
        assert named in proc.stderr

    def test_assignments(self, workdir):
        (workdir / "s.json").write_text(json.dumps(scenario_payload()))
        proc = run_cli("carriers", "assignments", "--scenario", "s.json", "--k", "3",
                       cwd=workdir)
        assignments = result_of(proc)
        assert assignments
        assert all(len(a["slots"]) == 2 for a in assignments)

    def test_negmon_contradiction(self, workdir):
        payload = {
            "monotone": {"N": 1, "lambda": "-1"},
            "n": 1,
            "orbits": [{"id": "x", "action": "1/3", "delta": "1/2"}],
            "primes": [2, 3, 5, 7, 11, 13],
        }
        (workdir / "s.json").write_text(json.dumps(payload))
        proc = run_cli("carriers", "negmon", "--scenario", "s.json", cwd=workdir)
        assert proc.returncode == 2, proc.stderr

    def test_negmon_unsorted_primes_is_usage_error(self, workdir):
        payload = {
            "monotone": {"N": 1, "lambda": "-1"},
            "n": 1,
            "orbits": [{"id": "x", "action": "-6", "delta": "-3/4"}],
            "primes": [3, 2, 5, 7],
        }
        (workdir / "s.json").write_text(json.dumps(payload))
        proc = run_cli("carriers", "negmon", "--scenario", "s.json", cwd=workdir)
        assert proc.returncode == 64, proc.stderr
        assert "primes must be strictly increasing" in proc.stderr

    def test_negmon_degenerate_inconclusive(self, workdir):
        payload = {
            "monotone": {"N": 1, "lambda": "-1"},
            "n": 1,
            "orbits": [{"id": "x", "action": "1/3", "delta": "0"}],
            "primes": [2, 3, 5, 7],
        }
        (workdir / "s.json").write_text(json.dumps(payload))
        proc = run_cli("carriers", "negmon", "--scenario", "s.json", cwd=workdir)
        assert proc.returncode == 3, proc.stderr


_CPN = {"kind": "cpn", "n": 1, "field": "Q"}
_SCENARIO = ["carriers", "verify", "--scenario", "in.json"]
_MODEL = ["models", "verify", "--model", "in.json"]


@pytest.mark.parametrize("record, argv, cause", [
    ({**_CPN, "n": None}, ["ring", "basis", "--ring", "in.json", "--degree", "0"],
     "malformed ring spec"),
    ({"kind": "product", "factors": 5}, ["ring", "basis", "--ring", "in.json", "--degree", "0"],
     "malformed ring spec"),
    ({**scenario_payload(), "primes": 5}, _SCENARIO, "malformed scenario"),
    ({**scenario_payload(), "ladder": 5}, _SCENARIO, "malformed scenario ladder"),
    ({**scenario_payload(), "monotone": None}, _SCENARIO, "malformed monotone record"),
    ({**scenario_payload(), "n": None}, _SCENARIO, "malformed scenario"),
    ({**scenario_payload(), "primes": [2.5, 3]}, _SCENARIO, "prime 2.5 is not an integer"),
    ({"u0": "1", "factors": 5, "nu": 1},
     ["ladders", "verify", "--ring", "cp2.json", "--dec", "in.json"], "malformed decomposition"),
    ({"kind": "cpn", "lambdas": 5}, _MODEL, "malformed model spec"),
    ([{"kind": "cpn", "lambdas": ["0", "1"]}], _MODEL, "malformed model spec"),
    ([{"id": "x0", "action": "1/2", "delta": "2"}],
     ["spectra", "iterate", "--orbit", "in.json", "--k", "2"], "malformed orbit record"),
], ids=["ring n null", "product factors 5", "scenario primes 5", "scenario ladder 5",
        "scenario monotone null", "scenario n null", "scenario prime 2.5",
        "decomposition factors 5", "model lambdas 5", "model list", "orbit list"])
def test_malformed_json_value_is_usage_error(workdir, record, argv, cause):
    (workdir / "in.json").write_text(json.dumps(record))
    proc = run_cli(*argv, cwd=workdir)
    assert proc.returncode == 64, proc.stderr
    assert cause in proc.stderr
    assert "Traceback" not in proc.stderr


_ORBIT = {"id": "x0", "action": "1/2", "delta": "2"}
_RING_BASIS = ["ring", "basis", "--ring", "in.json", "--degree", "4"]
_DEC_VERIFY = ["ladders", "verify", "--ring", "cp2.json", "--dec", "in.json"]
_ITERATE = ["spectra", "iterate", "--orbit", "in.json", "--k", "2"]


def _scenario_with(path, value):
    """scenario_payload() with the value at the key path replaced."""
    payload = scenario_payload()
    *parents, key = path
    record = payload
    for p in parents:
        record = record[p]
    record[key] = value
    return payload


@pytest.mark.parametrize("record, argv, cause", [
    ({**_CPN, "n": 2.5}, _RING_BASIS, "malformed ring spec: n 2.5 is not an integer"),
    ({**_CPN, "n": True}, _RING_BASIS, "malformed ring spec: n True is not an integer"),
    ({**_CPN, "n": "2"}, _RING_BASIS, "malformed ring spec: n '2' is not an integer"),
    ({"kind": "grassmannian", "k": 2.0, "N": 4}, _RING_BASIS,
     "malformed ring spec: k 2.0 is not an integer"),
    ({"kind": "grassmannian", "k": 2, "N": "4"}, _RING_BASIS,
     "malformed ring spec: N '4' is not an integer"),
    ({"kind": "product", "factors": [_CPN, {**_CPN, "n": 1.5}]}, _RING_BASIS,
     "malformed ring spec: n 1.5 is not an integer"),
    ({"u0": "1", "factors": ["u"] * 3, "nu": 1.9}, _DEC_VERIFY,
     "malformed decomposition: nu 1.9 is not an integer"),
    ({"u0": "1", "factors": ["u"] * 3, "nu": True}, _DEC_VERIFY,
     "malformed decomposition: nu True is not an integer"),
    ({**_ORBIT, "m": 1.5}, _ITERATE, "malformed orbit record: m 1.5 is not an integer"),
    ({**_ORBIT, "cz": "1"}, _ITERATE, "malformed orbit record: cz '1' is not an integer"),
    (_scenario_with(["monotone", "N"], True), _SCENARIO,
     "malformed monotone record: N True is not an integer"),
    (_scenario_with(["n"], 1.0), _SCENARIO, "malformed scenario: n 1.0 is not an integer"),
    (_scenario_with(["orbits", 0, "m"], False), _SCENARIO,
     "malformed orbit record: m False is not an integer"),
    (_scenario_with(["ladder", "ring", "n"], 1.0), _SCENARIO,
     "malformed ring spec: n 1.0 is not an integer"),
    (_scenario_with(["ladder", "decomposition", "nu"], 1.5), _SCENARIO,
     "malformed decomposition: nu 1.5 is not an integer"),
    (_scenario_with(["primes"], [2, True, 5]), _SCENARIO,
     "malformed scenario: prime True is not an integer"),
], ids=["ring n 2.5", "ring n true", "ring n string", "grassmannian k 2.0",
        "grassmannian N string", "product factor n 1.5", "decomposition nu 1.9",
        "decomposition nu true", "orbit m 1.5", "orbit cz string", "monotone N true",
        "table n 1.0", "table orbit m false", "scenario ring n 1.0",
        "scenario decomposition nu 1.5", "scenario prime true"])
def test_integer_field_must_be_json_integer(workdir, record, argv, cause):
    (workdir / "in.json").write_text(json.dumps(record))
    proc = run_cli(*argv, cwd=workdir)
    assert proc.returncode == 64, proc.stderr
    assert cause in proc.stderr
    assert "Traceback" not in proc.stderr


_CP1_FILE = ["--ring", "cp1.json"]


@pytest.mark.parametrize("record, argv, cause", [
    ({**_ORBIT, "weakly_nondegenerate": "false"}, ["spectra", "iterate", "--orbit", "in.json",
                                                   "--k", "1"],
     "malformed orbit record: weakly_nondegenerate 'false' is not a bool"),
    ({**_ORBIT, "weakly_nondegenerate": None}, _ITERATE,
     "malformed orbit record: weakly_nondegenerate None is not a bool"),
    ({**_ORBIT, "weakly_nondegenerate": 1}, _ITERATE,
     "malformed orbit record: weakly_nondegenerate 1 is not a bool"),
    (_scenario_with(["orbits", 0, "weakly_nondegenerate"], "true"), _SCENARIO,
     "malformed orbit record: weakly_nondegenerate 'true' is not a bool"),
    (json.dumps(_ORBIT), _ITERATE, "malformed orbit record"),
    (json.dumps({"kind": "cpn", "lambdas": ["0", "1"]}), _MODEL, "malformed model spec"),
    ({"kind": "product", "factors": [json.dumps({"kind": "cpn", "lambdas": ["0", "1"]})]},
     _MODEL, "malformed model spec"),
    ({"kind": "product", "factors": [json.dumps(_CPN)]}, _RING_BASIS, "malformed ring spec"),
    (_scenario_with(["ladder", "ring"], json.dumps(_CPN)), _SCENARIO, "malformed ring spec"),
    (_scenario_with(["ladder", "decomposition"],
                    json.dumps({"u0": "1", "factors": ["u", "u"], "nu": 1})),
     _SCENARIO, "malformed decomposition"),
    (_scenario_with(["orbits", 0], json.dumps(scenario_payload()["orbits"][0])), _SCENARIO,
     "malformed orbit record"),
    ({"u0": "1", "factors": "uu", "nu": 1},
     ["ladders", "verify", *_CP1_FILE, "--dec", "in.json"],
     "malformed decomposition: factors 'uu' is not an array"),
    ({"kind": "cpn", "lambdas": "01"}, _MODEL,
     "malformed model spec: lambdas '01' is not an array"),
    ({"kind": "product", "factors": "12"}, _MODEL,
     "malformed model spec: factors '12' is not an array"),
    ({"kind": "product", "factors": "12"}, _RING_BASIS,
     "malformed ring spec: factors '12' is not an array"),
    (_scenario_with(["orbits"], "12"), _SCENARIO,
     "malformed scenario: orbits '12' is not an array"),
    (_scenario_with(["primes"], "2357"), _SCENARIO,
     "malformed scenario: primes '2357' is not an array"),
], ids=["orbit flag string, k 1", "orbit flag null", "orbit flag 1", "scenario orbit flag string",
        "orbit file string", "model file string", "model factor string", "ring factor string",
        "scenario ring string", "scenario decomposition string", "scenario orbit string",
        "decomposition factors string", "model lambdas string", "model factors string",
        "ring factors string", "scenario orbits string", "scenario primes string"])
def test_string_is_not_a_record_array_or_bool(workdir, record, argv, cause):
    (workdir / "cp1.json").write_text(json.dumps(_CPN))
    (workdir / "in.json").write_text(json.dumps(record))
    proc = run_cli(*argv, cwd=workdir)
    assert proc.returncode == 64, proc.stderr
    assert cause in proc.stderr
    assert "Traceback" not in proc.stderr
