import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qhcalc
from qhcalc import carriers, cli

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

    def test_three_factor_product_literals(self, workdir):
        cp1 = {"kind": "cpn", "n": 1}
        (workdir / "p.json").write_text(
            json.dumps({"kind": "product", "factors": [cp1, cp1, cp1]})
        )
        basis = run_cli("ring", "basis", "--ring", "p.json", "--degree", "2", cwd=workdir)
        assert result_of(basis) == ["1 ox 1 ox u", "1 ox u ox 1", "u ox 1 ox 1"]
        proc = run_cli("ring", "mul", "--ring", "p.json", "--a", "u ox 1 ox 1",
                       "--b", "1 ox u ox 1", cwd=workdir)
        assert result_of(proc) == "u ox u ox 1"
        proc = run_cli("ring", "mul", "--ring", "p.json", "--a", "u ox 1",
                       "--b", "1 ox u ox 1", cwd=workdir)
        assert proc.returncode == 64, proc.stderr
        assert "a label of 3 factors needs 2 'ox': 'u ox 1'" in proc.stderr

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

    @pytest.mark.parametrize("ring, literal", [("cp2.json", "u -"), ("g24.json", "s[1] +")])
    def test_dangling_sign_is_usage_error(self, workdir, ring, literal):
        proc = run_cli("ring", "mul", "--ring", ring, "--a", literal, "--b", "1", cwd=workdir)
        assert proc.returncode == 64, proc.stdout
        assert proc.stderr == f"input error: sign {literal[-1]!r} without a term in {literal!r}\n"

    @pytest.mark.parametrize("lambda0", ["2", 2])
    def test_product_lambda0_is_usage_error(self, workdir, lambda0):
        """A product's lambda0 follows from its factors'; a record naming one
        is refused, not read past."""
        (workdir / "p.json").write_text(json.dumps({
            "kind": "product", "factors": [{"kind": "cpn", "n": 1}] * 2, "lambda0": lambda0,
        }))
        proc = run_cli("ring", "basis", "--ring", "p.json", "--degree", "2", cwd=workdir)
        assert proc.returncode == 64, proc.stdout
        assert "'lambda0'" in proc.stderr


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

    def test_search_out_to_missing_directory_is_usage_error(self, workdir):
        proc = run_cli("ladders", "search", "--ring", "cp2.json", "--ell-max", "3",
                       "--out", "missing/decs.json", cwd=workdir)
        assert proc.returncode == 64, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("cannot write 'missing/decs.json': ")
        assert "Traceback" not in proc.stderr

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

    def test_case2_ladder_of_length_zero_is_usage_error(self, workdir):
        """|s[4,3]| = 14 > 2N = 12 in G(2,6): no Case II ladder, exit 64."""
        (workdir / "g26.json").write_text(
            json.dumps({"kind": "grassmannian", "k": 2, "N": 6, "field": "Q"})
        )
        proc = run_cli("ladders", "case2", "--ring", "g26.json", "--class", "s[4,3]",
                       "--orbits", "6", cwd=workdir)
        assert proc.returncode == 64, proc.stdout
        assert proc.stdout == ""
        assert proc.stderr == (
            "input error: need 0 < |u| < 2n and |u| <= 2N, got |u| = 14\n"
        )

    def test_search_nu_max_below_one_is_usage_error(self, workdir):
        proc = run_cli("ladders", "search", "--ring", "cp2.json", "--ell-max", "3",
                       "--nu-max", "0", cwd=workdir)
        assert proc.returncode == 64, proc.stdout
        assert proc.stdout == ""
        assert proc.stderr == "input error: nu_max must be >= 1\n"

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


_NEGMON = {
    "monotone": {"N": 1, "lambda": "-1"},
    "n": 1,
    "orbits": [{"id": "x", "action": "1/3", "delta": "1/2"}],
    "primes": [2, 3, 5, 7, 11, 13],
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

    def test_internal_key_error_is_not_an_input_error(self, workdir, monkeypatch):
        """Exit 64 is for usage errors only: a KeyError raised inside a
        verdict is a fault of the program, so it leaves main unchanged (a
        traceback and exit 1), not as an input error."""
        def broken(*args):
            raise KeyError("x9")

        monkeypatch.setattr(carriers, "relation_verdict", broken)
        (workdir / "s.json").write_text(json.dumps(scenario_payload()))
        with pytest.raises(KeyError, match="x9"):
            cli.main(["carriers", "verify", "--scenario", str(workdir / "s.json")])

    @pytest.mark.parametrize("payload, command, witness", [
        ({**scenario_payload(perturb="1/16"), "primes": [2, 3, 5, 7]}, "verify",
         ["x0", "x1", "1/16"]),
        (scenario_payload(perturb="3/16"), "verify",
         ["no admissible assignment", [2, 3, 5, 7, 11, 13, 17, 19, 23]]),
        (_NEGMON, "negmon", [5, 1]),
    ], ids=["relation pair", "no admissible assignment", "negmon"])
    def test_witness_is_typed_json(self, workdir, payload, command, witness):
        """A witness prints a tuple as an array, an int as an integer and a
        Fraction as an "a/b" string."""
        (workdir / "s.json").write_text(json.dumps(payload))
        proc = run_cli("carriers", command, "--scenario", "s.json", cwd=workdir)
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout)["result"]["witness"] == witness

    @pytest.mark.parametrize("field, value, named", [
        ("monotone", {"N": 1, "lambda": "1"}, "N_chern"),
        ("monotone", {"N": 2, "lambda": "1/4"}, "monotonicity"),
        ("n", 3, "complex_dim"),
    ])
    def test_ladder_ring_must_match_table(self, workdir, field, value, named):
        """The relation's precondition, for the verdict and for the listing."""
        payload = scenario_payload()
        payload[field] = value
        (workdir / "s.json").write_text(json.dumps(payload))
        for argv in (["verify"], ["assignments", "--k", "3"]):
            proc = run_cli("carriers", *argv, "--scenario", "s.json", cwd=workdir)
            assert proc.returncode == 64, (argv, proc.stderr)
            assert proc.stdout == ""
            assert proc.stderr.startswith(f"input error: ladder ring has {named} "), argv

    def test_invalid_ladder_of_another_manifold_exits_2(self, workdir):
        """The scenario's ladder is built before the relation's precondition
        compares its ring with the table."""
        payload = scenario_payload()
        payload["ladder"]["ring"]["n"] = 2
        (workdir / "s.json").write_text(json.dumps(payload))
        proc = run_cli("carriers", "verify", "--scenario", "s.json", cwd=workdir)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("invalid ladder: product does not equal q^nu * u0")

    def test_negmon_does_not_compare_the_ladder(self, workdir):
        """The negative-monotone obstruction reads no ladder, so a scenario's
        ladder need not match its table there."""
        payload = {**_NEGMON, "ladder": scenario_payload()["ladder"]}
        (workdir / "s.json").write_text(json.dumps(payload))
        proc = run_cli("carriers", "negmon", "--scenario", "s.json", cwd=workdir)
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout)["result"]["status"] == "contradiction"

    def test_verify_negative_monotone_is_usage_error(self, workdir):
        payload = scenario_payload()
        payload["monotone"] = {"N": 2, "lambda": "-1/2"}
        payload["ladder"]["ring"]["lambda0"] = "-1"
        (workdir / "s.json").write_text(json.dumps(payload))
        proc = run_cli("carriers", "verify", "--scenario", "s.json", cwd=workdir)
        assert proc.returncode == 64, proc.stdout
        assert proc.stdout == ""
        assert proc.stderr == "input error: positive monotone data required\n"

    def test_assignments(self, workdir):
        (workdir / "s.json").write_text(json.dumps(scenario_payload()))
        proc = run_cli("carriers", "assignments", "--scenario", "s.json", "--k", "3",
                       cwd=workdir)
        assignments = result_of(proc)
        assert assignments
        assert all(len(a["slots"]) == 2 for a in assignments)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_assignments_negative_monotone_is_usage_error(self, workdir, k):
        """The listing, like the relation verdict it feeds, is stated for
        positive monotone data: an empty search at lambda < 0 is no answer."""
        payload = scenario_payload()
        payload["monotone"] = {"N": 2, "lambda": "-1/2"}
        payload["ladder"]["ring"]["lambda0"] = "-1"
        (workdir / "s.json").write_text(json.dumps(payload))
        proc = run_cli("carriers", "assignments", "--scenario", "s.json", "--k", str(k),
                       cwd=workdir)
        assert proc.returncode == 64, proc.stdout
        assert proc.stdout == ""
        assert proc.stderr == "input error: positive monotone data required\n"

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

    @pytest.mark.parametrize("primes", [[0, 3, 5, 7, 11, 13], [-7, 3, 5]])
    def test_negmon_iteration_below_one_is_usage_error(self, workdir, primes):
        payload = {
            "monotone": {"N": 1, "lambda": "-1"},
            "n": 1,
            "orbits": [{"id": "x", "action": "1/3", "delta": "1/2",
                        "weakly_nondegenerate": True}],
            "primes": primes,
        }
        (workdir / "s.json").write_text(json.dumps(payload))
        proc = run_cli("carriers", "negmon", "--scenario", "s.json", cwd=workdir)
        assert proc.returncode == 64, proc.stderr
        assert "iteration order must be >= 1" in proc.stderr

    @pytest.mark.parametrize("n", [0, -1])
    def test_negmon_dimension_below_one_is_usage_error(self, workdir, n):
        payload = {
            "monotone": {"N": 1, "lambda": "-1"},
            "n": n,
            "orbits": [{"id": "x", "action": "1/3", "delta": "1/2"}],
            "primes": [2, 3, 5, 7, 11, 13],
        }
        (workdir / "s.json").write_text(json.dumps(payload))
        proc = run_cli("carriers", "negmon", "--scenario", "s.json", cwd=workdir)
        assert proc.returncode == 64, proc.stderr
        assert f"complex dimension n must be >= 1, got n = {n}" in proc.stderr

    def test_ladder_file_name_is_not_a_ladder(self, workdir):
        """A scenario's ladder is an inline record; a string naming a valid
        ladder file is not read in its place."""
        payload = scenario_payload()
        (workdir / "ladder.json").write_text(json.dumps(payload["ladder"]))
        (workdir / "s.json").write_text(json.dumps({**payload, "ladder": "ladder.json"}))
        proc = run_cli("carriers", "verify", "--scenario", "s.json", cwd=workdir)
        assert proc.returncode == 64, proc.stderr
        assert "malformed scenario ladder" in proc.stderr

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


@pytest.mark.parametrize("argv, code, invocation", [
    (["ring", "mul", "--ring", "cp2.json", "--a", "u", "--b", "u^2"], 0,
     {"cmd": "ring mul", "ring": "cp2.json", "a": "u", "b": "u^2", "field": None}),
    (["ring", "power", "--ring", "g24.json", "--class", "s[1]", "--d", "3", "--field", "Fp:2"],
     0, {"cmd": "ring power", "ring": "g24.json", "class": "s[1]", "d": 3, "field": "Fp:2"}),
    (["ring", "basis", "--ring", "g24.json", "--degree", "2"], 0,
     {"cmd": "ring basis", "ring": "g24.json", "degree": 2, "field": None}),
    (["ladders", "search", "--ring", "cp2.json", "--ell-max", "3"], 0,
     {"cmd": "ladders search", "ring": "cp2.json", "ell_max": 3, "nu_max": 2, "out": None}),
    (["ladders", "verify", "--ring", "cp2.json", "--dec", "dec.json"], 0,
     {"cmd": "ladders verify", "ring": "cp2.json", "dec": "dec.json"}),
    (["ladders", "build", "--ring", "cp2.json", "--dec", "dec.json"], 0,
     {"cmd": "ladders build", "ring": "cp2.json", "dec": "dec.json"}),
    (["ladders", "case2", "--ring", "g24.json", "--orbits", "6"], 0,
     {"cmd": "ladders case2", "ring": "g24.json", "class": None, "orbits": 6}),
    (["ladders", "case2", "--ring", "g24f2.json", "--class", "s[1]", "--orbits", "6"], 2,
     {"cmd": "ladders case2", "ring": "g24f2.json", "class": "s[1]", "orbits": 6}),
    (["spectra", "recap", "--orbit", "orbit.json", "--m", "-1", "--chern", "2", "--lam", "1/2"],
     0, {"cmd": "spectra recap", "orbit": "orbit.json", "m": -1, "chern": 2, "lambda": "1/2"}),
    (["spectra", "iterate", "--orbit", "orbit.json", "--k", "5"], 0,
     {"cmd": "spectra iterate", "orbit": "orbit.json", "k": 5}),
    (["spectra", "augmented", "--orbit", "orbit.json", "--chern", "2", "--lam", "1/2"], 0,
     {"cmd": "spectra augmented", "orbit": "orbit.json", "chern": 2, "lambda": "1/2"}),
    (["models", "cpn", "--lambdas", "0,1,3"], 0,
     {"cmd": "models cpn", "lambdas": "0,1,3", "verify": False}),
    (["models", "product", "--factors", "0,1;0,1"], 0,
     {"cmd": "models product", "factors": "0,1;0,1"}),
    (["models", "verify", "--model", "model.json"], 0,
     {"cmd": "models verify", "model": "model.json"}),
    (["carriers", "assignments", "--scenario", "s.json", "--k", "3"], 0,
     {"cmd": "carriers assignments", "scenario": "s.json", "k": 3}),
    (["carriers", "verify", "--scenario", "s.json"], 0,
     {"cmd": "carriers verify", "scenario": "s.json"}),
    (["carriers", "negmon", "--scenario", "neg.json"], 2,
     {"cmd": "carriers negmon", "scenario": "neg.json"}),
], ids=["ring mul", "ring power", "ring basis", "ladders search", "ladders verify",
        "ladders build", "ladders case2", "ladders case2 vanishing power", "spectra recap",
        "spectra iterate", "spectra augmented", "models cpn", "models product", "models verify",
        "carriers assignments", "carriers verify", "carriers negmon"])
def test_invocation_records_every_parameter(workdir, argv, code, invocation):
    (workdir / "g24f2.json").write_text(
        json.dumps({"kind": "grassmannian", "k": 2, "N": 4, "field": "Fp:2"})
    )
    (workdir / "dec.json").write_text(json.dumps({"u0": "1", "factors": ["u"] * 3, "nu": 1}))
    (workdir / "orbit.json").write_text(
        json.dumps({"id": "x0", "action": "1/2", "delta": "-2"})
    )
    (workdir / "model.json").write_text(json.dumps({"kind": "cpn", "lambdas": ["0", "1/3"]}))
    (workdir / "s.json").write_text(json.dumps(scenario_payload()))
    (workdir / "neg.json").write_text(json.dumps(_NEGMON))
    proc = run_cli(*argv, cwd=workdir)
    assert proc.returncode == code, proc.stderr
    assert json.loads(proc.stdout)["invocation"] == invocation


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
    ({**scenario_payload(), "orbits": [{"id": 5, "action": "0", "delta": "-1/4"},
                                       {"id": "x1", "action": "1/8", "delta": "1/4"}]},
     _SCENARIO, "malformed orbit record: id 5 is not a string"),
    ({"id": None, "action": "1/2", "delta": "2"},
     ["spectra", "iterate", "--orbit", "in.json", "--k", "2"],
     "malformed orbit record: id None is not a string"),
    ({"id": ["x"], "action": "1/2", "delta": "2"},
     ["spectra", "iterate", "--orbit", "in.json", "--k", "2"],
     "malformed orbit record: id ['x'] is not a string"),
    ({"id": "x0", "action": 0.1, "delta": "2"},
     ["spectra", "iterate", "--orbit", "in.json", "--k", "2"],
     "malformed orbit record: rational 0.1 is not a string"),
    ({**scenario_payload(), "orbits": [{"id": "x0", "action": "0", "delta": -0.25},
                                       {"id": "x1", "action": "1/8",
                                        "delta": 0.3333333333333333}]},
     _SCENARIO, "malformed orbit record: rational -0.25 is not a string"),
    ({**scenario_payload(), "monotone": {"N": 2, "lambda": 0.5}}, _SCENARIO,
     "malformed monotone record: rational 0.5 is not a string"),
    ({"kind": "cpn", "lambdas": [0, 0.1]}, _MODEL,
     "malformed model spec: rational 0 is not a string"),
    ({**_CPN, "lambda0": 1}, ["ring", "basis", "--ring", "in.json", "--degree", "0"],
     "malformed ring spec: rational 1 is not a string"),
    ({**_CPN, "field": "Fp:0"}, ["ring", "basis", "--ring", "in.json", "--degree", "0"],
     "unknown field spec 'Fp:0'"),
], ids=["ring n null", "product factors 5", "scenario primes 5", "scenario ladder 5",
        "scenario monotone null", "scenario n null", "scenario prime 2.5",
        "decomposition factors 5", "model lambdas 5", "model list", "orbit list",
        "scenario orbit id 5", "orbit id null", "orbit id array", "orbit action 0.1",
        "scenario orbit delta float", "monotone lambda 0.5", "model lambdas numbers",
        "ring lambda0 1", "ring field Fp:0"])
def test_malformed_json_value_is_usage_error(workdir, record, argv, cause):
    (workdir / "in.json").write_text(json.dumps(record))
    proc = run_cli(*argv, cwd=workdir)
    assert proc.returncode == 64, proc.stderr
    assert cause in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, cause", [
    (["ladders", "case2", "--ring", "g24.json", "--class", "", "--orbits", "3"],
     "empty class literal"),
    (["ring", "basis", "--ring", "g24.json", "--degree", "2", "--field", ""],
     "unknown field spec ''"),
    (["ladders", "search", "--ring", "g24.json", "--ell-max", "2", "--out", ""],
     "cannot write '': "),
], ids=["case2 class", "field", "search out"])
def test_empty_option_value_is_not_absent(workdir, argv, cause):
    """An empty value is read, not taken for the option's default: it is a
    usage error rather than sigma_1, the ring's own field or no file."""
    proc = run_cli(*argv, cwd=workdir)
    assert proc.returncode == 64, proc.stderr
    assert cause in proc.stderr
    assert proc.stdout == ""


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


@pytest.mark.parametrize("record, argv, cause", [
    ({**_CPN, "feild": "Fp:2"}, ["ring", "mul", "--ring", "in.json", "--a", "2*u", "--b", "u"],
     "ring spec has unknown key 'feild'"),
    ({"kind": "grassmannian", "k": 2, "N": 4, "lamda0": "2"}, _RING_BASIS,
     "ring spec has unknown key 'lamda0'"),
    ({"kind": "product", "factors": [_CPN, _CPN], "feild": "Fp:2"}, _RING_BASIS,
     "ring spec has unknown key 'feild'"),
    ({"u0": "1", "factors": ["u", "u"], "nu": 1, "n": 1},
     ["ladders", "verify", *_CP1_FILE, "--dec", "in.json"],
     "decomposition has unknown key 'n'"),
    ({**_ORBIT, "weakly_nondegnerate": True},
     ["spectra", "iterate", "--orbit", "in.json", "--k", "1"],
     "orbit record has unknown key 'weakly_nondegnerate'"),
    (_scenario_with(["monotone", "lam"], "1/2"), _SCENARIO,
     "monotone record has unknown key 'lam'"),
    ({"kind": "cpn", "lambdas": ["0", "1"], "n": 1}, _MODEL, "model spec has unknown key 'n'"),
    ({"kind": "product", "factors": [{"kind": "cpn", "lambdas": ["0", "1"]}], "field": "Q"},
     _MODEL, "model spec has unknown key 'field'"),
    ({**scenario_payload(), "prime": [2, 3]}, _SCENARIO, "scenario has unknown key 'prime'"),
    (_scenario_with(["ladder", "primes"], [2, 3]), _SCENARIO,
     "scenario ladder has unknown key 'primes'"),
], ids=["cpn ring", "grassmannian ring", "product ring", "decomposition", "orbit", "monotone",
        "cpn model", "product model", "scenario", "scenario ladder"])
def test_unknown_key_is_usage_error(workdir, record, argv, cause):
    """A misspelt key is not dropped for its default: the cpn ring's 'feild'
    would compute 2*u * u over Q, and the orbit's flag would read false."""
    (workdir / "cp1.json").write_text(json.dumps(_CPN))
    (workdir / "in.json").write_text(json.dumps(record))
    proc = run_cli(*argv, cwd=workdir)
    assert proc.returncode == 64, proc.stdout
    assert proc.stdout == ""
    assert proc.stderr == f"input error: {cause}\n"


def _orbit(oid, action, delta, cz):
    return {"id": oid, "action": action, "delta": delta, "m": 0, "cz": cz,
            "weakly_nondegenerate": cz is not None}


@pytest.mark.parametrize("argv, result", [
    (["spectra", "recap", "--orbit", "orbit.json", "--m", "1", "--chern", "2", "--lam", "-1/2"],
     {**_orbit("x0", "3/2", "-6", None), "m": 1}),
    (["spectra", "augmented", "--orbit", "orbit.json", "--chern", "2", "--lam", "-1/3"], "1/6"),
    (["models", "cpn", "--lambdas", "-3,-1/2,5/4", "--verify"],
     {"common_value": "-3/4", "details": [], "equal_augmented_actions": True,
      "orbits": [_orbit("x0", "-3", "-27/2", -14), _orbit("x1", "-1/2", "3/2", 2),
                 _orbit("x2", "5/4", "12", 12)]}),
    (["models", "product", "--factors", "-2,1;-1/4,1"],
     {"common_value": "-1/8", "details": [], "equal_augmented_actions": True,
      "orbits": [_orbit("x0*x0", "-9/4", "-17/2", None), _orbit("x0*x1", "-1", "-7/2", None),
                 _orbit("x1*x0", "3/4", "7/2", None), _orbit("x1*x1", "2", "17/2", None)]}),
], ids=["recap lam", "augmented lam", "cpn lambdas", "product factors"])
def test_option_value_may_start_with_dash(workdir, argv, result):
    (workdir / "orbit.json").write_text(json.dumps({"id": "x0", "action": "1/2", "delta": "-2"}))
    assert result_of(run_cli(*argv, cwd=workdir)) == result


_MUL = ["ring", "mul", "--ring", "cp2.json", "--a", "u", "--b", "u"]


@pytest.mark.parametrize("argv", [
    [], ["ring"], ["rings", "mul"], [*_MUL, "--c", "u"], _MUL[:2] + _MUL[4:], [*_MUL, "--field"],
    ["ring", "basis", "--ring", "cp2.json", "--degree", "x"], [*_MUL, "extra"],
], ids=["no arguments", "group alone", "unknown command", "unknown option",
        "missing required option", "option without value", "non-integer value",
        "extra positional"])
def test_parser_usage_error_exits_64(workdir, argv):
    proc = run_cli(*argv, cwd=workdir)
    assert proc.returncode == 64, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, usage", [
    (["ring", "basis", "--ring", "cp2.json", "--degree", "2", "extra"],
     "qhcalc ring basis: error: unrecognized arguments: extra"),
    ([*_MUL, "--c", "u"], "qhcalc ring mul: error: unrecognized arguments: --c u"),
    (["ring", "--zzz", *_MUL[1:]], "qhcalc ring: error: unrecognized arguments: --zzz"),
], ids=["extra word", "unknown option", "unknown group option"])
def test_leftover_words_are_the_commands_usage_error(workdir, argv, usage):
    """Words left over are reported by the parser that was left with them,
    under its own usage line."""
    proc = run_cli(*argv, cwd=workdir)
    assert proc.returncode == 64, proc.stderr
    prog = usage.partition(":")[0]
    assert proc.stderr.startswith(f"usage: {prog} [-h]"), proc.stderr
    assert proc.stderr.endswith(f"\n{usage}\n"), proc.stderr


@pytest.mark.parametrize("argv", [["--help"], ["ring", "mul", "--help"]])
def test_help_exits_0(workdir, argv):
    proc = run_cli(*argv, cwd=workdir)
    assert proc.returncode == 0
    assert proc.stdout
    assert proc.stderr == ""


def _without(record, key):
    return {k: v for k, v in record.items() if k != key}


_IN_BASIS = ["ring", "basis", "--ring", "in.json", "--degree", "0"]
_IN_SCENARIO = ["carriers", "verify", "--scenario", "in.json"]
_CP2_MUL = ["ring", "mul", "--ring", "cp2.json", "--b", "u", "--a"]


@pytest.mark.parametrize("record, argv, code, stderr", [
    ({"u0": "1", "factors": ["u"] * 3, "nu": 0}, _DEC_VERIFY, 2,
     "decomposition invalid: nu must be positive, got 0; product does not equal q^nu * u0"),
    # refusals of cli itself: a bare message
    ("not json", _ITERATE, 64,
     "malformed JSON in in.json: Expecting value: line 1 column 1 (char 0)"),
    (None, ["models", "cpn", "--lambdas", "0,x"], 64,
     "bad --lambdas value '0,x': Invalid literal for Fraction: 'x'"),
    (_without(scenario_payload(), "ladder"), _IN_SCENARIO, 64, "scenario has no 'ladder' entry"),
    (_without(scenario_payload(), "primes"), ["carriers", "negmon", "--scenario", "in.json"], 64,
     "scenario has no 'primes' entry"),
    # input records
    (_without(_ORBIT, "action"), _ITERATE, 64, "input error: orbit record missing key 'action'"),
    ({"kind": "cpn", "n": 0}, _IN_BASIS, 64, "input error: n must be >= 1"),
    ({"kind": "cpn", "n": 1, "lambda0": "0"}, _IN_BASIS, 64,
     "input error: monotonicity requires lambda0 != 0"),
    ({"kind": "torus", "n": 1}, _IN_BASIS, 64, "input error: unknown ring kind 'torus'"),
    ({"kind": "grassmannian", "k": 4, "N": 4}, _IN_BASIS, 64, "input error: need 1 <= k < N"),
    ({"kind": "blah"}, _MODEL, 64, "input error: unknown model kind 'blah'"),
    (_scenario_with(["orbits", 1], scenario_payload()["orbits"][0]), _IN_SCENARIO, 64,
     "input error: orbit ids must be unique"),
    (_scenario_with(["orbits"], []), _IN_SCENARIO, 64,
     "input error: orbit table must be non-empty"),
    (_scenario_with(["monotone", "N"], 0), _IN_SCENARIO, 64,
     "input error: minimal Chern number must be positive"),
    # class literals and field specs
    (None, [*_CP2_MUL, "u^5"], 64, "input error: u^5 is not a basis label of CP^2"),
    (None, ["ring", "mul", "--ring", "g24.json", "--a", "s[3]", "--b", "s[1]"], 64,
     "input error: (3,) does not fit the 2x2 box"),
    (None, [*_CP2_MUL, "2**u"], 64, "input error: empty factor in term '2**u'"),
    (None, [*_CP2_MUL, "u*u"], 64, "input error: more than one basis label in term 'u*u'"),
    (None, [*_CP2_MUL, "u", "--field", "Fp:9"], 64,
     "input error: field order must be 0 (rationals) or prime, got 9"),
    (None, [*_CP2_MUL, "u", "--field", "Fp:1"], 64,
     "input error: field order must be 0 (rationals) or prime, got 1"),
    # option values
    (None, ["ring", "basis", "--ring", "cp2.json", "--degree", "-1"], 64,
     "input error: degree must be non-negative"),
    (None, ["ring", "power", "--ring", "cp2.json", "--class", "u", "--d", "-1"], 64,
     "input error: negative powers are not defined"),
    (None, ["ladders", "search", "--ring", "cp2.json", "--ell-max", "0"], 64,
     "input error: ell_max must be >= 1"),
    (None, ["ladders", "case2", "--ring", "g24.json", "--orbits", "0"], 64,
     "input error: n_orbits must be >= 1"),
    (None, ["models", "cpn", "--lambdas", "0"], 64,
     "input error: need at least two coefficients (n >= 1)"),
    (None, ["models", "product", "--factors", ";"], 64, "input error: need at least one factor"),
    (_ORBIT, ["spectra", "iterate", "--orbit", "in.json", "--k", "0"], 64,
     "input error: iteration order must be >= 1"),
    (scenario_payload(), ["carriers", "assignments", "--scenario", "in.json", "--k", "0"], 64,
     "input error: iteration order must be >= 1"),
], ids=["dec nu 0", "malformed JSON", "bad lambdas", "scenario without ladder",
        "scenario without primes", "orbit without action", "cpn n 0", "lambda0 0",
        "unknown ring kind", "grassmannian k = N", "unknown model kind", "duplicate orbit ids",
        "empty orbit table", "chern 0", "cpn label", "grassmannian label", "empty factor",
        "two labels", "field Fp:9", "field Fp:1", "degree -1", "power -1", "ell-max 0",
        "orbits 0", "one coefficient", "no factor", "iterate k 0", "assignments k 0"])
def test_refusal_exit_code_and_message(workdir, record, argv, code, stderr):
    """Each refusal exits with its code and its one-line message; only a
    contradiction prints a result."""
    if record is not None:
        text = record if isinstance(record, str) else json.dumps(record)
        (workdir / "in.json").write_text(text)
    proc = run_cli(*argv, cwd=workdir)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == stderr + "\n"
    assert bool(proc.stdout) == (code == 2)
