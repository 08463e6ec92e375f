"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the repository root."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import WORKLOADS, fresh_import  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_jobs(workload, spec, ctx=None):
    """Every job of one sweep over ``spec``, untimed, as (job, result) records."""
    qh = fresh_import(workload.uses_cli)
    jobs = workload.sweep(qh, spec, ctx)
    records, job = [], next(jobs, None)
    while job is not None:
        result = job.run()
        records.append((job, result))
        try:
            job = jobs.send(result)
        except StopIteration:
            job = None
    return qh, records


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_jobs(name):
    assert WORKLOADS[name].generate(7) == WORKLOADS[name].generate(7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_inputs_same_counts(name):
    a, b = WORKLOADS[name].generate(7), WORKLOADS[name].generate(8)
    assert a != b
    assert {k: len(v) for k, v in a.items()} == {k: len(v) for k, v in b.items()}


def test_other_seed_same_job_count_after_search():
    w = WORKLOADS["ladder-search"]
    counts = []
    for seed in (7, 8):
        spec = w.generate(seed)
        spec["searches"] = [s for s in spec["searches"] if s[0][0] == "cpn" and s[0][1] <= 3]
        counts.append(len(run_jobs(w, spec)[1]))
    assert counts[0] == counts[1] > 3


def corrupt_and_check(workload, spec, pick, corrupt, ctx=None):
    qh, records = run_jobs(workload, spec, ctx)
    assert not [f for f in workload.check(qh, spec, records) if f.defect is None]
    i = next(i for i, (job, _) in enumerate(records) if pick(job))
    job, result = records[i]
    records[i] = (job, corrupt(qh, job, result))
    return i, [f for f in workload.check(qh, spec, records) if f.defect is None]


def test_checker_catches_wrong_product():
    w = WORKLOADS["schubert-table"]
    spec = w.generate(1)
    spec["pairs"] = [p for p in spec["pairs"] if p[0] == 0]
    spec["triples"] = [t for t in spec["triples"] if t[0] == 0]
    i, fails = corrupt_and_check(
        w, spec, lambda job: job.info["b"] == (1,),
        lambda qh, job, res: res + job.info["ring"].one())
    assert i in {f.job for f in fails}


def test_checker_catches_wrong_ladder():
    w = WORKLOADS["ladder-search"]
    spec = w.generate(1)
    spec["searches"] = [s for s in spec["searches"] if s[0] == ("cpn", 2, 0)]
    i, fails = corrupt_and_check(
        w, spec, lambda job: job.kind == "ladder",
        lambda qh, job, res: (res[0], dataclasses.replace(res[1], nu=res[1].nu + 1)))
    assert [f.job for f in fails] == [i]


def test_checker_catches_wrong_verdict():
    w = WORKLOADS["carrier-sweep"]
    spec = w.generate(1)
    spec["jobs"] = [j for j in spec["jobs"] if j[1] == 1 and j[0] == "perturbed"][:3]
    i, fails = corrupt_and_check(
        w, spec, lambda job: True,
        lambda qh, job, res: (res[0], dataclasses.replace(res[1], status="consistent")))
    assert [f.job for f in fails] == [i]


def test_checker_catches_wrong_cli_output(tmp_path):
    w = WORKLOADS["cli-readme"]
    spec = w.generate(1)
    spec["commands"] = [c for c in spec["commands"] if c[0] in ("ring mul", "ladders case2")]
    ctx = SimpleNamespace(src=ROOT / "src", tmp=tmp_path, env={}, tracer=None)
    i, fails = corrupt_and_check(
        w, spec, lambda job: job.kind == "ladders case2",
        lambda qh, job, res: (res[0], res[1].replace('"ell": 4', '"ell": 5')), ctx)
    assert [f.job for f in fails] == [i]


def test_missing_hook_stops_a_traced_run(monkeypatch):
    import tracing

    fresh_import(False)
    monkeypatch.setattr(tracing, "HOOKS", (*tracing.HOOKS, ("x", "rings", "no_such_function", tracing.SPAN)))
    with pytest.raises(tracing.MissingHook, match="qhcalc.rings.no_such_function"):
        tracing.Tracer().install()


def test_speedometer_runs_its_share_and_restores_gc():
    import gc

    from reference import CHUNK_S, SHARE, Speedometer

    speed = Speedometer()
    spent = speed.after(0.01) + speed.after(0.01)
    assert gc.isenabled()
    assert spent == pytest.approx(speed.ref_s)
    assert speed.ref_s >= SHARE * 0.02 and speed.chunks >= 2
    assert speed.factor() == CHUNK_S * speed.chunks / speed.ref_s


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", "ladder-search", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 100
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", "ladder-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
