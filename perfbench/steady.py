"""Steadiness check: two sets of benchmark runs compared within BENCHMARK.json's bounds.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workload NAME ...]

Runs ``perfbench/run.py --trace 0`` ``--runs`` times per workload and set, each
run with its own seed (set s uses seeds s*runs+1 .. (s+1)*runs), workloads
interleaved.  For every end-to-end metric it prints the median, the quartiles
and the spread (q3 - q1) / median of each set, as ``statistics.quantiles(n=4)``
gives them.  A set fails when a spread exceeds the metric's bound; a later
set fails when its median is worse than the first set's by more than the
bound.  Exits 1 on any failure.  The last line of
output is a JSON summary of every set.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    summary, ok = [], True
    for s in range(args.sets):
        values = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for i in range(args.runs):
            for w in workloads:
                result = one_run(w, s * args.runs + i + 1, args.seconds)
                ok &= result["correct"]
                for name, metric in result["metrics"].items():
                    values[w][name].append(metric["value"])
        stats = {}
        for w in workloads:
            stats[w] = {}
            for m in metrics:
                vals = values[w][m["name"]]
                q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
                spread = (q3 - q1) / med
                worse = 0.0
                if s:
                    first = summary[0][w][m["name"]]["median"]
                    worse = (med - first) / first * (1 if m["better"] == "lower" else -1)
                fail = spread > m["bound"] or worse > m["bound"]
                ok &= not fail
                stats[w][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "values": vals}
                print(f"set {s + 1} {w:15} {m['name']:12} median {med:12.5f} {m['unit']:3} "
                      f"spread {spread:6.3f} (bound {m['bound']}, target < {m['bound'] / 3:.3f})"
                      + (f" vs set 1 {worse:+.3f}" if s else "") + ("  FAIL" if fail else ""),
                      flush=True)
        summary.append(stats)
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
