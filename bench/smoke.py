"""Tiny-horizon smoke test of the benchmark.

    python3 bench/smoke.py

For every workload it runs `run_bench.py` at a few rounds per run, with
and without tracing, and checks that:

- every metric BENCHMARK.json names is printed, by name and with its unit,
  both on a `metric` line and in the final JSON object, and the run is
  reported correct with no failed runs;
- the per-layer `.calls` counts of two traced calls with the same seed
  are identical;
- in a directory holding only BENCHMARK.json and this benchmark, without
  the sources, the benchmark exits non-zero and prints no result.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run_bench  # noqa: E402

ROUNDS = 12
SECONDS = 1


def bench(args, cwd=ROOT, script=os.path.join(HERE, "run_bench.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def check_output(workload, trace, spec, problems):
    code, out, err = bench(["--workload", workload, "--seed", "0",
                            "--seconds", str(SECONDS), "--trace", str(trace),
                            "--rounds", str(ROUNDS)])
    where = f"{workload} --trace {trace}"
    if code != 0:
        problems.append(f"{where}: exit {code}: {err.strip()[-500:]}")
        return {}
    result = json.loads(out.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{where}: correct={result['correct']}, "
                        f"failed={result['failed']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ {m['name'] for m in wanted})}")
    lines = out.splitlines()
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: {m['name']} printed as {got}")
        prefix = f"metric {m['name']} "
        if not any(line.startswith(prefix) and f" {m['unit']} (n=" in line
                   for line in lines):
            problems.append(f"{where}: no '{prefix}... {m['unit']}' line")
    return result["metrics"]


def check_bare_directory(problems):
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, out, _ = bench(["--workload", "video-pool", "--seed", "0",
                          "--seconds", "1", "--trace", "0"], cwd=bare,
                         script=os.path.join(bare, "bench", "run_bench.py"))
    if code == 0 or '"metrics"' in out:
        problems.append(f"bare directory: exit {code}, printed {out[-200:]!r}")
    shutil.rmtree(bare)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    # every workload the benchmark runs, also those BENCHMARK.json omits
    for workload in sorted(run_bench.ROUNDS):
        check_output(workload, 0, spec, problems)
        first = check_output(workload, 1, spec, problems)
        second = check_output(workload, 1, spec, problems)
        calls = sorted(name for name in first if name.endswith(".calls"))
        differ = [n for n in calls if first[n]["value"] != second.get(n, {}).get("value")]
        if not calls or differ:
            problems.append(f"{workload}: .calls differ between traced calls: {differ}")
    check_bare_directory(problems)
    for problem in problems:
        print("FAIL " + problem)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
