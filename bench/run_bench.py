"""dynmd benchmark: times the online tracking protocol end to end.

    python3 bench/run_bench.py --workload video-pool --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout.  Each run of a workload is a
fresh interpreter (`worker.py`), started serially with BLAS and OpenMP
pinned to one thread.  With --trace 0, MIN_RUNS runs share --seconds and
each replays the rounds on the same inputs while its share lasts; the
end-to-end metrics are printed.  With --trace 1, untraced and traced runs
alternate, one pass each, and the per-layer metrics of the traced runs
are printed, with the tracing overhead measured in the same call.
README.md beside this file defines the workloads and metrics.

Output: a manifest line, one line per run and per metric, and as the
last line one JSON object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracing import now  # noqa: E402

# default horizon per workload: at least ten rounds beyond p99 in every run
ROUNDS = {"video-pool": 1000, "votes-pool": 2000, "ball-tracker": 1000}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_RUNS = 3
WARMUP_ROUNDS = 100
MIN_TRACED_PAIRS = 2
RUN_TIMEOUT_S = 150.0
# stop starting runs once this much wall time is spent, whatever --seconds says
HARD_LIMIT_S = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("round_p50_ms", "ms"),
    ("round_p99_ms", "ms"),
    ("eval_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
)

_TIMED_LAYERS = (
    "video.loss", "votes.loss", "losses.value", "losses.f_gradient",
    "losses.subgradient", "losses.prox_r", "geometry.project",
    "geometry.divergence", "dynamics.PixelShift.apply",
    "dynamics.NetworkAttraction.apply", "dynamics.IdentityModel.apply",
    "dmd.dmd_step", "fixedshare.dfs_step",
)
PER_LAYER = (
    ("import.s", "s"),
    ("video.generate_video.s", "s"),
    ("votes.synthetic_votes.s", "s"),
    *((f"{layer}.{kind}", unit) for layer in _TIMED_LAYERS
      for kind, unit in (("calls", "count"), ("s", "s"))),
    ("dmd.dmd_step.self_s", "s"),
    ("fixedshare.dfs_step.self_s", "s"),
    ("losses.grad_evals_per_expert_round", "1/expert_round"),
    ("runner.run_scenario.self_s", "s"),
    ("runner.evaluate_run.self_s", "s"),
    ("runner.write_csv.s", "s"),
    ("runner.write_csv.bytes", "B"),
    ("regret.tracking_decomposition_from_losses.s", "s"),
    ("regret.theorem2_curve.s", "s"),
    ("regret.moving_average.s", "s"),
    ("trace.overhead_frac", "1"),
)


def percentile(values, q):
    """Nearest-rank percentile: at least (100 - q)% of values are >= it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    return env


def manifest(args, rounds, env):
    import numpy
    import scipy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: env[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_once(workload, seed, rounds, traced, budget, env):
    """Start one worker; returns (record or None, error text)."""
    out = os.path.join(OUT, workload + ("-traced" if traced else ""))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--rounds", str(rounds), "--out", out, "--budget", str(budget)]
    if traced:
        cmd.append("--trace")
    spawned = now()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {RUN_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    record = json.loads(lines[-1])
    if not record["dynmd_file"].startswith(SRC + os.sep):
        return None, f"imported dynmd from {record['dynmd_file']}, not {SRC}"
    if record["failures"]:
        return None, "; ".join(record["failures"])
    record["setup_s"] = record["first_round"] - spawned
    record["total_s"] = record["done"] - spawned
    return record, ""


def fastest_rounds(passes):
    """Round t's latency as its fastest repeat over passes of the same
    inputs: a stretch where the host ran slowly is dropped unless it hit
    round t in every pass."""
    return [min(times) for times in zip(*passes)]


def end_to_end(records):
    """Aggregate the untraced runs of one input; README.md says why the
    timings are best-of-passes and the set-up time a median."""
    fastest = fastest_rounds([p for r in records for p in r["round_ms"]])
    return {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "rounds_per_s": max(r["rounds"] / s for r in records for s in r["loop_s"]),
        "round_p50_ms": statistics.median(fastest),
        "round_p99_ms": percentile(fastest, 99),
        "eval_s": min(s for r in records for s in r["eval_s"]),
        "total_s": min(r["total_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


def per_layer(traced, untraced):
    def layer(name, field):
        return statistics.median(
            r["layers"].get(name, {}).get(field, 0) for r in traced)

    values = {"import.s": statistics.median(r["import_s"] for r in traced)}
    for name, _ in PER_LAYER:
        head, _, field = name.rpartition(".")
        if head in ("import", "losses", "trace"):
            continue
        values[name] = layer(head, field)
    base = traced[0]["n_experts"] * traced[0]["rounds"]
    values["losses.grad_evals_per_expert_round"] = (
        values["losses.f_gradient.calls"]
        + values["losses.subgradient.calls"]) / base
    values["trace.overhead_frac"] = (
        statistics.median(r["total_s"] for r in traced)
        / statistics.median(r["total_s"] for r in untraced) - 1.0)
    return values


def calls_differ(traced):
    counts = [{k: v["calls"] for k, v in r["layers"].items()} for r in traced]
    return any(c != counts[0] for c in counts[1:])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="override the workload's horizon (smoke tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dynmd", "__init__.py")):
        print(f"error: no dynmd sources under {SRC}", file=sys.stderr)
        return 2
    rounds = args.rounds or ROUNDS[args.workload]
    env = worker_env()
    info = manifest(args, rounds, env)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "manifest.json"), "w") as fh:
        json.dump(info, fh, indent=1)
    print("manifest " + json.dumps(info))

    # an untimed short run fills the bytecode and file caches and wakes
    # the CPU up; users do not pay those costs on every run
    run_once(args.workload, args.seed, min(rounds, WARMUP_ROUNDS), False,
             0.0, env)

    untraced, traced, errors = [], [], []
    k = 0
    begin = now()
    with open(os.path.join(OUT, "runs.jsonl"), "w") as runs_log:
        while True:
            elapsed = now() - begin
            if args.trace:
                # traced and untraced runs alternate, one pass each, so that
                # the overhead compares like with like
                is_traced, budget = k % 2 == 1, 0.0
                if k >= 2 * MIN_TRACED_PAIRS and k % 2 == 0 and (
                        elapsed + 2 * elapsed / k > args.seconds
                        or elapsed > HARD_LIMIT_S):
                    break
            else:
                # MIN_RUNS fresh interpreters share the time; each replays the
                # rounds and the evaluation until its share is spent
                if k == MIN_RUNS:
                    break
                is_traced = False
                budget = max(0.0, args.seconds - elapsed) / (MIN_RUNS - k)
            record, error = run_once(args.workload, args.seed, rounds, is_traced,
                                     budget, env)
            k += 1
            if record is None:
                errors.append(error)
                print(f"run {k} failed: {error}", file=sys.stderr)
                continue
            (traced if is_traced else untraced).append(record)
            line = {"run": k, "traced": is_traced, "passes": len(record["loop_s"]),
                    **end_to_end([record])}
            print("run " + json.dumps(line))
            runs_log.write(json.dumps(line) + "\n")

    failed = len(errors)
    correct = failed == 0
    if args.trace and traced and calls_differ(traced):
        correct = False
        print("error: .calls counts differ between traced runs of one seed",
              file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": k, "failed": failed,
                          "metrics": {}}))
        return 1
    if args.trace:
        values, units = per_layer(traced, untraced), dict(PER_LAYER)
        measured = traced
    else:
        values, units = end_to_end(untraced), dict(END_TO_END)
        measured = untraced
    passes = sum(len(r["loop_s"]) for r in measured)
    print(f"workload {args.workload}: {k} runs, {failed} failed, "
          f"failed_frac {failed / k:.4g}, T={rounds} rounds per pass")
    for name, value in values.items():
        print(f"metric {name} {value!r} {units[name]} "
              f"(n={len(measured)} runs, {passes} passes)")
    print(json.dumps({
        "correct": correct, "attempted": k, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
