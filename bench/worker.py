"""One run of one benchmark workload, in the interpreter it was started in.

    python3 bench/worker.py --workload video-pool --seed 0 --rounds 1000 \
        --out bench/out/video-pool [--budget 10] [--trace]

`run_bench.py` starts this script once per run, so every run pays a fresh
interpreter's import and set-up.  The script times the online protocol
round by round (a round runs from building the round's loss to the step
returning), times the regret evaluation and the written outputs, checks
the outputs, and prints one JSON object as its last line.  Set-up and
total times are CLOCK_MONOTONIC stamps, which the parent subtracts from
its own stamp taken before it started this process.

After the run, while --budget seconds since start allow, it replays the
rounds and the evaluation on the same inputs and fresh experts, and
fails the run if a replay's results differ in any digit.  A short
evaluation is run several times per replay.  Replays give
more samples of each round's latency without paying set-up again.

The workloads drive the library the way its users do: the two pools go
through the `dynmd` command line, the lone tracker through the public
`comid_init` / `comid_step` calls.  Hooks are rebound from outside the
package; nothing in `src/` knows it is being measured.
"""

import argparse
import json
import os
import resource
import sys
from contextlib import contextmanager, nullcontext

from tracing import Tracer, now

# numpy is imported inside functions: `import dynmd` must be the first to
# load it, so that the measured import time includes it

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# relative tolerance against the recorded-seed reference values of the
# pools: loose enough for gemm/gemv reassociation, tight enough to catch
# a changed update rule
POOL_RTOL = 1e-6
# the lone tracker's inner solve is iterative and may be replaced by an
# exact prox, which moves its iterates; its cumulative loss must stay
# within this share of the reference (project(soft_threshold(v))
# moved it by about 1e-5 on seeds 0-3)
BALL_LOSS_RTOL = 1e-3
BALL_TAU = 0.1
EVAL_SHARE = 0.25
VOTE_AGENTS = 20


class RoundClock:
    """Per-round times of the online loop, pass by pass.

    A pass is one run of all T rounds.  The benchmark's own per-round
    checks run between rounds and are taken out of the loop time.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.passes = []  # round latencies in ms, one list per pass
        self.loop_s = []  # wall time of each pass's round loop
        self.eval_s = []
        self.first_round = None

    def begin_pass(self):
        self._rounds = []
        self._first = None
        self._check_s = 0.0

    def round_start(self):
        self._start = now()
        if self._first is None:
            self._first = self._start
            if self.first_round is None:
                self.first_round = self._start

    def round_end(self):
        self._rounds.append((now() - self._start) * 1e3)

    def end_pass(self):
        self.loop_s.append(now() - self._first - self._check_s)
        self.passes.append(self._rounds)

    @contextmanager
    def checking(self):
        start = now()
        with self.tracer.span("bench.check") if self.tracer else nullcontext():
            yield
        self._check_s += now() - start

    @contextmanager
    def evaluating(self):
        start = now()
        yield
        self.eval_s.append(now() - start)


class Failures(list):
    def add(self, message):
        if len(self) < 20:
            self.append(message)


def _finite(values):
    import numpy as np
    return bool(np.all(np.isfinite(values)))


def _check_pool_round(state, aggregated, expert_losses, failures):
    t = state.t - 1
    w = state.weights
    n = w.size
    if abs(w.sum() - 1.0) > 1e-12:
        failures.add(f"round {t}: weights sum to {w.sum()!r}")
    if w.min() < (state.lam / n) * (1.0 - 1e-12):
        failures.add(f"round {t}: min weight {w.min()!r} below lam/N")
    if not (_finite(expert_losses) and _finite(aggregated)):
        failures.add(f"round {t}: non-finite loss or prediction")
    for i, e in enumerate(state.experts):
        if not (e.fset.contains(e.theta_tilde) and e.fset.contains(e.theta_hat)):
            failures.add(f"round {t}: expert {i} left the feasible set")


def _hook_pool(clock, failures, captured):
    """Time the rounds and the evaluation of a CLI pool run, check each
    round, and keep the calls' arguments so that they can be replayed.
    Returns the timed run_scenario and evaluate_run."""
    cli = sys.modules["dynmd.experiments.cli"]
    runner = sys.modules["dynmd.experiments.runner"]
    run_scenario = cli.run_scenario
    evaluate_run = cli.evaluate_run
    dfs_step = runner.dfs_step

    def timed_run_scenario(losses, T, experts, **kwargs):
        def loss_at(t):
            clock.round_start()
            return losses(t)

        captured.setdefault("scenario_args", (losses, T, experts, kwargs))
        clock.begin_pass()
        result = run_scenario(loss_at, T, experts, **kwargs)
        clock.end_pass()
        captured.setdefault("result", result)
        return result

    def timed_dfs_step(*args, **kwargs):
        out = dfs_step(*args, **kwargs)
        clock.round_end()
        with clock.checking():
            _check_pool_round(*out, failures)
        return out

    def timed_evaluate_run(result, *args, **kwargs):
        captured.setdefault("evaluate_args", (args, kwargs))
        with clock.evaluating():
            evaluation = evaluate_run(result, *args, **kwargs)
        captured.setdefault("evaluation", evaluation)
        return evaluation

    cli.run_scenario = timed_run_scenario
    cli.evaluate_run = timed_evaluate_run
    runner.dfs_step = timed_dfs_step
    return timed_run_scenario, timed_evaluate_run


def _read_csv(path):
    import numpy as np
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _read_meta(path):
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def _check_pool_outputs(out, T, captured, failures):
    """Check what the CLI wrote against the pool invariants."""
    import numpy as np
    meta = _read_meta(os.path.join(out, "meta.txt"))
    n = int(meta["n_experts"])
    lam = float(meta["lam"])
    for name in ("losses.csv", "weights.csv", "regret.csv"):
        header, data = _read_csv(os.path.join(out, name))
        if data.shape != (T, len(header)):
            failures.add(f"{name}: shape {data.shape}, expected ({T}, {len(header)})")
        elif not _finite(data):
            failures.add(f"{name}: non-finite entries")
        if name == "weights.csv":
            w = data[:, 1:]
            if np.abs(w.sum(axis=1) - 1.0).max() > 1e-9:
                failures.add("weights.csv: a row does not sum to 1")
            if w.min() < (lam / n) * (1.0 - 1e-9):
                failures.add("weights.csv: a weight is below lam/N")
        if name == "regret.csv":
            written = data[-1, header.index("dfs_regret")]
            total = captured["evaluation"].dfs_regret[-1]
            if abs(written - total) > 1e-9 * max(1.0, abs(total)):
                failures.add("regret.csv: final regret differs from the run's")
    d = captured["evaluation"].decomposition
    total = captured["evaluation"].dfs_regret[-1]
    if abs(d.t1 + d.t2 - total) > 1e-9 * max(1.0, abs(d.t1), abs(d.t2)):
        failures.add(f"t1 + t2 = {d.t1 + d.t2!r} but total regret is {total!r}")
    written = float(meta["decomposition_t1"]) + float(meta["decomposition_t2"])
    if abs(written - total) > 1e-5 * max(1.0, abs(d.t1), abs(d.t2)):
        failures.add("meta.txt: t1 + t2 differs from the final regret")


def _pool_summary(captured):
    evaluation = captured["evaluation"]
    return {
        "final_regret": float(evaluation.dfs_regret[-1]),
        "t1": float(evaluation.decomposition.t1),
        "t2": float(evaluation.decomposition.t2),
        "final_weights": [float(w) for w in captured["result"].weights[-1]],
    }


def _compare_pool(summary, ref, failures):
    for key in ("final_regret", "t1", "t2"):
        scale = max(1.0, abs(ref["final_regret"]))
        if abs(summary[key] - ref[key]) > POOL_RTOL * scale:
            failures.add(f"reference: {key} {summary[key]!r} != {ref[key]!r}")
    diffs = [abs(a - b) for a, b in
             zip(summary["final_weights"], ref["final_weights"])]
    if len(summary["final_weights"]) != len(ref["final_weights"]) \
            or max(diffs) > POOL_RTOL:
        failures.add("reference: final weights differ")


def run_cli_pool(argv, T, out, clock, failures):
    import numpy as np
    cli = sys.modules["dynmd.experiments.cli"]
    captured = {}
    scenario, evaluate = _hook_pool(clock, failures, captured)
    code = cli.main(argv)
    done = now()
    if code != 0:
        failures.add(f"dynmd {argv[0]} exited with {code}")
        return done, None, None
    _check_pool_outputs(out, T, captured, failures)

    def replay(evals):
        losses, T_, experts, kwargs = captured["scenario_args"]
        result = scenario(losses, T_, experts, **kwargs)
        args, kwargs = captured["evaluate_args"]
        for _ in range(evals):
            evaluation = evaluate(result, *args, **kwargs)
        first, first_eval = captured["result"], captured["evaluation"]
        if not (np.array_equal(result.weights, first.weights)
                and np.array_equal(result.dfs_losses, first.dfs_losses)
                and np.array_equal(evaluation.dfs_regret, first_eval.dfs_regret)
                and evaluation.decomposition.t1 == first_eval.decomposition.t1):
            failures.add("a replay of the same inputs gave other results")

    return done, _pool_summary(captured), replay


def video_pool(seed, T, out, clock, failures):
    # run-video defaults, except the horizon and a wrapping east-then-west
    # path: at 32 columns a clipped block would sit against the wall for
    # all but ~30 rounds, and one switch matches the evaluation's m=1
    argv = ["run-video", "--t", str(T), "--seed", str(seed),
            "--boundary", "wrap", "--trajectory", f"1:0,{T // 2 + 1}:4",
            "--out", out]
    return run_cli_pool(argv, T, out, clock, failures)


def votes_pool(seed, T, out, clock, failures):
    argv = ["run-votes", "--t", str(T), "--seed", str(seed),
            "--agents", str(VOTE_AGENTS), "--out", out]
    return run_cli_pool(argv, T, out, clock, failures)


def ball_tracker(seed, T, out, clock, failures):
    """COMID on the synthetic vote stream in the unit Frobenius ball."""
    import numpy as np
    import dynmd
    from dynmd import dmd
    from dynmd.experiments import votes
    from dynmd.regret import moving_average

    stream, thetas = votes.synthetic_votes(n_agents=VOTE_AGENTS, T=T, seed=seed)
    geom = dynmd.SquaredEuclidean(0.5)
    fset = dynmd.Ball(np.zeros((VOTE_AGENTS, VOTE_AGENTS)), 1.0)
    schedule = dynmd.DoublingStep(10, 10.0, 1.0)

    def track():
        state = dmd.comid_init(geom, fset, schedule)
        losses = np.empty(T)
        clock.begin_pass()
        for t in range(1, T + 1):
            clock.round_start()
            loss = stream.loss(t, tau=BALL_TAU)
            losses[t - 1] = loss.value(state.theta_hat)
            state, _, _ = dmd.comid_step(state, loss)
            clock.round_end()
            with clock.checking():
                if not (fset.contains(state.theta_tilde)
                        and fset.contains(state.theta_hat)):
                    failures.add(f"round {t}: iterate left the unit ball")
                if not np.isfinite(losses[t - 1]):
                    failures.add(f"round {t}: non-finite loss")
        clock.end_pass()
        return losses

    def evaluate(losses):
        with clock.evaluating():
            comparator = np.array([
                stream.loss(t, tau=BALL_TAU).value(thetas[t - 1])
                for t in range(1, T + 1)])
            cumulative = np.cumsum(losses - comparator)
            average = moving_average(losses, 50)
        return comparator, cumulative, average

    losses = track()
    comparator, cumulative, average = evaluate(losses)
    os.makedirs(out, exist_ok=True)
    np.savetxt(os.path.join(out, "losses.csv"),
               np.column_stack([np.arange(1, T + 1), losses, comparator,
                                cumulative, average]),
               delimiter=",", header="t,tracker,comparator,regret,average",
               comments="")
    done = now()
    if not _finite(cumulative):
        failures.add("non-finite regret")

    def replay(evals):
        again = track()
        for _ in range(evals):
            regret = evaluate(again)[1]
        if not (np.array_equal(again, losses)
                and np.array_equal(regret, cumulative)):
            failures.add("a replay of the same inputs gave other results")

    return done, {"cumulative_loss": float(losses.sum()),
                  "final_regret": float(cumulative[-1])}, replay


def _compare_ball(summary, ref, failures):
    got, want = summary["cumulative_loss"], ref["cumulative_loss"]
    if abs(got - want) > BALL_LOSS_RTOL * abs(want):
        failures.add(f"reference: cumulative loss {got!r}, recorded {want!r}")


WORKLOADS = {
    "video-pool": (video_pool, 9, _compare_pool),
    "votes-pool": (votes_pool, 5, _compare_pool),
    "ball-tracker": (ball_tracker, 1, _compare_ball),
}


def main(argv=None):
    started = now()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--budget", type=float, default=0.0,
                        help="replay the rounds and the evaluation on the same "
                             "inputs while this many seconds since start allow")
    args = parser.parse_args(argv)

    importing = now()
    import dynmd
    import dynmd.experiments.cli  # noqa: F401  (part of what users import)
    imported = now()

    tracer = None
    if args.trace:
        tracer = Tracer(run_id=f"{args.workload}:{args.seed}:{os.getpid()}")
        tracer.install()
    clock = RoundClock(tracer)
    failures = Failures()
    run, n_experts, compare = WORKLOADS[args.workload]
    if tracer is not None:
        tracer.begin("bench.run")
    try:
        done, summary, replay = run(args.seed, args.rounds, args.out, clock,
                                    failures)
    finally:
        if tracer is not None:
            tracer.end()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if replay is not None:
        # a short evaluation is repeated within each replay, so that it
        # gets about EVAL_SHARE of the replay's time and more samples
        evals = max(1, int(EVAL_SHARE * clock.loop_s[0] / clock.eval_s[0]))
        pass_s = done - clock.first_round
        while now() - started + pass_s <= args.budget:
            begin = now()
            replay(evals)
            pass_s = now() - begin

    with open(REFERENCE) as fh:
        reference = json.load(fh).get(args.workload)
    if summary is not None and reference is not None \
            and reference["seed"] == args.seed \
            and reference["rounds"] == args.rounds:
        compare(summary, reference["values"], failures)

    record = {
        "workload": args.workload, "seed": args.seed, "rounds": args.rounds,
        "n_experts": n_experts, "dynmd_file": dynmd.__file__,
        "import_s": imported - importing,
        "first_round": clock.first_round, "done": done,
        "loop_s": clock.loop_s, "eval_s": clock.eval_s,
        "round_ms": clock.passes, "peak_rss_mb": peak_rss_mb,
        "failures": list(failures), "summary": summary,
    }
    if tracer is not None:
        record["layers"] = tracer.summary()
        tracer.write(os.path.join(args.out, "spans.jsonl"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
