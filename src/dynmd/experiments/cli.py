"""Command line entry points.

    dynmd run-video      simulate a moving-block video and track it
    dynmd run-votes      track a vote stream (file or synthetic)
    dynmd eval-regret    tracking decomposition of a recorded losses.csv
    dynmd audit-dynamics sampled non-expansion audit of the model families

Every run option can come from a --config file (key=value lines) or a flag
of the same name.  Each config line is read as the flag --key=value placed
before the typed flags, so a typed flag wins.  Outputs are plain CSV plus a
meta.txt.
"""

import argparse
import os
import sys

import numpy as np

from ..dmd import dmd_init
from ..dynamics import NetworkAttraction, shift_family
from ..fixedshare import default_lambda
from ..geometry import Box, DoublingStep, SquaredEuclidean
from ..regret import tracking_decomposition_from_losses
from .config import parse_bool, parse_config, parse_floats, parse_trajectory
from .runner import (
    evaluate_run,
    read_losses_csv,
    run_scenario,
    write_agents_csv,
    write_losses_csv,
    write_meta,
    write_regret_csv,
    write_weights_csv,
)
from .video import VideoScenario, generate_video
from .votes import load_votes, synthetic_votes

VIDEO_DEFAULTS = {
    "rows": 32, "cols": 32, "block_size": 4, "start_row": 14, "start_col": 0,
    "trajectory": "1:0", "t": 200, "measurements": 100, "noise_std": 0.05,
    "seed": 0, "boundary": "clip", "identity_sensing": False,
    "model_boundary": "zero", "tau": -1.0, "c": 1.0, "box_lo": 0.0,
    "box_hi": 1.0, "reg_period": 1, "eta_horizon0": 32, "eta_growth": 2.0,
    "eta_scale": 0.5, "lam": -1.0, "eta_r": -1.0, "m": 1, "out": "out-video",
}

VOTES_DEFAULTS = {
    "votes": "", "agents": 20, "t": 2000, "drift_alpha": 0.003, "seed": 0,
    "sweeps": 4, "missing_prob": 0.0, "init_scale": 0.5,
    "alphas": "0,0.001,0.002,0.003,0.004", "tau": 0.1, "c": 0.5,
    "reg_period": 10, "eta_horizon0": 10, "eta_growth": 10.0, "eta_scale": 1.0,
    "lam": -1.0, "eta_r": -1.0, "m": 3, "out": "out-votes",
}

AUDIT_DEFAULTS = {
    "model": "all", "rows": 8, "cols": 8, "boundary": "zero", "alpha": 0.1,
    "agents": 10, "pairs": 1000, "seed": 0, "threshold": 1e-10, "c": 1.0,
    "box_lo": 0.0, "box_hi": 1.0,
}


def _add_flags(parser, defaults):
    parser.add_argument("--config", default=None, help="key=value options file")
    for key, value in defaults.items():
        kind = parse_bool if isinstance(value, bool) else type(value)
        parser.add_argument("--" + key.replace("_", "-"), type=kind, default=value)
    parser.set_defaults(options=defaults)


def _config_flags(args):
    """The --config file's lines as --key=value tokens; a key that is not
    one of the command's options raises ValueError."""
    config = parse_config(args.config)
    for key in config:
        if key not in args.options:
            raise ValueError(f"unknown config key {key!r}")
    return [f"--{key.replace('_', '-')}={value}" for key, value in config.items()]


def _run_pool(opts, losses, T, fset, models, comparator):
    """Track the loss stream with one DMD expert per model, pooled by
    fixed share.  Returns the run and, when there is a comparator, its
    evaluation (None otherwise)."""
    geom = SquaredEuclidean(opts["c"])
    schedule = DoublingStep(opts["eta_horizon0"], opts["eta_growth"],
                            opts["eta_scale"])
    experts = [dmd_init(geom, fset, model, schedule,
                        reg_period=opts["reg_period"]) for model in models]
    # default_lambda checks m before the run even when lam is given; only a
    # negative lam or a nonpositive eta_r selects the default, so NaN
    # reaches fixed_share_init's checks
    default_lam = default_lambda(opts["m"], T)
    lam = default_lam if opts["lam"] < 0 else opts["lam"]
    eta_r = None if opts["eta_r"] <= 0 else opts["eta_r"]
    result = run_scenario(losses, T, experts, lam=lam, eta_r=eta_r,
                          comparator=comparator)
    if comparator is None:
        return result, None
    return result, evaluate_run(result, m=opts["m"])


def _write_outputs(out, result, evaluation, extra_meta):
    os.makedirs(out, exist_ok=True)
    write_losses_csv(os.path.join(out, "losses.csv"), result)
    write_weights_csv(os.path.join(out, "weights.csv"), result)
    meta = dict(result.meta)
    meta.update(extra_meta)
    if evaluation is not None:
        write_regret_csv(os.path.join(out, "regret.csv"), result, evaluation)
        d = evaluation.decomposition
        meta.update({
            "final_dfs_regret": f"{evaluation.dfs_regret[-1]:.6g}",
            "decomposition_t1": f"{d.t1:.6g}",
            "decomposition_t2": f"{d.t2:.6g}",
            "decomposition_switch_times": ",".join(str(s) for s in d.switch_times),
            "decomposition_expert_indices": ",".join(str(i) for i in d.expert_indices),
            "v_phi": ",".join(f"{v:.6g}" for v in evaluation.v_phi),
        })
    if result.agent_values is not None:
        write_agents_csv(os.path.join(out, "agents.csv"), result)
    write_meta(os.path.join(out, "meta.txt"), meta)


def cmd_run_video(args):
    opts = vars(args)
    scenario = VideoScenario(
        rows=opts["rows"], cols=opts["cols"], block_size=opts["block_size"],
        start_row=opts["start_row"], start_col=opts["start_col"],
        trajectory=parse_trajectory(opts["trajectory"]), T=opts["t"],
        measurements=opts["measurements"], noise_std=opts["noise_std"],
        seed=opts["seed"], boundary=opts["boundary"],
        identity_sensing=opts["identity_sensing"])
    data = generate_video(scenario)
    fset = Box(opts["box_lo"], opts["box_hi"], shape=(data.n_pixels,))
    models = shift_family(opts["rows"], opts["cols"],
                          boundary=opts["model_boundary"])
    tau = data.tau_default if opts["tau"] < 0 else opts["tau"]
    result, evaluation = _run_pool(opts, lambda t: data.loss(t, tau=tau),
                                   data.T, fset, models, data.comparator())
    _write_outputs(opts["out"], result, evaluation, {
        "tau": f"{tau:.6g}",
        "clipped_steps": len(data.clipped_steps),
        "scenario": repr(scenario),
    })
    print(f"run-video: T={data.T}, {result.n_experts} experts, "
          f"final regret {evaluation.dfs_regret[-1]:.4f} -> {opts['out']}")
    return 0


def cmd_run_votes(args):
    opts = vars(args)
    try:
        models = [NetworkAttraction(a) for a in parse_floats(opts["alphas"])]
    except ValueError as exc:  # name the option
        raise ValueError(f"alphas {opts['alphas']!r}: {exc}") from None
    labels = [model.label for model in models]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"alphas {opts['alphas']!r} repeat the expert "
                             f"label {label!r}")
    comparator = None
    if opts["votes"]:
        stream = load_votes(opts["votes"])
        T = stream.T
    else:
        T = opts["t"]
        stream, comparator = synthetic_votes(
            n_agents=opts["agents"], T=T, drift_alpha=opts["drift_alpha"],
            seed=opts["seed"], sweeps=opts["sweeps"],
            missing_prob=opts["missing_prob"], init_scale=opts["init_scale"])
    p = stream.n_agents
    result, evaluation = _run_pool(
        opts, lambda t: stream.loss(t, tau=opts["tau"]), T,
        Box(-1.0, 1.0, shape=(p, p)), models, comparator)
    _write_outputs(opts["out"], result, evaluation, {
        "stream": stream.label, "alphas": opts["alphas"],
    })
    tail = result.dfs_losses[-max(1, T // 4):].mean()
    print(f"run-votes: T={T}, p={p}, {result.n_experts} experts, "
          f"final-quarter mean loss {tail:.4f} -> {opts['out']}")
    return 0


def cmd_eval_regret(args):
    table = read_losses_csv(args.losses)
    if "dfs" not in table or "t" not in table:
        raise ValueError(f"{args.losses}: missing 't'/'dfs' columns")
    expert_cols = [k for k in table if k.startswith("expert_")]
    if not expert_cols:
        raise ValueError(f"{args.losses}: no expert_* columns")
    expert_losses = np.column_stack([table[k] for k in expert_cols])
    T = expert_losses.shape[0]
    comp = table.get("comparator")
    comp_losses = comp if comp is not None else np.zeros(T)
    d = tracking_decomposition_from_losses(table["dfs"], expert_losses,
                                           comp_losses, m=args.m)
    basis = "comparator" if comp is not None else "zero baseline"
    print(f"eval-regret: T={T}, {len(expert_cols)} experts, m={args.m} "
          f"(against {basis})")
    print(f"  best {args.m}-switch expert sequence loss: {d.best_sequence_loss:.6g}")
    print(f"  t1 (aggregation vs best sequence): {d.t1:.6g}")
    print(f"  t2 (best sequence vs {basis}):     {d.t2:.6g}")
    print(f"  total: {d.total:.6g}")
    labels = [k[len("expert_"):] for k in expert_cols]
    seq = [labels[i] for i in d.expert_indices]
    print(f"  switch times: {list(d.switch_times)}")
    print(f"  expert sequence: {seq}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_meta(os.path.join(args.out, "eval.txt"), {
            "m": args.m, "t1": f"{d.t1:.6g}", "t2": f"{d.t2:.6g}",
            "total": f"{d.total:.6g}",
            "best_sequence_loss": f"{d.best_sequence_loss:.6g}",
            "switch_times": ",".join(str(s) for s in d.switch_times),
            "expert_sequence": ",".join(seq),
            "basis": basis,
        })
    return 0


def cmd_audit_dynamics(args):
    from ..dynamics import audit_contraction
    opts = vars(args)
    geom = SquaredEuclidean(opts["c"])
    jobs = []
    if opts["model"] in ("shift", "all"):
        fset = Box(opts["box_lo"], opts["box_hi"],
                   shape=(opts["rows"] * opts["cols"],))
        for model in shift_family(opts["rows"], opts["cols"],
                                  boundary=opts["boundary"]):
            jobs.append((model, fset))
    if opts["model"] in ("attraction", "all"):
        if opts["agents"] < 1:
            raise ValueError(f"agents must be >= 1, got {opts['agents']}")
        fset = Box(-1.0, 1.0, shape=(opts["agents"], opts["agents"]))
        jobs.append((NetworkAttraction(opts["alpha"]), fset))
    if not jobs:
        raise ValueError(f"model must be shift, attraction, or all, "
                         f"got {opts['model']!r}")
    worst = 0
    for model, fset in jobs:
        audit = audit_contraction(model, geom, fset, n_pairs=opts["pairs"],
                                  seed=opts["seed"],
                                  threshold=opts["threshold"])
        verdict = "VIOLATION" if audit.violation else "ok"
        print(f"audit-dynamics: {audit.model_label:<12} "
              f"max gap {audit.estimate:+.3e} over {audit.n_pairs} pairs "
              f"[{verdict}]")
        worst = max(worst, int(audit.violation))
    return worst


def _join_negative_values(argv):
    """argv with each number that starts with '-' joined to the flag
    before it (--box-lo -inf becomes --box-lo=-inf): argparse reads a
    token such as -inf or -1e300 as an unknown flag, not as a value."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and token.startswith("-") and _is_number(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dynmd",
        description="Track drifting parameters online and evaluate the regret.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-video", help="simulate and track a moving block")
    _add_flags(p, VIDEO_DEFAULTS)
    p.set_defaults(func=cmd_run_video)

    p = sub.add_parser("run-votes", help="track a vote stream")
    _add_flags(p, VOTES_DEFAULTS)
    p.set_defaults(func=cmd_run_votes)

    p = sub.add_parser("eval-regret",
                       help="tracking decomposition of a losses.csv")
    p.add_argument("--losses", required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_regret)

    p = sub.add_parser("audit-dynamics",
                       help="sampled non-expansion audit of the models")
    _add_flags(p, AUDIT_DEFAULTS)
    p.set_defaults(func=cmd_audit_dynamics)

    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # argv[0] is the command; a typed flag comes later, so it wins
            args = parser.parse_args(argv[:1] + _config_flags(args) + argv[1:])
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        # FloatingPointError: a run diverged; the message names the round,
        # the expert and the layer
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
