import contextlib
import io
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynmd.experiments.cli as cli
from dynmd import Box, ConstantStep, NetworkAttraction, SquaredEuclidean, dmd_init
from dynmd.experiments import read_losses_csv, run_scenario, synthetic_votes
from dynmd.experiments.cli import AUDIT_DEFAULTS, VIDEO_DEFAULTS, VOTES_DEFAULTS, main

VIDEO_ARGS = ["run-video", "--rows", "8", "--cols", "8", "--block-size", "2",
              "--start-row", "3", "--start-col", "0",
              "--trajectory", "1:0,6:6", "--t", "10", "--measurements", "20",
              "--eta-horizon0", "4", "--m", "1"]
# a constant step eta is the growth-1 doubling schedule: append eta's value
CONSTANT_STEP = ["--eta-horizon0", "1", "--eta-growth", "1", "--eta-scale"]


def test_run_video_writes_outputs(tmp_path, capsys):
    out = tmp_path / "ov"
    assert main(VIDEO_ARGS + ["--out", str(out)]) == 0
    assert "run-video" in capsys.readouterr().out
    for name in ("losses.csv", "weights.csv", "regret.csv", "meta.txt"):
        assert (out / name).exists()
    table = read_losses_csv(out / "losses.csv")
    assert len(table["t"]) == 10
    assert "comparator" in table
    assert sum(1 for k in table if k.startswith("expert_")) == 9
    wtable = read_losses_csv(out / "weights.csv")
    sums = sum(wtable[k] for k in wtable if k.startswith("w_"))
    assert np.allclose(sums, 1.0, atol=1e-9)
    meta = (out / "meta.txt").read_text()
    assert "decomposition_t1=" in meta
    assert "tau=" in meta


def test_run_video_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rows=8\ncols=8\nblock_size=2\nstart_row=3\nstart_col=0\n"
                   "t=6\nmeasurements=20\neta_horizon0=4\nm=1\n")
    out = tmp_path / "ov"
    assert main(["run-video", "--config", str(cfg), "--t", "9",
                 "--out", str(out)]) == 0
    table = read_losses_csv(out / "losses.csv")
    assert len(table["t"]) == 9  # the flag beat the config's t=6


def test_config_lines_are_read_as_flags(tmp_path, capsys):
    # each line is coerced as its flag is: the same files as the typed flags
    # (VIDEO_ARGS types --eta-horizon0, which would beat a config line)
    options = {"seed": "3", "eta_growth": "1", "eta_scale": "0.2", "box_lo": "-1"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\n" + "".join(f"{k} = {v}\n" for k, v in options.items()))
    flags = [tok for k, v in options.items() for tok in ("--" + k.replace("_", "-"), v)]
    assert main(VIDEO_ARGS + ["--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(VIDEO_ARGS + flags + ["--out", str(tmp_path / "b")]) == 0
    for name in ("losses.csv", "weights.csv", "regret.csv", "meta.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    capsys.readouterr()
    for line, fragment in (("rows=4.5", "'4.5'"), ("identity_sensing=maybe", "'maybe'")):
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            main(VIDEO_ARGS + ["--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--" + line.split("=")[0].replace("_", "-") in err and fragment in err
    assert main(VIDEO_ARGS + ["--config", str(tmp_path / "nope.cfg")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_run_video_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rws=8\n")
    assert main(["run-video", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run-video", "run-votes"])
def test_pool_commands_reject_window(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window=30\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main([command, "--window", "30", "--out", str(out)])
    assert exc.value.code == 2


def test_run_votes_synthetic(tmp_path, capsys):
    out = tmp_path / "vv"
    assert main(["run-votes", "--agents", "6", "--t", "30", "--sweeps", "2",
                 "--eta-horizon0", "5", "--eta-growth", "4.0", "--m", "1",
                 "--alphas", "0,0.01", "--out", str(out)]) == 0
    assert "run-votes" in capsys.readouterr().out
    for name in ("losses.csv", "weights.csv", "regret.csv", "agents.csv",
                 "meta.txt"):
        assert (out / name).exists()
    table = read_losses_csv(out / "losses.csv")
    assert {"expert_alpha=0", "expert_alpha=0.01"} <= set(table)
    agents = read_losses_csv(out / "agents.csv")
    assert sum(1 for k in agents if k.startswith("agent_")) == 6


@pytest.mark.parametrize("alphas,label", [
    ("0,0", "alpha=0"), ("0.001,0.0010000001", "alpha=0.001")],
    ids=["equal", "equal-under-g"])
def test_run_votes_rejects_repeated_expert_labels(tmp_path, capsys, monkeypatch,
                                                  alphas, label):
    # two experts under one label used to write two columns of one name,
    # and read_losses_csv then kept only the last
    def no_stream(**kwargs):
        raise AssertionError("the stream was drawn")
    monkeypatch.setattr(cli, "synthetic_votes", no_stream)
    out = tmp_path / "vv"
    assert main(["run-votes", "--alphas", alphas, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: alphas ") and f"label {label!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--drift-alpha", "2", "drift_alpha must lie in [0, 1], got 2.0"),
    ("--drift-alpha", "nan", "drift_alpha must lie in [0, 1], got nan"),
    ("--alphas", "0,1.5", "alphas '0,1.5': alpha must lie in [0, 1], got 1.5"),
    ("--alphas", "0.002,-0.1",
     "alphas '0.002,-0.1': alpha must lie in [0, 1], got -0.1")],
    ids=["drift-above", "drift-nan", "alphas-above", "alphas-below"])
def test_run_votes_names_the_alpha_outside_the_unit_interval(
        tmp_path, capsys, flag, value, message):
    # NetworkAttraction's own message names neither option
    out = tmp_path / "vv"
    assert main(["run-votes", "--agents", "4", "--t", "5", flag, value,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_run_votes_rejects_bad_gibbs_sweeps(tmp_path, capsys):
    for sweeps in ("0", "-1"):
        assert main(["run-votes", "--agents", "4", "--t", "5", "--sweeps",
                     sweeps, "--out", str(tmp_path / "vv")]) == 2
        assert "sweeps" in capsys.readouterr().err
    assert not (tmp_path / "vv").exists()


def test_run_votes_rejects_empty_synthetic_stream(tmp_path, capsys):
    assert main(["run-votes", "--agents", "0", "--t", "5",
                 "--out", str(tmp_path / "vv")]) == 2
    assert "n_agents" in capsys.readouterr().err
    assert not (tmp_path / "vv").exists()


@pytest.mark.parametrize("command", [
    VIDEO_ARGS, ["run-votes", "--agents", "4", "--t", "5", "--sweeps", "1"]],
    ids=["video", "votes"])
@pytest.mark.parametrize("flag,value,name", [
    ("--eta-r", "inf", "eta_r"), ("--eta-r", "nan", "eta_r"),
    ("--lam", "nan", "lam")])
def test_nonfinite_pool_params_are_clean_errors(tmp_path, capsys, recwarn,
                                                command, flag, value, name):
    # a NaN must not fall back to the default, and an infinite eta_r must
    # not reach the weight update
    out = tmp_path / "o"
    assert main(command + [flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must ")
    assert not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command,name", [
    (VIDEO_ARGS + ["--eta-growth", "inf"], "growth"),
    (VIDEO_ARGS + ["--eta-scale", "nan"], "scale"),
    (["run-votes", "--agents", "4", "--t", "5", "--sweeps", "1", "--c", "inf"],
     "scale"),
    (VIDEO_ARGS + ["--noise-std", "inf"], "noise_std"),
    (VIDEO_ARGS + ["--noise-std", "nan"], "noise_std"),
], ids=["eta-growth", "eta-scale", "c", "noise-std-inf", "noise-std-nan"])
def test_nonfinite_parameters_name_themselves(tmp_path, capsys, recwarn,
                                              command, name):
    # each used to crash, warn, or fail later under another name
    out = tmp_path / "o"
    assert main(command + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be ")
    assert "finite" in err
    assert not out.exists()
    assert not recwarn.list


# with 6 agents the comparator's divergence at c=1e308 overflows in round 1
VOTES_SMALL = ["run-votes", "--agents", "6", "--t", "5", "--sweeps", "1"]


@pytest.mark.parametrize("command,named", [
    (VIDEO_ARGS + ["--eta-growth", "1e308"], ["growth=1e+308", "segment 1"]),
    (VOTES_SMALL + ["--c", "1e308"], ["round t=1", "expert 0", "eta_t=", "c=1e+308"]),
    (VIDEO_ARGS + ["--eta-scale", "1e-320"], ["round t=1", "eta_t="]),
    (VOTES_SMALL + CONSTANT_STEP + ["1e-320"],
     ["round t=1", "eta_t=1e-320"]),
    (VIDEO_ARGS + ["--eta-r", "1e308"], ["round t=1", "eta_r=1e+308", "smallest loss"]),
    (VOTES_SMALL + ["--eta-r", "1e308"], ["round t=1", "eta_r=1e+308", "smallest loss"]),
    (VIDEO_ARGS + ["--noise-std", "1e308"], ["noise_std=1e+308"]),
    (VIDEO_ARGS + ["--tau", "1e308"], ["loss value", "round t=1", "comparator"]),
    (VOTES_SMALL + ["--tau", "1e308"], ["loss value", "round t=1", "comparator"]),
    (VIDEO_ARGS + ["--block-size", "1", "--tau", "1e308"],
     ["the regret overflows at round t=2"]),
    (VIDEO_ARGS + ["--box-lo", "1e308", "--box-hi", "1e308"],
     ["loss value", "round t=1", "expert 0"]),
    (VIDEO_ARGS + CONSTANT_STEP + ["1e308"],
     ["non-finite step", "round t=2", "expert 0"]),
], ids=["eta-growth-overflows", "c-underflows-prox", "eta-scale-subnormal",
        "constant-eta-subnormal", "video-eta-r", "votes-eta-r", "noise-std",
        "video-tau", "votes-tau", "regret-overflows", "box-at-1e308",
        "constant-eta-overflows-step"])
def test_extreme_finite_parameters_are_clean_errors(tmp_path, capsys, recwarn,
                                                    command, named):
    # each used to crash with OverflowError, warn and blame kappa or another
    # name, or write nan / inf columns and exit 0
    out = tmp_path / "o"
    assert main(command + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for fragment in named:
        assert fragment in err
    assert not out.exists()
    assert not recwarn.list


@pytest.mark.parametrize("command,named", [
    (VIDEO_ARGS + ["--seed", "-1"], ["seed must be >= 0, got -1"]),
    (VOTES_SMALL + ["--seed", "-1"], ["seed must be >= 0, got -1"]),
    (["audit-dynamics", "--model", "attraction", "--agents", "0"],
     ["agents must be >= 1, got 0"]),
    (["audit-dynamics", "--model", "attraction", "--agents", "-1"],
     ["agents must be >= 1, got -1"]),
    (VIDEO_ARGS + ["--tau", "1e300"],
     ["subgradient norm overflows at round t=1, comparator", "tau"]),
    (VOTES_SMALL + ["--tau", "1e300"],
     ["subgradient norm overflows at round t=1, comparator", "tau"]),
], ids=["video-seed", "votes-seed", "agents-0", "agents-negative", "video-tau",
        "votes-tau"])
def test_option_errors_name_the_option(tmp_path, capsys, recwarn, command, named):
    # each used to exit 2 with numpy's text, or fail late naming a bound
    # constant instead of the option
    out = tmp_path / "o"
    argv = command + ([] if command[0] == "audit-dynamics" else ["--out", str(out)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for fragment in named:
        assert fragment in err
    assert not out.exists()
    assert not recwarn.list


@pytest.mark.parametrize("flag,value", [
    ("--box-lo", "-inf"), ("--box-lo", "-1e300"), ("--box-lo", "-1E150"),
    ("--threshold", "-1e-3")])
def test_negative_numbers_are_values_in_either_form(capsys, flag, value):
    # argparse reads "-inf" or "-1e300" as an unknown flag unless it is
    # joined to its flag; both spellings must give the same outcome
    base = ["audit-dynamics", "--model", "shift", "--rows", "2", "--cols", "2",
            "--pairs", "20"]
    outcomes = []
    for argv in (base + [flag, value], base + [f"{flag}={value}"]):
        code = main(argv)
        outcomes.append((code,) + capsys.readouterr())
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    if value == "-inf":
        assert code == 2 and err.startswith("error: cannot sample an unbounded box")
    elif value == "-1e300":
        # squared gaps overflow: no NaN estimate may pass as [ok]
        assert code == 2 and "not finite" in err and "[ok]" not in out
    else:
        assert code in (0, 1) and out.count("max gap") == 9


def test_join_negative_values_only_moves_numbers():
    from dynmd.experiments.cli import _join_negative_values
    argv = ["run-video", "--box-lo", "-inf", "--box-hi", "2", "--out", "-x",
            "--tau=-1", "-5", "--lam", "-nan"]
    assert _join_negative_values(argv) == [
        "run-video", "--box-lo=-inf", "--box-hi", "2", "--out", "-x",
        "--tau=-1", "-5", "--lam=-nan"]


def test_bad_boolean_flag_names_the_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(VIDEO_ARGS + ["--identity-sensing", "maybe"])
    assert exc.value.code == 2
    assert "'maybe'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [VIDEO_ARGS, VOTES_SMALL],
                         ids=["video", "votes"])
def test_m_is_checked_before_the_run(tmp_path, capsys, monkeypatch, command):
    # with lam given, m used to be checked only by the evaluation after
    # every round had run
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")
    monkeypatch.setattr(cli, "run_scenario", no_run)
    out = tmp_path / "o"
    assert main(command + ["--lam", "0.1", "--m", "500", "--out", str(out)]) == 2
    assert "m must be < T" in capsys.readouterr().err
    assert not out.exists()


def test_growth_one_flags_run_the_constant_step(tmp_path, monkeypatch):
    runs = []

    def recorded_run(*args, **kwargs):
        runs.append(run_scenario(*args, **kwargs))
        return runs[-1]
    monkeypatch.setattr(cli, "run_scenario", recorded_run)
    T, alphas = 40, (0.0, 0.01, 0.05)
    assert main(["run-votes", "--agents", "6", "--t", str(T), "--sweeps", "1",
                 "--alphas", ",".join(map(str, alphas)), "--m", "2",
                 "--out", str(tmp_path / "vv")] + CONSTANT_STEP + ["0.2"]) == 0
    (got,) = runs
    opts = VOTES_DEFAULTS
    stream, comparator = synthetic_votes(
        n_agents=6, T=T, drift_alpha=opts["drift_alpha"], seed=opts["seed"],
        sweeps=1, missing_prob=opts["missing_prob"], init_scale=opts["init_scale"])
    geom, fset = SquaredEuclidean(opts["c"]), Box(-1.0, 1.0, shape=(6, 6))
    schedule = ConstantStep(0.2)
    experts = [dmd_init(geom, fset, NetworkAttraction(a), schedule,
                        reg_period=opts["reg_period"]) for a in alphas]
    want = run_scenario(lambda t: stream.loss(t, tau=opts["tau"]), T, experts,
                        lam=2 / T, comparator=comparator)
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.dfs_losses, want.dfs_losses)


def test_run_votes_from_file_has_no_comparator(tmp_path):
    votes = tmp_path / "votes.csv"
    rng = np.random.default_rng(0)
    rows = rng.choice([-1, 1], size=(12, 4))
    votes.write_text("\n".join(",".join(str(v) for v in row) for row in rows))
    out = tmp_path / "vv"
    assert main(["run-votes", "--votes", str(votes), "--alphas", "0,0.01",
                 "--m", "1", "--out", str(out)] + CONSTANT_STEP + ["0.2"]) == 0
    assert not (out / "regret.csv").exists()
    table = read_losses_csv(out / "losses.csv")
    assert "comparator" not in table
    assert len(table["t"]) == 12


def test_eval_regret_against_comparator(tmp_path, capsys):
    out = tmp_path / "ov"
    main(VIDEO_ARGS + ["--out", str(out)])
    capsys.readouterr()
    ev = tmp_path / "ev"
    assert main(["eval-regret", "--losses", str(out / "losses.csv"),
                 "--m", "1", "--out", str(ev)]) == 0
    text = capsys.readouterr().out
    assert "against comparator" in text
    meta = dict(line.split("=", 1)
                for line in (ev / "eval.txt").read_text().splitlines())
    assert float(meta["t1"]) + float(meta["t2"]) == pytest.approx(
        float(meta["total"]), rel=1e-6)


def test_eval_regret_zero_baseline(tmp_path, capsys):
    path = tmp_path / "losses.csv"
    path.write_text("t,dfs,expert_a,expert_b\n"
                    "1,1.0,0.5,2.0\n2,1.0,0.5,2.0\n3,1.0,2.0,0.25\n")
    assert main(["eval-regret", "--losses", str(path), "--m", "1"]) == 0
    text = capsys.readouterr().out
    assert "zero baseline" in text
    assert "best 1-switch expert sequence loss: 1.25" in text
    assert "['a', 'b']" in text


def test_eval_regret_rejects_repeated_columns(tmp_path, capsys):
    # a dict of columns kept only the last of two, so the table lost an expert
    path = tmp_path / "losses.csv"
    path.write_text("t,dfs,expert_alpha=0,expert_alpha=0\n1,1,1,2\n2,1,1,2\n")
    assert main(["eval-regret", "--losses", str(path), "--m", "0"]) == 2
    assert "column 'expert_alpha=0' repeats" in capsys.readouterr().err


def test_eval_regret_missing_columns(tmp_path, capsys):
    path = tmp_path / "losses.csv"
    path.write_text("t,dfs\n1,1.0\n")
    assert main(["eval-regret", "--losses", str(path), "--m", "0"]) == 2
    assert "no expert_" in capsys.readouterr().err


def test_audit_dynamics_shifts_pass(capsys):
    assert main(["audit-dynamics", "--model", "shift", "--rows", "4",
                 "--cols", "4", "--pairs", "200"]) == 0
    text = capsys.readouterr().out
    assert text.count("[ok]") == 9
    assert "VIOLATION" not in text


def test_audit_dynamics_attraction_flags_expansion(capsys):
    # the attraction map is not non-expansive; the audit must say so
    assert main(["audit-dynamics", "--model", "attraction", "--agents", "6",
                 "--alpha", "0.1", "--pairs", "300"]) == 1
    assert "VIOLATION" in capsys.readouterr().out


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_audit_dynamics_rejects_nonfinite_threshold(capsys, threshold):
    # NaN compares false, so every model would pass the audit
    assert main(["audit-dynamics", "--model", "attraction", "--agents", "2",
                 "--threshold", threshold]) == 2
    out, err = capsys.readouterr()
    assert "[ok]" not in out
    assert err.startswith("error: threshold must be finite")


def test_missing_losses_file_is_a_clean_error(tmp_path, capsys):
    assert main(["eval-regret", "--losses", str(tmp_path / "nope.csv"),
                 "--m", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_divergent_run_is_a_clean_error(tmp_path, capsys):
    # a huge constant step in a huge box: the iterates grow until the
    # squared residual overflows, which must end in exit 2, not a traceback
    out = tmp_path / "ov"
    code = main(VIDEO_ARGS + ["--box-lo=-1e300", "--box-hi", "1e300",
                              *CONSTANT_STEP, "1e30",
                              "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: non-finite loss value at round t=")
    assert "expert 0 (E)" in err
    assert "Traceback" not in err


def test_import_loads_no_scipy():
    # scipy is a test extra only: the package and its CLI must not import it
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, dynmd, dynmd.experiments.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "False"


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # seed-0 run-video under one and two OpenBLAS threads: every output file
    # is the same byte for byte
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        subprocess.run([sys.executable, "-m", "dynmd.experiments.cli", "run-video",
                        "--t", "60", "--out", str(out)],
                       capture_output=True, check=True, timeout=300,
                       env=dict(os.environ, PYTHONPATH=str(src),
                                OPENBLAS_NUM_THREADS=threads))
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outs[0]) == ["losses.csv", "meta.txt", "regret.csv", "weights.csv"]
    assert outs[0] == outs[1]


# --- every option value ends in a run, a message, or an audit verdict ------

# the tokens an option of each default's type is drawn from; a token of the
# wrong type must end in argparse's exit 2
NUMBER_TOKENS = ["0", "1", "-1", "nan", "inf", "-inf", "1e308", "-1e308", ""]
TOKENS = {
    float: NUMBER_TOKENS,
    int: NUMBER_TOKENS + [str(10**30), str(-10**30)],
    bool: ["true", "false", ""],
    str: NUMBER_TOKENS,
}
# sizes drive loops (a --t of 1e20 never ends), so they stay small
SIZE_OPTIONS = ("t", "rows", "cols", "agents", "pairs", "sweeps",
                "measurements", "block_size", "start_row", "start_col")
# each command's defaults, and the small sizes a drawn option may override
COMMANDS = {
    "run-video": (VIDEO_DEFAULTS, ["--rows", "6", "--cols", "6", "--block-size",
                                   "2", "--start-row", "2", "--t", "6",
                                   "--measurements", "8", "--eta-horizon0", "2"]),
    "run-votes": (VOTES_DEFAULTS, ["--agents", "4", "--t", "6", "--sweeps", "1"]),
    "audit-dynamics": (AUDIT_DEFAULTS, ["--rows", "3", "--cols", "3",
                                        "--agents", "3", "--pairs", "20"]),
}


def _drawn_options(defaults):
    def value(key):
        if key in SIZE_OPTIONS:
            return st.integers(-1, 6).map(str)
        return st.sampled_from(TOKENS[type(defaults[key])])

    keys = sorted(set(defaults) - {"out", "votes"})
    return st.lists(st.sampled_from(keys), max_size=4, unique=True).flatmap(
        lambda chosen: st.fixed_dictionaries({k: value(k) for k in chosen}))


def _run_cli(argv):
    """(exit code, stdout, stderr) of main(argv), with warnings as errors;
    argparse's SystemExit(2) counts as a returned 2."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_option_value_ends_cleanly(command):
    # exit 0 with finite CSVs, exit 2 with a message, or an audit's exit 1;
    # never a traceback, a warning or a NaN verdict
    defaults, small = COMMANDS[command]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_drawn_options(defaults))
    def check(options):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command] + small
            for key, value in options.items():
                argv += ["--" + key.replace("_", "-"), value]
            if "out" in defaults:
                argv += ["--out", tmp]
            code, out, err = _run_cli(argv)
            if code == 2:
                assert err.strip(), argv
                return
            assert code == 0 or (command, code) == ("audit-dynamics", 1), (argv, err)
            assert "nan" not in out.lower(), (argv, out)
            for name in os.listdir(tmp):
                if name.endswith(".csv"):
                    data = np.loadtxt(os.path.join(tmp, name), delimiter=",",
                                      skiprows=1, ndmin=2)
                    assert np.all(np.isfinite(data)), (argv, name)

    check()


@st.composite
def _loss_tables(draw):
    T, N = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cols = ["t", "dfs"] + ["comparator"] * draw(st.booleans()) + \
        [f"expert_{i}" for i in range(N)]
    cells = st.sampled_from(NUMBER_TOKENS[:-1] + ["0.5"])
    rows = [[str(t)] + [draw(cells) for _ in cols[1:]] for t in range(1, T + 1)]
    return cols, rows, draw(st.sampled_from(TOKENS[int] + ["2"]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_loss_tables())
def test_eval_regret_tables_end_cleanly(case):
    # exit 0 with finite figures, or exit 2 with a message
    cols, rows, m = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "losses.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(",".join(r) for r in [cols] + rows) + "\n")
        argv = ["eval-regret", "--losses", path, "--m", m, "--out", tmp]
        code, out, err = _run_cli(argv)
        if code == 2:
            assert err.strip(), case
        else:
            assert code == 0, (case, err)
            text = out + Path(tmp, "eval.txt").read_text()
            assert "nan" not in text and "inf" not in text, (case, text)


@pytest.mark.parametrize("cell,named", [
    ("nan", "non-finite field"), ("-inf", "non-finite field"),
    ("1e308", "the loss sums overflow")])
def test_eval_regret_rejects_nonfinite_tables(tmp_path, cell, named):
    path = tmp_path / "losses.csv"
    path.write_text(f"t,dfs,expert_a\n1,1e308,{cell}\n2,1e308,1e308\n")
    code, _, err = _run_cli(["eval-regret", "--losses", str(path), "--m", "0"])
    assert code == 2 and err.startswith("error: ") and named in err
