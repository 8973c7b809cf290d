import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dynmd.experiments import read_losses_csv
from dynmd.experiments.cli import main

VIDEO_ARGS = ["run-video", "--rows", "8", "--cols", "8", "--block-size", "2",
              "--start-row", "3", "--start-col", "0",
              "--trajectory", "1:0,6:6", "--t", "10", "--measurements", "20",
              "--eta-horizon0", "4", "--m", "1"]


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


def test_bad_boolean_flag_names_the_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(VIDEO_ARGS + ["--identity-sensing", "maybe"])
    assert exc.value.code == 2
    assert "'maybe'" in capsys.readouterr().err


def test_run_votes_from_file_has_no_comparator(tmp_path):
    votes = tmp_path / "votes.csv"
    rng = np.random.default_rng(0)
    rows = rng.choice([-1, 1], size=(12, 4))
    votes.write_text("\n".join(",".join(str(v) for v in row) for row in rows))
    out = tmp_path / "vv"
    assert main(["run-votes", "--votes", str(votes), "--alphas", "0,0.01",
                 "--eta-kind", "constant", "--eta-const", "0.2",
                 "--m", "1", "--out", str(out)]) == 0
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


def test_missing_losses_file_is_a_clean_error(tmp_path, capsys):
    assert main(["eval-regret", "--losses", str(tmp_path / "nope.csv"),
                 "--m", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_divergent_run_is_a_clean_error(tmp_path, capsys):
    # a huge constant step in a huge box: the iterates grow until the
    # squared residual overflows, which must end in exit 2, not a traceback
    out = tmp_path / "ov"
    code = main(VIDEO_ARGS + ["--box-lo=-1e300", "--box-hi", "1e300",
                              "--eta-kind", "constant", "--eta-const", "1e30",
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
