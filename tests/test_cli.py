"""Command-line interface smoke tests."""

import pytest

from dispatchsim.cli import main


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(
        "seed=19\ndaily_calls=80\ntrain_daily_calls=40\ntrain_days=1\n"
        "eval_days=1\nscenarios=easy\npolicies=fifo,nn\n"
        "learning_starts=8\nbatch_size=4\nbuffer_capacity=64\nupdate_steps=16\n"
    )
    return p


def test_simulate_prints_day_summary(cfg_file, capsys):
    rc = main(["simulate", "--config", str(cfg_file), "--policy", "nn",
               "--scenario", "easy"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "policy=nn" in out
    assert "created=" in out
    assert "cancel_rate=" in out


def test_simulate_writes_event_trace(cfg_file, tmp_path, capsys):
    cfg = cfg_file.read_text() + "event_trace=1\n"
    cfg_file.write_text(cfg)
    out_dir = tmp_path / "sim"
    rc = main(["simulate", "--config", str(cfg_file), "--out-dir", str(out_dir)])
    assert rc == 0
    trace = (out_dir / "event_trace.log").read_text().splitlines()
    assert trace
    assert all(len(line.split(",")) == 4 for line in trace)


def test_train_then_evaluate_with_checkpoints(cfg_file, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_file), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "dqn_new_call.ckpt").exists()
    capsys.readouterr()

    # evaluate including the trained policy
    cfg = cfg_file.read_text().replace("policies=fifo,nn", "policies=fifo,dqn")
    cfg_file.write_text(cfg)
    rc = main([
        "evaluate", "--config", str(cfg_file), "--out-dir", str(out_dir),
        "--checkpoint-dir", str(out_dir),
    ])
    assert rc == 0
    report = (out_dir / "report.csv").read_text()
    assert "dqn,easy,avg_delay_min" in report


def test_report_verb_round_trips(cfg_file, tmp_path, capsys):
    out_dir = tmp_path / "ev"
    assert main(["evaluate", "--config", str(cfg_file), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    rc = main(["report", str(out_dir / "per_day.csv"), "--format", "text-table"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "policy" in out and "avg_delay_min" in out

    target = tmp_path / "again.csv"
    rc = main(["report", str(out_dir / "per_day.csv"), "--format", "csv",
               "--output", str(target)])
    assert rc == 0
    assert target.read_text().startswith("policy,scenario,metric")


def test_seed_override(cfg_file, capsys):
    main(["simulate", "--config", str(cfg_file), "--seed", "77"])
    out = capsys.readouterr().out
    assert "seed=77" in out


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("gamma=2.0\n")
    rc = main(["simulate", "--config", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_scenario_exits_2(cfg_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg_file), "--scenario", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--scenario" in err and "bogus" in err


def test_missing_checkpoints_exit_2(cfg_file, tmp_path, capsys):
    cfg = cfg_file.read_text().replace("policies=fifo,nn", "policies=dqn")
    cfg_file.write_text(cfg)
    rc = main(["evaluate", "--config", str(cfg_file), "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_truncated_checkpoint_exits_2(cfg_file, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_file), "--out-dir", str(out_dir)]) == 0
    ckpt = out_dir / "dqn_new_call.ckpt"
    ckpt.write_text(ckpt.read_text().splitlines()[0] + "\n")  # header line only
    capsys.readouterr()
    cfg_file.write_text(cfg_file.read_text().replace("policies=fifo,nn", "policies=dqn"))
    rc = main(["evaluate", "--config", str(cfg_file), "--out-dir", str(out_dir),
               "--checkpoint-dir", str(out_dir)])
    assert rc == 2
    assert "truncated checkpoint" in capsys.readouterr().err
