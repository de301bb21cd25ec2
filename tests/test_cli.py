"""Command-line interface smoke tests."""

import numpy as np
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


@pytest.mark.parametrize("value", ["7", "-1"])
def test_event_trace_other_than_0_or_1_exits_2(cfg_file, tmp_path, capsys, value):
    # before, both ran the day, wrote event_trace.log and exited 0
    cfg_file.write_text(cfg_file.read_text() + f"event_trace={value}\n")
    out_dir = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg_file), "--out-dir", str(out_dir)]) == 2
    assert f"error: key 'event_trace': value {value} out of range" in capsys.readouterr().err
    assert not (out_dir / "event_trace.log").exists()


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


@pytest.mark.parametrize("seed", ["-5", "4294967296", "4294967303"])
def test_seed_override_outside_32_bits_exits_2(cfg_file, capsys, seed):
    # -5 and 4294967291 (and 7 and 4294967303) used to print the same day
    rc = main(["simulate", "--config", str(cfg_file), "--seed", seed])
    assert rc == 2
    assert f"error: key 'seed': value {seed} out of range" in capsys.readouterr().err


def test_config_seed_outside_32_bits_exits_2(cfg_file, capsys):
    cfg_file.write_text(cfg_file.read_text() + "seed=-5\n")
    assert main(["simulate", "--config", str(cfg_file)]) == 2
    assert "error: key 'seed': value -5 out of range" in capsys.readouterr().err


@pytest.mark.parametrize("day", ["-1", "4294967296", "12345678901234567890"])
def test_day_outside_32_bits_exits_2(cfg_file, capsys, day):
    # -1 and 4294967295 used to draw the same day
    assert main(["simulate", "--config", str(cfg_file), "--day", day]) == 2
    assert f"error: --day {day} out of range [0, 2**32)" in capsys.readouterr().err


def test_day_at_the_edges_of_32_bits_runs(cfg_file, capsys):
    for day in ("0", "4294967295"):
        assert main(["simulate", "--config", str(cfg_file), "--day", day]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("verb", ["simulate", "train"])
def test_event_ceiling_exits_2(cfg_file, tmp_path, capsys, verb):
    # before, both died with a SimulationAborted traceback and exit code 1
    cfg_file.write_text(cfg_file.read_text() + "max_events_per_day=10\n")
    assert main([verb, "--config", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 2
    assert "error: event ceiling 10 exceeded at t=" in capsys.readouterr().err


@pytest.mark.parametrize("verb, line", [("train", "scenarios="), ("evaluate", "policies=")])
def test_empty_scenario_or_policy_list_exits_2(cfg_file, tmp_path, capsys, verb, line):
    # before, train ran 0 days and evaluate wrote a header-only report, both exiting 0
    cfg_file.write_text(cfg_file.read_text() + line + "\n")
    out_dir = tmp_path / "out"
    assert main([verb, "--config", str(cfg_file), "--out-dir", str(out_dir)]) == 2
    assert f"error: key '{line[:-1]}' is empty" in capsys.readouterr().err
    assert not out_dir.exists()


def test_train_that_could_never_start_learning_exits_2(cfg_file, tmp_path, capsys):
    cfg_file.write_text(cfg_file.read_text() + "learning_starts=65\n")  # above buffer_capacity=64
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_file), "--out-dir", str(out_dir)]) == 2
    assert "error: learning_starts must not exceed buffer_capacity" in capsys.readouterr().err
    assert not out_dir.exists()


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


@pytest.mark.parametrize(
    "clusters, message",
    [
        ("0.2,0.2,0.1,1;0.8,0.8,0.1,-1", "error: cluster 1: weight -1.0"),
        ("0.2,0.2,0.1,1e308;0.8,0.8,0.1,1e308", "error: cluster weights must have a finite"),
    ],
)
def test_bad_cluster_weight_exits_2(cfg_file, capsys, clusters, message):
    cfg_file.write_text(cfg_file.read_text() + f"spatial_mode=clusters\nclusters={clusters}\n")
    rc = main(["simulate", "--config", str(cfg_file)])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "line", ["box_x_max=inf", "week_origin_offset=nan", "speed=inf", "synthetic_base_rate=inf"]
)
def test_non_finite_config_float_exits_2(cfg_file, capsys, line):
    cfg_file.write_text(cfg_file.read_text() + line + "\n")
    rc = main(["simulate", "--config", str(cfg_file)])
    assert rc == 2
    key = line.split("=")[0]
    assert f"error: {cfg_file}:12: key '{key}' must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines, message",
    [
        ("spatial_mode=clusters\n", "error: spatial_mode=clusters needs at least one cluster"),
        ("clusters=0.5,0.5\n", "error: key 'clusters': part '0.5,0.5'"),
    ],
)
def test_bad_clusters_exit_2(cfg_file, capsys, lines, message):
    cfg_file.write_text(cfg_file.read_text() + lines)
    rc = main(["simulate", "--config", str(cfg_file)])
    assert rc == 2
    assert message in capsys.readouterr().err


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


def test_non_finite_checkpoint_exits_2(cfg_file, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_file), "--out-dir", str(out_dir)]) == 0
    ckpt = out_dir / "dqn_free_vehicle.ckpt"
    lines = ckpt.read_text().splitlines()
    lines[2] = " ".join(["nan"] + lines[2].split()[1:])  # first weight of layer 0
    ckpt.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    cfg_file.write_text(cfg_file.read_text().replace("policies=fifo,nn", "policies=dqn"))
    rc = main(["evaluate", "--config", str(cfg_file), "--out-dir", str(out_dir),
               "--checkpoint-dir", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "dqn_free_vehicle.ckpt" in err and "non-finite" in err


def test_checkpoint_of_the_wrong_input_width_exits_2(cfg_file, tmp_path, capsys):
    from dispatchsim.qnet import QNetwork, save_checkpoint

    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_file), "--out-dir", str(out_dir)]) == 0
    ckpt = out_dir / "dqn_new_call.ckpt"
    save_checkpoint(QNetwork((3, 4, 1), rng=np.random.default_rng(0)), "new_call", ckpt)
    capsys.readouterr()
    cfg_file.write_text(cfg_file.read_text().replace("policies=fifo,nn", "policies=dqn"))
    rc = main(["evaluate", "--config", str(cfg_file), "--out-dir", str(out_dir),
               "--checkpoint-dir", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "takes 3 input features, expected 15" in err


def test_diverging_training_exits_2(tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(
        "seed=19\ntrain_daily_calls=300\ntrain_days=3\nscenarios=hard\n"
        "learning_starts=8\nbatch_size=4\nbuffer_capacity=64\nupdate_steps=16\n"
        "learning_rate=1e30\n"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
    assert rc == 2
    assert "error: non-finite activation" in capsys.readouterr().err


def _records_config(cfg_file, records_path):
    cfg_file.write_text(
        cfg_file.read_text() + f"demand_mode=records\nrecords_path={records_path}\n"
    )


def test_records_csv_with_bad_header_exits_2(cfg_file, tmp_path, capsys):
    trips = tmp_path / "trips.csv"
    trips.write_text("minute,ox,oy,dx,dy\n0.0,0.1,0.1,0.2,0.2\n")
    _records_config(cfg_file, trips)
    rc = main(["simulate", "--config", str(cfg_file)])
    assert rc == 2
    assert "error: line 1: expected header" in capsys.readouterr().err


def test_records_path_directory_exits_2(cfg_file, tmp_path, capsys):
    _records_config(cfg_file, tmp_path)
    rc = main(["simulate", "--config", str(cfg_file)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_config_directory_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_report_of_directory_exits_2(tmp_path, capsys):
    rc = main(["report", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.fixture
def per_day_csv(cfg_file, tmp_path, capsys):
    out_dir = tmp_path / "ev"
    assert main(["evaluate", "--config", str(cfg_file), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    return out_dir / "per_day.csv"


def set_fields(**values):
    """A row mangler that puts `values` into the named per-day fields."""
    names = "date,policy,scenario,created,served,canceled,avg_delay_min,cancel_rate,total_service_min,seed"
    index = {name: i for i, name in enumerate(names.split(","))}

    def mangle(row):
        fields = row.split(",")
        for name, value in values.items():
            fields[index[name]] = str(value)
        return ",".join(fields)

    return mangle


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda row: row.rsplit(",", 1)[0], "line 3: expected 10 fields, got 9"),
        (set_fields(served="many"), "line 3: invalid literal for int() with base 10: 'many'"),
        (set_fields(canceled=-3), "line 3: canceled count -3 is negative"),
        (set_fields(created=-1, served=0, canceled=0), "line 3: created count -1 is negative"),
        (set_fields(created=10, served=12, canceled=0),
         "line 3: served 12 plus canceled 0 exceed created 10"),
        (set_fields(created=10, served=6, canceled=5),
         "line 3: served 6 plus canceled 5 exceed created 10"),
        (set_fields(avg_delay_min="nan"), "line 3: avg_delay_min nan is not finite and non-negative"),
        (set_fields(avg_delay_min=-0.5),
         "line 3: avg_delay_min -0.5 is not finite and non-negative"),
        (set_fields(cancel_rate="inf"), "line 3: cancel_rate inf is not finite and non-negative"),
        (set_fields(total_service_min="inf"),
         "line 3: total_service_min inf is not finite and non-negative"),
        # every fault at once: the counts are named first
        (set_fields(created=10, served=12, canceled=-3, avg_delay_min="nan",
                    total_service_min="inf"),
         "line 3: canceled count -3 is negative"),
        # a day's cancel rate is canceled/created as written, to 9 digits
        (set_fields(created=300, served=100, canceled=161, cancel_rate=5),
         "line 3: cancel_rate 5.0 is not canceled/created 161/300"),
        (set_fields(created=3, served=2, canceled=1, cancel_rate=0.333333334),
         "line 3: cancel_rate 0.333333334 is not canceled/created 1/3"),
        (set_fields(created=0, served=0, canceled=0, cancel_rate=0.5, avg_delay_min=0,
                    total_service_min=0),
         "line 3: cancel_rate 0.5 is not canceled/created 0/0"),
        # a day that served no call has no delay and no service time
        (set_fields(served=0, avg_delay_min=3.5),
         "line 3: avg_delay_min 3.5 on a day that served no call"),
        (set_fields(served=0, avg_delay_min=0, total_service_min=12.5),
         "line 3: total_service_min 12.5 on a day that served no call"),
    ],
    ids=["short_row", "non_numeric", "negative_canceled", "negative_created",
         "served_above_created", "served_plus_canceled_above_created", "nan_delay",
         "negative_delay", "inf_cancel_rate", "inf_service", "all_at_once",
         "cancel_rate_not_canceled_over_created", "cancel_rate_off_in_the_ninth_digit",
         "cancel_rate_on_a_day_without_calls", "delay_without_a_served_call",
         "service_without_a_served_call"],
)
def test_report_of_a_bad_row_names_the_line_and_exits_2(per_day_csv, capsys, mangle, message):
    lines = per_day_csv.read_text().splitlines()
    lines[2] = mangle(lines[2])
    per_day_csv.write_text("\n".join(lines) + "\n")
    rc = main(["report", str(per_day_csv)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(per_day_csv) in err and message in err


def test_report_accepts_a_day_with_every_call_served_or_canceled(per_day_csv, capsys):
    lines = per_day_csv.read_text().splitlines()
    lines[2] = set_fields(created=10, served=4, canceled=6, avg_delay_min=0, cancel_rate=0.6,
                          total_service_min=0)(lines[2])
    per_day_csv.write_text("\n".join(lines) + "\n")
    assert main(["report", str(per_day_csv), "--format", "csv"]) == 0


def test_report_of_a_repeated_day_names_both_lines_and_exits_2(per_day_csv, capsys):
    # before, the day was counted twice and the report's n and CI said so
    lines = per_day_csv.read_text().splitlines()
    per_day_csv.write_text("\n".join(lines + [lines[1]]) + "\n")
    assert main(["report", str(per_day_csv)]) == 2
    date, policy, scenario = lines[1].split(",")[:3]
    assert (f"line {len(lines) + 1}: day {date} of policy {policy} in scenario {scenario} "
            f"repeats line 2") in capsys.readouterr().err


def test_report_rebuilds_report_csv_byte_for_byte(tmp_path, capsys):
    # before, `report` averaged a rebuilt `DayMetrics` while `evaluate`
    # averaged full-precision ones, and 8 of these 12 rows differed
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("seed=2\ndaily_calls=60\neval_days=4\nscenarios=easy,hard\npolicies=fifo,nn\n")
    out_dir = tmp_path / "ev"
    assert main(["evaluate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    per_day_csv, written = out_dir / "per_day.csv", (out_dir / "report.csv").read_bytes()
    assert len(written.splitlines()) == 1 + 2 * 2 * 3
    target = tmp_path / "again.csv"
    argv = ["report", str(per_day_csv), "--format", "csv"]
    assert main(argv + ["--output", str(target)]) == 0
    assert target.read_bytes() == written
    capsys.readouterr()
    assert main(argv) == 0  # stdout gets the same lines
    assert capsys.readouterr().out.encode() == written


def test_report_skips_blank_lines(per_day_csv, capsys):
    main(["report", str(per_day_csv), "--format", "csv"])
    expected = capsys.readouterr().out
    per_day_csv.write_text(per_day_csv.read_text().replace("\n", "\n\n", 2))
    assert main(["report", str(per_day_csv), "--format", "csv"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("output", [False, True])
def test_report_of_a_header_only_csv_exits_2(per_day_csv, tmp_path, capsys, output):
    per_day_csv.write_text(per_day_csv.read_text().splitlines()[0] + "\n")
    argv = ["report", str(per_day_csv)]
    if output:
        argv += ["--output", str(tmp_path / "report.txt")]
    assert main(argv) == 2
    assert f"error: {per_day_csv}: no per-day rows" in capsys.readouterr().err
