"""The flat key=value experiment configuration."""

import pytest

from dispatchsim.config import (
    SCENARIO_RATIOS,
    ConfigError,
    Scenario,
    parse_config,
    parse_lines,
    serialize,
)


def test_minimal_config_uses_defaults():
    cfg = parse_lines(["seed=1"])
    assert cfg.seed == 1
    assert cfg.daily_calls == 2000
    assert cfg.gamma == 0.9
    assert cfg.demand_mode == "synthetic"
    assert cfg.policy_list == ["fifo", "lifo", "nn", "random", "dqn"]
    assert [s.name for s in cfg.scenario_list] == [
        "very_easy", "easy", "medium", "hard",
    ]


def test_comments_and_blank_lines_are_ignored():
    cfg = parse_lines(["# a comment", "", "seed=7  # trailing", "   "])
    assert cfg.seed == 7


def test_unknown_key_names_the_key_and_line():
    with pytest.raises(ConfigError, match=r":2: unknown key 'sneed'"):
        parse_lines(["seed=1", "sneed=2"])


def test_type_error_names_the_key():
    with pytest.raises(ConfigError, match="'seed' expects int"):
        parse_lines(["seed=pi"])


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="expected key=value"):
        parse_lines(["seed"])


def test_out_of_range_gamma_names_gamma():
    with pytest.raises(ConfigError, match="'gamma'"):
        parse_lines(["gamma=1.5"])


def test_epsilon_ordering_checked():
    with pytest.raises(ConfigError, match="epsilon_min"):
        parse_lines(["epsilon_min=0.9", "epsilon_max=0.5"])


def test_learning_starts_above_buffer_capacity_is_rejected():
    with pytest.raises(ConfigError, match="learning_starts must not exceed buffer_capacity"):
        parse_lines(["learning_starts=20", "buffer_capacity=10"])
    assert parse_lines(["learning_starts=10", "buffer_capacity=10"]).agent.learning_starts == 10


def test_bad_enumerations_rejected():
    with pytest.raises(ConfigError, match="demand_mode"):
        parse_lines(["demand_mode=oracle"])
    with pytest.raises(ConfigError, match="unknown policy"):
        parse_lines(["policies=fifo,greedy"])
    with pytest.raises(ConfigError, match="unknown scenario"):
        parse_lines(["scenarios=impossible"])


@pytest.mark.parametrize("seed", [-5, -1, 2**32, 4294967291 + 2**32])
def test_seed_outside_32_bits_is_rejected(seed):
    # `substream` keeps a seed's low 32 bits, so -5 would alias 4294967291
    with pytest.raises(ConfigError, match=f"key 'seed': value {seed} out of range"):
        parse_lines([f"seed={seed}"])


@pytest.mark.parametrize("value", [-1, 2, 7])
def test_event_trace_other_than_0_or_1_is_rejected(value):
    with pytest.raises(ConfigError, match=f"key 'event_trace': value {value} out of range"):
        parse_lines([f"event_trace={value}"])
    assert [parse_lines([f"event_trace={v}"]).event_trace for v in (0, 1)] == [0, 1]


def test_seed_range_ends_are_accepted():
    assert parse_lines(["seed=0"]).seed == 0
    assert parse_lines([f"seed={2**32 - 1}"]).seed == 2**32 - 1


@pytest.mark.parametrize("line", ["policies=", "scenarios=", "policies= , ", "scenarios=,"])
def test_empty_policy_or_scenario_list_is_rejected(line):
    key = line.split("=")[0]
    with pytest.raises(ConfigError, match=f"key '{key}' is empty"):
        parse_lines([line])


@pytest.mark.parametrize(
    "line, message",
    [
        ("policies=nn,nn", "policy 'nn' is listed twice in key 'policies'"),
        ("policies=nn, fifo ,nn ", "policy 'nn' is listed twice in key 'policies'"),
        ("scenarios=easy,hard,easy", "scenario 'easy' is listed twice in key 'scenarios'"),
    ],
)
def test_a_name_listed_twice_is_rejected(line, message):
    # before, `policies=nn,nn` with `scenarios=easy,easy` ran each day four
    # times and the report counted every copy
    with pytest.raises(ConfigError, match=message):
        parse_lines([line])
    assert parse_lines(["policies=nn,,fifo", "scenarios=easy,"]).policy_list == ["nn", "fifo"]


def test_degenerate_box_rejected():
    with pytest.raises(ConfigError, match="bounding box"):
        parse_lines(["box_x_min=1.0", "box_x_max=1.0"])


def test_serialize_round_trip():
    cfg = parse_lines(["seed=42", "gamma=0.8", "policies=nn,dqn", "speed=0.07"])
    again = parse_lines(serialize(cfg).splitlines())
    assert again.values == cfg.values


DEFAULTS = """\
seed=1
daily_calls=2000
train_daily_calls=1000
train_days=4
train_reps=1
eval_days=5
eval_seeds=1
demand_mode=synthetic
records_path=
synthetic_base_rate=0.0
spatial_mode=uniform
clusters=
tolerance_shape=2.0
tolerance_scale=4.0
reject_alpha=2.0
reject_beta=8.0
gamma=0.9
reward_bonus=2.0
epsilon_max=1.0
epsilon_min=0.05
epsilon_factor=0.99995
learning_starts=10000
update_steps=10000
batch_size=32
learning_rate=0.001
buffer_capacity=20000
speed=0.05
box_x_min=0.0
box_x_max=1.0
box_y_min=0.0
box_y_max=1.0
week_origin_offset=0.0
policies=fifo,lifo,nn,random,dqn
scenarios=very_easy,easy,medium,hard
out_dir=out
event_trace=0
max_events_per_day=10000000
"""


def test_an_empty_config_serializes_to_the_pinned_defaults():
    assert serialize(parse_lines([])) == DEFAULTS


def test_parse_config_reads_files(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("seed=3\ndaily_calls=500\n")
    cfg = parse_config(p)
    assert cfg.seed == 3
    assert cfg.daily_calls == 500


def test_scenario_fleet_sizes():
    assert SCENARIO_RATIOS == {
        "very_easy": 0.03, "easy": 0.02, "medium": 0.01, "hard": 0.005,
    }
    assert Scenario("very_easy").fleet_size(1000) == 30
    assert Scenario("easy").fleet_size(1000) == 20
    assert Scenario("medium").fleet_size(1000) == 10
    assert Scenario("hard").fleet_size(1000) == 5
    # never below one vehicle
    assert Scenario("hard").fleet_size(10) == 1


def test_cluster_list_parsing():
    cfg = parse_lines([
        "spatial_mode=clusters",
        "clusters=0.2,0.3,0.05,1.0;0.8,0.8,0.1,2.0",
    ])
    clusters = cfg.cluster_list
    assert len(clusters) == 2
    assert clusters[0].center.x == 0.2
    assert clusters[1].weight == 2.0


@pytest.mark.parametrize(
    "lines, message",
    [
        (["spatial_mode=clusters"], "spatial_mode=clusters needs at least one cluster"),
        (["spatial_mode=clusters", "clusters= "], "spatial_mode=clusters needs at least one cluster"),
        (["clusters=0.5,0.5"], "key 'clusters': part '0.5,0.5' must be four numbers"),
        (["clusters=0.2,0.2,0.1,1;0.5,x,0.1,1"], "key 'clusters': part '0.5,x,0.1,1'"),
    ],
)
def test_bad_clusters_name_the_key_and_part(lines, message):
    with pytest.raises(ConfigError, match=message):
        parse_lines(lines)


def test_typed_views():
    cfg = parse_lines(["tolerance_shape=3.0", "reject_alpha=1.0", "gamma=0.85"])
    assert cfg.stochastic.tolerance_shape == 3.0
    assert cfg.stochastic.reject_alpha == 1.0
    assert cfg.agent.gamma == 0.85
    assert cfg.box.x_max == 1.0
