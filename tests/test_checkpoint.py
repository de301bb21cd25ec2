"""Text checkpoint format: lossless round trips for 32-bit parameters."""

import re
import tracemalloc

import numpy as np
import pytest

from dispatchsim.qnet import QNetwork, load_checkpoint, save_checkpoint


def test_round_trip_is_bit_identical(tmp_path):
    net = QNetwork((15, 64, 32, 1), rng=np.random.default_rng(17))
    path = tmp_path / "agent.ckpt"
    save_checkpoint(net, "new_call", path)
    loaded, name = load_checkpoint(path)
    assert name == "new_call"
    assert loaded.dims == net.dims
    for a, b in zip(net.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(a, b)


def test_save_load_save_produces_identical_bytes(tmp_path):
    net = QNetwork((5, 8, 1), rng=np.random.default_rng(3))
    # perturb to non-round values
    for w in net.weights:
        w += np.float32(1e-7)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(net, "x", p1)
    loaded, _ = load_checkpoint(p1)
    save_checkpoint(loaded, "x", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_probe_outputs_identical_after_reload(tmp_path):
    net = QNetwork((15, 64, 32, 1), rng=np.random.default_rng(29))
    path = tmp_path / "probe.ckpt"
    save_checkpoint(net, "free_vehicle", path)
    loaded, _ = load_checkpoint(path)
    probes = np.random.default_rng(5).uniform(-2, 2, (100, 15)).astype(np.float32)
    np.testing.assert_array_equal(net.forward(probes), loaded.forward(probes))


def test_header_and_shape_validation(tmp_path):
    net = QNetwork((3, 4, 1), rng=np.random.default_rng(0))
    path = tmp_path / "c.ckpt"
    save_checkpoint(net, "a", path)
    lines = path.read_text().splitlines()

    bad = tmp_path / "bad.ckpt"
    bad.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_checkpoint(bad)

    bad.write_text("NOTAMAGIC v1 a\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(ValueError, match="header"):
        load_checkpoint(bad)

    for kept in (1, 3):  # header only; header, dims and one layer's weights
        bad.write_text("\n".join(lines[:kept]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(bad)

    for dims in ("15 x 1", "15 -2 1", "15 64 32 2", "1", ""):
        bad.write_text("\n".join([lines[0], dims, *lines[2:]]) + "\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{bad}: bad layer dims")):
            load_checkpoint(bad)

    mutated = list(lines)
    mutated[2] = " ".join(mutated[2].split()[:-1])  # drop one weight
    bad.write_text("\n".join(mutated) + "\n")
    with pytest.raises(ValueError, match="size mismatch"):
        load_checkpoint(bad)


def test_layer_sizes_are_checked_before_the_network_is_allocated(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(QNetwork((3, 4, 1), rng=np.random.default_rng(0)), "a", path)
    lines = path.read_text().splitlines()
    lines[1] = "15 250000 1"  # 3.75M weights, with Adam state about 45 MB
    path.write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="layer 0 size mismatch"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_extreme_float32_values_survive(tmp_path):
    net = QNetwork((2, 2, 1), rng=np.random.default_rng(0))
    net.weights[0][...] = np.array(
        [[np.float32(1.1754944e-38), np.float32(3.4028235e38)],
         [np.float32(-0.1), np.float32(np.pi)]],
        dtype=np.float32,
    )
    path = tmp_path / "e.ckpt"
    save_checkpoint(net, "a", path)
    loaded, _ = load_checkpoint(path)
    np.testing.assert_array_equal(net.weights[0], loaded.weights[0])


def test_load_resets_optimizer_state(tmp_path):
    net = QNetwork((2, 2, 1), rng=np.random.default_rng(0))
    x = np.ones((4, 2), dtype=np.float32)
    net.train_batch(x, np.ones(4, dtype=np.float32), lr=0.01)
    assert net.adam_t == 1
    path = tmp_path / "opt.ckpt"
    save_checkpoint(net, "a", path)
    loaded, _ = load_checkpoint(path)
    assert loaded.adam_t == 0
    assert all(np.all(m == 0) for m in loaded.adam_m)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_parameter_is_rejected(tmp_path, bad):
    net = QNetwork((3, 4, 1), rng=np.random.default_rng(0))
    path = tmp_path / "nonfinite.ckpt"
    save_checkpoint(net, "a", path)
    lines = path.read_text().splitlines()
    lines[3] = " ".join(lines[3].split()[:-1] + [bad])  # last bias of layer 0
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="nonfinite.ckpt: non-finite parameter"):
        load_checkpoint(path)


def test_loaded_layers_are_views_of_params(tmp_path):
    net = QNetwork((3, 4, 2, 1), rng=np.random.default_rng(1))
    path = tmp_path / "views.ckpt"
    save_checkpoint(net, "a", path)
    loaded, _ = load_checkpoint(path)
    np.testing.assert_array_equal(net.params, loaded.params)
    for p in loaded.parameters():
        assert np.shares_memory(p, loaded.params)
    loaded.biases[-1][...] = 5.0
    assert loaded.params[-1] == 5.0


def test_load_draws_no_weights(tmp_path, monkeypatch):
    net = QNetwork((3, 4, 1), rng=np.random.default_rng(5))
    save_checkpoint(net, "x", tmp_path / "a.ckpt")
    monkeypatch.setattr(np.random, "default_rng", None)  # any draw would fail
    loaded, _ = load_checkpoint(tmp_path / "a.ckpt")
    assert loaded.params.tobytes() == net.params.tobytes()
