"""Text checkpoint format: lossless round trips for 32-bit parameters."""

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

    mutated = list(lines)
    mutated[2] = " ".join(mutated[2].split()[:-1])  # drop one weight
    bad.write_text("\n".join(mutated) + "\n")
    with pytest.raises(ValueError, match="size mismatch"):
        load_checkpoint(bad)


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
