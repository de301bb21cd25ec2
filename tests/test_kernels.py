"""The nearest-scan kernels: compiled and pure implementations must agree.

The package imports the compiled scan only when it was built in place, and
the tests run from `src/` without a build, so `implementations` compiles
`kernels/_scan.c` into a temporary directory with setuptools' own
`build_ext` whenever a C compiler is present, and every case runs against
both implementations.
"""

import importlib.util
import os
import shlex
import shutil
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dispatchsim.kernels
from dispatchsim.kernels import IMPLEMENTATION, nearest_index
from dispatchsim.kernels import _kernels_py as pure

SCAN_C = Path(dispatchsim.kernels.__file__).with_name("_scan.c")


def _have_compiler():
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or ""
    return bool(cc) and shutil.which(shlex.split(cc)[0]) is not None


def _build_scan(out: Path):
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    cmd = build_ext(Distribution({"ext_modules": [Extension("_scan", [str(SCAN_C)])]}))
    cmd.build_lib, cmd.build_temp = str(out), str(out / "temp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location("_scan", cmd.get_ext_fullpath("_scan"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def implementations(tmp_path_factory):
    if not _have_compiler():
        return [pure]
    return [pure, _build_scan(tmp_path_factory.mktemp("scan"))]


@pytest.fixture(scope="module")
def compiled(implementations):
    if len(implementations) < 2:
        pytest.skip("no C compiler found to build kernels/_scan.c")
    return implementations[1]


def brute_nearest(xs, ys, ax, ay, eligible=None):
    best, best_d = -1, float("inf")
    for i in range(len(xs)):
        if eligible is not None and not eligible[i]:
            continue
        d = abs(xs[i] - ax) + abs(ys[i] - ay)
        if d < best_d:
            best, best_d = i, d
    return best


coords = st.lists(st.floats(0, 1, allow_nan=False, width=32), min_size=1, max_size=40)


@settings(max_examples=200)
@given(coords, st.floats(0, 1), st.floats(0, 1), st.randoms())
def test_kernels_match_brute_force(implementations, vals, ax, ay, pyrandom):
    xs = np.array(vals, dtype=np.float64)
    ys = np.array([pyrandom.uniform(0, 1) for _ in vals], dtype=np.float64)
    mask = np.array([pyrandom.random() < 0.7 for _ in vals], dtype=np.uint8)
    for impl in implementations:
        assert impl.nearest_index(xs, ys, ax, ay) == brute_nearest(xs, ys, ax, ay)
        assert impl.nearest_index_masked(xs, ys, mask, ax, ay) == brute_nearest(
            xs, ys, ax, ay, mask
        )


def test_tie_break_is_first_index(implementations):
    xs = np.array([1.0, 0.0, 2.0, 0.0])
    ys = np.array([0.0, 1.0, 0.0, 1.0])
    mask = np.array([0, 1, 1, 1], dtype=np.uint8)
    for impl in implementations:
        # indices 0, 1, 3 all at distance 1 from the origin
        assert impl.nearest_index(xs, ys, 0.0, 0.0) == 0
        assert impl.nearest_index_masked(xs, ys, mask, 0.0, 0.0) == 1


def test_no_eligible_returns_negative(implementations):
    xs = np.array([0.5])
    ys = np.array([0.5])
    mask = np.zeros(1, dtype=np.uint8)
    for impl in implementations:
        assert impl.nearest_index_masked(xs, ys, mask, 0.0, 0.0) == -1


def test_empty_arrays_return_negative(implementations):
    xs = np.empty(0)
    ys = np.empty(0)
    for impl in implementations:
        assert impl.nearest_index(xs, ys, 0.0, 0.0) == -1
        assert impl.nearest_index_masked(xs, ys, np.empty(0, dtype=np.uint8), 0.0, 0.0) == -1


def test_compiled_scan_refuses_buffers_it_cannot_read_as_given(compiled):
    floats = np.arange(8.0).reshape(2, 4)
    xs, ys = floats[0], floats[1]
    mask = np.ones(4, dtype=np.uint8)
    with pytest.raises(TypeError):
        compiled.nearest_index(xs.astype(np.float32), ys, 0.0, 0.0)
    with pytest.raises(TypeError):
        compiled.nearest_index_masked(xs, ys, mask.astype(bool), 0.0, 0.0)
    with pytest.raises(TypeError):
        compiled.nearest_index(floats, floats, 0.0, 0.0)
    with pytest.raises(ValueError):
        compiled.nearest_index(xs, ys[:3], 0.0, 0.0)
    with pytest.raises(ValueError):
        compiled.nearest_index_masked(xs, ys, mask[:3], 0.0, 0.0)
    with pytest.raises(ValueError):
        compiled.nearest_index(floats[:, ::2], floats[:, ::2], 0.0, 0.0)
    with pytest.raises(ValueError):
        compiled.nearest_index(xs[::2], ys[::2], 0.0, 0.0)


def test_implementation_label():
    assert IMPLEMENTATION in ("c", "python")
    assert (IMPLEMENTATION == "python") == (nearest_index is pure.nearest_index)


def test_nearest_policy_reads_the_pool_through_the_compiled_scan(compiled, monkeypatch):
    # the pool gathers its columns from the call table at each read
    import dispatchsim.policies as policies
    from dispatchsim.engine import Environment
    from dispatchsim.entities import Call, Vehicle
    from dispatchsim.geometry import Coordinate

    monkeypatch.setattr(policies, "nearest_index", compiled.nearest_index)
    here = Coordinate(0.0, 0.5)
    env = Environment([Vehicle(0, here, here)], speed=0.1, driver_rng=np.random.default_rng(0))
    env.calls = [Call(i, float(i), Coordinate(x, 0.5), here, 60.0) for i, x in enumerate((0.9, 0.25, 0.5))]
    for cid in (2, 0, 1):
        env.pool.add(cid)
    assert policies.NearestPolicy().choose_call(env, env.fleet[0]) == 1
