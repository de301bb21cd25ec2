"""`benchmarks/bench_pairs.py` with perfbench runs replaced by fixed results."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "benchmarks" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.fixture
def fake_runs(monkeypatch):
    calls = []

    def run_once(root, workload, seed, seconds):
        calls.append((root, workload, seed, seconds))
        speed = 2.0 if (root / "side").read_text() == "change" else 1.0
        return {
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {"setup_s": 1.0, "work_per_s": speed * seed, "peak_rss_mb": 50.0},
            "rounds": [{"s": 1.0, "events": 10, "grad_steps": 0}],
            "kernel_implementation": "python",
        }

    def probe():
        calls.append("probe")
        return 0.25

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "probe", probe)
    monkeypatch.setattr(bench_pairs, "src_digest", lambda root: root.name)
    monkeypatch.setattr(bench_pairs, "openblas_core", lambda: "TestCore")
    return calls


def _checkouts(tmp_path):
    """Two git checkouts whose tracked files name their side."""
    for side in ("parent", "change"):
        root = tmp_path / side
        if not root.exists():
            (root / "src").mkdir(parents=True)
            (root / "side").write_text(side)
            (root / "src" / "code.py").write_text(f"SIDE = {side!r}\n")
            (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
            subprocess.run(["git", "init", "-q"], cwd=root, check=True)
            subprocess.run(["git", "add", "."], cwd=root, check=True)
    return tmp_path / "parent", tmp_path / "change"


def _main(tmp_path, out, *extra):
    parent, change = _checkouts(tmp_path)
    return bench_pairs.main([
        "--parent", str(parent), "--change", str(change),
        "--workloads", "w", "--seeds", "1,2", "--what", "test", "--out", str(out), *extra,
    ])


def test_seconds_default_to_five_and_are_kept_in_the_record(tmp_path, fake_runs):
    out = tmp_path / "one.json"
    assert _main(tmp_path, out) == 0
    record = json.loads(out.read_text())
    runs = [c for c in fake_runs if c != "probe"]
    assert {c[3] for c in runs} == {5.0} and len(runs) == 4
    assert record["seconds"] == 5.0 and "--seconds 5 " in record["command"]
    assert record["summary"]["w"]["work_per_s"]["change_wins_pairs"] == "2/2"


def test_seconds_reach_every_run_and_append_turns_one_record_into_a_list(tmp_path, fake_runs):
    out = tmp_path / "two.json"
    _main(tmp_path, out)
    _main(tmp_path, out, "--seconds", "12.5", "--append")
    records = json.loads(out.read_text())
    assert [r["seconds"] for r in records] == [5.0, 12.5]
    assert [c[3] for c in fake_runs[8:] if c != "probe"] == [12.5] * 4
    assert "--seconds 12.5 " in records[1]["command"]


def test_probe_is_timed_before_each_run_and_kept_with_it(tmp_path, fake_runs):
    out = tmp_path / "probe.json"
    _main(tmp_path, out)
    assert fake_runs[::2] == ["probe"] * 4 and "probe" not in fake_runs[1::2]
    assert [r["probe_s"] for r in json.loads(out.read_text())["runs"]] == [0.25] * 4


def test_the_record_names_the_openblas_kernel(tmp_path, fake_runs):
    out = tmp_path / "core.json"
    _main(tmp_path, out)
    _main(tmp_path, out, "--append")
    assert [r["openblas_core"] for r in json.loads(out.read_text())] == ["TestCore"] * 2


def test_openblas_core_names_the_kernel_of_numpys_bundled_library(tmp_path):
    core = bench_pairs.openblas_core()  # SkylakeX, Haswell, Zen, ...
    assert core is None or core.isalnum()
    assert bench_pairs.openblas_core(tmp_path) is None  # no bundled library


def test_each_side_runs_from_a_fresh_copy_of_its_tracked_files(tmp_path, fake_runs):
    parent, change = _checkouts(tmp_path)
    _main(tmp_path, tmp_path / "copies.json")
    roots = [c[0] for c in fake_runs if c != "probe"]
    assert len(set(roots)) == 2 and not {parent, change} & set(roots)
    assert all(root.parent == tmp_path for root in roots)  # beside the given roots
    assert [root.name.split("-")[0] for root in roots[:2]] == ["parent", "change"]
    record = json.loads((tmp_path / "copies.json").read_text())
    assert record["src_sha256"]["change"].startswith("change-")  # hashed in the copy
    assert record["summary"]["w"]["work_per_s"]["change_wins_pairs"] == "2/2"
    assert not any(root.exists() for root in roots)  # deleted at the end


def test_a_copy_holds_the_working_tree_contents_of_tracked_files_only(tmp_path):
    _, change = _checkouts(tmp_path)
    (change / "src" / "code.py").write_text("SIDE = 'edited'\n")  # tracked, not committed
    (change / "untracked.txt").write_text("left behind")
    copy = bench_pairs.fresh_copy(change, "change")
    assert copy.parent == tmp_path and copy.name.startswith("change-")
    assert sorted(p.relative_to(copy).as_posix() for p in copy.rglob("*") if p.is_file()) == [
        "BENCHMARK.json", "side", "src/code.py"]
    assert (copy / "src" / "code.py").read_text() == "SIDE = 'edited'\n"
    assert bench_pairs.src_digest(copy) == bench_pairs.src_digest(change)


def test_a_side_that_is_not_a_git_checkout_is_refused(tmp_path):
    with pytest.raises(SystemExit, match="git ls-files"):
        bench_pairs.fresh_copy(tmp_path, "parent")
    assert list(tmp_path.iterdir()) == []


def test_probe_times_the_host():
    seconds = bench_pairs.probe()
    assert 0.0 < seconds < 60.0


def _summary(parent, change, better="lower", bound=0.25):
    runs = [{"workload": "w", "seed": seed, "side": side, "metrics": {"m": value}}
            for side, values in (("parent", parent), ("change", change))
            for seed, value in enumerate(values)]
    metric = {"name": "m", "better": better, "bound": bound}
    return bench_pairs.summarize(runs, [metric])["w"]["m"]


def test_a_metric_is_unresolved_when_the_parent_spreads_wider_than_its_bound():
    # parent quartiles 1.0, 1.5, 2.0: an IQR of 1.0 against a bound of 0.25 * 1.5
    wide = [1.0, 1.0, 1.5, 2.0, 2.0]
    assert _summary(wide, [1.5] * 5)["unresolved"]
    assert _summary(wide, [1.5] * 5, better="higher")["unresolved"]
    # every change run beats every parent run
    assert not _summary(wide, [0.9] * 5)["unresolved"]
    assert not _summary(wide, [2.1] * 5, better="higher")["unresolved"]
    assert _summary(wide, [0.9] * 4 + [1.0])["unresolved"]  # a tie is no win
    # a parent spread within the bound resolves every change, worse or not
    narrow = [1.0, 1.05, 1.1, 1.15, 1.2]
    assert not _summary(narrow, [5.0] * 5)["unresolved"]
    assert not _summary(wide, [1.5] * 5, bound=1.0)["unresolved"]


# ten parent runs about 10.0 whose IQR (0.045) is far below a gap of 1.0
TEN = [10.0 + 0.01 * i for i in range(-5, 5)]


def test_a_claim_is_met_on_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parents_iqr():
    summary = _summary(TEN, [t - 1.0 for t in TEN])
    assert summary["change_wins_pairs"] == "10/10" and summary["claim_met"]
    assert _summary(TEN, [t + 1.0 for t in TEN], better="higher")["claim_met"]
    assert not _summary(TEN, [t + 1.0 for t in TEN])["claim_met"]  # worse, not better


def test_a_claim_is_not_met_with_a_gap_inside_the_parents_iqr():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]  # IQR 4.5
    change = [t - 1.0 for t in parent[:9]] + [parent[9] + 1.0]
    summary = _summary(parent, change)
    assert summary["change_wins_pairs"] == "9/10" and not summary["claim_met"]
    # the same wins with a gap beyond the IQR meet it
    assert _summary(parent, [t - 5.0 for t in parent[:9]] + [parent[9] + 1.0])["claim_met"]


def test_a_claim_is_not_met_on_eight_tenths_of_the_pairs():
    change = [t - 1.0 for t in TEN[:8]] + TEN[8:]  # two ties, which count for neither side
    summary = _summary(TEN, change)
    assert summary["change_wins_pairs"] == "8/10" and not summary["claim_met"]
