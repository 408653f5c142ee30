"""bench/record.py's parsing and aggregation, on canned perfbench/run.py output
(no benchmark run), and the tree ids that name the code it measured."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record", ROOT / "bench" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

E2E = [{"name": "wall_s", "better": "lower"}, {"name": "ok_ratio", "better": "higher"}]


def runner_stdout(wall_s, ok_ratio=1.0, sha="abc123"):
    """What perfbench/run.py prints for one untraced run."""
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "ok_ratio": {"value": ok_ratio, "unit": "ratio"}}
    return "\n".join([
        f"machine nproc=2 python=3.11.7 numpy=2.4.6 blas=scipy-openblas 0.3.31 "
        f"blas_threads=1 git_sha={sha}",
        f"metric wall_s = {wall_s} s",
        f"metric ok_ratio = {ok_ratio} ratio",
        "info samples.rounds = 3 ",
        json.dumps({"correct": True, "attempted": 6, "failed": 0, "metrics": metrics})])


def test_parse_run_reads_machine_and_metrics():
    run = record.parse_run(runner_stdout(2.5) + "\n")
    assert run["machine"] == {"nproc": "2", "python": "3.11.7", "numpy": "2.4.6",
                              "blas": "scipy-openblas 0.3.31", "blas_threads": "1",
                              "git_sha": "abc123"}
    assert run["metrics"] == {"wall_s": 2.5, "ok_ratio": 1.0}
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 6, 0)


def test_aggregate_medians_quartiles_ratios_and_wins():
    base = [2.0, 2.2, 2.1, 2.4, 2.3]
    change = [1.6, 1.8, 2.2, 1.9, 1.7]
    pairs = [(record.parse_run(runner_stdout(b)), record.parse_run(runner_stdout(c, 0.5)))
             for b, c in zip(base, change)]
    out = record.aggregate(pairs, E2E + [{"name": "missing", "better": "lower"}])
    assert set(out) == {"wall_s", "ok_ratio"}
    wall = out["wall_s"]
    assert (wall["base_q1"], wall["base_median"], wall["base_q3"]) == pytest.approx((2.1, 2.2, 2.3))
    assert (wall["change_q1"], wall["change_median"], wall["change_q3"]) == \
        pytest.approx((1.7, 1.8, 1.9))
    assert wall["ratio_median"] == pytest.approx(1.6 / 2.0)  # of the paired ratios
    assert (wall["wins"], wall["pairs"]) == (4, 5)  # 2.2 against 2.1 is a loss
    assert wall["base"] == base and wall["change"] == change
    # higher is better, and ties count for neither side
    assert out["ok_ratio"]["wins"] == 0
    assert record.compare([1.0, 1.0], [1.0, 2.0], "higher")["wins"] == 1


def test_one_pair_is_its_own_quartiles():
    s = record.compare([3.0], [2.0], "lower")
    assert (s["base_q1"], s["base_median"], s["base_q3"]) == (3.0, 3.0, 3.0)
    assert (s["wins"], s["ratio_median"]) == (1, pytest.approx(2 / 3))
    assert record.compare([0.0], [0.0], "lower")["ratio_median"] is None


def test_suite_timings_keep_every_run_and_exit_code():
    pairs = [({"seconds": b, "exit": 0}, {"seconds": c, "exit": e})
             for b, c, e in [(50.0, 45.0, 0), (54.0, 49.0, 1), (52.0, 53.0, 0),
                             (51.0, 47.0, 0), (55.0, 48.0, 0)]]
    s = record.summarize_suite(pairs)
    assert (s["base_median"], s["change_median"]) == (52.0, 48.0)
    assert s["base"] == [50.0, 54.0, 52.0, 51.0, 55.0]
    assert s["change"] == [45.0, 49.0, 53.0, 47.0, 48.0]
    assert (s["base_exit"], s["change_exit"]) == ([0] * 5, [0, 1, 0, 0, 0])
    assert (s["wins"], s["pairs"], s["better"]) == (4, 5, "lower")
    line = record.format_table({"workloads": {}, "suites": {"tier1": s}})
    assert line.split()[:3] == ["suite", "seconds", "tier1"]
    assert line.endswith("exits base [0, 0, 0, 0, 0] change [0, 1, 0, 0, 0]")


def test_time_suite_reports_the_exit_code(tmp_path):
    run = record.time_suite(tmp_path, ["-c", "import sys; sys.exit(3)"])
    assert run["exit"] == 3 and run["seconds"] > 0


def test_traced_pairs_put_each_side_first_in_half(tmp_path, monkeypatch):
    # --traced 3 runs 4 traced pairs a workload, base first in pairs 0 and 2
    runs = []

    def run(tree, workload, seed, traced):
        side = "change" if tree == record.ROOT else "base"
        runs.append((workload, traced, side))
        return record.parse_run(runner_stdout(1.0))

    monkeypatch.setattr(record, "run_perfbench", run)
    monkeypatch.setattr(record, "time_suite", lambda tree, args: {"seconds": 1.0, "exit": 0})
    monkeypatch.setattr(record, "export", lambda sha, dest: None)
    monkeypatch.setattr(record, "git", lambda *args, **kwargs: "")
    monkeypatch.setattr(record, "tree_ids", lambda root, dirs: dict.fromkeys(dirs, ""))
    monkeypatch.setattr(record, "next_bench_path", lambda root: tmp_path / "BENCH_1.json")
    assert record.main(["--seeds", "2", "--traced", "3"]) == 0
    assert json.loads((tmp_path / "BENCH_1.json").read_text())["settings"]["traced"] == 4
    for workload in (w["name"] for w in record.SPEC["workloads"]):
        assert [side for w, traced, side in runs[::2] if w == workload and traced] == \
            ["base", "change", "base", "change"]


def test_next_bench_path(tmp_path):
    assert record.next_bench_path(tmp_path).name == "BENCH_1.json"
    for name in ("BENCH_1.json", "BENCH_3.json", "BENCH_x.json"):
        (tmp_path / name).write_text("{}")
    assert record.next_bench_path(tmp_path).name == "BENCH_4.json"


def test_table_prints_every_metric():
    pairs = [(record.parse_run(runner_stdout(2.0)), record.parse_run(runner_stdout(1.5)))]
    rec = {"workloads": {"predict-default": {"end_to_end": record.aggregate(pairs, E2E)}}}
    lines = record.format_table(rec).splitlines()
    assert len(lines) == 2
    assert lines[0].split()[:2] == ["predict-default", "wall_s"]
    assert "wins 1/1 (lower is better)" in lines[0]


def test_tree_ids_name_what_a_commit_would_hold(tmp_path):
    def git(*args):
        return record.git(*args, cwd=tmp_path)

    def commit():
        git("add", "--all")
        git("-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-qm", "c")

    git("init", "-q")
    (tmp_path / ".gitignore").write_text("*.pyc\n")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("a = 1\n")
    (tmp_path / "doc.md").write_text("x\n")
    commit()
    (tmp_path / "src" / "a.py").write_text("a = 2\n")
    (tmp_path / "src" / "b.py").write_text("b = 1\n")  # untracked: in
    (tmp_path / "src" / "a.pyc").write_bytes(b"\0")     # ignored: out
    (tmp_path / "doc.md").write_text("y\n")            # outside the dirs: out
    ids = record.tree_ids(tmp_path, ["src"])
    assert git("diff", "--cached", "--name-only") == ""  # the index is untouched
    assert ids["src"] != git("rev-parse", "HEAD:src").strip()
    commit()
    assert ids == {"src": git("rev-parse", "HEAD:src").strip()}
