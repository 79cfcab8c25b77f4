"""Self-tests of the benchmark: tracing, the correctness gate and the contract.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ppkit
import run
import worker
from tracing import LAYER_UNITS, Tracer

ROOT = Path(__file__).resolve().parent.parent


def small_sweep(tmp_path, fmt="jsonl", full=False, trace=False):
    return worker.CliSweep(7, tmp_path, trace, tid="3.6", p=5, m=1, full=full, fmt=fmt, samples=3)


def ppkit_namespace():
    """Every attribute of every ppkit module and of the context classes."""
    mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "ppkit"]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for cls in (ppkit.TowerCtx, ppkit.FieldCtx):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


def test_tracer_restores_originals():
    before = ppkit_namespace()
    tracer = Tracer()
    with tracer:
        assert ppkit.sweep.images_permute is not before["ppkit.sweep", "images_permute"]
        assert ppkit.cli.lemma31_extract is not before["ppkit.cli", "lemma31_extract"]
        assert vars(ppkit.TowerCtx)["tables"] is not before["TowerCtx", "tables"]
    after = ppkit_namespace()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_and_count(tmp_path):
    wl = small_sweep(tmp_path, trace=True)
    with Tracer() as tracer:
        worker.measure(wl, 0, rounds=1)
    layers = tracer.summary()
    assert layers.keys() <= LAYER_UNITS.keys()
    assert layers["criteria.predict_calls"] == layers["oracle.images_permute_calls"] == 100
    assert layers["sweep.records"] == 100 and layers["tower.tables_builds"] == 1
    assert layers["sweep.bytes_written"] == (tmp_path / "sweep-first.jsonl").stat().st_size
    assert 0 <= layers["sweep.run_self_s"] < layers["sweep.run_s"] <= layers["cli.main_s"]
    tracer.save(tmp_path / "spans.npz")


def test_in_process_sweeps_are_traced(tmp_path):
    wl = worker.Matrix(1, tmp_path, trace=True)
    op = next(op for op in wl.round(0) if op.args[1:4] == ("3.6", 5, 1))
    with Tracer() as tracer:
        records = wl.run_op(op)
    layers = tracer.summary()
    assert layers["sweep.run_calls"] == 1 and layers["sweep.records"] == len(records) == 100


@pytest.mark.parametrize("fmt,full", [("jsonl", False), ("csv", True)])
def test_traced_and_untraced_runs_write_the_same_bytes(tmp_path, fmt, full):
    plain = small_sweep(tmp_path / "plain", fmt, full)
    traced = small_sweep(tmp_path / "traced", fmt, full, trace=True)
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    worker.measure(plain, 0, rounds=2)
    with Tracer():
        worker.measure(traced, 0, rounds=2)
    assert plain.first.read_bytes() == traced.first.read_bytes()
    assert plain.sha256() == traced.sha256()
    plain.verify()
    traced.verify()
    assert plain.gate.problems == traced.gate.problems == []
    assert traced.gate.classes.seen


def corrupt(path, index, **fields):
    lines = path.read_text().splitlines(keepends=True)
    rec = json.loads(lines[index])
    rec.update(fields)
    lines[index] = json.dumps(rec) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("change", ["flip_verdict", "disagree", "drop"])
def test_corrupted_record_fails_the_gate(tmp_path, change):
    wl = small_sweep(tmp_path)
    worker.measure(wl, 0, rounds=1)
    j = wl.picks[0]
    rec = json.loads(wl.first.read_text().splitlines()[j])
    if change == "flip_verdict":  # consistent in itself, caught by re-verification
        corrupt(wl.first, j, oracle=not rec["oracle"], predicted=not rec["predicted"])
    elif change == "disagree":
        corrupt(wl.first, j, agree=False, note=None)
    else:
        lines = wl.first.read_text().splitlines(keepends=True)
        wl.first.write_text("".join(lines[:-1]))
    wl.verify()
    assert wl.gate.problems


def test_all_operations_failing_still_summarizes(tmp_path):
    m = {"rounds": 1, "wall_s": 1.0, "attempted": 2, "failed": 2, "records": 0, "ref_ms": [5.0],
         "latencies": []}
    assert worker.summarize(m)["records_per_s"] == 0.0


def test_reference_time_scales_wall_time():
    op = ("sweep", "3.6")
    m = {"rounds": 3, "wall_s": 4.0, "attempted": 3, "failed": 0, "records": 300, "ref_ms": [5.0] * 4,
         "latencies": [["sweep", op, dt, 100, scale] for dt, scale in [(1.0, 1.0), (2.0, 0.5), (3.0, 0.5)]]}
    out = worker.summarize(m)
    assert out["op_p50_ms"] == 1000.0 and out["records_per_s"] == 100.0  # median of 1, 1, 1.5
    assert out["wall"]["op_p50_ms"] == 2000.0 and out["wall"]["records_per_s"] == 50.0


def test_every_operation_gets_a_scale(tmp_path):
    wl = worker.Points(3, tmp_path, rounds=2)
    m = worker.measure(wl, 0, rounds=2)
    assert len(m["latencies"]) == 10 and len(m["ref_ms"]) >= 3
    assert all(scale > 0 for *_, scale in m["latencies"])


def test_clean_run_passes_the_gate(tmp_path):
    wl = small_sweep(tmp_path)
    m = worker.measure(wl, 0, rounds=1)
    wl.verify()
    assert wl.gate.problems == [] and m["records"] == 100 and m["failed"] == 0


@pytest.mark.parametrize("tid,p,m,d", [("3.1", 3, 1, None), ("3.6", 5, 1, None),
                                       ("3.13", 3, 2, None), ("3.13", 3, 1, None),
                                       ("4.1", 2, 2, 1)])
def test_expected_records(tid, p, m, d):
    assert len(ppkit.sweep_theorem(tid, p, m, d=d)) == worker.expected_records(tid, p, m, d=d)


def test_tail_percentile():
    assert worker.tail(list(range(1, 41))) == (30, 75.0)
    assert worker.tail(list(range(20, 0, -1))) == (20, 100.0)


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS == list(worker.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "points", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
