"""Tests of the benchmark itself.

    python3 -m pytest crawlbench/tests -q

The run tests start the benchmark as a subprocess at the tiny input size
(a few minutes in all on one CPU).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from harness import TOKEN_ENV, Span, Tracer, parse_stats, token_pids  # noqa: E402

DECLARED = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run_bench(workload, trace, *, cwd=ROOT, env=None, seconds=1):
    cmd = [sys.executable, "crawlbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", str(seconds), "--trace", str(trace), "--size", "tiny"]
    p = subprocess.run(cmd, cwd=cwd, env={**os.environ, **(env or {})},
                       capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
    return p, result


def leftover_processes() -> list[int]:
    """Processes of any benchmark run, from the token variable's name."""
    return token_pids(TOKEN_ENV + "=")


# -- pure units -----------------------------------------------------------------


def test_span_self_time_subtracts_direct_children_only():
    root = Span("iter", 0.0, 10.0)
    a = Span("a", 1.0, 4.0)
    a.children.append(Span("a.inner", 2.0, 3.5))
    b = Span("b", 5.0, 9.0)
    root.children += [a, b]
    assert root.self_time == pytest.approx(10.0 - 3.0 - 4.0)
    assert a.self_time == pytest.approx(3.0 - 1.5)
    assert b.self_time == pytest.approx(4.0)


def test_tracer_self_times_sum_to_root_wall_time():
    tr = Tracer()
    with tr.span("iter"):
        with tr.span("run"):
            with tr.span("checkpoint"):
                pass
            with tr.span("checkpoint"):
                pass
        with tr.span("shutdown"):
            pass
    selfs = tr.self_times()
    assert set(selfs) == {"iter", "run", "checkpoint", "shutdown"}
    assert sum(selfs.values()) == pytest.approx(tr.roots[0].duration)
    assert len(tr.durations("checkpoint")) == 2
    assert tr.total("checkpoint") == pytest.approx(sum(tr.durations("checkpoint")))


def test_disabled_tracer_records_nothing():
    tr = Tracer(enabled=False)
    with tr.span("x") as sp:
        assert sp is None
    assert tr.roots == [] and tr.self_times() == {}


STATS_TEXT = """Operator 1 ReadRange->MapBatches(f): 2 tasks executed, 2 blocks produced in 0.02s
* Remote wall time: 1.67ms min, 8.1ms max, 4.89ms mean, 9.77ms total
* Remote cpu time: 1.75ms min, 8.24ms max, 5.0ms mean, 9.99ms total
* Output size bytes per block: 8000 min, 8000 max, 8000 mean, 16000 total

Operator 2 Repartition: executed in 1.82s

\tSuboperator 0 RepartitionSplit: 2 tasks executed, 2 blocks produced
\t* Remote wall time: 1.67ms min, 8.1ms max, 4.89ms mean, 9.77ms total
\t* Remote cpu time: 1.75ms min, 8.24ms max, 5.0ms mean, 9.99ms total
\t* Output size bytes per block: 8000 min, 8000 max, 8000 mean, 16000 total

\tSuboperator 1 RepartitionReduce: 1 tasks executed, 1 blocks produced
\t* Remote wall time: 275.46us min, 275.46us max, 275.46us mean, 275.46us total
\t* Remote cpu time: 272.36us min, 272.36us max, 272.36us mean, 272.36us total
\t* Output size bytes per block: 16000 min, 16000 max, 16000 mean, 16000 total

Operator 3 MapBatches(g)->Write: 1 tasks executed, 1 blocks produced in 1.5s
* Remote wall time: 1.2s min, 1.2s max, 1.2s mean, 1.2s total
* Remote cpu time: 1.1s min, 1.1s max, 1.1s mean, 1.1s total
* Output size bytes per block: 172 min, 172 max, 172 mean, 172 total

Dataset throughput:
\t* Ray Data throughput: 13.5 rows/s
"""


def test_parse_stats_folds_suboperators_and_skips_repeated_input_map():
    ops = parse_stats(STATS_TEXT)
    assert [o["name"] for o in ops] == [
        "ReadRange->MapBatches(f)", "Repartition", "MapBatches(g)->Write"]
    assert ops[0]["tasks"] == 2 and ops[0]["wall_s"] == pytest.approx(9.77e-3)
    # RepartitionSplit repeats operator 1's figures and is not counted twice
    assert ops[1]["tasks"] == 1 and ops[1]["wall_s"] == pytest.approx(275.46e-6)
    assert ops[1]["bytes_out"] == 16000
    assert ops[2]["wall_s"] == pytest.approx(1.2) and ops[2]["cpu_s"] == pytest.approx(1.1)


def test_tender_reference_orders_pairs_smaller_document_first():
    import pyarrow as pa
    from workloads import TENDER, tender_reference

    text = " ".join(f"word{i}" for i in range(40))
    docs = pa.table({
        "doc_id": [7, 3, 9],
        "text": [text, text, "an unrelated short text about something else entirely"],
        "n_chars": [500, 400, 60],
    })
    pairs = tender_reference(docs, **TENDER)
    # identical documents share every minhash value; doc 3 is the smaller
    assert [(a, b) for a, b, _ in pairs] == [(3, 7)]
    assert pairs[0][2] >= TENDER["k"]


def test_documents_are_a_seeded_selection_of_distinct_rows():
    import inputs

    a, b = inputs.documents(300, 4), inputs.documents(300, 4)
    assert a.equals(b)
    ids = a["doc_id"].to_pylist()
    assert len(set(ids)) == 300
    assert ids != inputs.documents(300, 5)["doc_id"].to_pylist()


def test_benchmark_json_metric_names_are_unique():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names


# -- runs ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_runs():
    return {w: run_bench(w, 1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_passes(traced_runs, workload):
    p, result = traced_runs[workload]
    assert p.returncode == 0, p.stderr[-3000:]
    assert result["correct"] and result["failed"] == 0, p.stderr[-3000:]
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}


def test_every_per_layer_metric_is_measured_by_some_workload(traced_runs):
    measured = set()
    for p, result in traced_runs.values():
        assert result is not None, p.stderr[-3000:]
        measured |= {k for k, v in result["metrics"].items() if v["value"] != 0}
    missing = {m["name"] for m in DECLARED["per_layer"]} - measured
    assert not missing


def test_tiny_untraced_run_reports_every_end_to_end_metric():
    p, result = run_bench("crawl-wide", 0)
    assert p.returncode == 0, p.stderr[-3000:]
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not leftover_processes()


def test_forced_check_failure_counts_as_failed_operation():
    p, result = run_bench("crawl-resume", 0,
                          env={"CRAWLBENCH_FORCE_FAIL": "walk_resume_equals_uninterrupted"})
    assert p.returncode == 0, p.stderr[-3000:]
    assert result["correct"] is False and result["failed"] >= 1
    assert "walk_resume_equals_uninterrupted" in p.stderr
    assert not leftover_processes()


def test_deadline_turns_a_hang_into_a_failed_exit():
    p, result = run_bench("crawl-wide", 0, env={"CRAWLBENCH_DEADLINE_S": "4"})
    assert p.returncode == 3 and result is None
    assert "deadline" in p.stderr
    assert not leftover_processes()


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "crawlbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p, result = run_bench("crawl-wide", 0, cwd=tmp_path)
    assert p.returncode != 0 and result is None
    assert p.stdout.strip() == ""
