"""Self-test of the benchmark: a deliberately wrong engine must be reported
as a failure with no numbers, and the metric names must match BENCHMARK.json.

    python3 -m pytest perfbench/test_perfbench.py

The workloads are shrunk here (one count-table order, a low oracle
max_order, a few structure cases) so the test takes seconds.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from recount import recount_mstd  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(workloads, "ORACLE_MAX_ORDER", 6)
    monkeypatch.setattr(workloads, "ODD_GROUPS", ((39,), (15, 3)))
    monkeypatch.setattr(workloads, "EVEN_GROUPS", ((36,),))
    monkeypatch.setattr(workloads, "TWO_DIFF_CASES", (((36,), 1, 9), ((40,), 1, 4)))
    monkeypatch.setattr(workloads, "BOUND_GROUPS", ((405,), (100,)))


def bench(capsys, workload: str, trace: int = 0) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.1",
                     "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("workload", ["count-table", "oracle-sweep", "structure-large"])
def test_correct_engine_reports_every_end_to_end_metric(capsys, workload):
    code, result = bench(capsys, workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    for spec in BENCHMARK["end_to_end"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert result["metrics"][spec["name"]]["value"] > 0


def _off_by_one_count(monkeypatch):
    from mstd import enumerate_subsets

    real = enumerate_subsets.count_mstd

    def wrong(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, mstd_count=res.mstd_count + 1)

    monkeypatch.setattr(enumerate_subsets, "count_mstd", wrong)


def _off_by_one_avoiding(monkeypatch):
    from mstd import enumerate_subsets

    real = enumerate_subsets.count_avoiding
    monkeypatch.setattr(enumerate_subsets, "count_avoiding", lambda *a, **k: real(*a, **k) + 1)


def _off_by_one_index(monkeypatch):
    from mstd import fib_index

    real = fib_index.fib_index_exact
    monkeypatch.setattr(fib_index, "fib_index_exact", lambda g: real(g) + 1)


def _refusing_decompose(monkeypatch):
    from mstd import forbiddance

    def refuse(graph):
        raise ValueError("refused")

    monkeypatch.setattr(forbiddance, "decompose", refuse)


@pytest.mark.parametrize("workload, inject", [
    ("count-table", _off_by_one_count),
    ("oracle-sweep", _off_by_one_avoiding),
    ("structure-large", _off_by_one_index),
    ("structure-large", _refusing_decompose),
])
@pytest.mark.parametrize("trace", [0, 1])
def test_wrong_engine_is_a_failure_not_a_number(capsys, monkeypatch, workload, inject, trace):
    import mstd  # noqa: F401  (the package must be loaded before it is patched)

    inject(monkeypatch)
    code, result = bench(capsys, workload, trace)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"] == {}


def test_per_layer_names_match_the_benchmark_file():
    band_top = workloads.count_table_groups(BENCHMARK["run_seconds"])[-1]["order"]
    metrics = run.per_layer(Tracer(), [{"wall": 1.0}], [{"wall": 1.0}], 0.1, band_top,
                            workloads.oracle_checks())
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for spec in BENCHMARK["per_layer"]:
        assert metrics[spec["name"]][1] == spec["unit"]


def test_count_table_band_ends_at_order_20_for_the_run_length():
    band = workloads.count_table_groups(BENCHMARK["run_seconds"])
    assert [band[0]["order"], band[-1]["order"], len(band)] == [14, 20, 19]


def test_frozen_counts_match_the_recount():
    for entry in workloads.load_frozen()["groups"]:
        if entry["order"] <= 16:
            factors = tuple(int(a) for a in entry["group"].split(","))
            assert recount_mstd(factors) == int(entry["count"]), entry["group"]


def test_transfer_matrix_indices():
    # C_3 x P_2 has 13 independent sets, the 3-rung ladder 17, C_4 seven
    assert (workloads.prism_index(3), workloads.ladder_index(3), workloads.cycle_index(4)) == (
        13, 17, 7)


def test_mstd_environment_defaults_do_not_reach_the_cli(capsys, monkeypatch):
    # MSTD_MAX_ORDER=2 would make `mstd table` drop every exact count
    monkeypatch.setenv("MSTD_MAX_ORDER", "2")
    monkeypatch.setenv("MSTD_THREADS", "64")
    code, result = bench(capsys, "count-table")
    assert code == 0 and result["correct"]
