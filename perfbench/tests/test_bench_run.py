import json
import shutil
import subprocess
import sys

import pytest

import run as bench

RECORD = {"seed": 4, "tp": 6, "fp": 12, "tn": 107, "fn": 0, "kernel_evals": 9750,
          "converged": True, "ap": 0.95, "f1": 0.5, "error": None}


def test_matching_record_has_no_problems():
    assert bench.check_records([dict(RECORD, train_time_s=1.0)], [RECORD], [4]) == {}


@pytest.mark.parametrize(
    "change", [{"ap": 0.9}, {"tp": 5}, {"converged": False}, {"kernel_evals": 1}, {"error": "boom"}]
)
def test_any_checked_difference_or_error_fails_the_seed(change):
    problems = bench.check_records([dict(RECORD, **change)], [RECORD], [4])
    assert list(problems) == [4]


def test_missing_seed_fails():
    assert list(bench.check_records([], [RECORD], [4])) == [4]


def test_reference_covers_every_workload_and_input_seed():
    table = json.loads(bench.REFERENCE.read_text())
    assert table["input_seeds"] == bench.REFERENCE_SEEDS
    for name, workload in bench.WORKLOADS.items():
        per_seed = table["records"][name]
        assert len(per_seed) == bench.REFERENCE_SEEDS
        for input_seed, records in enumerate(per_seed):
            assert [r["seed"] for r in records] == workload.cli_seeds(input_seed)


def test_layer_self_times_account_for_the_traced_wall_time():
    spans = [["cli.run_experiment", -1, 0.0, 8.0], ["kernel.gram_train", 0, 1.0, 5.0],
             ["statevec.encode", 1, 2.0, 3.0], ["ocsvm.fit", 0, 5.0, 6.0]]
    traced = {"import_s": 0.5, "main_s": 9.0, "spans": spans,
              "counts": {"kernel.evals": 7, "ocsvm.iterations": 3}}
    plain = ({"import_s": 0.5, "main_s": 8.5}, [dict(RECORD, train_time_s=2.0, test_time_s=1.0)])
    layers = bench.per_layer(bench.WORKLOADS["rm-d10"], plain, (traced, []))
    metrics = {name: value for name, (value, _) in layers.items()}
    assert metrics["kernel.gram_train_s"] == pytest.approx(4.0)
    assert metrics["kernel.gram_self_s"] == pytest.approx(3.0)
    assert metrics["statevec.encode_calls"] == 1
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["trace.unattributed_s"] == pytest.approx(1.0)
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)
    assert metrics["kernel.coeff_table_bytes"] == 8 * 4**10
    assert metrics["kernel.evals"] == 7
    assert set(metrics) == _declared("per_layer")


def test_end_to_end_metrics_match_the_declared_ones():
    invocation = ({"import_s": 0.2, "main_s": 3.0, "load_s": 1.0, "peak_rss_kb": 2048},
                  [dict(RECORD, train_time_s=2.0, test_time_s=1.0)])
    metrics = bench.end_to_end([invocation])
    assert set(metrics) == _declared("end_to_end")
    assert metrics["run_s"][0] == pytest.approx(3.2)
    assert metrics["setup_s"][0] == pytest.approx(1.2)
    assert metrics["peak_rss_mb"][0] == pytest.approx(2.0)
    assert metrics["ap"][0] == RECORD["ap"]


def _declared(kind):
    return {m["name"] for m in json.loads((bench.ROOT / "BENCHMARK.json").read_text())[kind]}


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(bench.BENCH, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rbf-n4000", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
