import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qkad
from qkad import cli
from qkad.cli import (
    RunConfig,
    RunRecord,
    main,
    records_to_jsonl,
    run_experiment,
    summarize,
    summary_to_csv,
)
from qkad.data import SplitSpec
from test_data import fraud_row, write_fraud_csv

FIXED_FIELDS = (
    "method", "dataset", "seed", "n_train", "d", "ap", "f1", "precision", "recall",
    "train_time_s", "test_time_s", "kernel_evals", "components", "r_prime",
)


@pytest.fixture
def fraud_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = [fraud_row(rng, 0) for _ in range(200)] + [fraud_row(rng, 1) for _ in range(10)]
    path = tmp_path / "fraud.csv"
    write_fraud_csv(path, rows)
    return str(path)


def test_rbf_synthetic_run_produces_complete_records():
    cfg = RunConfig(method="rbf", dataset="synthetic", train_size=100, seeds=(0, 1, 2))
    records = run_experiment(cfg)
    assert len(records) == 3
    for r in records:
        assert r.ok
        assert 0.0 <= r.ap <= 1.0
        assert 0.0 <= r.f1 <= 1.0
        assert r.tp + r.fp + r.tn + r.fn == 125
        assert r.components == 1
        assert r.d == 2
        assert r.synthetic_generator is not None
        payload = json.loads(records_to_jsonl([r]))
        for name in FIXED_FIELDS:
            assert name in payload


def test_vs_it_reports_component_count():
    cfg = RunConfig(method="vs-it", dataset="synthetic", train_size=500, seeds=(0,), it_shots=64)
    (record,) = run_experiment(cfg)
    assert record.ok
    assert record.components == 5  # floor(500 / 100)
    assert record.train_kernel_evals <= 5 * 100**2 / 2


def test_vs_rfb_rm_on_fraud_reports_rotation_dim(fraud_csv):
    cfg = RunConfig(
        method="vs-rfb-rm", dataset="fraud", train_size=60, num_features=6,
        seeds=(0,), rm_settings=4, rm_shots=64, fraud_csv=fraud_csv,
    )
    (record,) = run_experiment(cfg)
    assert record.ok, record.error
    assert record.r_prime == 4  # rotation_dim(6)
    assert record.d == 6


def test_fraud_csv_from_environment(fraud_csv, monkeypatch):
    monkeypatch.setenv(cli.FRAUD_CSV_ENV, fraud_csv)
    cfg = RunConfig(method="rbf", dataset="fraud", train_size=60, seeds=(0,))
    (record,) = run_experiment(cfg)
    assert record.ok and record.d == 6


def test_fraud_without_path_fails_every_seed(monkeypatch):
    monkeypatch.delenv(cli.FRAUD_CSV_ENV, raising=False)
    cfg = RunConfig(method="rbf", dataset="fraud", train_size=60, seeds=(0, 1))
    records = run_experiment(cfg)
    assert len(records) == 2
    assert all(not r.ok and "CSV" in r.error for r in records)


def test_jsonl_byte_identical_across_runs():
    cfg = RunConfig(
        method="rm", dataset="synthetic", train_size=40, seeds=(0, 1),
        rm_settings=4, rm_shots=64, record_timings=False,
    )
    a = records_to_jsonl(run_experiment(cfg))
    b = records_to_jsonl(run_experiment(cfg))
    assert a == b


def test_parallel_runs_match_sequential_numerics(fraud_csv):
    small = dict(seeds=(0, 1, 2, 3), it_shots=64, rm_settings=4, rm_shots=64,
                 record_timings=False)
    runs = [
        dict(method=method, dataset="synthetic", train_size=200 if method.startswith("vs") else 60)
        for method in cli.METHODS
    ] + [dict(method="vs-rm", dataset="fraud", train_size=80, fraud_csv=fraud_csv)]
    for run in runs:
        seq = run_experiment(RunConfig(**run, **small))
        par = run_experiment(RunConfig(**run, **small, parallel=True))
        assert all(r.ok for r in seq), run
        assert records_to_jsonl(seq) == records_to_jsonl(par), run


def test_failed_seed_recorded_without_stopping_sweep(monkeypatch):
    original = cli._run_seed

    def flaky(cfg, seed, fraud):
        if seed == 1:
            raise RuntimeError("injected failure")
        return original(cfg, seed, fraud)

    monkeypatch.setattr(cli, "_run_seed", flaky)
    cfg = RunConfig(method="rbf", dataset="synthetic", train_size=50, seeds=(0, 1, 2))
    records = run_experiment(cfg)
    assert [r.ok for r in records] == [True, False, True]
    assert "injected failure" in records[1].error


def test_ensemble_error_record_names_the_component_cause():
    # nu * 100 = 1 passes the up-front check, but seed 0 draws an 83-row
    # component 0, which fails at fit time, and its record keeps the reason
    cfg = RunConfig(method="vs-it", dataset="synthetic", train_size=100, nu=0.01, seeds=(0,))
    (record,) = run_experiment(cfg)
    assert record.error.startswith("RuntimeError: ensemble component 0 failed to fit: ")
    assert "ValueError: infeasible nu" in record.error


def test_degenerate_signature_error_shows_a_plain_float():
    cfg = RunConfig(method="rm", dataset="synthetic", train_size=60, rm_settings=2, rm_shots=2,
                    seeds=(0,))
    (record,) = run_experiment(cfg)
    assert "nonpositive purity estimate -0.5;" in record.error
    assert "np.float64" not in record.error


def test_threshold_override_changes_labelling():
    base = dict(method="rbf", dataset="synthetic", train_size=100, seeds=(0,))
    (low,) = run_experiment(RunConfig(**base, threshold=-1e9))
    (high,) = run_experiment(RunConfig(**base, threshold=1e9))
    assert low.tp + low.fp == 0  # nothing flagged
    assert high.tp + high.fp == 125  # everything flagged
    assert low.ap == high.ap  # ranking metric ignores the threshold


def test_run_config_validation():
    with pytest.raises(ValueError, match="method"):
        RunConfig(method="nope", dataset="synthetic")
    with pytest.raises(ValueError, match="dataset"):
        RunConfig(method="rbf", dataset="nope")
    with pytest.raises(ValueError, match="seed"):
        RunConfig(method="rbf", dataset="synthetic", seeds=())
    with pytest.raises(ValueError, match="seeds must be >= 0, got -1"):
        RunConfig(method="rbf", dataset="synthetic", seeds=(0, -1))
    # a repeated seed would reproduce its record and shrink the summary's spread
    with pytest.raises(ValueError, match=r"seeds must be distinct, got \[0, 2\] more than once"):
        RunConfig(method="rbf", dataset="synthetic", seeds=(2, 0, 1, 0, 2))
    # the record echoes fraud_csv, so a run that never reads it must not take it
    with pytest.raises(ValueError, match="only the fraud dataset reads fraud_csv, got 'x.csv'"):
        RunConfig(method="rbf", dataset="synthetic", fraud_csv="x.csv")
    assert RunConfig(method="rbf", dataset="fraud", fraud_csv="x.csv").fraud_csv == "x.csv"
    # nan flags no point and inf every point, and nan is not valid JSON
    for threshold in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"threshold must be finite, got {threshold}"):
            RunConfig(method="rbf", dataset="synthetic", threshold=threshold)
    # no component has more than min(100, train_size) points, which bounds an ensemble's nu
    assert RunConfig(method="vs-it", dataset="synthetic", train_size=200, nu=0.01).nu == 0.01
    with pytest.raises(ValueError, match=r"infeasible nu: nu \* min\(100, train_size\) = 0.6 < 1"):
        RunConfig(method="vs-it", dataset="synthetic", train_size=60, nu=0.01)
    with pytest.raises(ValueError, match="feature bagging"):
        RunConfig(method="vs-rfb-rm", dataset="synthetic", num_features=1)
    # bagging measures rotation_dim(28) = 5 qubits, far below the table limit
    assert RunConfig(method="vs-rfb-rm", dataset="fraud", num_features=28).num_features == 28
    # rbf builds no quantum arrays, so the memory check passes it at any width
    assert RunConfig(method="rbf", dataset="fraud", num_features=28).num_features == 28
    # an ensemble's aggregation is checked when the run is planned, not per seed
    with pytest.raises(ValueError, match="aggregation must be 'mean' or 'max', got 'median'"):
        RunConfig(method="vs-it", dataset="synthetic", aggregation="median")
    # the plan: one model or an ensemble config, the split each seed draws and
    # the bagged width, rotation_dim(2) = 2 and rotation_dim(6) = 4
    for method in cli.METHODS:
        for dataset, ratio in (("synthetic", 0.3), ("fraud", 0.05)):
            cfg = RunConfig(method=method, dataset=dataset, train_size=60)
            bagged = {"synthetic": 2, "fraud": 4}[dataset] if method == "vs-rfb-rm" else None
            assert cfg.r_prime == bagged
            if method.startswith("vs-"):
                assert cfg.vs.base_kernel is cfg.kernel
                assert (cfg.vs.nu, cfg.vs.aggregation) == (cfg.nu, cfg.aggregation)
                assert cfg.vs.rfb_enabled == (method == "vs-rfb-rm")
            else:
                assert cfg.vs is None
            assert cfg.split == SplitSpec(train_size=60, test_size=125, test_anomaly_ratio=ratio)


def test_mitigation_defaults_per_method():
    assert RunConfig(method="rm", dataset="synthetic").mitigate is True
    assert RunConfig(method="rm-unmitigated", dataset="synthetic").mitigate is False
    assert RunConfig(method="vs-rm", dataset="synthetic").mitigate is False
    forced = RunConfig(method="vs-rm", dataset="synthetic", mitigate=True)
    assert forced.mitigate is True


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------


def fake_record(seed, ap, train_time=1.0):
    return RunRecord(
        method="rbf", dataset="synthetic", seed=seed, n_train=100, d=2,
        ap=ap, f1=0.5, precision=0.5, recall=0.5,
        train_time_s=train_time, test_time_s=0.1, kernel_evals=10,
        components=1, tp=1, fp=1, tn=1, fn=1,
    )


def test_summarize_single_record_zero_std():
    rows = summarize([fake_record(0, 0.4)])
    assert rows[0]["ap_std"] == 0.0
    assert rows[0]["n_runs"] == 1


def test_summarize_two_records_mean_and_sample_std():
    rows = summarize([fake_record(0, 0.4), fake_record(1, 0.6)])
    assert rows[0]["ap_mean"] == pytest.approx(0.5, abs=1e-12)
    assert rows[0]["ap_std"] == pytest.approx(0.1414, abs=5e-4)


def test_summarize_keys_round_trip_through_csv():
    import csv
    import io

    rows = summarize([fake_record(0, 0.4), fake_record(1, 0.6)])
    text = summary_to_csv(rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert parsed[0]["method"] == "rbf"
    assert parsed[0]["dataset"] == "synthetic"
    assert int(parsed[0]["n_train"]) == 100
    assert int(parsed[0]["d"]) == 2


def test_summarize_skips_failed_and_rejects_empty():
    failed = RunRecord(method="rbf", dataset="synthetic", seed=0, n_train=10, d=2, error="boom")
    rows = summarize([failed, fake_record(1, 0.7)])
    assert rows[0]["n_runs"] == 1
    with pytest.raises(ValueError, match="no successful"):
        summarize([failed])


# ---------------------------------------------------------------------------
# argument parsing / entry point
# ---------------------------------------------------------------------------


def test_parse_seed_expressions():
    assert cli._parse_seeds("0-3") == (0, 1, 2, 3)
    assert cli._parse_seeds("0,5,9") == (0, 5, 9)
    assert cli._parse_seeds("0-2,7") == (0, 1, 2, 7)
    with pytest.raises(argparse.ArgumentTypeError, match="no seeds parsed from ''"):
        cli._parse_seeds("")


def test_parse_seeds_rejects_reversed_range():
    with pytest.raises(argparse.ArgumentTypeError, match=r"'5-3'"):
        cli._parse_seeds("0,5-3")


def test_main_writes_records_and_summary(tmp_path):
    out = tmp_path / "records.jsonl"
    summary = tmp_path / "summary.csv"
    code = main([
        "--method", "rbf", "--dataset", "synthetic", "--train-size", "80",
        "--seeds", "0-1", "--output", str(out), "--summary", str(summary),
        "--omit-timings",
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert record["train_time_s"] == 0.0
    assert record["config"]["lambda"] == 3.0
    assert summary.read_text().startswith("method,")


def test_summarize_records_mode_merges_runs(tmp_path):
    paths = []
    for n in (50, 80):
        out = tmp_path / f"r{n}.jsonl"
        code = main([
            "--method", "rbf", "--dataset", "synthetic", "--train-size", str(n),
            "--seeds", "0-1", "--output", str(out),
        ])
        assert code == 0
        paths.append(str(out))
    summary = tmp_path / "summary.csv"
    code = main(["--summarize-records", *paths, "--summary", str(summary)])
    assert code == 0
    lines = summary.read_text().strip().splitlines()
    assert len(lines) == 3  # header + one group per train size
    assert {line.split(",")[2] for line in lines[1:]} == {"50", "80"}


def test_main_requires_method_unless_summarizing(capsys):
    with pytest.raises(SystemExit):
        main(["--dataset", "synthetic"])


@pytest.mark.parametrize(
    "method,features,message",
    [
        ("rbf", "0", "num_features must be >= 1"),
        ("vs-rfb-rm", "1", "rotated feature bagging needs at least 2"),
    ],
)
def test_main_rejects_invalid_config_with_usage(method, features, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--method", method, "--dataset", "synthetic", "--num-features", features])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert message in err


@pytest.mark.parametrize(
    "method,option,value,message",
    [
        ("rbf", "--train-size", "0", "train_size must be >= 1"),
        ("vs-it", "--train-size", "49", "vs-it needs train_size >= 50"),
        ("rbf", "--nu", "0", "nu must be in (0, 1]"),
        ("rbf", "--nu", "1.5", "nu must be in (0, 1]"),
        ("it", "--it-shots", "0", "shot counts must be >= 1"),
        ("it", "--layers", "0", "layers must be >= 1"),
        ("rm", "--lambda", "0", "angle_scale must be > 0"),
        ("rm", "--rm-settings", "1", "rm_settings >= 2"),
        ("rm", "--rm-shots", "1", "rm_shots >= 2"),
        ("vs-rm", "--rm-shots", "1", "rm_shots >= 2"),
        ("rbf", "--num-features", "3", "num_features must be <= 2"),
        ("rbf", "--train-size", "2", "num_features must be <= 1"),
        # (500, 30, 2^14) int64 counts take 1.8 GiB; the fraud data is wide enough
        ("rm", "--dataset fraud --num-features", "14",
         "randomized kernel at d=14 qubits and n=500 points needs 1966080000 bytes"),
        ("rm-unmitigated", "--dataset fraud --num-features", "14",
         "randomized kernel at d=14 qubits and n=500 points needs 1966080000 bytes"),
        ("vs-rm", "--dataset fraud --num-features", "28",
         "randomized kernel at d=28 qubits and n=125 points needs 8053063680000 bytes"),
        # point sets over 1 GiB: the training set, or the 125 test points of a vs-* method
        ("it", "--dataset fraud --train-size 500 --num-features", "18",
         "inversion_test kernel at d=18 qubits and n=500 points needs 2097152000 bytes"),
        ("rm", "--dataset fraud --train-size 2000 --num-features", "13",
         "randomized kernel at d=13 qubits and n=2000 points needs 3932160000 bytes"),
        ("vs-it", "--dataset fraud --num-features", "20",
         "inversion_test kernel at d=20 qubits and n=125 points needs 2097152000 bytes"),
        ("rbf", "--train-size 60 --nu", "0.01", "infeasible nu: nu * train_size = 0.6 < 1"),
        # no component of an ensemble has more than 100 points
        ("vs-it", "--train-size 100 --nu", "0.005",
         "infeasible nu: nu * min(100, train_size) = 0.5 < 1"),
        ("rbf", "--seeds", "-3", "bad seed range '-3'"),
        ("rbf", "--seeds", "0,5-3", "argument --seeds: bad seed range '5-3'"),
        ("rbf", "--seeds", "0,x", "argument --seeds: bad seed value 'x'"),
        ("rbf", "--seeds", "1-y", "argument --seeds: bad seed range '1-y'"),
        ("rbf", "--seeds", "0,0,0-1", "seeds must be distinct, got [0] more than once"),
        # an infinite angle scale makes every seed fail inside the sampler
        ("it", "--lambda", "inf", "angle_scale must be > 0 and finite, got inf"),
        ("rbf", "--threshold", "nan", "threshold must be finite, got nan"),
        ("rbf", "--threshold", "inf", "threshold must be finite, got inf"),
        # the synthetic data is generated, so a CSV path would only misdescribe the run
        ("rbf", "--fraud-csv", "/nonexistent.csv",
         "only the fraud dataset reads fraud_csv, got '/nonexistent.csv'"),
        # only the randomized ensembles may change their mitigation default
        ("it", "--mitigate --seeds", "0", "it always runs with mitigate=False"),
        ("rm-unmitigated", "--mitigate --seeds", "0",
         "rm-unmitigated always runs with mitigate=False"),
        ("rm", "--no-mitigate --seeds", "0", "rm always runs with mitigate=True"),
        # a single model has no ensemble whose scores could be aggregated
        *[
            (method, "--aggregation max --seeds", "0",
             f"{method} is a single model; only vs-* methods take aggregation")
            for method in ("rbf", "it", "rm", "rm-unmitigated")
        ],
    ],
)
def test_main_rejects_invalid_numeric_option_before_any_seed(
    method, option, value, message, capsys, monkeypatch
):
    def no_seed(*args):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(cli, "_run_seed", no_seed)
    with pytest.raises(SystemExit) as exc:
        main(["--method", method, "--dataset", "synthetic", *option.split(), value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert message in err


def test_load_records_rejects_a_line_that_is_not_an_object(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(records_to_jsonl([fake_record(0, 0.4)]) + "[1]\n")
    with pytest.raises(ValueError, match=r"records\.jsonl: line 2 is not a JSON object"):
        cli.load_records_jsonl(path)


def test_load_records_names_missing_required_keys(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"method": "rm"}\n')
    with pytest.raises(ValueError) as exc:
        cli.load_records_jsonl(path)
    assert str(exc.value) == (
        f"{path}: line 1 lacks required keys ['dataset', 'seed', 'n_train', 'd']"
    )


def test_load_records_rejects_a_record_with_neither_metrics_nor_an_error(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    path.write_text(
        records_to_jsonl([fake_record(0, 0.4)])
        + '{"method":"rbf","dataset":"synthetic","seed":0,"n_train":10,"d":2}\n'
    )
    message = (
        f"{path}: line 2 has neither an error nor values for "
        "['ap', 'f1', 'precision', 'recall', 'train_time_s', 'test_time_s']"
    )
    with pytest.raises(ValueError) as exc:
        cli.load_records_jsonl(path)
    assert str(exc.value) == message
    with pytest.raises(SystemExit) as exc:
        main(["--summarize-records", str(path)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_summarize_records_rejects_a_bad_file_with_usage(tmp_path, capsys):
    cases = [
        ("[1]\n", "line 1 is not a JSON object"),
        (None, "cannot read records file: No such file or directory"),  # no file at all
    ]
    for i, (content, message) in enumerate(cases):
        path = tmp_path / f"records{i}.jsonl"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["--summarize-records", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"{path}: {message}" in err


@pytest.mark.parametrize("value", ['"x"', "true", "[0.5]", "NaN", "-Infinity"])
def test_load_records_rejects_a_non_numeric_metric(value, tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    good, bad = records_to_jsonl([fake_record(0, 0.4), fake_record(1, 0.4)]).splitlines()
    path.write_text(good + "\n" + bad.replace('"ap": 0.4', f'"ap": {value}') + "\n")
    message = f"{path}: line 2: ap is not a finite number: {json.loads(value)!r}"
    with pytest.raises(ValueError) as exc:
        cli.load_records_jsonl(path)
    assert str(exc.value) == message
    with pytest.raises(SystemExit) as exc:
        main(["--summarize-records", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert message in err


@pytest.mark.parametrize("option", ["--output", "--summary"])
def test_main_rejects_an_output_path_in_a_missing_directory_before_any_seed(
    option, tmp_path, capsys, monkeypatch
):
    def no_seed(*args):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(cli, "_run_seed", no_seed)
    missing = tmp_path / "missing"
    with pytest.raises(SystemExit) as exc:
        main(["--method", "rbf", "--dataset", "synthetic", "--train-size", "60",
              "--seeds", "0", option, str(missing / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"{option} {missing / 'out'}: directory {missing} does not exist" in err
    assert not missing.exists()


def test_main_exit_code_on_failure(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.FRAUD_CSV_ENV, raising=False)
    missing = tmp_path / "nope.csv"
    code = main([
        "--method", "rbf", "--dataset", "fraud", "--seeds", "0",
        "--fraud-csv", str(missing), "--output", str(tmp_path / "r.jsonl"),
    ])
    assert code == 1


def test_nothing_to_summarize_writes_no_summary_and_exits_1(tmp_path, capsys, caplog):
    records, summary = tmp_path / "r.jsonl", tmp_path / "s.csv"
    code = main([
        "--method", "rm", "--dataset", "fraud", "--seeds", "0-1",
        "--fraud-csv", str(tmp_path / "nope.csv"),
        "--output", str(records), "--summary", str(summary),
    ])
    assert code == 1
    assert len(records.read_text().splitlines()) == 2  # the error records are still written
    assert not summary.exists()
    assert "no successful records to summarize; no summary written" in caplog.text

    caplog.clear()
    capsys.readouterr()
    assert main(["--summarize-records", str(records)]) == 1
    assert capsys.readouterr().out == ""
    assert "no successful records to summarize" in caplog.text
    assert main(["--summarize-records", str(records), "--summary", str(summary)]) == 1
    assert not summary.exists()


def test_summarize_records_skips_error_records_and_exits_0(tmp_path):
    path, summary = tmp_path / "r.jsonl", tmp_path / "s.csv"
    failed = RunRecord(method="rbf", dataset="synthetic", seed=0, n_train=100, d=2, error="boom")
    path.write_text(records_to_jsonl([failed, fake_record(1, 0.7)]))
    assert main(["--summarize-records", str(path), "--summary", str(summary)]) == 0
    rows = summary.read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("rbf,synthetic,100,2,1,")


def test_summarize_records_refuses_runs_with_different_configs(tmp_path, caplog):
    paths = []
    for shots in (10, 1000):
        out = tmp_path / f"it{shots}.jsonl"
        assert main([
            "--method", "it", "--dataset", "synthetic", "--train-size", "50",
            "--it-shots", str(shots), "--seeds", "0-2", "--output", str(out),
        ]) == 0
        paths.append(str(out))
    summary = tmp_path / "s.csv"
    assert main(["--summarize-records", *paths, "--summary", str(summary)]) == 1
    assert not summary.exists()
    assert "it on synthetic (n_train=50, d=2)" in caplog.text
    assert "configs differ in ['it_shots']" in caplog.text


def test_summarize_records_refuses_a_seed_counted_twice(tmp_path, caplog):
    path, summary = tmp_path / "r.jsonl", tmp_path / "s.csv"
    path.write_text(records_to_jsonl([fake_record(0, 0.4), fake_record(1, 0.6)]))
    assert main(["--summarize-records", str(path), str(path), "--summary", str(summary)]) == 1
    assert not summary.exists()
    assert "rbf on synthetic (n_train=100, d=2) has seeds [0, 1] more than once" in caplog.text


def test_module_entry_point_runs_without_runtime_warning():
    env = dict(os.environ, PYTHONPATH=str(Path(qkad.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "qkad.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr
