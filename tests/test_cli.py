import argparse
import dataclasses
import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

import qkad
from qkad import cli, data, ensemble, ocsvm, pipeline
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
from qkad.ensemble import VSConfig
from qkad.kernel import KernelConfig
from test_data import write_small_fraud_csv
from test_golden import small_shots

FIXED_FIELDS = (
    "method", "dataset", "seed", "n_train", "d", "ap", "f1", "precision", "recall",
    "train_time_s", "test_time_s", "kernel_evals", "components", "r_prime",
)


@pytest.fixture
def fraud_csv(tmp_path):
    path = tmp_path / "fraud.csv"
    write_small_fraud_csv(path)
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
        rm_settings=4, rm_shots=64, omit_timings=True,
    )
    a = records_to_jsonl(run_experiment(cfg))
    b = records_to_jsonl(run_experiment(cfg))
    assert a == b


@pytest.mark.parametrize(
    "method, options",
    [("rbf", ()), ("rm", ("--rm-settings", "4", "--rm-shots", "64", "--num-features", "4"))],
)
def test_fraud_run_repeated_on_one_csv_reads_the_parse_cache(
    method, options, fraud_csv, tmp_path, monkeypatch
):
    parses = []
    parse = data._parse_fraud_csv
    monkeypatch.setattr(data, "_parse_fraud_csv", lambda path: parses.append(path) or parse(path))
    outputs = []
    for run in ("cold", "warm"):
        out = tmp_path / f"{run}.jsonl"
        code = main([
            "--method", method, "--dataset", "fraud", "--fraud-csv", fraud_csv,
            "--train-size", "60", "--seeds", "0-1", *options,
            "--omit-timings", "--output", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert all(json.loads(line)["error"] is None for line in outputs[0].splitlines())
    assert len(parses) == 1  # the warm run read the sidecar
    assert Path(fraud_csv + ".qkad.npz").is_file()


def test_parallel_runs_match_sequential_numerics(fraud_csv):
    small = dict(seeds=(0, 1, 2, 3), omit_timings=True)
    runs = [
        dict(method=method, dataset="synthetic", train_size=200 if method.startswith("vs") else 60)
        for method in cli.METHODS
    ] + [dict(method="vs-rm", dataset="fraud", train_size=80, fraud_csv=fraud_csv)]
    for run in runs:
        small_run = dict(run, **small, **small_shots(run["method"]))
        seq = run_experiment(RunConfig(**small_run))
        par = run_experiment(RunConfig(**small_run, parallel=True))
        assert all(r.ok for r in seq), run
        assert records_to_jsonl(seq) == records_to_jsonl(par), run


@pytest.mark.parametrize("method", ["rm", "vs-rm", "vs-rfb-rm"])
def test_rm_records_do_not_depend_on_the_sampling_worker_count(method, monkeypatch):
    cfg = RunConfig(
        method=method, dataset="synthetic", train_size=200 if method.startswith("vs") else 60,
        seeds=(0, 1), rm_settings=4, rm_shots=64, omit_timings=True,
    )
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(qkad.statevec, "_cores", lambda w=workers: w)
        records = run_experiment(cfg)
        assert all(r.ok for r in records)
        runs.append(records_to_jsonl(records))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("cores", [2, 1], ids=["forked", "in-process"])
@pytest.mark.parametrize("method", ["vs-rm", "vs-it"])
def test_vs_phase_times_fit_in_the_training_time(method, cores, monkeypatch):
    # each component's Gram and solver times are spans of one fit, and the
    # components' spans overlap at most as many times as there are workers
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: cores)
    cfg = RunConfig(method=method, dataset="synthetic", train_size=200, seeds=(0,),
                    **small_shots(method))
    (record,) = run_experiment(cfg)
    assert record.ok and record.components == 2
    assert record.gram_time_s >= 0 and record.solver_time_s >= 0
    workers = qkad.statevec._workers(record.components)
    assert record.gram_time_s + record.solver_time_s <= workers * record.train_time_s + 0.01


@pytest.mark.parametrize("method, train_size, cores", [
    pytest.param("rm", 60, 2, id="rm-60"),
    pytest.param("rbf", 600, 2, id="rbf-600"),
    pytest.param("vs-rm", 200, 2, id="vs-rm-200"),
    pytest.param("vs-rm", 200, 1, id="vs-rm-200-one-core"),
])
def test_parallel_seeds_open_no_pool_of_their_own(method, train_size, cores, monkeypatch):
    # Born sampling, rbf bands and mirror tiles would each open a thread pool at 2 cores,
    # and fit_vs and score_vs a process pool; a forked worker inherits the patches, so a
    # pool opened there fails its seed.  At one core every step gets one worker, so
    # nothing opens a pool, sequential or --parallel, and the records are the 2-core ones
    import concurrent.futures

    parent = os.getpid()
    bases = {"thread": concurrent.futures.ThreadPoolExecutor,
             "process": concurrent.futures.ProcessPoolExecutor}

    def refuse(anywhere):
        for kind, base in bases.items():
            class Pool(base):
                def __init__(self, *args, kind=kind, **kwargs):
                    if anywhere or os.getpid() != parent:
                        raise RuntimeError(f"a seed opened a {kind} pool")
                    super().__init__(*args, **kwargs)

            monkeypatch.setattr(concurrent.futures, f"{kind.title()}PoolExecutor", Pool)

    monkeypatch.setattr(qkad.statevec, "_cores", lambda: 2)
    run = dict(method=method, dataset="synthetic", train_size=train_size, seeds=(0, 1, 2),
               **small_shots(method), omit_timings=True)
    seq = run_experiment(RunConfig(**run))
    assert all(r.ok for r in seq)
    if cores == 1:
        monkeypatch.setattr(qkad.statevec, "_cores", lambda: 1)
        refuse(anywhere=True)
        for parallel in (False, True):
            records = run_experiment(RunConfig(**run, parallel=parallel))
            assert records_to_jsonl(records) == records_to_jsonl(seq)
        return
    refuse(anywhere=True)
    patched = run_experiment(RunConfig(**run))
    kind = "process" if method.startswith("vs") else "thread"
    assert all(f"a seed opened a {kind} pool" in r.error for r in patched)
    refuse(anywhere=False)
    par = run_experiment(RunConfig(**run, parallel=True))
    assert records_to_jsonl(par) == records_to_jsonl(seq)
    # a sequential vs-rm seed's component workers open no pool either
    assert records_to_jsonl(run_experiment(RunConfig(**run))) == records_to_jsonl(seq)
    assert not qkad.statevec._IN_WORKER  # set in the workers only


def test_parallel_takes_its_worker_count_from_the_affinity_mask(monkeypatch):
    import concurrent.futures

    sizes = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    # a mask of 2 of the machine's 4 cores
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: 2)
    cfg = RunConfig(method="rbf", dataset="synthetic", train_size=50, seeds=(0, 1, 2),
                    parallel=True)
    assert all(r.ok for r in run_experiment(cfg))
    assert sizes == [2]


@pytest.mark.parametrize("parallel", [False, True])
def test_failed_seed_recorded_without_stopping_sweep(parallel, monkeypatch):
    original = cli._run_seed

    def flaky(cfg, seed, fraud):
        if seed == 1:
            raise RuntimeError("injected failure")
        return original(cfg, seed, fraud)

    monkeypatch.setattr(cli, "_run_seed", flaky)
    cfg = RunConfig(method="rbf", dataset="synthetic", train_size=50, seeds=(0, 1, 2),
                    parallel=parallel)
    records = run_experiment(cfg)
    assert [r.ok for r in records] == [True, False, True]
    assert "injected failure" in records[1].error


def test_a_dead_worker_fails_only_the_unfinished_seeds(tmp_path, monkeypatch):
    original = cli._run_seed

    def dying(cfg, seed, fraud):
        if seed == 1:
            time.sleep(0.5)
            os._exit(1)  # as an OOM kill would end it: no exception, no record
        if seed > 1:
            time.sleep(5)  # still running when the pool breaks, which ends its worker
        return original(cfg, seed, fraud)

    monkeypatch.setattr(cli, "_run_seed", dying)
    # two workers: seed 0's record is sent long before seed 1's worker dies
    monkeypatch.setattr(qkad.statevec, "_cores", lambda: 2)
    out = tmp_path / "r.jsonl"
    assert main(["--method", "rbf", "--dataset", "synthetic", "--train-size", "50",
                 "--seeds", "0-3", "--omit-timings", "--parallel", "--output", str(out)]) == 1
    records = cli.load_records_jsonl(out)
    assert [r.seed for r in records] == [0, 1, 2, 3]
    assert [r.ok for r in records] == [True, False, False, False]
    assert all(r.error.startswith("BrokenProcessPool: ") for r in records[1:])
    (first,) = run_experiment(RunConfig(method="rbf", dataset="synthetic", train_size=50,
                                        seeds=(0,), omit_timings=True))
    assert records[0] == first


def _pool_modules_loaded_by(module):
    env = dict(os.environ, PYTHONPATH=str(Path(qkad.__file__).parents[1]))
    code = (f"import sys, {module}; print(sorted({{'multiprocessing', "
            "'concurrent.futures.process', 'concurrent.futures.thread'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    return proc.stdout.strip() or proc.stderr


def test_importing_the_cli_loads_no_process_pool():
    # a process pool costs tens of ms to import; the thread pool is loaded before any seed
    assert _pool_modules_loaded_by("qkad.cli") == "['concurrent.futures.thread']"


POOL = "['concurrent.futures.process', 'multiprocessing']"


@pytest.mark.parametrize("method, parallel, cores, train_size, loaded", [
    ("rbf", False, 2, 500, "[]"),
    ("rm", False, 2, 500, "[]"),
    ("vs-it", False, 2, 500, POOL),
    # one seed runs in process, so only a VS fit forks
    ("vs-it", True, 2, 500, POOL),
    ("rbf", True, 2, 500, "[]"),
    # a one-core mask, or one component, never forks
    ("vs-it", False, 1, 500, "[]"),
    ("vs-it", False, 2, 100, "[]"),
])
def test_a_plan_that_forks_loads_the_process_pool_before_a_seed_is_timed(
    method, parallel, cores, train_size, loaded
):
    # importing them takes about 10 ms, which would otherwise count in the first seed's timings
    env = dict(os.environ, PYTHONPATH=str(Path(qkad.__file__).parents[1]))
    code = (
        "import sys\n"
        "from qkad import cli\n"
        "def probe(cfg, seed, fraud):\n"
        "    print(sorted({'multiprocessing', 'concurrent.futures.process'} & sys.modules.keys()))\n"
        "    raise RuntimeError('probed')\n"
        "cli._run_seed = probe\n"
        f"cli.statevec._cores = lambda: {cores}\n"
        f"cli.run_experiment(cli.RunConfig(method={method!r}, dataset='synthetic', seeds=(0,), "
        f"train_size={train_size}, parallel={parallel}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.stdout.strip() == loaded, proc.stderr


def test_importing_the_package_loads_no_pool():
    # fit_vs and score_vs import the process pool only when they fork
    assert _pool_modules_loaded_by("qkad") == "[]"


def test_ensemble_error_record_names_the_component_cause():
    # two shots per setting leave seed 0's component 0 a nonpositive purity estimate,
    # which fails it at fit time, and its record keeps the reason
    cfg = RunConfig(method="vs-rm", dataset="synthetic", train_size=100, mitigate=True,
                    rm_settings=2, rm_shots=2, seeds=(0,))
    (record,) = run_experiment(cfg)
    assert record.error.startswith("RuntimeError: ensemble component 0 failed to fit: ")
    assert "DegenerateSignatureError: point 6 has nonpositive purity estimate" in record.error


def test_ensemble_error_record_names_the_component_that_failed_to_score():
    # twelve shots fit seed 7's component, then leave a test point a nonpositive purity estimate
    cfg = RunConfig(method="vs-rm", dataset="synthetic", train_size=100, mitigate=True,
                    rm_settings=2, rm_shots=12, seeds=(7,))
    (record,) = run_experiment(cfg)
    assert record.error.startswith(
        "RuntimeError: ensemble component 0 failed to score: DegenerateSignatureError: point 117 "
    )


def test_overflowing_feature_map_angles_give_an_error_record_naming_them():
    cfg = RunConfig(method="rm", dataset="synthetic", train_size=60, angle_scale=1e200,
                    rm_settings=4, rm_shots=64, seeds=(0,))
    (record,) = run_experiment(cfg)
    assert record.error == ("ValueError: feature-map angles overflow: row 0 has a non-finite "
                            "angle at angle scale 1e+200")


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


def test_a_score_equal_to_the_threshold_is_not_flagged(monkeypatch):
    # a point is flagged only strictly below the threshold
    def ties(model, cross):
        return np.zeros(len(cross.entries))

    monkeypatch.setattr(qkad.ocsvm, "decision_scores", ties)
    cfg = RunConfig(method="rbf", dataset="synthetic", train_size=100, seeds=(0,))
    (record,) = run_experiment(cfg)
    assert record.tp + record.fp == 0


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
    with pytest.raises(ValueError, match="rbf on synthetic does not read fraud_csv;"):
        RunConfig(method="rbf", dataset="synthetic", fraud_csv="x.csv")
    assert RunConfig(method="rbf", dataset="fraud", fraud_csv="x.csv").fraud_csv == "x.csv"
    # nan flags no point and inf every point, and nan is not valid JSON
    for threshold in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"threshold must be finite, got {threshold}"):
            RunConfig(method="rbf", dataset="synthetic", threshold=threshold)
    # a component may have as few as 50 points, which bounds an ensemble's nu
    with pytest.raises(ValueError, match=r"infeasible nu: nu\*n = 0.5 < 1"):
        RunConfig(method="vs-it", dataset="synthetic", train_size=200, nu=0.01)
    assert RunConfig(method="vs-it", dataset="synthetic", train_size=200, nu=0.02).nu == 0.02
    with pytest.raises(ValueError, match=r"infeasible nu: nu\*n = 0.6 < 1"):
        RunConfig(method="vs-it", dataset="synthetic", train_size=60, nu=0.01)
    # an ensemble's smallest training set
    assert RunConfig(method="vs-it", dataset="synthetic", train_size=50).train_size == 50
    with pytest.raises(ValueError, match="feature bagging"):
        RunConfig(method="vs-rfb-rm", dataset="synthetic", num_features=1)
    # bagging measures rotation_dim(28) = 5 qubits, far below the table limit
    assert RunConfig(method="vs-rfb-rm", dataset="fraud", num_features=28).num_features == 28
    # rbf builds no quantum arrays, so the memory check passes it at any width
    assert RunConfig(method="rbf", dataset="fraud", num_features=28).num_features == 28
    # an ensemble's aggregation is checked when the run is planned, not per seed
    median = r"aggregation must be one of \('mean', 'max'\), got 'median'"
    with pytest.raises(ValueError, match=median):
        RunConfig(method="vs-it", dataset="synthetic", aggregation="median")
    # each rule is checked by one owner, and the plan raises that owner's message
    # on the same values, so no copy of a rule can drift from it
    for options, owner in [
        (dict(method="rbf", train_size=0), lambda: SplitSpec(0, 125, 0.3)),
        (dict(method="vs-it", train_size=49), lambda: ensemble.check_train_set(49, 2, False)),
        (dict(method="vs-rfb-rm", num_features=1),
         lambda: ensemble.check_train_set(500, 1, True)),
        (dict(method="rbf", nu=0.0), lambda: ocsvm.check_nu(0.0, 500)),
        (dict(method="vs-it", nu=1.5), lambda: ocsvm.check_nu(1.5, 100)),
        (dict(method="rbf", train_size=60, nu=0.01), lambda: ocsvm.check_nu(0.01, 60)),
        (dict(method="vs-it", train_size=60, nu=0.01), lambda: ocsvm.check_nu(0.01, 60)),
        (dict(method="vs-it", train_size=300, nu=0.005), lambda: ocsvm.check_nu(0.005, 50)),
        (dict(method="rbf", num_features=0), lambda: pipeline.check_width(0, 500, 2)),
        (dict(method="rbf", num_features=3), lambda: pipeline.check_width(3, 500, 2)),
        (dict(method="rbf", train_size=2), lambda: pipeline.check_width(2, 2, 2)),
        (dict(method="vs-it", aggregation="median"),
         lambda: VSConfig(KernelConfig("inversion_test"), nu=0.1, aggregation="median")),
    ]:
        with pytest.raises(ValueError) as owned:
            owner()
        with pytest.raises(ValueError) as planned:
            RunConfig(dataset="synthetic", **options)
        assert str(planned.value) == str(owned.value)
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


NOT_ECHOED = ("seeds", "omit_timings", "parallel")
ECHO_CONSTANTS = ["preprocessing", "score_normalization"]


@pytest.mark.parametrize("method", cli.METHODS)
def test_config_echo_lists_every_run_option_but_seeds_and_timing_ones(method):
    cfg = RunConfig(method=method, dataset="synthetic")
    config = cli._record_fields(cfg, 0)["config"]
    echoed = [f.name for f in dataclasses.fields(RunConfig) if f.init and f.name not in NOT_ECHOED]
    names = ["lambda" if name == "angle_scale" else name for name in echoed]
    assert list(config) == names + ECHO_CONSTANTS
    assert [config[name] for name in names] == [getattr(cfg, name) for name in echoed]


@pytest.mark.parametrize("method", cli.METHODS)
def test_config_echo_names_the_score_normalization_the_method_applies(method):
    # a VS ensemble z-scores its components' scores on their training rows; a
    # single model scores with the raw decision function
    config = cli._record_fields(RunConfig(method=method, dataset="synthetic"), 0)["config"]
    assert config["score_normalization"] == ("train-zscore" if method.startswith("vs-") else "none")


def test_an_option_added_to_run_config_is_echoed():
    @dataclasses.dataclass(frozen=True)
    class Extended(RunConfig):
        extra: int = 7

    config = cli._record_fields(Extended(method="rbf", dataset="synthetic"), 0)["config"]
    assert list(config)[-3:] == ["extra", *ECHO_CONSTANTS]
    assert config["extra"] == 7


def test_mitigation_defaults_per_method():
    assert RunConfig(method="rm", dataset="synthetic").mitigate is True
    assert RunConfig(method="rm-unmitigated", dataset="synthetic").mitigate is False
    assert RunConfig(method="vs-rm", dataset="synthetic").mitigate is False
    forced = RunConfig(method="vs-rm", dataset="synthetic", mitigate=True)
    assert forced.mitigate is True


@pytest.mark.parametrize("method, options", [
    # the method's own mitigation, a single model's one aggregation, the default angle scale
    ("rm", "--mitigate"),
    ("rm-unmitigated", "--no-mitigate"),
    ("vs-it", "--no-mitigate"),
    ("rbf", "--aggregation mean --lambda 3 --it-shots 1000"),
])
def test_main_accepts_an_unread_option_at_the_value_the_run_uses(method, options, tmp_path):
    # such a run is the run without the option, record for record
    outputs = []
    for extra in (options.split(), []):
        out = tmp_path / f"{len(outputs)}.jsonl"
        assert main(["--method", method, "--dataset", "synthetic", "--train-size", "60",
                     "--seeds", "0", "--omit-timings", "--output", str(out), *extra]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# each method-specific option as typed: its RunConfig field and a value that no method runs
# with by default; --mitigate stands for the flag that flips the method's own setting
METHOD_OPTIONS = {
    "--lambda": ("angle_scale", 2.0), "--layers": ("layers", 1), "--it-shots": ("it_shots", 50),
    "--rm-settings": ("rm_settings", 5), "--rm-shots": ("rm_shots", 500),
    "--aggregation": ("aggregation", "max"), "--mitigate": ("mitigate", None),
}


def changed_option(method: str, option: str) -> tuple[dict, list[str]]:
    """``option`` away from the value a synthetic run of ``method`` uses, as a RunConfig
    keyword and as typed."""
    field, value = METHOD_OPTIONS[option]
    if field == "mitigate":
        value = not RunConfig(method=method, dataset="synthetic").mitigate
        return {field: value}, ["--mitigate" if value else "--no-mitigate"]
    return {field: value}, [option, str(value)]


def reads(method: str, option: str) -> bool:
    """Whether a synthetic run of ``method`` reads ``option``: RunConfig rejects it otherwise."""
    keywords, _ = changed_option(method, option)
    try:
        RunConfig(method=method, dataset="synthetic", **keywords)
    except ValueError as exc:
        assert " does not read " in str(exc)
        return False
    return True


@pytest.mark.parametrize("option", METHOD_OPTIONS)
@pytest.mark.parametrize("method", cli.METHODS)
def test_an_option_changes_the_scores_of_the_methods_that_read_it_and_fails_the_others(
    method, option, capsys, monkeypatch
):
    # so no method-specific option is taken and then ignored
    base = ["--method", method, "--dataset", "synthetic", "--seeds", "0", "--output", os.devnull,
            "--train-size", "200" if method.startswith("vs") else "60"]
    _, typed = changed_option(method, option)
    if not reads(method, option):
        def no_seed(*args):
            raise AssertionError("a seed ran")

        monkeypatch.setattr(cli, "_run_seed", no_seed)
        with pytest.raises(SystemExit) as exc:
            main(base + typed)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        key = option.removeprefix("--").replace("-", "_")  # its key in the config echo
        assert f"{method} on synthetic does not read {key}; leave each at its default\n" in err
        return
    # average_precision receives the negated test scores of the seed
    scores = []
    ap = cli.average_precision
    monkeypatch.setattr(cli, "average_precision",
                        lambda negated, labels: scores.append(negated) or ap(negated, labels))
    assert main(base) == 0
    assert main(base + typed) == 0
    assert len(scores) == 2 and not np.array_equal(scores[0], scores[1])


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


@pytest.mark.parametrize("method,features,message", [
    pytest.param("rbf", "0", "num_features must be in [1, min(n-1, d)] = [1, 2], got 0",
                 id="rbf-num-features-0"),
    pytest.param("vs-rfb-rm", "1", "rotated feature bagging needs at least 2",
                 id="vs-rfb-rm-num-features-1"),
])
def test_main_rejects_invalid_config_with_usage(method, features, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--method", method, "--dataset", "synthetic", "--num-features", features])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert message in err


# (id, method, option, value, message); an id names the method and the options, not the message
REJECTED = [
    ("rbf-train-size-0", "rbf", "--train-size", "0", "train_size and test_size must be >= 1"),
    ("vs-it-train-size-49", "vs-it", "--train-size", "49",
     "an ensemble needs at least 50 training points, got 49"),
    ("rbf-nu-0", "rbf", "--nu", "0", "nu must be in (0, 1]"),
    ("rbf-nu-1.5", "rbf", "--nu", "1.5", "nu must be in (0, 1]"),
    ("it-it-shots-0", "it", "--it-shots", "0", "it_shots must be >= 1, got 0"),
    # numpy draws shot counts as int64; one more than its largest value failed every seed
    *[
        (f"{method}-{option[2:]}-over-int64", method, option, str(2**63),
         f"{option[2:].replace('-', '_')} must be <= 2**63 - 1, got {2**63}")
        for method, option in (("it", "--it-shots"), ("vs-it", "--it-shots"),
                               ("rm", "--rm-shots"), ("vs-rm", "--rm-shots"))
    ],
    ("it-layers-0", "it", "--layers", "0", "layers must be >= 1"),
    ("rm-lambda-0", "rm", "--lambda", "0", "angle_scale must be > 0"),
    ("rm-rm-settings-1", "rm", "--rm-settings", "1", "rm_settings >= 2"),
    ("rm-rm-shots-1", "rm", "--rm-shots", "1", "rm_shots >= 2"),
    ("vs-rm-rm-shots-1", "vs-rm", "--rm-shots", "1", "rm_shots >= 2"),
    ("rbf-num-features-3", "rbf", "--num-features", "3",
     "num_features must be in [1, min(n-1, d)] = [1, 2], got 3 (n=500 training points"),
    ("rbf-train-size-2", "rbf", "--train-size", "2",
     "num_features must be in [1, min(n-1, d)] = [1, 1], got 2 (n=2 training points"),
    # (500, 30, 2^14) int64 counts take 1.8 GiB; the fraud data is wide enough
    ("rm-fraud-num-features-14", "rm", "--dataset fraud --num-features", "14",
     "randomized kernel at d=14 qubits and n=500 points needs 1966080000 bytes"),
    ("rm-unmitigated-fraud-num-features-14", "rm-unmitigated", "--dataset fraud --num-features",
     "14", "randomized kernel at d=14 qubits and n=500 points needs 1966080000 bytes"),
    ("vs-rm-fraud-num-features-28", "vs-rm", "--dataset fraud --num-features", "28",
     "randomized kernel at d=28 qubits and n=125 points needs 8053063680000 bytes"),
    # point sets over 1 GiB: the training set, or the 125 test points of a vs-* method
    ("it-fraud-train-size-500-num-features-18", "it",
     "--dataset fraud --train-size 500 --num-features", "18",
     "inversion_test kernel at d=18 qubits and n=500 points needs 2097152000 bytes"),
    ("rm-fraud-train-size-2000-num-features-13", "rm",
     "--dataset fraud --train-size 2000 --num-features", "13",
     "randomized kernel at d=13 qubits and n=2000 points needs 3932160000 bytes"),
    ("vs-it-fraud-num-features-20", "vs-it", "--dataset fraud --num-features", "20",
     "inversion_test kernel at d=20 qubits and n=125 points needs 2097152000 bytes"),
    ("rbf-train-size-60-nu-0.01", "rbf", "--train-size 60 --nu", "0.01",
     "infeasible nu: nu*n = 0.6 < 1"),
    ("vs-it-train-size-100-nu-0.005", "vs-it", "--train-size 100 --nu", "0.005",
     "infeasible nu: nu*n = 0.5 < 1"),
    # an ensemble component may have as few as 50 points, whatever --train-size is
    *[
        (f"{method}-nu-{nu}", method, "--nu", nu, f"infeasible nu: nu*n = {float(nu) * 50} < 1")
        for method in ("vs-it", "vs-rm", "vs-rfb-rm") for nu in ("0.01", "0.015", "0.0199")
    ],
    ("rbf-seeds--3", "rbf", "--seeds", "-3", "bad seed range '-3'"),
    ("rbf-seeds-0,5-3", "rbf", "--seeds", "0,5-3", "argument --seeds: bad seed range '5-3'"),
    ("rbf-seeds-0,x", "rbf", "--seeds", "0,x", "argument --seeds: bad seed value 'x'"),
    ("rbf-seeds-1-y", "rbf", "--seeds", "1-y", "argument --seeds: bad seed range '1-y'"),
    ("rbf-seeds-0,0,0-1", "rbf", "--seeds", "0,0,0-1",
     "seeds must be distinct, got [0] more than once"),
    # an infinite angle scale makes every seed fail inside the sampler
    ("it-lambda-inf", "it", "--lambda", "inf", "angle_scale must be > 0 and finite, got inf"),
    ("rbf-threshold-nan", "rbf", "--threshold", "nan", "threshold must be finite, got nan"),
    ("rbf-threshold-inf", "rbf", "--threshold", "inf", "threshold must be finite, got inf"),
    # an option the run does not read, set away from the value the run uses: the
    # synthetic data is generated, so a CSV path would only misdescribe the run
    ("rbf-fraud-csv", "rbf", "--fraud-csv", "/nonexistent.csv",
     "rbf on synthetic does not read fraud_csv; leave each at its default"),
    # only the randomized ensembles may change their mitigation default
    ("it-mitigate", "it", "--mitigate --seeds", "0", "it on synthetic does not read mitigate;"),
    ("rm-unmitigated-mitigate", "rm-unmitigated", "--mitigate --seeds", "0",
     "rm-unmitigated on synthetic does not read mitigate;"),
    ("rm-no-mitigate", "rm", "--no-mitigate --seeds", "0",
     "rm on synthetic does not read mitigate;"),
    # a single model has no ensemble whose scores could be aggregated
    *[
        (f"{method}-aggregation-max", method, "--aggregation max --seeds", "0",
         f"{method} on synthetic does not read aggregation;")
        for method in ("rbf", "it", "rm", "rm-unmitigated")
    ],
    # every offending option is named, by its key in the config echo
    ("rbf-lambda-5-it-shots-7", "rbf", "--lambda 5 --it-shots", "7",
     "rbf on synthetic does not read lambda, it_shots; leave each at its default"),
    ("it-rm-settings-1", "it", "--rm-settings", "1", "it on synthetic does not read rm_settings;"),
    # an unread option is rejected as such, before any check of its value
    ("rbf-it-shots-0", "rbf", "--it-shots", "0", "rbf on synthetic does not read it_shots;"),
]


@pytest.mark.parametrize("method,option,value,message",
                         [pytest.param(*case[1:], id=case[0]) for case in REJECTED])
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


@pytest.mark.parametrize("method", ["vs-it", "vs-rm", "vs-rfb-rm"])
def test_an_ensemble_nu_feasible_at_its_smallest_component_runs_every_seed(method, tmp_path):
    out = tmp_path / "records.jsonl"
    assert main(["--method", method, "--dataset", "synthetic", "--train-size", "50",
                 "--nu", "0.02", "--seeds", "0-9", "--output", str(out)]) == 0
    records = cli.load_records_jsonl(out)
    assert [r.seed for r in records if r.ok] == list(range(10))


# a generated plan's small training sizes, and each other run option's values besides its
# default: the edges of each rule and values that some rule rejects
TRAIN_SIZES = [0, 2, 49, 50, 60, 150]
PLAN_VALUES = {
    "num_features": [0, 1, 3],
    "nu": [0.0, 0.005, 0.01, 0.015, 0.0199, 0.02, 0.5, 1.0, 1.5],
    "angle_scale": [0.0, 0.5, 1e200, float("inf")], "layers": [0, 1], "it_shots": [0, 1, 8],
    "rm_settings": [1, 2, 4], "rm_shots": [1, 2, 16], "aggregation": ["max", "median"],
    "mitigate": [True, False], "threshold": [0.5, float("nan")],
}
# the errors a seed of an accepted plan may end in, because its draws decide them:
# a degenerate purity estimate and an overflowing feature-map angle
SEED_ERRORS = ("nonpositive purity estimate", "feature-map angles overflow")


@functools.cache
def options_read(method: str) -> list[str]:
    """The run options but the training size that a synthetic run of ``method`` reads."""
    kind = RunConfig(method=method, dataset="synthetic").kernel.kind
    tags = {kind, "synthetic", "quantum" if kind != "rbf" else "",
            "vs" if method.startswith("vs-") else ""}
    return [name for name in cli._DEFAULTS if name not in (*NOT_ECHOED, "train_size")
            and cli._READ_BY.get(name, tags) <= tags]


@st.composite
def run_plans(draw) -> dict:
    """A small synthetic run's options, with up to 3 options that the method reads changed."""
    method = draw(st.sampled_from(cli.METHODS))
    changed = draw(st.lists(st.sampled_from(options_read(method)), max_size=3, unique=True))
    return dict(method=method, dataset="synthetic", train_size=draw(st.sampled_from(TRAIN_SIZES)),
                **{name: draw(st.sampled_from(PLAN_VALUES[name])) for name in changed})


def typed(plan: dict) -> list[str]:
    """A plan's options as typed on the command line."""
    argv = []
    for name, value in plan.items():
        if name == "mitigate":
            argv.append("--mitigate" if value else "--no-mitigate")
        else:
            argv += ["--" + cli._ECHO_KEYS.get(name, name).replace("_", "-"), str(value)]
    return argv


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(plan=run_plans(), seed=st.integers(0, 50))
@hypothesis.example(plan=dict(method="vs-rm", dataset="synthetic", nu=0.01), seed=1)
def test_a_plan_the_run_config_accepts_runs_and_one_it_rejects_runs_no_seed(plan, seed):
    try:
        cfg = RunConfig(**plan, seeds=(seed,))
    except ValueError:
        with mock.patch.object(cli, "_run_seed", side_effect=AssertionError("a seed ran")), \
                pytest.raises(SystemExit) as exc:
            main(typed(plan) + ["--seeds", str(seed), "--output", os.devnull])
        assert exc.value.code == 2
        return
    # a module's own check never fails a seed of a plan that RunConfig accepted
    record = cli._seed_record(cfg, seed, None)
    assert record.ok or any(error in record.error for error in SEED_ERRORS), record.error


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
    good, bad = records_to_jsonl([fake_record(0, 0.4), fake_record(1, 0.4)]).splitlines()
    cases = [
        ("[1]\n", "line 1 is not a JSON object"),
        ("\n{not json\n", "line 2 is not valid JSON"),  # the blank line 1 is skipped
        (None, "cannot read records file: No such file or directory"),  # no file at all
    ] + [
        # a field a summary groups, sorts or compares by, wrongly typed in the second record
        (f"{good}\n{bad.replace(field, typo)}\n", f"line 2: {message}")
        for field, typo, message in [
            ('"method": "rbf"', '"method": 7', "method is not a string: 7"),
            ('"dataset": "synthetic"', '"dataset": null', "dataset is not a string: None"),
            ('"seed": 1', '"seed": [1]', "seed is not an integer: [1]"),
            ('"n_train": 100', '"n_train": "60"', "n_train is not an integer: '60'"),
            ('"d": 2', '"d": true', "d is not an integer: True"),
            ('"d": 2', '"d": 2.0', "d is not an integer: 2.0"),
            ('"config": {}', '"config": 5', "config is not an object: 5"),
        ]
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


RUN = "--method rbf --dataset synthetic --train-size 60 --seeds 0"
FRAUD_RUN = "--method rbf --dataset fraud --train-size 60 --seeds 0"


@pytest.mark.parametrize("argv, message", [
    pytest.param(f"{RUN} --output {{tmp}}/missing/out",
                 "--output {tmp}/missing/out: directory {tmp}/missing does not exist",
                 id="--output"),
    pytest.param(f"{RUN} --summary {{tmp}}/missing/out",
                 "--summary {tmp}/missing/out: directory {tmp}/missing does not exist",
                 id="--summary"),
    # the path names an existing directory, not a file in one
    pytest.param(f"{RUN} --output {{tmp}}/dir", "--output {tmp}/dir: is a directory",
                 id="--output-directory"),
    pytest.param(f"{RUN} --summary {{tmp}}/dir", "--summary {tmp}/dir: is a directory",
                 id="--summary-directory"),
    # the summary would replace the records, whether the file exists yet or not
    pytest.param(f"{RUN} --output {{tmp}}/x --summary {{tmp}}/x",
                 "--summary {tmp}/x: names the same file as --output {tmp}/x",
                 id="--output-is--summary"),
    pytest.param(f"{RUN} --output {{tmp}}/records.jsonl --summary {{tmp}}/dir/../records.jsonl",
                 "--summary {tmp}/dir/../records.jsonl: names the same file as "
                 "--output {tmp}/records.jsonl",
                 id="--output-is-an-existing--summary"),
    # an output must not replace a file the invocation reads
    pytest.param("--summarize-records {tmp}/records.jsonl --summary {tmp}/records.jsonl",
                 "--summary {tmp}/records.jsonl: names the same file as "
                 "--summarize-records {tmp}/records.jsonl",
                 id="--summary-is-a-summarized-file"),
    pytest.param("--summarize-records {tmp}/dir/../records.jsonl {tmp}/link.jsonl "
                 "--summary {tmp}/records.jsonl",
                 "--summary {tmp}/records.jsonl: names the same file as "
                 "--summarize-records {tmp}/dir/../records.jsonl",
                 id="--summary-is-a-summarized-file-by-another-path"),
    pytest.param(f"{FRAUD_RUN} --fraud-csv {{tmp}}/fraud.csv --output {{tmp}}/fraud.csv",
                 "--output {tmp}/fraud.csv: names the same file as --fraud-csv {tmp}/fraud.csv",
                 id="--output-is--fraud-csv"),
    pytest.param(f"{FRAUD_RUN} --summary {{tmp}}/dir/../fraud.csv",
                 "--summary {tmp}/dir/../fraud.csv: names the same file as "
                 f"${cli.FRAUD_CSV_ENV} {{tmp}}/fraud.csv",
                 id="--summary-is-the-fraud-csv-from-the-environment"),
])
def test_main_rejects_an_output_path_in_a_missing_directory_before_any_seed(
    argv, message, tmp_path, capsys, monkeypatch
):
    def no_seed(*args):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(cli, "_run_seed", no_seed)
    monkeypatch.setenv(cli.FRAUD_CSV_ENV, str(tmp_path / "fraud.csv"))
    (tmp_path / "dir").mkdir()
    write_small_fraud_csv(tmp_path / "fraud.csv")
    (tmp_path / "records.jsonl").write_text(records_to_jsonl([fake_record(0, 0.4)]))
    (tmp_path / "link.jsonl").symlink_to(tmp_path / "records.jsonl")
    entries = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
    with pytest.raises(SystemExit) as exc:
        main(argv.format(tmp=tmp_path).split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert message.format(tmp=tmp_path) in err
    assert {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")} == entries


def test_outputs_may_name_one_device(tmp_path):
    # a device is no file, so writing both outputs to it replaces nothing
    assert main(f"{RUN} --output /dev/null --summary /dev/null".split()) == 0
    records = tmp_path / "r.jsonl"
    records.write_text(records_to_jsonl([fake_record(0, 0.4)]))
    assert main(["--summarize-records", str(records), "/dev/null", "--summary", "/dev/null"]) == 0


@pytest.mark.parametrize("options, typed", [pytest.param(*case, id=case[1]) for case in [
    ("--nu 0.5", "--nu"),
    ("--lambda 2", "--lambda"),
    ("--omit-timings", "--omit-timings"),
    ("--output {tmp}/o.jsonl", "--output"),
    ("--parallel", "--parallel"),
    ("--method rm", "--method"),
    ("--dataset fraud --fraud-csv {tmp}/r.jsonl", "--dataset, --fraud-csv"),
    ("--mitigate", "--mitigate"),
    ("--no-mitigate", "--no-mitigate"),
    ("--seeds 0-1", "--seeds"),
    ("--aggregation max --threshold 1", "--aggregation, --threshold"),
    ("--output {tmp}/o.jsonl --method rm --nu 0.5 --parallel",
     "--method, --nu, --output, --parallel"),
]])
def test_summarize_records_rejects_run_options_with_usage(options, typed, tmp_path, capsys):
    records = tmp_path / "r.jsonl"
    records.write_text(records_to_jsonl([fake_record(0, 0.4), fake_record(1, 0.6)]))
    before = records.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["--summarize-records", str(records), *options.format(tmp=tmp_path).split()])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"--summarize-records runs no seed, so it takes no {typed}\n" in err
    assert records.read_bytes() == before
    assert list(tmp_path.iterdir()) == [records]


def test_summarize_records_accepts_run_options_at_their_defaults(tmp_path, capsys):
    records = tmp_path / "r.jsonl"
    records.write_text(records_to_jsonl([fake_record(0, 0.4), fake_record(1, 0.6)]))
    assert main(["--summarize-records", str(records), "--nu", "0.1", "--seeds", "0-14"]) == 0
    assert capsys.readouterr().out.startswith("method,")


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
