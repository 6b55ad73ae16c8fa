"""Pinned outputs of Gram assembly and of the CLI harness.

``golden_values.json`` holds train and cross Grams for every kernel kind on a
fixed 9x3 input, the checked record fields and the whole JSON-lines
records of two small synthetic seeds per CLI method, which together cover
kinds and methods the benchmark never runs, three kinds of error record,
and the scores of a feature-bagged RM ensemble whose components run on
fewer qubits (4) than the input has features (6).  A refactor must
reproduce them; only a deliberate change of behaviour re-records them, with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_values.json
"""

from __future__ import annotations

import json
import os
import sys
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from qkad.cli import FRAUD_CSV_ENV, METHODS, RunConfig, records_to_jsonl, run_experiment
from qkad.ensemble import VSConfig, fit_vs, score_vs
from qkad.kernel import KernelConfig, build_gram_cross, build_gram_train

GOLDEN_PATH = Path(__file__).with_name("golden_values.json")

GRAM_CASES = {
    "exact": KernelConfig(kind="exact"),
    "inversion_test": KernelConfig(kind="inversion_test", it_shots=200),
    "randomized": KernelConfig(kind="randomized", rm_settings=5, rm_shots=300),
    "randomized-unmitigated": KernelConfig(
        kind="randomized", rm_settings=5, rm_shots=300, mitigate=False
    ),
    "rbf": KernelConfig(kind="rbf"),
}

RECORD_FIELDS = ("tp", "fp", "tn", "fn", "kernel_evals", "converged", "ap", "f1")

# runs whose one seed fails: degenerate purity, a failed ensemble component
# and a fraud run without a CSV path
ERROR_CASES = {
    "degenerate-purity": dict(method="rm", dataset="synthetic", train_size=60,
                              rm_settings=2, rm_shots=2),
    "failed-component": dict(method="vs-it", dataset="synthetic", train_size=100, nu=0.01),
    "missing-fraud-csv": dict(method="rbf", dataset="fraud", train_size=60),
}


def gram_inputs() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(2024)
    return rng.uniform(-0.6, 0.6, size=(9, 3)), rng.uniform(-0.6, 0.6, size=(4, 3))


def gram_values(case: str) -> dict:
    cfg = GRAM_CASES[case]
    X_train, X_test = gram_inputs()
    train, points = build_gram_train(X_train, cfg, np.random.default_rng(1))
    cross = build_gram_cross(X_test, points, np.random.default_rng(2))
    return {
        "train": train.entries.tolist(),
        "train_evals": train.eval_count,
        "cross": cross.entries.tolist(),
        "cross_evals": cross.eval_count,
    }


def rfb_ensemble_values() -> dict:
    rng = np.random.default_rng(2026)
    X_train = rng.uniform(-0.6, 0.6, size=(200, 6))
    X_test = rng.uniform(-0.6, 0.6, size=(10, 6))
    cfg = KernelConfig(kind="randomized", rm_settings=4, rm_shots=64, mitigate=False)
    model = fit_vs(X_train, VSConfig(base_kernel=cfg, nu=0.1, rfb_enabled=True),
                   np.random.default_rng(3))
    scores, cross_evals = score_vs(model, X_test)
    return {
        "scores": scores.tolist(),
        "train_evals": model.train_eval_count,
        "cross_evals": cross_evals,
    }


def run_config(method: str) -> RunConfig:
    return RunConfig(
        method=method, dataset="synthetic", train_size=200 if method.startswith("vs") else 60,
        seeds=(0, 1), it_shots=64, rm_settings=4, rm_shots=64, record_timings=False,
    )


@cache
def jsonl_records(cfg: RunConfig) -> list[dict]:
    """The records of a run as its JSON-lines output reads back, key order kept.

    ``QKAD_FRAUD_CSV`` is unset during the run, so a fraud run without
    ``fraud_csv`` fails the same way everywhere.
    """
    with mock.patch.dict(os.environ):
        os.environ.pop(FRAUD_CSV_ENV, None)
        text = records_to_jsonl(run_experiment(cfg))
    return [json.loads(line) for line in text.splitlines()]


def record_values(method: str) -> list[dict]:
    return [
        {name: record[name] for name in RECORD_FIELDS}
        for record in jsonl_records(run_config(method))
    ]


def error_record_values(case: str) -> list[dict]:
    return jsonl_records(RunConfig(**ERROR_CASES[case], seeds=(0,)))


def assert_same_value(got, want, where: str) -> None:
    """Floats within 1e-12; everything else, key order included, exactly."""
    if isinstance(want, float):
        assert type(got) is float and abs(got - want) <= 1e-12, (where, got, want)
    elif isinstance(want, dict):
        assert type(got) is dict and list(got) == list(want), (where, list(got), list(want))
        for key in want:
            assert_same_value(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert type(got) is list and len(got) == len(want), (where, got, want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_value(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(GRAM_CASES))
def test_gram_matches_golden(case, golden):
    expected = golden["grams"][case]
    actual = gram_values(case)
    for part in ("train", "cross"):
        np.testing.assert_allclose(actual[part], expected[part], rtol=0, atol=1e-12)
        assert actual[f"{part}_evals"] == expected[f"{part}_evals"]


def test_rfb_ensemble_matches_golden(golden):
    expected = golden["rfb_ensemble"]
    actual = rfb_ensemble_values()
    np.testing.assert_allclose(actual["scores"], expected["scores"], rtol=0, atol=1e-12)
    assert actual["train_evals"] == expected["train_evals"]
    assert actual["cross_evals"] == expected["cross_evals"]


@pytest.mark.parametrize("method", METHODS)
def test_cli_records_match_golden(method, golden):
    actual = record_values(method)
    expected = golden["records"][method]
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        for name in ("tp", "fp", "tn", "fn", "kernel_evals", "converged"):
            assert got[name] == want[name], name
        for name in ("ap", "f1"):
            assert got[name] == pytest.approx(want[name], rel=0, abs=1e-12), name


@pytest.mark.parametrize("method", METHODS)
def test_cli_whole_records_match_golden(method, golden):
    assert_same_value(jsonl_records(run_config(method)), golden["whole_records"][method], method)


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_records_match_golden(case, golden):
    assert_same_value(error_record_values(case), golden["error_records"][case], case)


if __name__ == "__main__":
    payload = {
        "grams": {case: gram_values(case) for case in GRAM_CASES},
        "records": {method: record_values(method) for method in METHODS},
        "rfb_ensemble": rfb_ensemble_values(),
        "whole_records": {method: jsonl_records(run_config(method)) for method in METHODS},
        "error_records": {case: error_record_values(case) for case in ERROR_CASES},
    }
    json.dump(payload, sys.stdout, indent=1)
    sys.stdout.write("\n")
