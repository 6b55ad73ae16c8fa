"""Benchmark harness: configured experiment runs, JSON-lines records, CSV summaries.

A run sweeps a list of seeds; each seed gets its own data split, its own
random streams, and produces one record.  Records carry everything needed to
reproduce the run (config echo, package version, generator constants) plus
metrics, phase timings and kernel-evaluation counts.  The config echo lists
:class:`RunConfig`'s init fields in their order, ``angle_scale`` as
``lambda``, all but ``seeds``, ``omit_timings`` and ``parallel``, which do
not change a record's results.  A failing seed yields a
record with the error message while the remaining seeds still run; the
process exit code is zero only when every seed succeeded, one when some seed
failed or no record was left to summarize, and two (with usage) on invalid
options, run options given with ``--summarize-records``, an output path that
is a directory, in a missing directory, or the file of the other output or
of an input (a summarized records file or the fraud CSV), or an unreadable
or malformed records file, before any seed runs.

Every method is timed alike: the clock is read before fitting, after the fit
(the solver, or ``fit_vs``) and right after scoring, for ``train_time_s`` and
``test_time_s``; ``gram_time_s`` and ``solver_time_s`` split the fit.

Seeds run sequentially by default, or with ``--parallel`` in forked worker
processes (:func:`statevec._on_forked_workers`), one per core, where the
platform can fork and numpy's OpenBLAS can be pinned to one thread in a
worker.  A step that gets one worker runs in the calling process, so a
one-core mask runs the seeds sequentially; the numbers are the same either
way, because every seed owns its streams.  A worker runs the package's chunked
steps (Born sampling, rbf bands, Gram mirror tiles) and a VS ensemble's
components on its one thread.
``--output`` is a command-line option, not a :class:`RunConfig` field.
"""

from __future__ import annotations

import argparse
import concurrent.futures.thread  # noqa: F401  (statevec's pools; imported before a seed is timed)
import json
import logging
import os
import sys
import time
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, data, ensemble, ocsvm, pipeline, statevec
from .ensemble import SUBSAMPLE_MAX, VSConfig, component_count, fit_vs, rotation_dim, score_vs
from .kernel import KernelConfig, build_gram_cross, build_gram_train, check_point_set
from .metrics import average_precision, confusion, f1, precision_recall
from .statevec import FeatureMapConfig

__all__ = ["RunConfig", "RunRecord", "run_experiment", "summarize", "records_to_jsonl", "main"]

logger = logging.getLogger(__name__)

FRAUD_CSV_ENV = "QKAD_FRAUD_CSV"
TEST_SIZE = 125  # test points per seed

# kernel kind, default mitigation, ensemble?, feature bagging?
_METHOD_TABLE = {
    "rbf": ("rbf", False, False, False),
    "it": ("inversion_test", False, False, False),
    "rm": ("randomized", True, False, False),
    "rm-unmitigated": ("randomized", False, False, False),
    "vs-it": ("inversion_test", False, True, False),
    "vs-rm": ("randomized", False, True, False),
    "vs-rfb-rm": ("randomized", False, True, True),
}

# test anomaly ratio, default num_features, source width
_DATASET_TABLE = {
    "synthetic": (0.3, 2, len(data.SYNTHETIC_CLUSTER_CENTERS[0])),
    "fraud": (0.05, 6, len(data.FRAUD_FEATURE_COLUMNS)),
}
METHODS = tuple(_METHOD_TABLE)
DATASETS = tuple(_DATASET_TABLE)


@dataclass(frozen=True)
class RunConfig:
    # a record's config echo lists the init fields in this order, all but _NOT_ECHOED
    method: str
    dataset: str
    train_size: int = 500
    num_features: int | None = None  # None -> dataset default, resolved at init
    nu: float = 0.1
    angle_scale: float = FeatureMapConfig.angle_scale
    layers: int = FeatureMapConfig.layers
    it_shots: int = KernelConfig.it_shots
    rm_settings: int = KernelConfig.rm_settings
    rm_shots: int = KernelConfig.rm_shots
    aggregation: str = VSConfig.aggregation
    mitigate: bool | None = None  # None -> method default, resolved at init
    threshold: float = 0.0
    fraud_csv: str | None = None
    # they describe the run, not its results
    seeds: tuple[int, ...] = tuple(range(15))
    omit_timings: bool = False
    parallel: bool = False
    # the run plan, built once from the options above
    kernel: KernelConfig = field(init=False, repr=False, compare=False)
    vs: VSConfig | None = field(init=False, repr=False, compare=False)  # None: one model
    split: data.SplitSpec = field(init=False, repr=False, compare=False)
    r_prime: int | None = field(init=False, repr=False, compare=False)  # None: no bagging

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}, expected one of {DATASETS}")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0, got {min(self.seeds)}")
        repeated = sorted(s for s, k in Counter(self.seeds).items() if k > 1)
        if repeated:
            raise ValueError(f"seeds must be distinct, got {repeated} more than once")
        if self.fraud_csv is not None and self.dataset != "fraud":
            raise ValueError(f"only the fraud dataset reads fraud_csv, got {self.fraud_csv!r}")
        if not np.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")
        kind, default_mitigate, is_ensemble, use_rfb = _METHOD_TABLE[self.method]
        ratio, default_features, width = _DATASET_TABLE[self.dataset]
        # a rule that a module checks when it runs is checked here by that module's function
        split = data.SplitSpec(self.train_size, test_size=TEST_SIZE, test_anomaly_ratio=ratio)
        if is_ensemble:
            ensemble.check_train_size(self.train_size)
        if self.num_features is None:
            object.__setattr__(self, "num_features", default_features)
        if self.mitigate is None:
            object.__setattr__(self, "mitigate", default_mitigate)
        elif self.mitigate != default_mitigate and not (is_ensemble and kind == "randomized"):
            raise ValueError(
                f"{self.method} always runs with mitigate={default_mitigate}; "
                "only vs-rm and vs-rfb-rm can change it"
            )
        if not is_ensemble and self.aggregation != "mean":
            raise ValueError(f"{self.method} is a single model; only vs-* methods take aggregation")
        pipeline.check_width(self.num_features, self.train_size, width)
        # an ensemble component has at most min(SUBSAMPLE_MAX, train_size) points
        train_points = min(SUBSAMPLE_MAX, self.train_size) if is_ensemble else self.train_size
        ocsvm.check_nu(self.nu, train_points)
        if use_rfb and self.num_features < 2:
            raise ValueError("rotated feature bagging needs at least 2 post-PCA features")
        kernel = KernelConfig(
            kind=kind,
            feature_map=FeatureMapConfig(layers=self.layers, angle_scale=self.angle_scale),
            it_shots=self.it_shots,
            rm_settings=self.rm_settings,
            rm_shots=self.rm_shots,
            mitigate=self.mitigate,
        )
        vs = None
        if is_ensemble:
            vs = VSConfig(kernel, nu=self.nu, aggregation=self.aggregation, rfb_enabled=use_rfb)
        r_prime = rotation_dim(self.num_features) if use_rfb else None
        check_point_set(kernel, max(train_points, split.test_size), r_prime or self.num_features)
        vars(self).update(kernel=kernel, vs=vs, split=split, r_prime=r_prime)


@dataclass(frozen=True)
class RunRecord:
    method: str
    dataset: str
    seed: int
    n_train: int
    d: int
    ap: float | None = None
    f1: float | None = None
    precision: float | None = None
    recall: float | None = None
    train_time_s: float | None = None
    test_time_s: float | None = None
    kernel_evals: int | None = None
    components: int | None = None
    r_prime: int | None = None
    tp: int | None = None
    fp: int | None = None
    tn: int | None = None
    fn: int | None = None
    gram_time_s: float | None = None
    solver_time_s: float | None = None
    train_kernel_evals: int | None = None
    test_kernel_evals: int | None = None
    converged: bool | None = None
    error: str | None = None
    config: dict = field(default_factory=dict)
    version: str = __version__
    synthetic_generator: dict | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


# each record has its own seed, and the other two change only timings
_NOT_ECHOED = ("seeds", "omit_timings", "parallel")


def _record_fields(cfg: RunConfig, seed: int) -> dict:
    """The fields every record of a run carries, with a config echo of its own."""
    config = {
        "lambda" if f.name == "angle_scale" else f.name: getattr(cfg, f.name)
        for f in fields(cfg) if f.init and f.name not in _NOT_ECHOED
    }
    config.update(preprocessing="standard_scaler+pca+kind_rescale",
                  score_normalization="train-zscore")
    return dict(method=cfg.method, dataset=cfg.dataset, seed=seed, n_train=cfg.train_size,
                d=cfg.num_features, config=config)


def _synthetic_constants() -> dict:
    return {
        "cluster_centers": [list(c) for c in data.SYNTHETIC_CLUSTER_CENTERS],
        "cluster_std": float(data.SYNTHETIC_CLUSTER_STD),
        "anomaly_box": list(data.SYNTHETIC_ANOMALY_BOX),
    }


def _fraud_path(fraud_csv: str | None) -> str | None:
    return fraud_csv or os.environ.get(FRAUD_CSV_ENV)


def _load_fraud(cfg: RunConfig) -> data.Dataset:
    path = _fraud_path(cfg.fraud_csv)
    if not path:
        raise ValueError(f"fraud dataset needs a CSV path (--fraud-csv or ${FRAUD_CSV_ENV})")
    return data.load_fraud_csv(path)


def _run_seed(cfg: RunConfig, seed: int, fraud: data.Dataset | None) -> RunRecord:
    data_rng, train_rng, solver_rng, score_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)
    )
    if cfg.dataset == "synthetic":
        train, test = data.generate_synthetic(cfg.split, data_rng)
    else:
        train, test = data.make_split(fraud, cfg.split, data_rng)

    prep = pipeline.fit_preprocess(train.features, cfg.kernel.kind, cfg.num_features)
    X_train = pipeline.apply_preprocess(prep, train.features)
    X_test = pipeline.apply_preprocess(prep, test.features)

    # t0 before fitting, t1 after fit_vs or the solver, t2 right after scoring
    t0 = time.perf_counter()
    if cfg.vs is not None:
        fitted = fit_vs(X_train, cfg.vs, train_rng)
        t1 = time.perf_counter()
        scores, test_evals = score_vs(fitted, X_test)
        t2 = time.perf_counter()
        gram_time, solver_time = fitted.gram_time_s, fitted.solver_time_s
        train_evals = fitted.train_eval_count
        models = [c.model for c in fitted.components]
    else:
        gram, train_set = build_gram_train(X_train, cfg.kernel, train_rng)
        t_gram = time.perf_counter()
        models = [ocsvm.fit(gram, cfg.nu, solver_rng)]
        t1 = time.perf_counter()
        cross = build_gram_cross(X_test, train_set, score_rng)
        scores = ocsvm.decision_scores(models[0], cross)
        t2 = time.perf_counter()
        gram_time, solver_time = t_gram - t0, t1 - t_gram
        train_evals, test_evals = gram.eval_count, cross.eval_count
    train_time, test_time = t1 - t0, t2 - t1
    if cfg.omit_timings:
        gram_time = solver_time = train_time = test_time = 0.0

    predictions = (scores < cfg.threshold).astype(np.int64)
    counts = confusion(test.labels, predictions)
    prec, rec = precision_recall(counts)
    return RunRecord(
        **_record_fields(cfg, seed),
        ap=average_precision(-scores, test.labels),
        f1=f1(prec, rec),
        precision=prec,
        recall=rec,
        train_time_s=train_time,
        test_time_s=test_time,
        kernel_evals=train_evals + test_evals,
        components=len(models),
        r_prime=cfg.r_prime,
        **asdict(counts),
        gram_time_s=gram_time,
        solver_time_s=solver_time,
        train_kernel_evals=train_evals,
        test_kernel_evals=test_evals,
        converged=all(m.converged for m in models),
        synthetic_generator=_synthetic_constants() if cfg.dataset == "synthetic" else None,
    )


def _error_record(cfg: RunConfig, seed: int, exc: Exception) -> RunRecord:
    return RunRecord(**_record_fields(cfg, seed), error=f"{type(exc).__name__}: {exc}")


def _seed_record(cfg: RunConfig, seed: int, fraud: data.Dataset | None) -> RunRecord:
    """The seed's record, or its error record if the seed raises."""
    try:
        record = _run_seed(cfg, seed, fraud)
        logger.info("seed %d: ap=%.4f f1=%.4f", seed, record.ap, record.f1)
        return record
    except Exception as exc:
        logger.error("seed %d failed: %s", seed, exc)
        return _error_record(cfg, seed, exc)


def run_experiment(cfg: RunConfig) -> list[RunRecord]:
    """Run every seed of the configured experiment; never aborts the sweep."""
    fraud: data.Dataset | None = None
    if cfg.dataset == "fraud":
        try:
            fraud = _load_fraud(cfg)
        except Exception as exc:
            logger.error("fraud dataset unavailable: %s", exc)
            return [_error_record(cfg, seed, exc) for seed in cfg.seeds]

    if cfg.vs is not None:
        # a VS fit's pool, imported before a seed is timed; a --parallel pool imports its own
        statevec._forks(component_count(cfg.train_size))
    if cfg.parallel:
        # a seed whose worker died gets an error record with the pool's BrokenProcessPool
        return statevec._on_forked_workers(
            lambda i: _seed_record(cfg, cfg.seeds[i], fraud), len(cfg.seeds),
            fail=lambda i, exc: _error_record(cfg, cfg.seeds[i], exc),
        )
    return [_seed_record(cfg, seed, fraud) for seed in cfg.seeds]


def records_to_jsonl(records: list[RunRecord]) -> str:
    return "".join(json.dumps(asdict(r)) + "\n" for r in records)


_RUN_FIELDS = {f.name for f in fields(RunConfig)}
_RECORD_FIELDS = {f.name for f in fields(RunRecord)}
_REQUIRED_FIELDS = [
    f.name for f in fields(RunRecord) if f.default is MISSING and f.default_factory is MISSING
]
SUMMARY_METRICS = ("ap", "f1", "precision", "recall", "train_time_s", "test_time_s")
# the fields a summary groups, sorts and compares records by, and their JSON types
_KEY_TYPES = {"method": str, "dataset": str, "seed": int, "n_train": int, "d": int, "config": dict}
_TYPE_NAMES = {str: "a string", int: "an integer", dict: "an object"}


def load_records_jsonl(path: str | Path) -> list[RunRecord]:
    """Read records written by the harness (unknown keys are ignored)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read records file: {exc.strerror}") from None
    records = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {line_no} is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: line {line_no} is not a JSON object")
        missing = [k for k in _REQUIRED_FIELDS if k not in payload]
        if missing:
            raise ValueError(f"{path}: line {line_no} lacks required keys {missing}")
        for key, kind in _KEY_TYPES.items():
            value = payload.get(key, kind())  # only config may be absent
            if type(value) is not kind:  # not isinstance: bool is not an integer
                what = _TYPE_NAMES[kind]
                raise ValueError(f"{path}: line {line_no}: {key} is not {what}: {value!r}")
        unset = [k for k in SUMMARY_METRICS if payload.get(k) is None]
        if payload.get("error") is None and unset:
            raise ValueError(f"{path}: line {line_no} has neither an error nor values for {unset}")
        for key in SUMMARY_METRICS:
            value = payload.get(key)
            # bool is not a number, and NaN and Infinity are not JSON numbers
            if value is not None and (type(value) not in (int, float) or not np.isfinite(value)):
                raise ValueError(f"{path}: line {line_no}: {key} is not a finite number: {value!r}")
        records.append(RunRecord(**{k: v for k, v in payload.items() if k in _RECORD_FIELDS}))
    return records


def summarize(records: list[RunRecord]) -> list[dict]:
    """Per-(method, dataset, n_train, d) means and sample standard deviations.

    A group averages one experiment: its records must echo equal configs and
    carry distinct seeds, or no group is summarized.
    """
    ok = [r for r in records if r.ok]
    if not ok:
        raise ValueError("no successful records to summarize")
    groups: dict[tuple, list[RunRecord]] = {}
    for r in ok:
        groups.setdefault((r.method, r.dataset, r.n_train, r.d), []).append(r)

    rows = []
    for (method, dataset, n_train, d), members in sorted(groups.items()):
        group = f"{method} on {dataset} (n_train={n_train}, d={d})"
        first = members[0].config
        for r in members[1:]:
            keys = first.keys() | r.config.keys()
            differing = sorted(k for k in keys if first.get(k) != r.config.get(k))
            if differing:
                raise ValueError(f"{group} mixes records whose configs differ in {differing}")
        repeated = sorted(s for s, k in Counter(r.seed for r in members).items() if k > 1)
        if repeated:
            raise ValueError(f"{group} has seeds {repeated} more than once")
        row: dict = {
            "method": method,
            "dataset": dataset,
            "n_train": n_train,
            "d": d,
            "n_runs": len(members),
        }
        for metric in SUMMARY_METRICS:
            values = np.array([getattr(r, metric) for r in members], dtype=float)
            row[f"{metric}_mean"] = float(values.mean())
            row[f"{metric}_std"] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        rows.append(row)
    return rows


def summary_to_csv(rows: list[dict]) -> str:
    import csv as _csv
    import io

    buffer = io.StringIO()
    writer = _csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _parse_seeds(text: str) -> tuple[int, ...]:
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dash, hi = part.partition("-")
        try:
            first, last = int(lo), int(hi if dash else lo)
        except ValueError:
            kind = "range" if dash else "value"
            raise argparse.ArgumentTypeError(f"bad seed {kind} {part!r}") from None
        if last < first:
            raise argparse.ArgumentTypeError(f"bad seed range {part!r}")
        seeds.extend(range(first, last + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds parsed from {text!r}")
    return tuple(seeds)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkad",
        description="Quantum-kernel one-class SVM anomaly detection benchmark",
    )
    parser.add_argument("--method", choices=METHODS)
    parser.add_argument("--dataset", choices=DATASETS)
    parser.add_argument("--summarize-records", nargs="+", metavar="JSONL", default=None,
                        help="skip running; summarize existing record files into --summary")
    parser.add_argument("--train-size", type=int)
    parser.add_argument("--num-features", type=int)
    parser.add_argument("--nu", type=float)
    parser.add_argument("--lambda", dest="angle_scale", type=float,
                        help="feature-map angle scale (default %(default)s)")
    parser.add_argument("--layers", type=int)
    parser.add_argument("--it-shots", type=int)
    parser.add_argument("--rm-settings", type=int)
    parser.add_argument("--rm-shots", type=int)
    parser.add_argument("--aggregation", choices=ensemble.AGGREGATIONS)
    parser.add_argument("--seeds", type=_parse_seeds,
                        help="comma list and/or ranges, e.g. '0-14' or '0,3,7'")
    parser.add_argument("--fraud-csv", help=f"path to the fraud CSV (or set ${FRAUD_CSV_ENV})")
    parser.add_argument("--output", help="JSON-lines records path (default stdout)")
    parser.add_argument("--summary", default=None, help="optional summary CSV path")
    parser.add_argument("--threshold", type=float,
                        help="label threshold on the aggregated score")
    parser.add_argument("--mitigate", action=argparse.BooleanOptionalAction,
                        help="force randomized-kernel mitigation on/off (default: per method)")
    parser.add_argument("--omit-timings", action="store_true",
                        help="write zero timings for byte-reproducible output")
    parser.add_argument("--parallel", action="store_true", help="run seeds in worker processes")
    # each run option defaults to its RunConfig field
    parser.set_defaults(**{f.name: f.default for f in fields(RunConfig) if f.default is not MISSING})
    return parser


def _same_file(a: str, b: str) -> bool:
    """Whether ``a`` and ``b`` name one regular file, existing or not; a device is no file."""
    if any(os.path.exists(p) and not os.path.isfile(p) for p in (a, b)):
        return False
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return Path(a).resolve() == Path(b).resolve()


def _check_outputs(parser: argparse.ArgumentParser, args: argparse.Namespace,
                   inputs: list[tuple[str, str]]) -> None:
    """Exit 2 with usage if an output path cannot be written or names another path's file."""
    outputs = [(o, path) for o, path in (("--output", args.output), ("--summary", args.summary))
               if path]
    for i, (option, path) in enumerate(outputs):
        if Path(path).is_dir():
            parser.error(f"{option} {path}: is a directory")
        if not Path(path).parent.is_dir():
            parser.error(f"{option} {path}: directory {Path(path).parent} does not exist")
        for other, other_path in outputs[:i] + inputs:
            if _same_file(path, other_path):
                parser.error(f"{option} {path}: names the same file as {other} {other_path}")


def _run_options_given(parser: argparse.ArgumentParser, args: argparse.Namespace) -> list[str]:
    """The run options set away from their defaults, as typed: ``--no-mitigate`` as such."""
    return [
        action.option_strings[getattr(args, action.dest) is False] for action in parser._actions
        if action.dest in _RUN_FIELDS | {"output"}
        and getattr(args, action.dest) != action.default
    ]


def _write(text: str, path: str | None, what: str) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        Path(path).write_text(text)
        logger.info("wrote %s to %s", what, path)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    failed: list[int] = []
    if args.summarize_records:
        given = _run_options_given(parser, args)
        if given:
            parser.error(f"--summarize-records runs no seed, so it takes no {', '.join(given)}")
        _check_outputs(parser, args, [("--summarize-records", p) for p in args.summarize_records])
        records: list[RunRecord] = []
        try:
            for path in args.summarize_records:
                records.extend(load_records_jsonl(path))
        except ValueError as exc:
            parser.error(str(exc))
    else:
        if args.method is None or args.dataset is None:
            parser.error("--method and --dataset are required unless --summarize-records is used")
        fraud_csv = _fraud_path(args.fraud_csv) if args.dataset == "fraud" else None
        source = "--fraud-csv" if args.fraud_csv else f"${FRAUD_CSV_ENV}"
        _check_outputs(parser, args, [(source, fraud_csv)] if fraud_csv else [])
        options = {k: v for k, v in vars(args).items() if k in _RUN_FIELDS}
        try:
            cfg = RunConfig(**options)
        except ValueError as exc:
            parser.error(str(exc))
        records = run_experiment(cfg)
        _write(records_to_jsonl(records), args.output, f"{len(records)} records")
        failed = [r.seed for r in records if not r.ok]
        if failed:
            logger.error("failed seeds: %s", failed)

    # error records in a summarized file are skipped; an empty or mixed summary fails
    if args.summarize_records or args.summary:
        try:
            rows = summarize(records)
        except ValueError as exc:
            logger.error("%s; no summary written", exc)
            return 1
        _write(summary_to_csv(rows), args.summary, f"summary of {len(records)} records")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
