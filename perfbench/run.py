"""qkad end-to-end benchmark with a traced per-layer breakdown.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rm-d10 --seed 0 --seconds 10 --trace 0

Each run drives the package the way a user does: ``qkad.cli.main`` in a
fresh child process (child.py), one process, seeds in sequence, BLAS pinned
to one thread.  The fraud workloads read a seeded stand-in of the fraud CSV
(standin.py), written untimed to a scratch directory inside the checkout;
the program receives only its path.

``--seed n`` picks the inputs of ``n mod 24``, the seeds the stored
reference covers: the stand-in file of that seed and a block of CLI seeds.
Every record is checked against reference.json (confusion counts, kernel
evaluations, convergence, AP and F1); a mismatch or error counts as failed.

With ``--trace 0`` the run repeats the CLI invocation until ``--seconds``
have passed (at least once) and reports the end-to-end metrics: run_s,
seed_s, setup_s, peak_rss_mb, ap and f1.  setup_s is the median over the
invocations of ``import qkad`` plus the CLI's own ``data.load_fraud_csv``
call, both timed inside the child.

With ``--trace 1`` it makes one untraced and one traced invocation and
reports the per-layer metrics from the traced one's spans (tracing.py); the
traced records must equal the untraced ones apart from timings.  ``*_s``
layer metrics are self times, except the inclusive ``kernel.gram_train_s``,
``kernel.gram_cross_s``, ``ensemble.fit_s`` and ``ensemble.score_s``.  The
spans are written to ``.perfbench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
REFERENCE_SEEDS = 24
RUN_TIMEOUT_S = 170.0

# timing fields of a record; everything else must repeat exactly
TIMING_FIELDS = ("train_time_s", "test_time_s", "gram_time_s", "solver_time_s")
CHECKED_FIELDS = ("seed", "tp", "fp", "tn", "fn", "kernel_evals", "converged", "ap", "f1")

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple[str, ...]
    seeds_per_run: int
    fraud: bool
    table_qubits: int  # qubits of the RM coefficient table, 0 without one

    def cli_seeds(self, input_seed: int) -> list[int]:
        first = input_seed * self.seeds_per_run
        return list(range(first, first + self.seeds_per_run))


# Seeds per run: AP and F1 vary from seed to seed (125 test points, 6 of them
# frauds), so cheap workloads average several seeds; the RM ones cannot afford
# more than one or two within a run's time.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rm-d10",
            ("--method", "rm", "--dataset", "fraud",
             "--train-size", "200", "--num-features", "10"),
            seeds_per_run=1,
            fraud=True,
            table_qubits=10,
        ),
        Workload(
            "vs-rm",
            ("--method", "vs-rm", "--dataset", "fraud",
             "--train-size", "1000", "--num-features", "6"),
            seeds_per_run=2,
            fraud=True,
            table_qubits=6,
        ),
        Workload(
            "it-n2000",
            ("--method", "it", "--dataset", "fraud",
             "--train-size", "2000", "--num-features", "6"),
            seeds_per_run=10,
            fraud=True,
            table_qubits=0,
        ),
        Workload(
            "rbf-n4000",
            ("--method", "rbf", "--dataset", "synthetic", "--train-size", "4000"),
            seeds_per_run=2,
            fraud=False,
            table_qubits=0,
        ),
    )
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def run_child(workdir: Path, child_args: list[str], deadline: float) -> dict:
    """Start child.py, wait for it, and return the JSON it wrote."""
    result = workdir / "child-result.json"
    result.unlink(missing_ok=True)
    log = workdir / "child.log"
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [sys.executable, str(BENCH / "child.py"), "--result", str(result), *child_args]
    timeout = max(1.0, deadline - time.monotonic())
    with log.open("w") as handle:
        try:
            proc = subprocess.run(
                command, cwd=workdir, env=env, stdout=handle, stderr=subprocess.STDOUT,
                timeout=timeout, check=False,
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"child timed out after {timeout:.0f} s") from None
    if proc.returncode != 0 or not result.exists():
        tail = log.read_text()[-2000:]
        raise BenchmarkError(f"child exited with code {proc.returncode}:\n{tail}")
    return json.loads(result.read_text())


def invoke_cli(
    workload: Workload, input_seed: int, csv_path: Path | None, workdir: Path,
    deadline: float, trace: bool = False,
) -> tuple[dict, list[dict]]:
    """One CLI invocation over the workload's seeds: (child result, records)."""
    records_path = workdir / "records.jsonl"
    records_path.unlink(missing_ok=True)
    cli_args = list(workload.cli_args)
    cli_args += ["--seeds", ",".join(map(str, workload.cli_seeds(input_seed)))]
    cli_args += ["--output", str(records_path)]
    if csv_path is not None:
        cli_args += ["--fraud-csv", str(csv_path)]
    child_args = (["--trace"] if trace else []) + ["--", *cli_args]
    result = run_child(workdir, child_args, deadline)
    records = [json.loads(line) for line in records_path.read_text().splitlines() if line]
    return result, records


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def load_reference(workload: Workload, input_seed: int) -> list[dict]:
    table = json.loads(REFERENCE.read_text())
    try:
        return table["records"][workload.name][input_seed]
    except (KeyError, IndexError):
        raise BenchmarkError(
            f"reference.json has no records for {workload.name} input seed {input_seed}"
        ) from None


def _same(a: object, b: object) -> bool:
    # AP and F1 are ratios of small counts: a real change moves them by far
    # more than the last-bit noise a different BLAS build may add
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12)
    return a == b


def record_problems(record: dict, expected: dict | None) -> list[str]:
    """Why a record is wrong: an error, or fields that differ from the reference."""
    if record.get("error"):
        return [f"seed {record.get('seed')}: {record['error']}"]
    if expected is None:
        return [f"seed {record.get('seed')}: no reference record"]
    return [
        f"seed {record['seed']}: {name} = {record.get(name)!r}, reference {expected.get(name)!r}"
        for name in CHECKED_FIELDS
        if not _same(record.get(name), expected.get(name))
    ]


def check_records(
    records: list[dict], reference: list[dict], seeds: list[int]
) -> dict[int, list[str]]:
    """Problems per seed; a seed missing from the output is one too."""
    by_seed = {r["seed"]: r for r in reference}
    got = {r.get("seed"): r for r in records}
    problems: dict[int, list[str]] = {}
    for seed in seeds:
        if seed not in got:
            problems[seed] = [f"seed {seed}: no record"]
        elif found := record_problems(got[seed], by_seed.get(seed)):
            problems[seed] = found
    return problems


def without_timings(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in TIMING_FIELDS}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes() -> dict[str, int]:
    sizes: dict[str, int] = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
        sizes[f"l{level}_bytes"] = int(text.rstrip("KM")) * scale
    return sizes


def environment(standin_bytes: int | None) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        **_cache_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: v for k, v in CHILD_ENV.items() if k.endswith("_THREADS")},
    }
    if standin_bytes is not None:
        import standin

        env["standin"] = {
            "why": "the real credit-card fraud CSV is not in the repository",
            "rows": standin.ROWS,
            "frauds": standin.FRAUDS,
            "bytes": standin_bytes,
        }
    return env


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(invocations: list[tuple[dict, list[dict]]]) -> dict[str, tuple[float, str]]:
    records = invocations[0][1]
    return {
        "run_s": (statistics.median(r["import_s"] + r["main_s"] for r, _ in invocations), "s"),
        "seed_s": (
            statistics.median(
                rec["train_time_s"] + rec["test_time_s"] for _, recs in invocations for rec in recs
            ),
            "s",
        ),
        "setup_s": (statistics.median(r["import_s"] + r["load_s"] for r, _ in invocations), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] / 1024 for r, _ in invocations), "MB"),
        "ap": (statistics.fmean(rec["ap"] for rec in records), "ratio"),
        "f1": (statistics.fmean(rec["f1"] for rec in records), "ratio"),
    }


def per_layer(
    workload: Workload, plain: tuple[dict, list[dict]], traced: tuple[dict, list[dict]]
) -> dict[str, tuple[float, str]]:
    import tracing

    plain_result, records = plain
    traced_result, _ = traced
    spans = [tracing.Span(*row) for row in traced_result["spans"]]
    table = tracing.summarize(spans)
    counts = traced_result["counts"]

    def own(*names: str) -> float:
        return sum(table.get(n, {}).get("self_s", 0.0) for n in names)

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return int(table.get(name, {}).get("calls", 0))

    table_bytes = 8 * 4**workload.table_qubits if workload.table_qubits else 0
    wall = traced_result["main_s"]
    attributed = sum(row["self_s"] for row in table.values())
    plain_run = plain_result["import_s"] + plain_result["main_s"]
    traced_run = traced_result["import_s"] + traced_result["main_s"]
    s, n = "s", "count"
    return {
        "cli.train_s": (sum(r["train_time_s"] for r in records), s),
        "cli.score_s": (sum(r["test_time_s"] for r in records), s),
        "cli.self_s": (own("cli.run_experiment"), s),
        "data.load_s": (own("data.load_fraud_csv"), s),
        "data.load_calls": (calls("data.load_fraud_csv"), n),
        "data.split_s": (own("data.split"), s),
        "pipeline.preprocess_s": (own("pipeline.preprocess"), s),
        "statevec.encode_s": (own("statevec.encode"), s),
        "statevec.encode_calls": (calls("statevec.encode"), n),
        "statevec.rotate_s": (own("statevec.rotate"), s),
        "statevec.rotate_calls": (calls("statevec.rotate"), n),
        "statevec.sample_s": (own("statevec.sample"), s),
        "statevec.sample_calls": (calls("statevec.sample"), n),
        "statevec.shots": (counts.get("statevec.shots", 0), n),
        "kernel.gram_train_s": (total("kernel.gram_train"), s),
        "kernel.gram_cross_s": (total("kernel.gram_cross"), s),
        "kernel.gram_self_s": (own("kernel.gram_train", "kernel.gram_cross"), s),
        "kernel.signature_s": (own("kernel.signature"), s),
        "kernel.signature_calls": (calls("kernel.signature"), n),
        "kernel.purity_s": (own("kernel.purity"), s),
        "kernel.purity_calls": (calls("kernel.purity"), n),
        "kernel.evals": (counts.get("kernel.evals", 0), n),
        "kernel.coeff_table_bytes": (table_bytes, "bytes"),
        "ocsvm.fit_s": (own("ocsvm.fit"), s),
        "ocsvm.fit_calls": (calls("ocsvm.fit"), n),
        "ocsvm.iterations": (counts.get("ocsvm.iterations", 0), n),
        "ocsvm.unconverged": (counts.get("ocsvm.unconverged", 0), n),
        "ocsvm.score_s": (own("ocsvm.score"), s),
        "ensemble.fit_s": (total("ensemble.fit"), s),
        "ensemble.score_s": (total("ensemble.score"), s),
        "ensemble.self_s": (own("ensemble.fit", "ensemble.score"), s),
        "ensemble.components": (counts.get("ensemble.components", 0), n),
        "metrics.s": (own("metrics"), s),
        "trace.wall_s": (wall, s),
        "trace.unattributed_s": (wall - attributed, s),
        "trace.overhead_s": (traced_run - plain_run, s),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "qkad" / "__init__.py").is_file():
        raise BenchmarkError(f"no qkad sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    input_seed = seed % REFERENCE_SEEDS
    reference = load_reference(workload, input_seed)
    seeds = workload.cli_seeds(input_seed)

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        csv_path, standin_bytes = None, None
        if workload.fraud:
            import standin

            csv_path = workdir / "fraud.csv"
            standin_bytes = standin.write(input_seed, csv_path)
        env = environment(standin_bytes)

        problems: list[str] = []
        failed = 0

        def tally(bad: dict[int, list[str]]) -> None:
            nonlocal failed
            failed += len(bad)
            for found in bad.values():
                problems.extend(found)

        invocations = []
        started = time.monotonic()
        while not invocations or (not trace and time.monotonic() - started < seconds):
            result, records = invoke_cli(workload, input_seed, csv_path, workdir, deadline)
            bad = check_records(records, reference, seeds)
            if result["exit_code"] != 0:
                for cli_seed in seeds:
                    bad.setdefault(cli_seed, []).append(f"CLI exit code {result['exit_code']}")
            tally(bad)
            invocations.append((result, records))
        attempted = len(seeds) * len(invocations)

        if trace:
            traced = invoke_cli(workload, input_seed, csv_path, workdir, deadline, trace=True)
            attempted += len(seeds)
            plain = {r["seed"]: without_timings(r) for r in invocations[0][1]}
            other = {r.get("seed"): without_timings(r) for r in traced[1]}
            bad = {
                cli_seed: [f"seed {cli_seed}: traced record differs from the untraced one"]
                for cli_seed in seeds
                if plain.get(cli_seed) != other.get(cli_seed)
            }
            if not traced[0]["restored"]:
                for cli_seed in seeds:
                    bad.setdefault(cli_seed, []).append("traced functions were not restored")
            tally(bad)
            metrics = per_layer(workload, invocations[0], traced)
            write_spans(workload, seed, env, traced[0], metrics)
        else:
            metrics = end_to_end(invocations)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no other run is using it

    for problem in problems:
        print(f"problem: {problem}")
    print(f"env: {json.dumps(env)}")
    print(f"workload {workload.name}: input seed {input_seed}, CLI seeds {seeds}, "
          f"{len(invocations)} invocation(s), failed_frac {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def write_spans(workload: Workload, seed: int, env: dict, traced: dict, metrics: dict) -> None:
    import tracing

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    spans = [tracing.Span(*row) for row in traced["spans"]]
    payload = {
        "workload": workload.name,
        "seed": seed,
        "env": env,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "layers": tracing.summarize(spans),
        "spans": traced["spans"],
    }
    (out / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps(payload))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
