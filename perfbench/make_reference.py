"""Write reference.json: the checked fields of every workload's records.

Run from the root of a checkout::

    python3 perfbench/make_reference.py [--workload NAME ...]

For each input seed the benchmark can pick (0 .. REFERENCE_SEEDS - 1) it
writes the fraud stand-in, runs each workload's CLI invocation once, and
stores the fields run.py checks.  Without ``--workload`` it redoes every
workload; with it, only the named ones, keeping the others' records.  The
reference pins today's results: regenerate it only in a change whose
purpose is to alter them, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

import run as bench  # noqa: E402
import standin  # noqa: E402


def records_for(input_seed: int, workloads: list[bench.Workload]) -> dict[str, list[dict]]:
    scratch = bench.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"reference-{input_seed}-", dir=scratch))
    try:
        csv_path = workdir / "fraud.csv"
        if any(w.fraud for w in workloads):
            standin.write(input_seed, csv_path)
        out = {}
        for workload in workloads:
            result, records = bench.invoke_cli(
                workload, input_seed, csv_path if workload.fraud else None, workdir,
                deadline=time.monotonic() + 900,
            )
            errors = [r["error"] for r in records if r.get("error")]
            if result["exit_code"] != 0 or errors:
                raise RuntimeError(f"{workload.name} input seed {input_seed} failed: {errors}")
            out[workload.name] = [{k: r[k] for k in bench.CHECKED_FIELDS} for r in records]
            print(f"input seed {input_seed}: {workload.name} done", flush=True)
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(bench.WORKLOADS))
    args = parser.parse_args()
    workloads = [bench.WORKLOADS[name] for name in args.workload or bench.WORKLOADS]
    per_seed = [records_for(s, workloads) for s in range(bench.REFERENCE_SEEDS)]
    records = json.loads(bench.REFERENCE.read_text())["records"] if args.workload else {}
    for workload in workloads:
        records[workload.name] = [seed_records[workload.name] for seed_records in per_seed]
    table = {
        "input_seeds": bench.REFERENCE_SEEDS,
        "fields": list(bench.CHECKED_FIELDS),
        "records": {name: records[name] for name in bench.WORKLOADS},
    }
    text = json.dumps(table, indent=1)
    bench.REFERENCE.write_text(text + "\n")
    print(f"wrote {bench.REFERENCE} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
