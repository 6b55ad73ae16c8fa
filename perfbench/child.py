"""One qkad CLI invocation in a fresh process, timed from the inside.

Usage (run.py starts it; the environment must put the package on the path)::

    python3 perfbench/child.py --result out.json [--trace] -- <qkad CLI args>

The child times ``import qkad``, then runs ``qkad.cli.main`` on the given
arguments and writes one JSON object to ``--result``: the import and main
wall times, the time the CLI spent in ``data.load_fraud_csv`` (its only
hook when tracing is off), the CLI's exit code and the process's peak
resident memory.  With ``--trace`` it also records spans around every layer
(see tracing.py) and writes them into the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def run_cli(cli_args: list[str], trace: bool) -> dict:
    """Run ``qkad.cli.main`` once; time it and its fraud-CSV parse."""
    from qkad import cli, data

    load_times: list[float] = []
    load_fraud_csv = data.load_fraud_csv

    def timed_load(*args, **kwargs):
        begin = time.perf_counter()
        try:
            return load_fraud_csv(*args, **kwargs)
        finally:
            load_times.append(time.perf_counter() - begin)

    data.load_fraud_csv = timed_load
    result: dict = {}
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        start = time.perf_counter()
        result["exit_code"] = cli.main(cli_args)
        result["main_s"] = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
            result["restored"] = tracer.is_restored()
        data.load_fraud_csv = load_fraud_csv
    result["load_s"] = sum(load_times)
    if tracer is not None:
        result["spans"] = [[s.name, s.parent, s.start, s.end] for s in tracer.spans]
        result["counts"] = tracer.counts
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    start = time.perf_counter()
    import qkad  # noqa: F401  (timed: part of set-up)

    result = {"import_s": time.perf_counter() - start}
    result.update(run_cli(cli_args, args.trace))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
