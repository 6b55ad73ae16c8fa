"""Hand-run mutation check: does tier-1 catch each one-line change to ``src/qkad``?

Usage, from the root of a checkout::

    python tests/mutants.py            # every mutant
    python tests/mutants.py --list     # names only
    python tests/mutants.py haar-halves-swapped out-ignored

Each mutant replaces one exact line of one source file in a temporary copy of
the checkout (all of it but ``.git`` and build and run leftovers), then runs
tier-1 there with ``-x``.  A failing run means the mutant was caught.  A
passing run is reported as equivalent when the mutant is listed with a reason
why no test can tell it apart, and as survived otherwise.  An unmutated copy
runs first and must pass, or nothing is reported.  The exit status is 1 when
any mutant survived.  pytest does not collect this file: its name does not
start with ``test_``, but ``tests/test_mutants.py`` checks in tier-1 that
every mutant's line occurs once in its file.  A caught mutant takes a few
seconds to a minute, a surviving one a full tier-1 run.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".perfbench_*", "*.qkad.npz", ".pytest_cache", ".hypothesis"
)
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider")
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout
    old: str  # must occur exactly once in the file
    new: str
    equivalent: str = ""  # why no test can catch it, for a mutant that cannot change behaviour


# The stacked-settings rotation's own mutants, then the survivors of an earlier
# audit of 18 one-line changes, which tier-1 has since been extended to catch,
# then the forked-worker helper's own, then the worker-count rule's, then the
# Gram finishing path's, then the CLI's config echo and up-front checks, then
# the BLAS rule of the threaded bands and encoding, the boundary survivors of
# a later audit, the validation rules' owners and the run plan's calls to them, and
# the solver's gap, the checked parse's label check, the parse cache's digest check,
# the row that the feature-map angle overflow names, the table of the options
# that only some runs read and the rule that rejects the options a run does not read,
# and the checked parse's finite check in each feature cell, the fast parse's test for an
# empty table, the component that a failed scoring names and the largest shot count.
MUTANTS = (
    Mutant(
        "kron-operands-swapped",
        "src/qkad/statevec.py",
        "u = factors[q >= hi][..., :, None, :, None] * settings[..., q, None, :, None, :]",
        "u = settings[..., q, :, None, :, None] * factors[q >= hi][..., None, :, None, :]",
    ),
    Mutant(
        # the same products in the same places, but numpy's complex multiply
        # does not round gate * u as it rounds np.kron's u * gate
        "kron-multiply-commuted",
        "src/qkad/statevec.py",
        "u = factors[q >= hi][..., :, None, :, None] * settings[..., q, None, :, None, :]",
        "u = settings[..., q, None, :, None, :] * factors[q >= hi][..., :, None, :, None]",
    ),
    Mutant(
        "haar-halves-swapped",
        "src/qkad/statevec.py",
        "q, upper = np.linalg.qr(z[:, 0] + 1j * z[:, 1])",
        "q, upper = np.linalg.qr(z[:, 1] + 1j * z[:, 0])",
    ),
    Mutant(
        "out-ignored",
        "src/qkad/statevec.py",
        "    if out is None:\n        out = np.empty(shape, np.result_type(t, u_lo_t))",
        "    if True:\n        out = np.empty(shape, np.result_type(t, u_lo_t))",
    ),
    Mutant(
        "threshold-inclusive",
        "src/qkad/cli.py",
        "predictions = (scores < cfg.threshold).astype(np.int64)",
        "predictions = (scores <= cfg.threshold).astype(np.int64)",
    ),
    Mutant(
        "support-threshold-1e-6",
        "src/qkad/ocsvm.py",
        "SUPPORT_THRESHOLD = 1e-8",
        "SUPPORT_THRESHOLD = 1e-6",
    ),
    Mutant(
        "split-first-anomalies",
        "src/qkad/data.py",
        "[normal_pick[spec.train_size :], rng.choice(anomaly_idx, size=n_anom, replace=False)]",
        "[normal_pick[spec.train_size :], anomaly_idx[:n_anom]]",
    ),
    Mutant(
        "split-unshuffled",
        "src/qkad/data.py",
        "test_idx = test_idx[rng.permutation(test_idx.size)]",
        "test_idx = test_idx",
    ),
    Mutant(
        "max-as-mean",
        "src/qkad/ensemble.py",
        'stacked.mean(axis=0) if model.aggregation == "mean" else stacked.max(axis=0)',
        'stacked.mean(axis=0) if model.aggregation == "mean" else stacked.mean(axis=0)',
    ),
    Mutant(
        "results-in-completion-order",
        "src/qkad/statevec.py",
        "for i, f in enumerate(futures)]",
        "for i, f in enumerate(concurrent.futures.as_completed(futures))]",
    ),
    Mutant(
        "worker-flag-unset",
        "src/qkad/statevec.py",
        "_IN_WORKER, _worker_fn = True, fn",
        "_IN_WORKER, _worker_fn = False, fn",
    ),
    Mutant(
        "worker-blas-threads-left-running",
        "src/qkad/statevec.py",
        "    blas.blas_thread_shutdown_()",
        "    pass",
    ),
    Mutant(
        "workers-ignore-worker-flag",
        "src/qkad/statevec.py",
        "    if _IN_WORKER or (blas and _blas_threads() != 1):",
        "    if blas and _blas_threads() != 1:",
    ),
    Mutant(
        "forked-helper-counts-items",
        "src/qkad/statevec.py",
        '    if _workers(items) == 1 or not hasattr(os, "fork") or _openblas() is None:',
        '    if items < 2 or not hasattr(os, "fork") or _openblas() is None:',
    ),
    Mutant(
        "pool-sized-by-items",
        "src/qkad/statevec.py",
        '        _workers(items), multiprocessing.get_context("fork"),',
        '        items, multiprocessing.get_context("fork"),',
    ),
    Mutant(
        "training-noise-over-whole-rows",
        "src/qkad/kernel.py",
        "fidelity = row[i + 1 :] if symmetric else row",
        "fidelity = row",
    ),
    Mutant(
        "cross-set-in-fresh-settings",
        "src/qkad/kernel.py",
        "settings = sample_haar_settings(cfg.rm_settings, d, rng) if train is None else train.settings",
        "settings = sample_haar_settings(cfg.rm_settings, d, rng)",
    ),
    Mutant(
        "unmitigated-test-purities-estimated",
        "src/qkad/kernel.py",
        "    if train is not None and not cfg.mitigate:",
        "    if train is not None and False:",
    ),
    Mutant(
        "parallel-echoed",
        "src/qkad/cli.py",
        '_NOT_ECHOED = ("seeds", "omit_timings", "parallel")',
        '_NOT_ECHOED = ("seeds", "omit_timings")',
    ),
    Mutant(
        "output-collision-unchecked",
        "src/qkad/cli.py",
        "            if _same_file(path, other_path):",
        "            if False:",
    ),
    Mutant(
        "summarize-run-options-unchecked",
        "src/qkad/cli.py",
        "        if given:",
        "        if False:",
    ),
    Mutant(
        "process-pool-imported-while-timed",
        "src/qkad/cli.py",
        "        statevec._forks(component_count(cfg.train_size))",
        "        pass",
    ),
    Mutant(
        "device-compared-as-a-file",
        "src/qkad/cli.py",
        "        return False\n    if os.path.exists(a) and os.path.exists(b):",
        "        pass\n    if os.path.exists(a) and os.path.exists(b):",
    ),
    Mutant(
        "blas-steps-spread-at-any-blas-thread-count",
        "src/qkad/statevec.py",
        "    if _IN_WORKER or (blas and _blas_threads() != 1):",
        "    if _IN_WORKER:",
    ),
    Mutant(
        "encode-chunks-ignore-the-shared-budget",
        "src/qkad/statevec.py",
        "        block = max(1, step * len(chunk) // n)",
        "        block = step",
    ),
    Mutant(
        "training-frequencies-from-the-first-rows",
        "src/qkad/kernel.py",
        "                freqs = (flat_b.T[rows].reshape(-1, r, dim) if a is b",
        "                freqs = (flat_b.T[: rows.stop - rows.start].reshape(-1, r, dim) if a is b",
    ),
    Mutant(
        "scaler-constant-by-unit-range",
        "src/qkad/pipeline.py",
        "    constant = np.ptp(X_train, axis=0) == 0",
        "    constant = np.ptp(X_train, axis=0) == 1",
    ),
    Mutant(
        "vs-gram-time-summed",
        "src/qkad/ensemble.py",
        "        return component, t1 - t0, t2 - t1, gram.eval_count",
        "        return component, t1 + t0, t2 - t1, gram.eval_count",
    ),
    Mutant(
        "vs-solver-time-summed",
        "src/qkad/ensemble.py",
        "        return component, t1 - t0, t2 - t1, gram.eval_count",
        "        return component, t1 - t0, t2 + t1, gram.eval_count",
    ),
    Mutant(
        "split-spec-rejects-one-training-point",
        "src/qkad/data.py",
        "        if self.train_size < 1 or self.test_size < 1:",
        "        if self.train_size < 2 or self.test_size < 1:",
    ),
    Mutant(
        "split-spec-rejects-one-test-point",
        "src/qkad/data.py",
        "        if self.train_size < 1 or self.test_size < 1:",
        "        if self.train_size < 1 or self.test_size < 2:",
    ),
    Mutant(
        "split-rejects-just-enough-normal-points",
        "src/qkad/data.py",
        "    if normal_idx.size < spec.train_size + n_norm:",
        "    if normal_idx.size <= spec.train_size + n_norm:",
    ),
    Mutant(
        "pca-message-names-n-minus-2",
        "src/qkad/pipeline.py",
        'f"num_features must be in [1, min(n-1, d)] = [1, {min(n - 1, d)}], "',
        'f"num_features must be in [1, min(n-1, d)] = [1, {min(n - 2, d)}], "',
    ),
    Mutant(
        "fast-parse-reads-past-the-header",
        "src/qkad/data.py",
        "cols = usecols if width - 1 in usecols else [*usecols, width - 1]",
        "cols = usecols if width - 1 in usecols else [*usecols, width + 1]",
    ),
    Mutant(
        "nu-zero-accepted",
        "src/qkad/ocsvm.py",
        "    if not 0 < nu <= 1:",
        "    if not 0 <= nu <= 1:",
    ),
    Mutant(
        "ensemble-of-the-minimum-size-rejected",
        "src/qkad/ensemble.py",
        "    if n < SUBSAMPLE_MIN:",
        "    if n <= SUBSAMPLE_MIN:",
    ),
    Mutant(
        "plan-skips-the-nu-check",
        "src/qkad/cli.py",
        "        ocsvm.check_nu(self.nu, self.train_size)  # VSConfig checks an ensemble's components",
        "        pass",
    ),
    Mutant(
        # the plan needs the qubit count, so the mutant passes a size the check always accepts
        "plan-skips-the-ensemble-size-check",
        "src/qkad/cli.py",
        "        qubits = (ensemble.check_train_set(self.train_size, self.num_features, use_rfb)",
        "        qubits = (ensemble.check_train_set(max(50, self.train_size), self.num_features, use_rfb)",
    ),
    Mutant(
        "plan-skips-the-ensemble-rules",
        "src/qkad/cli.py",
        "        qubits = (ensemble.check_train_set(self.train_size, self.num_features, use_rfb)",
        "        qubits = (self.num_features",
    ),
    Mutant(
        "fit-vs-skips-the-ensemble-rules",
        "src/qkad/ensemble.py",
        "    qubits = check_train_set(n, d, cfg.rfb_enabled)",
        "    qubits = rotation_dim(d) if cfg.rfb_enabled else d",
    ),
    Mutant(
        "vs-config-sizes-nu-at-the-largest-component",
        "src/qkad/ensemble.py",
        "        ocsvm.check_nu(self.nu, SUBSAMPLE_MIN)",
        "        ocsvm.check_nu(self.nu, SUBSAMPLE_MAX)",
    ),
    Mutant(
        "plan-skips-the-width-check",
        "src/qkad/cli.py",
        "        pipeline.check_width(self.num_features, self.train_size, width)",
        "        pass",
    ),
    Mutant(
        # the plan needs its split, so the mutant passes it a size the check always accepts
        "plan-split-skips-the-size-check",
        "src/qkad/cli.py",
        "split = data.SplitSpec(self.train_size, test_size=TEST_SIZE, test_anomaly_ratio=ratio)",
        "split = data.SplitSpec(max(1, self.train_size), TEST_SIZE, test_anomaly_ratio=ratio)",
    ),
    Mutant(
        "solver-gap-sign-flipped",
        "src/qkad/ocsvm.py",
        "        gap = grad[j] - grad[i]",
        "        gap = grad[i] - grad[j]",
    ),
    Mutant(
        "checked-parse-checks-the-last-feature-as-the-label",
        "src/qkad/data.py",
        "        if values[-1] not in (0.0, 1.0):",
        "        if values[-2] not in (0.0, 1.0):",
    ),
    Mutant(
        "parse-cache-ignores-the-digest",
        "src/qkad/data.py",
        '                    or str(stored["digest"]) != digest',
        "                    or False",
    ),
    Mutant(
        "angle-overflow-row-counted-in-its-block",
        "src/qkad/statevec.py",
        'raise ValueError(f"feature-map angles overflow: row {first_row + bad[0]} has a "',
        'raise ValueError(f"feature-map angles overflow: row {bad[0]} has a "',
    ),
    Mutant(
        "ensembles-lose-aggregation",
        "src/qkad/cli.py",
        '"rm_settings": {"randomized"}, "rm_shots": {"randomized"}, "aggregation": {"vs"},',
        '"rm_settings": {"randomized"}, "rm_shots": {"randomized"}, "aggregation": {"none"},',
    ),
    Mutant(
        "every-kind-reads-it-shots",
        "src/qkad/cli.py",
        '"layers": {"quantum"}, "it_shots": {"inversion_test"},',
        '"layers": {"quantum"}, "it_shots": set(),',
    ),
    Mutant(
        "single-randomized-models-read-mitigate",
        "src/qkad/cli.py",
        '"mitigate": {"vs", "randomized"}, "fraud_csv": {"fraud"}}',
        '"mitigate": {"randomized"}, "fraud_csv": {"fraud"}}',
    ),
    Mutant(
        "rbf-reads-the-feature-map-options",
        "src/qkad/cli.py",
        'tags = {kind, self.dataset, "quantum" if kind != "rbf" else "",',
        'tags = {kind, self.dataset, "quantum",',
    ),
    Mutant(
        "unread-mitigate-compared-with-its-field-default",
        "src/qkad/cli.py",
        "getattr(self, name) != own.get(name, _DEFAULTS[name])]",
        "getattr(self, name) != _DEFAULTS[name]]",
    ),
    Mutant(
        "unread-options-accepted",
        "src/qkad/cli.py",
        "        if unread:\n",
        "        if unread and False:\n",
    ),
    Mutant(
        "checked-parse-skips-the-finite-check",
        "src/qkad/data.py",
        '            if col != "Class" and not math.isfinite(values[-1]):',
        "            if False:",
    ),
    Mutant(
        "checked-parse-checks-the-label-for-finiteness",
        "src/qkad/data.py",
        '            if col != "Class" and not math.isfinite(values[-1]):',
        "            if not math.isfinite(values[-1]):",
    ),
    Mutant(
        "fast-parse-returns-an-empty-table",
        "src/qkad/data.py",
        "        return Dataset(table[:, :n_features], table[:, n_features]) if len(table) else None",
        "        return Dataset(table[:, :n_features], table[:, n_features])",
    ),
    Mutant(
        "scoring-names-no-component",
        "src/qkad/ensemble.py",
        'lambda k: _as_component(k, "score", _component_scores, model.components[k], X_test),',
        "lambda k: _component_scores(model.components[k], X_test),",
    ),
    Mutant(
        "largest-shot-count-rejected",
        "src/qkad/kernel.py",
        "            if getattr(self, name) > _MAX_SHOTS:",
        "            if getattr(self, name) >= _MAX_SHOTS:",
    ),
)


def _apply(mutant: Mutant, checkout: Path) -> None:
    path = checkout / mutant.path
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"{mutant.name}: expected its line once in {mutant.path}, found {found}")
    path.write_text(text.replace(mutant.old, mutant.new))


def tier1_passes(mutant: Mutant | None) -> bool:
    """Whether tier-1 passes on a fresh copy of the checkout, with ``mutant`` applied if given."""
    with tempfile.TemporaryDirectory(prefix="qkad-mutant-") as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=IGNORED)
        if mutant is not None:
            _apply(mutant, checkout)
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
        probe = subprocess.run(
            [sys.executable, "-c", "import qkad; print(qkad.__file__)"],
            cwd=checkout, env=env, capture_output=True, text=True, check=True,
        )
        if not Path(probe.stdout.strip()).resolve().is_relative_to(checkout.resolve()):
            raise SystemExit(f"the copy imports qkad from {probe.stdout.strip()}, not {checkout}")
        tests = subprocess.run(
            [sys.executable, *TIER1], cwd=checkout, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S,
        )
    return tests.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    if args.list:
        print("\n".join(known))
        return 0
    unknown = sorted(set(args.names) - set(known))
    if unknown:
        parser.error(f"unknown mutants {unknown}; known: {sorted(known)}")
    if not tier1_passes(None):
        raise SystemExit("tier-1 fails on an unmutated copy; no mutant can be judged")
    survived = 0
    for mutant in (known[n] for n in args.names) if args.names else MUTANTS:
        if not tier1_passes(mutant):
            outcome = "caught"
        else:
            outcome = "equivalent" if mutant.equivalent else "survived"
        survived += outcome == "survived"
        reason = f" ({mutant.equivalent})" if outcome == "equivalent" else ""
        print(f"{mutant.name}: {outcome}{reason}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
