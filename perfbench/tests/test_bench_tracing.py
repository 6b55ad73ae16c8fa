import importlib

import pytest

import tracing
from qkad import cli
from tracing import BINDINGS, Span, Tracer, self_times, summarize

TIMING_FIELDS = ("train_time_s", "test_time_s", "gram_time_s", "solver_time_s")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", -1, 0.0, 10.0),
        Span("a", 0, 1.0, 3.0),
        Span("b", 0, 2.0, 4.0),  # overlaps a: the union 1..4 counts once
        Span("c", 0, 5.0, 6.0),
        Span("leaf", 1, 1.5, 2.0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 2.0, 1.0, 0.5])


def test_children_are_clipped_to_their_parent():
    spans = [Span("root", -1, 0.0, 2.0), Span("late", 0, 1.0, 3.0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_summary_self_times_add_up_to_the_top_span():
    spans = [
        Span("root", -1, 0.0, 10.0),
        Span("x", 0, 1.0, 4.0),
        Span("x", 0, 5.0, 7.0),
        Span("y", 1, 2.0, 3.0),
    ]
    table = summarize(spans)
    assert table["x"] == {"calls": 2, "total_s": pytest.approx(5.0), "self_s": pytest.approx(4.0)}
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(10.0)


def _bindings():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in BINDINGS}


SMALL_RM = cli.RunConfig(
    method="vs-rm", dataset="synthetic", train_size=100, rm_settings=3, rm_shots=50, seeds=(0,)
)


def _traced_run(cfg):
    with Tracer() as tracer:
        records = cli.run_experiment(cfg)
    return tracer, records


def test_wrappers_are_restored_after_a_traced_run():
    before = _bindings()
    tracer, records = _traced_run(SMALL_RM)
    assert records[0].ok
    assert tracer.is_restored()
    assert _bindings() == before
    assert tracer.spans  # the run was traced


def test_wrappers_are_restored_when_the_run_raises():
    before = _bindings()
    with pytest.raises(ValueError):
        with Tracer():
            cli.run_experiment(SMALL_RM)
            raise ValueError("boom")
    assert _bindings() == before


def test_counts_repeat_exactly_across_two_runs():
    first, _ = _traced_run(SMALL_RM)
    second, _ = _traced_run(SMALL_RM)
    assert first.counts == second.counts
    calls = lambda t: {k: v["calls"] for k, v in summarize(t.spans).items()}  # noqa: E731
    assert calls(first) == calls(second)
    # one component at d=2: 3 settings per point for 100 train and 125 test points
    assert first.counts["ensemble.components"] == 1
    assert calls(first)["statevec.rotate"] == 3 * (first.counts["kernel.evals"] // 3)
    assert first.counts["statevec.shots"] == 50 * calls(first)["statevec.sample"]
    for key in ("kernel.evals", "ocsvm.iterations"):
        assert first.counts[key] > 0


def test_traced_records_equal_untraced_records_apart_from_timings():
    plain = cli.run_experiment(SMALL_RM)
    _, traced = _traced_run(SMALL_RM)
    strip = lambda r: {k: v for k, v in vars(r).items() if k not in TIMING_FIELDS}  # noqa: E731
    assert [strip(r) for r in plain] == [strip(r) for r in traced]


def test_every_binding_names_an_existing_function():
    for module, attr, name in BINDINGS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
        assert name.split(".")[0] in {
            "cli", "data", "pipeline", "statevec", "kernel", "ocsvm", "ensemble", "metrics"
        }
    assert tracing.COUNTERS.keys() <= {name for _, _, name in BINDINGS}
