"""The benchmark's layer hooks still find what they patch.

`bench/tracehooks.py` replaces functions on the package modules by name,
and `bench/run.py` pins the counts its spans record; a rename in `src/`,
a change to a hooked function's return value or to how often it is
called would break the traced benchmark runs without failing any other
test.  Both modules are imported as they are, never edited.
"""

from __future__ import annotations

import importlib
from collections import Counter
from pathlib import Path

import pytest

from quartics import bott, cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracehooks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracehooks")


@pytest.fixture
def bench_run(tracehooks):
    return importlib.import_module("run")


def test_every_hook_resolves(tracehooks):
    for module, attr, name, _ in tracehooks.HOOKS:
        assert callable(getattr(module, attr, None)), name


def test_verify_records_the_pinned_spans(tracehooks, bench_run, capsys):
    # One traced op as `bench/traced_cli.py` runs it, totalled by the
    # benchmark's own code: the lemma reaches no hooked `ideal_twist`, so
    # the build's 630 calls stay the only ones.
    recorder = tracehooks.Recorder()
    recorder.install()
    try:
        code = recorder.wrap("cli.main", cli.main)(["verify", "--json"])
    finally:
        recorder.uninstall()
    capsys.readouterr()
    assert code == 0
    calls = Counter(name for name, *_ in recorder.spans)
    expected = {
        "cli.run_checks": 1,
        "bott.bott_sum": 11,
        "bott.random_weight_search": 10,
        "fixedpoints.limit_ideal_oracle": 126,
        "fixedpoints.lemma_injectivity_check": 126,
    }
    assert {name: calls[name] for name in expected} == expected
    [(root, totals)] = bench_run.layer_ops(recorder.spans)
    assert root == "cli.main"
    assert bench_run.count_problems("verify", [totals], bench_run.OP_COUNTS["verify"]) == []


@pytest.mark.parametrize(
    "workload, argv", [("count", ["count"]), ("dump", ["fixed-points", "--json"])]
)
def test_build_holds_the_pinned_counts(workload, argv, tracehooks, bench_run, capsys):
    # One traced op as `bench/traced_cli.py` runs it: a root `cli.main` span
    # around the command, totalled by the benchmark's own code.
    recorder = tracehooks.Recorder()
    recorder.install()
    try:
        code = recorder.wrap("cli.main", cli.main)(argv)
    finally:
        recorder.uninstall()
    capsys.readouterr()
    assert code == 0
    [(root, totals)] = bench_run.layer_ops(recorder.spans)
    assert root == "cli.main"
    assert bench_run.count_problems(workload, [totals], bench_run.OP_COUNTS[workload]) == []
    # 126 ideals of P(2,1,1,1) with 50 sextic sections, 504 of P(2,1,1,1,1) with 130.
    assert totals["repring.ideal_twist.scanned"] == 126 * 50 + 504 * 130 == 71820
    assert totals["repring.ideal_twist.kept"] == 63630


def test_sweep_op_holds_the_pinned_counts(h4_points, tracehooks, bench_run):
    # One traced op as `bench/sweep_worker.py` runs it: `validate_weights`
    # and `bott_sum` at the next usable vector, in a root `bench.op` span.
    inputs = importlib.import_module("inputs")
    w = next(inputs.usable_weights("sweep-1", sorted({m for p in h4_points for m in p.tangent})))
    recorder = tracehooks.Recorder()
    recorder.install()
    try:
        with recorder.span("bench.op"):
            value = bott.bott_sum(h4_points, w).value if bott.validate_weights(h4_points, w) else None
    finally:
        recorder.uninstall()
    assert value == bench_run.HEADLINE
    [(root, totals)] = bench_run.layer_ops(recorder.spans)
    assert root == "bench.op"
    assert bench_run.count_problems("sweep", [totals], bench_run.OP_COUNTS["sweep"]) == []
