"""The benchmark's layer hooks still find what they patch.

`bench/tracehooks.py` replaces functions on the package modules by name;
a rename or move in `src/` would break the traced benchmark runs without
failing any other test.  The module is imported as it is, never edited.
"""

from __future__ import annotations

import importlib
from collections import Counter
from pathlib import Path

import pytest

from quartics import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracehooks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracehooks")


def test_every_hook_resolves(tracehooks):
    for module, attr, name, _ in tracehooks.HOOKS:
        assert callable(getattr(module, attr, None)), name


def test_verify_records_the_pinned_spans(tracehooks, capsys):
    recorder = tracehooks.Recorder()
    recorder.install()
    try:
        code = cli.main(["verify", "--json"])
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
