from __future__ import annotations

import gc
import hashlib
import importlib
import io
import json
import operator
import os
import re
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fixed_point_from_record, parse_monomial
from quartics import bott, checks, cli, fixedpoints
from quartics.bott import DEFAULT_WEIGHTS, bott_sum
from quartics.fixedpoints import (
    BlowupCenterDatum,
    grassmann_tangent,
    stage1_centers,
    stage2_centers,
    stage2_composed_tangent,
)
from quartics.repring import LaurentMonomial, MonomialIdeal


def run(args: list[str], capsys) -> tuple[int, str, str]:
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def module_env() -> dict[str, str]:
    """Environment for a `python -m quartics.cli` subprocess of this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@contextmanager
def prebuilt(h3_points, h4_points):
    """Serve the shared fixture points to `cli` in place of rebuilding them."""
    with mock.patch.object(fixedpoints, "enumerate_h3", lambda: h3_points), \
            mock.patch.object(fixedpoints, "assemble_h4", lambda h3: h4_points):
        yield


# ---------------------------------------------------------------------------
#  count
# ---------------------------------------------------------------------------


def test_count_default(capsys):
    code, out, err = run(["count"], capsys)
    assert code == 0
    assert out.strip() == "6028452"
    assert "weights: 267 4 17 55 160" in err


def test_count_help_states_the_defaults(capsys):
    # Both defaults are formatted from `bott`; argparse wraps the help
    # text to the terminal width, so whitespace is normalized first.
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["count", "--help"])
    assert excinfo.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "default 267 4 17 55 160" in text
    assert "default 1 10000" in text


def test_count_json(capsys):
    code, out, _ = run(["count", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 6028452
    assert payload["weights"] == [267, 4, 17, 55, 160]


def test_count_show_terms(capsys):
    code, out, _ = run(["count", "--show-terms"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 505
    assert lines[-1] == "6028452"
    assert any("grassmannian" in line for line in lines)


def test_count_show_terms_json(capsys):
    code, out, _ = run(["count", "--show-terms", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["terms"]) == 504
    assert payload["value"] == 6028452


def test_count_show_terms_json_bytes_are_pinned(h3_points, h4_points, capsys):
    with prebuilt(h3_points, h4_points):
        code, out, _ = run(["count", "--json", "--show-terms"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4fbfdbd3053c265d97af665db3a5cbf3816507f138537285f41ecd2da8e98b06"
    )


def test_count_with_explicit_valid_weights(capsys):
    code, out, _ = run(["count", "--weights", "267", "4", "17", "55", "160"], capsys)
    assert code == 0
    assert out.strip() == "6028452"


def test_count_rejects_zero_weights(capsys):
    code, out, err = run(["count", "--weights", "0", "0", "0", "0", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "zero weight on tangent monomial" in err
    assert "fixed point" in err


def test_count_rejects_equal_weights(capsys):
    code, _, err = run(["count", "--weights", "1", "1", "1", "1", "1"], capsys)
    assert code == 2
    # The named witness really is a zero-weight character for these weights.
    monomial_text = err.split("tangent monomial ")[1].split(" at fixed point")[0]
    monomial = parse_monomial(monomial_text, 5)
    assert sum(monomial) == 0


def test_count_seeded_runs_are_identical(capsys):
    first = run(["count", "--seed", "5"], capsys)
    second = run(["count", "--seed", "5"], capsys)
    assert first == second
    assert first[0] == 0
    assert first[1].strip() == "6028452"
    assert "weights: " in first[2] and "attempts: " in first[2]


def test_count_seeded_json_reports_search(capsys):
    code, out, _ = run(["count", "--seed", "5", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 5
    assert payload["attempts"] >= 1
    assert payload["value"] == 6028452


def test_count_seeded_search_stays_in_range(capsys, h4_points):
    code, out, _ = run(["count", "--seed", "9", "--range", "1", "500", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    weights = tuple(payload["weights"])
    assert all(1 <= w <= 500 for w in weights)
    assert payload["value"] == 6028452
    assert bott_sum(h4_points, weights).value == 6028452


# ---------------------------------------------------------------------------
#  fixed-points
# ---------------------------------------------------------------------------


def test_fixed_points_h3_json(capsys):
    code, out, err = run(["fixed-points", "--h3-only", "--json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert len(records) == 126
    assert "counts: grassmannian=12 blowup1=42 blowup2=72 total=126" in err
    stages = [r["stage"] for r in records]
    assert stages.count("grassmannian") == 12
    assert stages.count("blowup1") == 42
    assert stages.count("blowup2") == 72
    assert all(r["hyperplane"] is None for r in records)


def test_fixed_points_h4_json(capsys):
    code, out, err = run(["fixed-points", "--json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert len(records) == 504
    assert "total=504" in err and "126 per hyperplane" in err
    assert {r["hyperplane"] for r in records} == {1, 2, 3, 4}
    sample = records[0]
    assert set(sample) == {"stage", "hyperplane", "ideal", "tangent", "fiber"}
    assert sum(t["multiplicity"] for t in sample["tangent"]) == 13
    assert len(sample["fiber"]) == 13


def test_fixed_points_text_mode(capsys):
    code, out, _ = run(["fixed-points", "--h3-only"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "counts: grassmannian=12 blowup1=42 blowup2=72 total=126"
    assert sum(1 for line in lines if line.startswith("[")) == 126
    assert any("ideal:" in line for line in lines)


def test_fixed_points_dumps_are_byte_identical(capsys):
    for args in (["fixed-points", "--json"], ["fixed-points", "--h3-only"]):
        assert run(args, capsys) == run(args, capsys)


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("fixed-points --json", "cc903ec25d12aa785a05acdddb46245ed7cbe6fea5bad3f8e1144134a6467204"),
        ("fixed-points", "f6ef7ed0e50fd1c18444ccb590f3c836abbc15180c5d09b5ad4413e2f723634d"),
        ("fixed-points --h3-only --json",
         "9fd42fe5e0f1a9101f75a314ef6b36f4d230350b7fb43b9a18227ab18dce8e4d"),
        ("fixed-points --h3-only", "15eb8725cc8bd63d34b68676f034eb6a1ed6c6c78a4827d817432e7c60300acd"),
        ("verify --json --seed 3", "12f15e3c5593f26d869d4793b314fc4717cdaae5bc67256737eca186842068d0"),
        ("verify", "8aab855e1b024567ed64a67402f58cbcf8217eeeb76dd9fa28137f2c2db0ff02"),
    ],
)
def test_fixed_points_dump_bytes_are_pinned(argv, digest, h3_points, h4_points, capsys):
    with prebuilt(h3_points, h4_points):
        code, out, _ = run(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_fixed_points_json_round_trip_recomputes_count(capsys):
    code, out, _ = run(["fixed-points", "--json"], capsys)
    assert code == 0
    points = [fixed_point_from_record(r) for r in json.loads(out)]
    assert bott_sum(points, DEFAULT_WEIGHTS).value == 6028452


# ---------------------------------------------------------------------------
#  verify
# ---------------------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, err = run(["verify"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)
    assert "all 10 checks passed" in err


def test_verify_json(capsys):
    code, out, _ = run(["verify", "--json"], capsys)
    assert code == 0
    results = json.loads(out)
    assert len(results) == 10
    assert all(r["ok"] for r in results)
    assert {r["name"] for r in results} >= {
        "census", "tangent-dimensions", "fiber-ranks", "flat-limit-oracle",
        "injectivity-lemma", "weight-independence",
    }


def mono(text: str) -> LaurentMonomial:
    return parse_monomial(text, 4)


def lines(*texts: str) -> Counter[LaurentMonomial]:
    return Counter(map(mono, texts))


#: A representation as a center stores it: its characters of positive
#: multiplicity, each repeated by its multiplicity, in canonical order.
stored = fixedpoints._characters


def pencil_center(centers: list[BlowupCenterDatum]) -> BlowupCenterDatum:
    return next(c for c in centers if str(c.base_ideal) == "(x1*x2, x1*x3)")


def test_verify_detects_mutated_center_table(h3_points, h4_points, monkeypatch):
    # Fault injection: corrupting a center's stored normal space must trip
    # the flat-limit-oracle check and the stage-1 table claim.  The points
    # come prebuilt from the real tables, so only the table checks see the
    # mutation.
    centers = stage1_centers()
    first = pencil_center(centers)
    normal = Counter(first.normal_basis) - lines("x0^2*x1^-1*x2^-1") + lines("x0^2*x2^-1*x3^-1")
    mutated = first._replace(normal_basis=stored(normal))
    rest = [c for c in centers if c is not first]
    with prebuilt(h3_points, h4_points):
        monkeypatch.setattr(fixedpoints, "stage1_centers", lambda: [mutated] + rest)
        results = {r.name: r for r in cli.run_checks()}
    assert not results["flat-limit-oracle"].ok
    assert not results["stage1-tables"].ok
    assert results["census"].ok


@pytest.mark.parametrize(
    "ell, pencil, named, directions",
    [("x2", ("x1", "x3"), "x2*x3^-1", 128), ("x1", ("x1", "x2"), "x2^-1*x3", 127)],
    ids=["wrong-l", "wrong-W"],
)
def test_verify_detects_center_built_from_a_wrong_pencil(
    ell, pencil, named, directions, h3_points, h4_points, monkeypatch
):
    # The center (x1*x2, x1*x3) is the pencil l*W with l = x1, W = <x2, x3>.
    # Deriving its tangent Hom(l, V[1]/l) + Hom(W, V[1]/W) from another
    # pair leaves a multiplicity of -1 or 2 in Hom(I, V[2]/I) minus that
    # tangent.  The flat-limit oracle does not notice; stage1-tables does,
    # and names the first character of multiplicity -1 with both values:
    # a stored tuple holds no negative multiplicity, so it holds that
    # character 0 times.
    centers = stage1_centers()
    real = pencil_center(centers)
    tangent = grassmann_tangent(MonomialIdeal([mono(ell)])) + grassmann_tangent(
        MonomialIdeal(map(mono, pencil))
    )
    # `subtract` keeps the -1 that Counter `-` would drop.
    normal = grassmann_tangent(real.base_ideal)
    normal.subtract(tangent)
    assert set(normal.values()) & {-1, 2}
    wrong = BlowupCenterDatum(
        real.base_ideal, stored(tangent), stored(normal), real.lcm_base, real.stage
    )
    rest = [c for c in centers if c is not real]
    with prebuilt(h3_points, h4_points):
        monkeypatch.setattr(fixedpoints, "stage1_centers", lambda: [wrong] + rest)
        results = {r.name: r for r in cli.run_checks()}
    assert not results["stage1-tables"].ok
    assert results["stage1-tables"].detail == (
        f"mismatch at (x1*x2, x1*x3): {named} has multiplicity -1 in Hom(I, V[2]/I) "
        "minus the center tangent, 0 stored"
    )
    # The stored characters are the directions, each by its multiplicity:
    # 120 at the 20 untouched centers, and here 7 distinct ones, one of
    # them twice under the wrong l.
    assert results["flat-limit-oracle"].detail == (
        f"flat limits match closed-form ideals in {directions} directions"
    )


@pytest.mark.parametrize(
    "old, new, failing",
    [
        # x0^2*x2^-2 is no ambient line: it gets multiplicity -1 in the
        # derived normal space, so the stored tuple and the oracle omit it.
        ("x0^2*x3^-2", "x0^2*x2^-2", ["stage2-tables"]),
        ("x3*x2^-1", "x2*x3^-1", ["stage2-tables"]),
    ],
    ids=["line-outside-ambient", "line-inverted"],
)
def test_verify_detects_mutated_stage2_center_tangent(
    old, new, failing, h3_points, h4_points, capsys, monkeypatch
):
    # The stage-2 cusp center with one center-tangent line replaced; its normal
    # space is derived from the mutated tangent, as `stage2_centers` would.
    centers = stage2_centers()
    real = next(c for c in centers if str(c.base_ideal) == "(x1^2, x1*x2, x1*x3^2)")
    tangent = Counter(real.tangent_to_center) - lines(old) + lines(new)
    normal = stage2_composed_tangent(real.base_ideal, stage1_centers())
    normal.subtract(tangent)
    mutated = real._replace(tangent_to_center=stored(tangent), normal_basis=stored(normal))
    rest = [c for c in centers if c is not real]
    with prebuilt(h3_points, h4_points):
        monkeypatch.setattr(fixedpoints, "stage2_centers", lambda: [mutated] + rest)
        code, out, _ = run(["verify", "--json"], capsys)
    assert code == 1
    results = json.loads(out)
    assert len(results) == 10
    assert [r["name"] for r in results if not r["ok"]] == failing
    [tables] = [r for r in results if r["name"] == "stage2-tables"]
    assert "(x1^2, x1*x2, x1*x3^2)" in tables["detail"]


def test_verify_reports_a_direction_with_no_closed_form(h3_points, h4_points, capsys, monkeypatch):
    # Stored as a normal direction of the cusp center, x0^2*x2^-2 (no
    # ambient line) has a closed form with a negative exponent; the oracle
    # reports it as a mismatch in place of aborting the suite.
    centers = stage2_centers()
    real = next(c for c in centers if str(c.base_ideal) == "(x1^2, x1*x2, x1*x3^2)")
    mutated = real._replace(normal_basis=stored(Counter(real.normal_basis) + lines("x0^2*x2^-2")))
    rest = [c for c in centers if c is not real]
    with prebuilt(h3_points, h4_points):
        monkeypatch.setattr(fixedpoints, "stage2_centers", lambda: [mutated] + rest)
        code, out, _ = run(["verify", "--json"], capsys)
    assert code == 1
    results = json.loads(out)
    assert [r["name"] for r in results if not r["ok"]] == ["stage2-tables", "flat-limit-oracle"]
    [oracle] = [r for r in results if r["name"] == "flat-limit-oracle"]
    assert oracle["detail"].startswith(
        "1 mismatch, first: center (x1^2, x1*x2, x1*x3^2), direction x0^2*x2^-2: flat limit ("
    )
    assert oracle["detail"].endswith("), no closed form")


@pytest.mark.parametrize(
    ("copies", "stage"),
    [(1, "h3"), (2, "h3"), (1, "h4"), (2, "h4")],
    ids=["tangent", "repeated", "h4-tangent", "h4-repeated"],
)
def test_verify_names_the_first_bad_character(copies, stage, h3_points, h4_points, capsys):
    # One point gains the trivial tangent character in place of `copies`
    # of its own.  Dimensions and ranks are untouched, so tangent-characters
    # fails, and its detail names the point, the character and its
    # multiplicity.  On an h4 point the trivial character also zeroes a
    # weight of the Bott sum at the default weights: weight-independence
    # then fails naming it, where the sum would raise out of verify.
    points = {"h3": h3_points, "h4": h4_points}[stage]
    point = points[5]
    trivial = LaurentMonomial((0,) * len(point.tangent[0]))
    bad = point._replace(tangent=point.tangent[copies:] + (trivial,) * copies)
    mutated = [bad if p is point else p for p in points]
    expected = [f"FAIL  tangent-characters: tangent character 1 with multiplicity "
                f"{copies} at {point.label}"]
    if stage == "h4":
        expected.append(f"FAIL  weight-independence: weights {DEFAULT_WEIGHTS} give zero "
                        f"weight on tangent monomial 1 at fixed point {point.label}")
        h4_points = mutated
    else:
        h3_points = mutated
    with prebuilt(h3_points, h4_points):
        code, out, err = run(["verify"], capsys)
    assert code == cli.EXIT_VERIFICATION_FAILURE
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == expected
    assert err == f"{len(expected)} of 10 checks failed\n"


def test_verify_names_accepted_degenerate_weights(h3_points, h4_points, monkeypatch):
    monkeypatch.setattr(bott, "validate_weights", lambda points, w: True)
    with prebuilt(h3_points, h4_points):
        results = checks.run_checks()
    assert [(r.name, r.detail) for r in results if not r.ok] == [
        ("degenerate-weights", "(0, 0, 0, 0, 0) and (1, 1, 1, 1, 1) accepted")
    ]


def test_verify_names_a_non_integer_count(h3_points, h4_points, monkeypatch):
    # A sum that agrees across the weight vectors but is no integer counts no curves.
    monkeypatch.setattr(bott, "bott_sum", lambda points, w: bott.LocalizationResult(Fraction(1, 2)))
    with prebuilt(h3_points, h4_points):
        results = checks.run_checks()
    assert [(r.name, r.detail) for r in results if not r.ok] == [
        ("weight-independence",
         "10 random weight vectors in [1, 10000] all give 1/2, which is not an integer")
    ]


def test_verify_reports_every_check_when_one_raises(capsys, monkeypatch):
    # A stage-1 center whose stored normal space also holds the degree-1
    # character x1.  The build still succeeds; the flat-limit oracle raises
    # on that direction and fails under its own name, while every other
    # check reports, stage1-tables naming the center.
    centers = stage1_centers()
    real = next(c for c in centers if str(c.base_ideal) == "(x1^2, x1*x2)")
    faulty = real._replace(normal_basis=stored(Counter(real.normal_basis) + lines("x1")))
    monkeypatch.setattr(
        fixedpoints, "stage1_centers", lambda: [faulty if c is real else c for c in centers]
    )
    code, out, err = run(["verify", "--json"], capsys)
    assert code == cli.EXIT_VERIFICATION_FAILURE
    assert "Traceback" not in err
    results = {r["name"]: r for r in json.loads(out)}
    assert list(results) == [name for name, _ in checks.CHECKS]
    assert [name for name, r in results.items() if not r["ok"]] == [
        "tangent-dimensions", "stage1-tables", "stage2-tables", "flat-limit-oracle",
        "weight-independence",
    ]
    assert results["flat-limit-oracle"]["detail"] == (
        "ValueError: direction must have degree 0: x1"
    )
    assert results["stage1-tables"]["detail"] == (
        "mismatch at (x1^2, x1*x2): x1 has multiplicity 0 in Hom(I, V[2]/I) "
        "minus the center tangent, 1 stored"
    )
    # The first seed whose sum differs, by its weights and value, against
    # the default weights' value.
    detail = results["weight-independence"]["detail"]
    assert re.fullmatch(r"seed 0: weights \([\d, ]+\) give -?[\d/]+, default -?[\d/]+", detail)


def test_run_checks_builds_once(monkeypatch):
    # The real, unpatched build: the points are built once, and the 9
    # stage-1 centers once per process, the stage-2 parents among them; a
    # later build of the points takes the same centers.
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for name in ("enumerate_h3", "assemble_h4", "_stage1_center"):
        monkeypatch.setattr(fixedpoints, name, counted(name, getattr(fixedpoints, name)))
    fixedpoints._tower.cache_clear()
    results = checks.run_checks()
    assert [r.name for r in results if not r.ok] == []
    assert calls == {"enumerate_h3": 1, "assemble_h4": 1, "_stage1_center": 9}
    fixedpoints.enumerate_h3()
    assert calls == {"enumerate_h3": 2, "assemble_h4": 1, "_stage1_center": 9}


def test_checks_and_count_leave_the_shared_centers_unchanged(capsys):
    # Every build reads the same center records: tuples, which no caller
    # can edit in place, so each center keeps its hash.
    centers = fixedpoints.stage1_centers() + fixedpoints.stage2_centers()
    assert all(type(c.tangent_to_center) is type(c.normal_basis) is tuple for c in centers)
    before = list(map(hash, centers))
    assert [r.name for r in checks.run_checks() if not r.ok] == []
    assert run(["count"], capsys)[:2] == (0, "6028452\n")
    after = fixedpoints.stage1_centers() + fixedpoints.stage2_centers()
    assert all(map(operator.is_, after, centers))
    assert list(map(hash, after)) == before


def test_run_checks_reports_a_broken_build(h3_points, monkeypatch):
    # The library call itself, not only `verify`, reports the build error
    # as one failed result.
    monkeypatch.setattr(fixedpoints, "enumerate_h3", lambda: h3_points[:125])
    [result] = checks.run_checks()
    assert (result.name, result.ok) == ("build", False)
    assert "125" in result.detail
    assert "(grassmannian=12 blowup1=42 blowup2=71)" in result.detail


def test_run_checks_reports_a_duplicate_ideal(monkeypatch):
    # A stage-1 center listed twice yields each of its points twice; the
    # build names the first repeated ideal in canonical order.
    centers = stage1_centers()
    twice = next(c for c in centers if str(c.base_ideal) == "(x1^2, x1*x2)")
    monkeypatch.setattr(fixedpoints, "stage1_centers", lambda: centers + [twice])
    message = "duplicate fixed-point ideal: (x0^2*x2, x1^2, x1*x2)"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        fixedpoints.enumerate_h3()
    assert checks.run_checks() == [checks.CheckResult("build", False, f"RuntimeError: {message}")]


def test_stage1_tables_count_the_stored_normal_space(h3_points, h4_points, monkeypatch):
    # One normal direction of (x1^2, x1*x2) moved into the center tangent:
    # the two still sum to Hom(I, V[2]/I) term for term, but the stored
    # normal space has 5 characters.
    centers = stage1_centers()
    real = next(c for c in centers if str(c.base_ideal) == "(x1^2, x1*x2)")
    moved = real._replace(
        tangent_to_center=stored(Counter(real.tangent_to_center + real.normal_basis[:1])),
        normal_basis=real.normal_basis[1:],
    )
    with prebuilt(h3_points, h4_points):
        monkeypatch.setattr(
            fixedpoints, "stage1_centers", lambda: [moved if c is real else c for c in centers]
        )
        results = {r.name: r for r in checks.run_checks()}
    assert results["stage1-tables"].detail == "mismatch at (x1^2, x1*x2): not 6 degree-0 characters"
    assert not results["stage1-tables"].ok


@pytest.mark.parametrize(
    "failing, detail",
    [
        (["(x0^2, x3^2)"], "fails at (x0^2, x3^2)"),
        # Only the first three are named.
        (["(x0^2, x3^2)", "(x1^2, x2^2)", "(x0^2, x1^2)", "(x2^2, x3^2)"],
         "fails at (x0^2, x1^2), (x0^2, x3^2), (x1^2, x2^2)"),
    ],
    ids=["one", "first-three"],
)
def test_verify_names_the_ideals_failing_the_lemma(
    failing, detail, h3_points, h4_points, monkeypatch
):
    monkeypatch.setattr(fixedpoints, "lemma_injectivity_check", lambda I: str(I) not in failing)
    with prebuilt(h3_points, h4_points):
        results = checks.run_checks()
    assert [(r.name, r.detail) for r in results if not r.ok] == [("injectivity-lemma", detail)]


def test_verify_counts_the_points_it_was_given(h3_points, h4_points):
    # The 504 is stated by the census alone: one h4 point short fails it,
    # and the other details count the points they saw.  The Bott sum
    # without the point depends on the weights.
    with prebuilt(h3_points, h4_points[:-1]):
        results = {r.name: r for r in checks.run_checks()}
    assert [name for name, r in results.items() if not r.ok] == ["census", "weight-independence"]
    assert results["census"].detail == "12/42/72 = 126 points, 503 after hyperplane assembly"
    assert results["tangent-dimensions"].detail == "tangent sums [10] on 126 points, [13] on 503"
    assert results["fiber-ranks"].detail == "degree-6 fiber sums [13] on all 503 points"


def test_run_checks_reports_a_range_too_wide(h3_points, h4_points):
    # Wider than `random.sample` can draw from: a failed check, not an OverflowError.
    with prebuilt(h3_points, h4_points):
        results = checks.run_checks(0, 1, 10**20)
    assert [(r.name, r.detail) for r in results if not r.ok] == [
        ("weight-independence",
         f"ValueError: --range 1 {10**20} holds more than {sys.maxsize} integers, "
         "too many to sample from")
    ]


def test_importing_checks_leaves_cli_unloaded():
    # `python -m quartics.cli` runs cli as __main__; a checks -> cli import
    # would load a second cli module with its own ConfigError.  The sweep
    # benchmark's set-up imports the package, so the dump writer must not
    # pull in `json` either.
    script = (
        "import sys, quartics, quartics.checks; "
        "print(sorted({'quartics.cli', 'json'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env=module_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize("argv", [["count"], ["fixed-points", "--json"]], ids=" ".join)
def test_count_imports_neither_dataclasses_nor_inspect(argv):
    # Both cost more to import than the package itself; the record types
    # are named tuples so that a `count` process needs neither.  `json` is
    # loaded only to print --json output, which the dump writes itself.
    script = (
        f"import sys, quartics.cli as cli; code = cli.main({argv!r}); "
        "print(code, sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env=module_env(),
    )
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr


#: Each record type with its fields, in order.
RECORD_FIELDS = {
    fixedpoints.FixedPoint: ("stage", "ideal", "tangent", "fiber", "hyperplane"),
    BlowupCenterDatum: ("base_ideal", "tangent_to_center", "normal_basis", "lcm_base", "stage"),
    bott.LocalizationResult: ("value", "per_point_terms"),
    bott._Group: ("indices", "shared", "tangents", "denominator", "fibers"),
    bott._Compiled: ("points", "key_columns", "fiber_columns", "expand", "groups"),
    checks.CheckResult: ("name", "ok", "detail"),
    checks.Build: ("h3", "h4", "stage1", "stage2", "seeds", "lo", "hi"),
}


def test_record_types_keep_the_named_tuple_api(h3_points, h4_points):
    # Each record type is a named tuple without an instance dict: its
    # fields in order, its defaults, `_replace`, `repr`, and the
    # `_asdict` keys that `verify --json` prints.
    compiled = bott._compile(h4_points)
    records = [
        h4_points[0], stage1_centers()[0], bott.LocalizationResult(Fraction(6028452)),
        compiled.groups[0], compiled, checks.CheckResult("census", True, "12/42/72"),
        checks.Build(h3_points, h4_points, stage1_centers(), stage2_centers(), range(3), 1, 11),
    ]
    assert list(map(type, records)) == list(RECORD_FIELDS)
    for record, (cls, fields) in zip(records, RECORD_FIELDS.items()):
        assert isinstance(record, tuple) and cls._fields == fields
        assert not hasattr(record, "__dict__"), cls
        first = {fields[0]: record[0]}
        assert type(record._replace(**first)) is cls and record._replace(**first) == record
        assert repr(record).startswith(f"{cls.__name__}({fields[0]}="), cls
    point = h3_points[0]
    assert fixedpoints.FixedPoint(point.stage, point.ideal, point.tangent, point.fiber).hyperplane is None
    assert bott.LocalizationResult(Fraction(1)).per_point_terms is None
    assert list(records[5]._asdict()) == ["name", "ok", "detail"]


def imported_by(argv: list[str]) -> tuple[subprocess.CompletedProcess, set[str]]:
    """A `python -m quartics.cli` process and every module it imports.
    `-S` skips `site`, whose start-up files may import anything, and
    `-X importtime` lists on stderr every module the run imports."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "quartics.cli", *argv],
        capture_output=True, text=True, timeout=60, env=module_env(),
    )
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc, imported


@pytest.mark.parametrize("argv", [["count"], ["count", "--seed", "3"]], ids=" ".join)
def test_count_loads_random_only_for_a_search(argv):
    # `bott` imports `random` inside the weight search alone.
    proc, imported = imported_by(argv)
    assert (proc.returncode, proc.stdout) == (0, "6028452\n"), proc.stderr
    assert "quartics.bott" in imported
    assert ("random" in imported) == ("--seed" in argv)


@pytest.mark.parametrize(
    "argv",
    [["count"], ["fixed-points", "--json"], ["fixed-points", "--h3-only", "--json"], ["fixed-points"]],
    ids=" ".join,
)
def test_only_a_sum_loads_the_rational_arithmetic(argv):
    # `bott` imports `Fraction`, and with it `decimal`, inside `bott_sum`
    # alone; the dump takes no sum.
    proc, imported = imported_by(argv)
    assert proc.returncode == 0, proc.stderr
    if argv == ["count"]:
        assert "fractions" in imported
    else:
        assert not {"fractions", "decimal"} & imported


@pytest.mark.parametrize(
    "argv",
    [["count"], ["fixed-points"], ["fixed-points", "--json"],
     ["fixed-points", "--h3-only", "--json"], ["verify", "--json"]],
    ids=" ".join,
)
def test_only_verify_loads_the_suite(argv):
    # `cli.run_checks` imports `checks` at its first call alone.
    proc, imported = imported_by(argv)
    assert proc.returncode == 0, proc.stderr
    assert ("quartics.checks" in imported) == (argv[0] == "verify")


def test_importing_cli_leaves_the_suite_unloaded():
    script = "import sys, quartics.cli; print('quartics.checks' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, timeout=60, env=module_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_a_sum_returns_a_fraction_that_the_package_import_did_not_load():
    # The point of `test_bott_sum_fiber_equals_tangent`, built in a fresh
    # process without `site`; its sum is 1.
    script = (
        "import sys, quartics; "
        "from quartics.fixedpoints import FixedPoint, STAGE_GRASSMANNIAN; "
        "from quartics.repring import LaurentMonomial as M, MonomialIdeal; "
        "loaded = 'fractions' in sys.modules; "
        "tangent = (M((0, -1, 1, 0, 0)),) * 2 + (M((2, 0, 0, -1, -1)),); "
        "ideal = MonomialIdeal([M((2, 0, 0, 0, 0)), M((0, 2, 0, 0, 0))]); "
        "point = FixedPoint(STAGE_GRASSMANNIAN, ideal, tangent, tangent); "
        "value = quartics.bott_sum([point], quartics.bott.DEFAULT_WEIGHTS).value; "
        "from fractions import Fraction; "
        "print(loaded, type(value) is Fraction, value)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, timeout=60, env=module_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, "False True 1\n"), proc.stderr


@pytest.mark.parametrize(
    "argv", [["count"], ["fixed-points", "--json"], ["verify", "--json"]], ids=" ".join
)
def test_main_leaves_the_collector_alone(argv, capsys):
    # Tests and library callers run `main` in-process; only `entry`, the
    # process entry point, switches the collector off.
    before = gc.isenabled(), gc.get_freeze_count()
    assert run(argv, capsys)[0] == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.parametrize(
    "call, argv, code",
    [
        ("import quartics.cli as cli; sys.exit(cli.entry())", "count --weights 1 1 1 1 1", 2),
        ("import runpy; runpy.run_module('quartics.cli', run_name='__main__')", "count", 0),
    ],
    ids=["entry", "__main__"],
)
def test_a_process_runs_main_without_the_collector(call, argv, code):
    # An atexit hook reports the collector's state as the process ends.
    script = (
        "import atexit, gc, sys; "
        "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0)); "
        + call
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv.split()],
        capture_output=True, text=True, timeout=60, env=module_env(),
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ("6028452\n" if code == 0 else "") + "False True\n"


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["quartics"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.entry


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "run_checks", lambda *a, **k: [checks.CheckResult("census", False, "broken")]
    )
    code, out, err = run(["verify"], capsys)
    assert code == 1
    assert out.startswith("FAIL")
    assert "1 of 1 checks failed" in err


def test_verify_reports_a_broken_build_as_a_failed_check(h3_points, capsys):
    # A build that trips one of its own invariants (here assemble_h4's
    # point count) is a failed verification, not a traceback.
    with mock.patch.object(fixedpoints, "enumerate_h3", lambda: h3_points[:-1]):
        code, out, err = run(["verify"], capsys)
        assert code == 1
        census = "(grassmannian=12 blowup1=42 blowup2=71)"
        assert out.startswith("FAIL") and "125" in out.splitlines()[0]
        assert census in out.splitlines()[0]
        assert "Traceback" not in err
        code, out, _ = run(["verify", "--json"], capsys)
    assert code == 1
    [result] = json.loads(out)
    assert not result["ok"] and "125" in result["detail"] and census in result["detail"]
    # So is a blow-up tangent with a character taken out that it does not
    # hold: the guarded difference rejects the negative multiplicity that
    # Counter `-` would drop.
    tangent = fixedpoints.blowup_point_tangent
    with mock.patch.object(
        fixedpoints,
        "blowup_point_tangent",
        lambda c, mu: fixedpoints._difference(tangent(c, mu), lines("x0^2")),
    ):
        code, out, _ = run(["verify", "--json"], capsys)
    assert code == 1
    [result] = json.loads(out)
    assert (result["name"], result["ok"]) == ("build", False)
    assert "negative multiplicity" in result["detail"]


# ---------------------------------------------------------------------------
#  argument handling
# ---------------------------------------------------------------------------


def test_missing_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param("count --seed 1 --range 5 3", "--range 5 3", id="count-range-reversed"),
        pytest.param("count --seed 1 --range 1 2", "--range 1 2", id="count-range-too-small"),
        pytest.param("verify --range 3 1", "--range 3 1", id="verify-range"),
        pytest.param("count --seed 1 --range 1 10", "--range 1 10", id="count-range-narrow"),
        pytest.param("verify --range -4 5", "--range -4 5", id="verify-range-narrow"),
        pytest.param("fixed-points --degree -1", "--degree -1", id="fixed-points-degree"),
        pytest.param("count --degree 5", "--degree 5", id="count-degree"),
        pytest.param(
            "count --weights 267 4 17 55 160 --seed 1 --json", "--weights and --seed",
            id="count-weights-with-seed",
        ),
        pytest.param("weights-search --seed 0", "weights-search", id="weights-search-removed"),
        pytest.param("fixed-points --seed 1", "--seed 1", id="fixed-points-seed"),
        pytest.param("verify --weights 1 2 3 4 5", "--weights 1 2 3 4 5", id="verify-weights"),
        pytest.param("count --range 1 100", "--range applies to count only with --seed",
                     id="count-range-without-seed"),
        pytest.param("count --seed 1 --range 1 100000000000000000000",
                     "--range 1 100000000000000000000", id="count-range-too-wide"),
        pytest.param("verify --range 1 100000000000000000000",
                     "--range 1 100000000000000000000", id="verify-range-too-wide"),
    ],
)
def test_invalid_arguments_exit_2(argv, named, capsys):
    # Invalid input is a configuration error (exit 2, one message naming
    # the value), never a verification failure (exit 1) or a traceback.
    if argv.startswith("fixed-points"):
        # Through the module entry point, to cover the __main__ path too.
        proc = subprocess.run(
            [sys.executable, "-m", "quartics.cli", *argv.split()],
            capture_output=True, text=True, timeout=60, env=module_env(),
        )
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        try:
            code, out, err = run(argv.split(), capsys)
        except SystemExit as exc:  # argparse usage errors
            code, (out, err) = exc.code, capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert "error: " in last and named in last


@pytest.mark.parametrize(
    "argv, first_line",
    [
        (["fixed-points"], b"counts: "), (["fixed-points", "--json"], b"[\n"),
        (["count"], None), (["count", "--json"], None), (["verify", "--json"], None),
    ],
    ids=["fixed-points", "fixed-points --json", "count", "count --json", "verify --json"],
)
def test_closed_stdout_exits_141(argv, first_line):
    # Both dumps (about 195 KB of text, 678 KB of JSON) outgrow the pipe
    # buffer, so writing fails once the reader has closed its end after
    # the first line.  The other outputs fit in stdout's buffer, which is
    # block-buffered as by default: with the reader gone before the start,
    # only the flush at the end of the run can fail.
    command = [sys.executable, "-m", "quartics.cli", *argv]
    env = {k: v for k, v in module_env().items() if k != "PYTHONUNBUFFERED"}
    if first_line is None:
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                command, stdout=write, stderr=subprocess.PIPE, timeout=60, env=env
            )
        finally:
            os.close(write)
        err = proc.stderr
    else:
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        assert proc.stdout.readline().startswith(first_line)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert b"Traceback" not in err and b"Exception ignored" not in err


def test_a_closed_stdout_fd_exits_0():
    # A closed fd 1 makes `sys.stdout` None: print drops the result, and
    # nothing is left to flush.
    command = [sys.executable, "-m", "quartics.cli", "count"]
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", *command],
        stderr=subprocess.PIPE, timeout=60, env=module_env(),
    )
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("stderr", ["closed", "broken"])
@pytest.mark.parametrize(
    "argv",
    [
        "count", "count --seed 3", "fixed-points --json", "verify --json",
        "count --weights 1 1 1 1 1", "count --weights 1",
    ],
)
def test_a_closed_or_broken_stderr_changes_no_result(stderr, argv, capsys):
    # A closed fd 2 makes `sys.stderr` None, where `print` would write to
    # stdout; a pipe with no reader fails each write.  Either way the notes
    # and argparse's usage text are dropped, and stdout and the exit code
    # are those of a working run.  The child's stderr is buffered, as by
    # default: what it could not write must not fail the exit's flush.
    try:
        code, out, _ = run(argv.split(), capsys)
    except SystemExit as exc:  # argparse usage errors
        code, out = exc.code, capsys.readouterr().out
    command = [sys.executable, "-m", "quartics.cli", *argv.split()]
    env = {k: v for k, v in module_env().items() if k != "PYTHONUNBUFFERED"}
    if stderr == "closed":
        proc = subprocess.run(
            ["sh", "-c", 'exec "$@" 2>&-', "sh", *command],
            stdout=subprocess.PIPE, text=True, timeout=60, env=env,
        )
    else:
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                command, stdout=subprocess.PIPE, stderr=write, text=True, timeout=60,
                env=env,
            )
        finally:
            os.close(write)
    assert (proc.returncode, proc.stdout) == (code, out)


@pytest.mark.parametrize("command", ["count --seed 0", "verify"])
def test_exhausted_weight_search_exits_2(command, h3_points, h4_points, capsys, monkeypatch):
    # Seed 0 draws no usable vector from [1, 11] in its first ten attempts.
    monkeypatch.setattr(bott, "ATTEMPT_BUDGET", 10)
    with prebuilt(h3_points, h4_points):
        code, out, err = run([*command.split(), "--range", "1", "11"], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        "error: --range 1 11: no usable weight vector within 10 attempts"
    )


def run_fuzzed(argv: list[str], h3_points, h4_points) -> tuple[int, str]:
    """Run `cli.main` on prebuilt points; assert a clean exit 0 or 2."""
    out, err = io.StringIO(), io.StringIO()
    # A small budget keeps searches in ranges of about 11 integers short;
    # running out of it must still exit 2.
    with prebuilt(h3_points, h4_points), mock.patch.object(bott, "ATTEMPT_BUDGET", 50), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    return code, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.none() | st.integers(0, 3),
    range_=st.none() | st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    weights=st.none() | st.lists(st.integers(-3, 3), min_size=5, max_size=5),
    json_=st.booleans(),
)
@example(seed=0, range_=(1, 11), weights=None, json_=True)
def test_cli_flags_fuzz(seed, range_, weights, json_, h3_points, h4_points):
    argv = ["count"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if range_ is not None:
        argv += ["--range", *map(str, range_)]
    if weights is not None:
        argv += ["--weights", *map(str, weights)]
    if json_:
        argv.append("--json")
    code, out = run_fuzzed(argv, h3_points, h4_points)
    if code == 0 and json_:
        json.loads(out)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.none() | st.integers(0, 3),
    range_=st.none() | st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    json_=st.booleans(),
)
@example(seed=0, range_=(1, 11), json_=True)
def test_verify_flags_fuzz(seed, range_, json_, h3_points, h4_points):
    argv = ["verify"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if range_ is not None:
        argv += ["--range", *map(str, range_)]
    if json_:
        argv.append("--json")
    code, out = run_fuzzed(argv, h3_points, h4_points)
    if code == 0 and json_:
        results = json.loads(out)
        assert len(results) == 10 and all(r["ok"] for r in results), results
