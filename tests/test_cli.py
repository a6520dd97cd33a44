from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
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
from quartics.repring import LaurentMonomial, MonomialIdeal, RepElement


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


def lines(*texts: str) -> RepElement:
    return RepElement.from_monomials(mono(t) for t in texts)


def pencil_center(centers: list[BlowupCenterDatum]) -> BlowupCenterDatum:
    return next(c for c in centers if str(c.base_ideal) == "(x1*x2, x1*x3)")


def test_verify_detects_mutated_center_table(h3_points, h4_points, monkeypatch):
    # Fault injection: corrupting a center's stored normal space must trip
    # the flat-limit-oracle check and the stage-1 table claim.  The points
    # come prebuilt from the real tables, so only the table checks see the
    # mutation.
    centers = stage1_centers()
    first = pencil_center(centers)
    mutated = BlowupCenterDatum(
        base_ideal=first.base_ideal,
        tangent_to_center=first.tangent_to_center,
        normal_basis=first.normal_basis
        - lines("x0^2*x1^-1*x2^-1")
        + lines("x0^2*x2^-1*x3^-1"),
        lcm_base=first.lcm_base,
        stage=first.stage,
    )
    rest = [c for c in centers if c is not first]
    with prebuilt(h3_points, h4_points):
        monkeypatch.setattr(fixedpoints, "stage1_centers", lambda: [mutated] + rest)
        results = {r.name: r for r in cli.run_checks()}
    assert not results["flat-limit-oracle"].ok
    assert not results["stage1-tables"].ok
    assert results["census"].ok


@pytest.mark.parametrize(
    "ell, pencil", [("x2", ("x1", "x3")), ("x1", ("x1", "x2"))], ids=["wrong-l", "wrong-W"]
)
def test_verify_detects_center_built_from_a_wrong_pencil(
    ell, pencil, h3_points, h4_points, monkeypatch
):
    # The center (x1*x2, x1*x3) is the pencil l*W with l = x1, W = <x2, x3>.
    # Deriving its tangent Hom(l, V[1]/l) + Hom(W, V[1]/W) from another
    # pair leaves a multiplicity of -1 or 2 in Hom(I, V[2]/I) minus that
    # tangent.  The flat-limit oracle does not notice; stage1-tables does.
    centers = stage1_centers()
    real = pencil_center(centers)
    tangent = grassmann_tangent(MonomialIdeal([mono(ell)])) + grassmann_tangent(
        MonomialIdeal(map(mono, pencil))
    )
    normal = grassmann_tangent(real.base_ideal) - tangent
    assert {k for _, k in normal.items()} & {-1, 2}
    wrong = BlowupCenterDatum(real.base_ideal, tangent, normal, real.lcm_base, real.stage)
    rest = [c for c in centers if c is not real]
    with prebuilt(h3_points, h4_points):
        monkeypatch.setattr(fixedpoints, "stage1_centers", lambda: [wrong] + rest)
        results = {r.name: r for r in cli.run_checks()}
    assert not results["stage1-tables"].ok
    assert "(x1*x2, x1*x3)" in results["stage1-tables"].detail
    assert results["flat-limit-oracle"].ok


@pytest.mark.parametrize(
    "old, new, failing",
    [
        # x0^2*x2^-2 is no ambient line: the oracle meets a direction whose
        # closed form needs a negative exponent and reports it as a mismatch.
        ("x0^2*x3^-2", "x0^2*x2^-2", ["stage2-tables", "flat-limit-oracle"]),
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
    tangent = real.tangent_to_center - lines(old) + lines(new)
    ambient = stage2_composed_tangent(real.base_ideal, stage1_centers())
    mutated = BlowupCenterDatum(
        real.base_ideal, tangent, ambient - tangent, real.lcm_base, real.stage
    )
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


@pytest.mark.parametrize("kind", ["tangent", "fiber"])
def test_verify_names_the_first_bad_character(kind, h3_points, h4_points):
    # One h3 point gains a trivial tangent character in place of one of its
    # own, or a fiber character of multiplicity -1.  Dimensions, ranks and
    # the h4 points are untouched, so only tangent-characters fails, and its
    # detail names the point and the character.
    point = h3_points[5]
    if kind == "tangent":
        tangent = point.tangent - lines(str(point.tangent.support()[0])) + lines("1")
        bad = point._replace(tangent=tangent)
        expected = f"tangent character 1 with multiplicity 1 at {point.label}"
    else:
        bad = point._replace(fiber=point.fiber - lines("x0^2"))
        expected = f"fiber character x0^2 with multiplicity -1 at {point.label}"
    mutated = [bad if p is point else p for p in h3_points]
    with prebuilt(mutated, h4_points):
        results = checks.run_checks()
    assert [(r.name, r.detail) for r in results if not r.ok] == [("tangent-characters", expected)]


def test_verify_names_accepted_degenerate_weights(h3_points, h4_points, monkeypatch):
    monkeypatch.setattr(bott, "validate_weights", lambda points, w: True)
    with prebuilt(h3_points, h4_points):
        results = checks.run_checks()
    assert [(r.name, r.detail) for r in results if not r.ok] == [
        ("degenerate-weights", "(0, 0, 0, 0, 0) and (1, 1, 1, 1, 1) accepted")
    ]


def test_importing_checks_leaves_cli_unloaded():
    # `python -m quartics.cli` runs cli as __main__; a checks -> cli import
    # would load a second cli module with its own ConfigError.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, quartics.checks; print('quartics.cli' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=module_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_count_imports_neither_dataclasses_nor_inspect():
    # Both cost more to import than the package itself; the record types
    # are named tuples so that a `count` process needs neither.
    script = (
        "import sys, quartics.cli as cli; code = cli.main(['count']); "
        "print(code, sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env=module_env(),
    )
    assert proc.stdout.splitlines() == ["6028452", "0 []"], proc.stderr


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "run_checks", lambda *a, **k: [cli.CheckResult("census", False, "broken")]
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
        assert out.startswith("FAIL") and "125" in out.splitlines()[0]
        assert "Traceback" not in err
        code, out, _ = run(["verify", "--json"], capsys)
    assert code == 1
    [result] = json.loads(out)
    assert not result["ok"] and "125" in result["detail"]


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


def test_closed_stdout_exits_141():
    # The text dump (about 195 KB) outgrows the pipe buffer, so writing
    # fails once the reader has closed its end after the first line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "quartics.cli", "fixed-points"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
    )
    assert proc.stdout.readline().startswith(b"counts: ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert b"Traceback" not in err and b"Exception ignored" not in err


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
