"""Self-test of the benchmark: a corrupted output is counted as failed, not timed.

    python3 bench/selftest.py

Run from the root of a quartics checkout; takes a few seconds.  Exits 0
and prints ``selftest passed`` when every check holds.
"""

import json
import sys

import run


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")


def main() -> int:
    expect(run.check_count(b"6028452\n") is None, "the headline count passes")
    for wrong in (b"6028453\n", b"6028452", b"6028452\n6028452\n", b""):
        expect(run.check_count(wrong) is not None, f"count output {wrong!r} fails")

    records = [{"name": f"check-{i}", "ok": True, "detail": ""} for i in range(run.VERIFY_CHECKS)]
    expect(run.check_verify(json.dumps(records).encode()) is None, "ten ok records pass")
    expect(run.check_verify(json.dumps(records[1:]).encode()) is not None, "nine records fail")
    records[3]["ok"] = False
    expect(run.check_verify(json.dumps(records).encode()) is not None, "a failing check fails")
    expect(run.check_verify(b"all 10 checks passed") is not None, "non-JSON output fails")

    dump = run.run_child(run.quartics_cli("fixed-points", "--json"))
    expect(dump.code == 0 and run.check_dump(dump.stdout) is None, "the real dump passes")
    expect(run.check_dump(dump.stdout.replace(b"x4", b"x3", 1)) is not None, "an edited dump fails")
    characters = run.tangent_characters(dump.stdout)
    expect(len(characters) == 280, f"280 tangent characters, got {len(characters)}")

    # The op loop itself: ops whose output is wrong, or whose exit code is
    # not 0, are counted as failed and give no timing.
    for program in ("print(6028453)", "print(6028452); raise SystemExit(3)"):
        run.quartics_cli = lambda *args, program=program: [run.PYTHON, "-c", program]
        measured = run.run_cli("count", 0, 0.5, False, characters)
        expect(measured.attempted >= 1, "the loop ran")
        expect(len(measured.failures) == measured.attempted, f"every op of {program!r} failed")
        expect(not measured.metrics, f"no op of {program!r} was timed")
        result = run.report("count", measured, [{"name": "op_p50_s", "unit": "s"}])
        expect(not result["correct"] and result["failed"] == result["attempted"], "report says so")

    # An op's CPU time is gated as a multiple of the reference task's CPU time around it.
    expect(run.reference() > 0, "the reference task runs and its result checks")
    metrics = run.timing_metrics([0.1], [2.0, 4.0, 6.0], [2.0, 4.0, 6.0], [1.0, 2.0, 2.0], [1024], 12.0)
    expect(metrics["cpu_p50_ref"] == (2.0, 3), f"cpu_p50_ref is the median ratio, got {metrics['cpu_p50_ref']}")

    build = dict(run.OP_COUNTS["count"])
    expect(not run.count_problems("count", [build, dict(build)], run.OP_COUNTS["count"]), "counts hold")
    short = {**build, "fixedpoints.fiber_rep.calls": 629}
    expect(run.count_problems("count", [short], run.OP_COUNTS["count"]), "a missed count fails")
    drift = {**build, "bott.random_weight_search.attempts": 12}
    expect(run.count_problems("count", [build, drift], {}), "counts that differ between ops fail")

    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
