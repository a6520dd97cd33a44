"""Client of the ``sweep`` workload: build the 504 points once, then sum over many weights.

    python bench/sweep_worker.py --seconds S --trace 0|1 [--setup-only]

Prints ``ready`` once the points are built.  Unless ``--setup-only`` is
given it then reads ``{"label", "characters", "expect"}`` from stdin and
runs ops for S seconds; one op is ``validate_weights`` and ``bott_sum`` on
the next weight vector of the seeded stream.  With ``--trace 1`` the first
half of the time runs untraced and the second half traced, and the build
itself is traced under a ``bench.setup`` span.  The last line of stdout is
one JSON object with the phases, the spans and the cache counters.
"""

import argparse
import json
import sys
import time
from contextlib import nullcontext

from inputs import usable_weights
from reference import reference
from quartics import bott, fixedpoints, repring


#: Seconds of ops between two runs of the reference task.
REFERENCE_EVERY_S = 0.5


def run_ops(points, weights, expect, seconds, recorder=None) -> dict:
    """Ops for `seconds`, in slices with a run of the reference task between them.

    Each passing op gets its latency, its CPU time and, under ``refs``, the
    mean CPU time of the reference runs that bound its slice.
    """
    latencies, cpu, refs, failures = [], [], [], []
    start = time.perf_counter()
    before = reference()
    while time.perf_counter() - start < seconds:
        in_slice = len(latencies)
        sliced = time.perf_counter()
        while time.perf_counter() - sliced < REFERENCE_EVERY_S:
            w = next(weights)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with recorder.span("bench.op") if recorder else nullcontext():
                    value = bott.bott_sum(points, w).value if bott.validate_weights(points, w) else None
            except Exception as exc:  # a failing op is counted, not fatal
                failures.append(f"weights {w}: {exc!r}")
                continue
            t1, c1 = time.perf_counter(), time.process_time()
            if value == expect and value.denominator == 1:
                latencies.append(t1 - t0)
                cpu.append(c1 - c0)
            else:
                failures.append(f"weights {w}: got {value}, expected {expect}")
        after = reference()
        refs += [(before + after) / 2] * (len(latencies) - in_slice)
        before = after
    return {
        "latencies": latencies,
        "cpu": cpu,
        "refs": refs,
        "failures": failures,
        "elapsed": time.perf_counter() - start,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    recorder = None
    if args.trace:
        from tracehooks import Recorder

        recorder = Recorder()
        recorder.install()
    with recorder.span("bench.setup") if recorder else nullcontext():
        points = fixedpoints.assemble_h4(fixedpoints.enumerate_h3())
    print("ready", flush=True)
    if args.setup_only:
        return 0

    job = json.load(sys.stdin)
    weights = usable_weights(job["label"], job["characters"])
    expect = job["expect"]
    cache = [0, 0]
    if recorder is None:
        phases = [run_ops(points, weights, expect, args.seconds)]
    else:
        recorder.uninstall()
        phases = [run_ops(points, weights, expect, args.seconds / 2)]
        before = repring.invariant_sections.cache_info()
        recorder.install()
        phases.append(run_ops(points, weights, expect, args.seconds / 2, recorder))
        recorder.uninstall()
        after = repring.invariant_sections.cache_info()
        cache = [after.hits - before.hits, after.misses - before.misses]
    spans = recorder.spans if recorder else []
    print(json.dumps({"phases": phases, "spans": spans, "cache": cache}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
