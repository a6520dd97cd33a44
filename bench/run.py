#!/usr/bin/env python3
"""Benchmark of the quartics package, run from the root of a source checkout.

    python3 bench/run.py --workload count|sweep|verify|dump|all \\
        --seed N --seconds S --trace 0|1

Four closed-loop workloads with one client each; at most one child
process runs at a time and no threads are started (README.md says why
each workload exists):

  count   each op is a fresh ``quartics count --weights W`` process
  sweep   one process builds the 504 points once; each op is then
          ``validate_weights`` and ``bott_sum`` on the next weight vector
  verify  each op is a fresh ``quartics verify --json --seed S`` process
  dump    each op is a fresh ``quartics fixed-points --json`` process

The package runs from ``src/`` as it is; nothing is installed.  Every op's
output is checked: a wrong output or a nonzero exit counts as failed and
is not timed.  With ``--trace 0`` a run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced ops
and reports the per-layer metrics.  The lines above the last describe the
run for a reader; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics (for ``all``, one such object
per workload).  The exit code is 0 when every output was correct, 1 when
one was not, and 2 when the checkout holds no ``src/quartics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import tangent_characters, usable_weights
from reference import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "quartics"
PYTHON = sys.executable

WORKLOADS = ("count", "sweep", "verify", "dump")
HEADLINE = 6028452
VERIFY_CHECKS = 10
#: sha256 of ``quartics fixed-points --json`` stdout, which is byte-stable by contract.
DUMP_SHA256 = "cc903ec25d12aa785a05acdddb46245ed7cbe6fea5bad3f8e1144134a6467204"

#: Fresh-process set-ups timed per run; the median is reported.
CLI_SETUP_SAMPLES = 15
SWEEP_SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 60.0
#: A p90 is reported only over this many ops, so that ten or more lie beyond it.
P90_MIN_SAMPLES = 100
#: Printed with their sample counts but left out of BENCHMARK.json: on a
#: shared host an op's time in seconds swings by up to 2x with contention
#: from outside, so the op metric gated is cpu_p50_ref (reference.py).
UNGATED = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("cpu_per_op_s", "s"),
    ("ref_cpu_s", "s"),
)
TRACE_MARKER = b"bench-trace: "

#: Exact counts of one pipeline build (enumerate_h3, then assemble_h4).
BUILD_COUNTS = {
    "fixedpoints.enumerate_h3.points": 126,
    "fixedpoints.assemble_h4.points": 504,
    "fixedpoints.fiber_rep.calls": 630,
    "repring.ideal_twist.calls": 630,
    "fixedpoints.blowup_fixed_points.candidates": 126,
    "fixedpoints.blowup_fixed_points.kept": 114,
}
#: Exact counts every traced op of a workload gives; every sum has 504 terms.
OP_COUNTS = {
    "count": {**BUILD_COUNTS, "bott.bott_sum.calls": 1, "bott.bott_sum.terms": 504},
    "sweep": {
        "bott.bott_sum.calls": 1,
        "bott.bott_sum.terms": 504,
        "bott.validate_weights.calls": 1,
        "bott.validate_weights.rejected": 0,
    },
    "verify": {
        **BUILD_COUNTS,
        "bott.bott_sum.calls": 11,
        "bott.bott_sum.terms": 11 * 504,
        "bott.random_weight_search.calls": 10,
        "fixedpoints.limit_ideal_oracle.calls": 126,
        "fixedpoints.lemma_injectivity_check.calls": 126,
    },
    "dump": {**BUILD_COUNTS, "fixedpoints.fixed_point_record.calls": 504},
}


# ---------------------------------------------------------------------------
#  Child processes.
# ---------------------------------------------------------------------------


@dataclass
class Finished:
    """A child process that has ended, with its own rusage from wait4."""

    code: int
    stdout: bytes
    stderr: bytes
    wall: float
    ready: float | None  # seconds until the first stdout line, if one came
    cpu: float
    maxrss_kb: int


def child_env() -> dict[str, str]:
    """The package from ``src/``, with bytecode cached under ``.bench_build``
    whatever the caller's environment says, as an installed package has it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], stdin: bytes | None = None, timeout: float = CHILD_TIMEOUT_S) -> Finished:
    """Run one child to its end, draining stdout and stderr without threads.

    The child is reaped with ``os.wait4``, so its peak RSS and CPU time are
    its own: ``RUSAGE_CHILDREN`` would keep a running maximum over every
    child that ever ran.  A child still running after `timeout` seconds is
    killed and reported with exit code -9.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
    )
    out, err = bytearray(), bytearray()
    ready = None
    try:
        if stdin is not None:
            try:
                proc.stdin.write(stdin)
            except BrokenPipeError:
                pass  # the child has already exited; its exit code says why
            proc.stdin.close()
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ, out)
            selector.register(proc.stderr, selectors.EVENT_READ, err)
            while selector.get_map():
                remaining = start + timeout - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    break
                for key, _ in selector.select(remaining):
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        selector.unregister(key.fileobj)
                        continue
                    key.data.extend(chunk)
                    if ready is None and key.data is out and b"\n" in out:
                        ready = time.perf_counter() - start
    finally:
        if proc.returncode is None:
            if sys.exc_info()[0] is not None:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
    return Finished(
        code=proc.returncode,
        stdout=bytes(out),
        stderr=bytes(err),
        wall=time.perf_counter() - start,
        ready=ready,
        cpu=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
    )


def exit_problem(child: Finished) -> str | None:
    if child.code == 0:
        return None
    tail = child.stderr.decode(errors="replace").strip().splitlines()[-1:]
    return f"exit {child.code}: {' '.join(tail)}"


def quartics_cli(*args: str) -> list[str]:
    return [PYTHON, "-m", "quartics.cli", *args]


# ---------------------------------------------------------------------------
#  Output checks: each returns None for a correct output, else the reason.
# ---------------------------------------------------------------------------


def check_count(stdout: bytes) -> str | None:
    if stdout == f"{HEADLINE}\n".encode():
        return None
    return f"count printed {stdout[:80]!r}, expected {HEADLINE}"


def check_verify(stdout: bytes) -> str | None:
    try:
        records = json.loads(stdout)
    except ValueError as exc:
        return f"verify printed no JSON: {exc}"
    if not isinstance(records, list) or len(records) != VERIFY_CHECKS:
        return f"verify returned {len(records) if isinstance(records, list) else 'no'} records"
    failing = [r for r in records if not (isinstance(r, dict) and r.get("ok") is True)]
    return f"verify checks not ok: {failing}" if failing else None


def check_dump(stdout: bytes) -> str | None:
    digest = hashlib.sha256(stdout).hexdigest()
    return None if digest == DUMP_SHA256 else f"dump sha256 {digest} != {DUMP_SHA256}"


def cli_workload(name: str, seed: int, characters):
    """(next op's arguments, output check) of a command-line workload."""
    if name == "count":
        weights = usable_weights(f"count-{seed}", characters)
        return (lambda: ["count", "--weights", *map(str, next(weights))]), check_count
    if name == "verify":
        verify_seed = str(random.Random(f"verify-{seed}").randrange(10**6))
        return (lambda: ["verify", "--json", "--seed", verify_seed]), check_verify
    return (lambda: ["fixed-points", "--json"]), check_dump


# ---------------------------------------------------------------------------
#  Spans to per-layer totals.
# ---------------------------------------------------------------------------


def layer_ops(spans: list[list]) -> list[tuple[str, dict[str, float]]]:
    """Split spans by root span and total each root's layers.

    For every span name the totals hold ``calls``, ``s``, ``self_s`` (span
    time minus the time of its child spans) and each recorded count.
    """
    child_s = [0.0] * len(spans)
    root: list[int] = []
    for index, (_, parent, start, end, _) in enumerate(spans):
        if parent is not None:
            child_s[parent] += end - start
        root.append(index if parent is None else root[parent])
    ops: dict[int, dict[str, float]] = {}
    for index, (name, _, start, end, counts) in enumerate(spans):
        totals = ops.setdefault(root[index], {})
        for key, value in (
            ("calls", 1),
            ("s", end - start),
            ("self_s", end - start - child_s[index]),
            *counts.items(),
        ):
            totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
    return [(spans[r][0], totals) for r, totals in ops.items()]


def is_count(key: str) -> bool:
    return not key.endswith(("_s", ".s"))


def count_problems(name: str, ops: list[dict[str, float]], expected: dict[str, int]) -> list[str]:
    """Counts that miss their expected value, or that differ between ops."""
    problems = []
    first = {k: v for k, v in ops[0].items() if is_count(k)} if ops else {}
    for index, totals in enumerate(ops):
        for key, want in expected.items():
            if totals.get(key, 0) != want:
                problems.append(f"{name} op {index}: {key} = {totals.get(key, 0)}, expected {want}")
        mine = {k: v for k, v in totals.items() if is_count(k)}
        if mine != first:
            diff = sorted(k for k in first.keys() | mine.keys() if first.get(k) != mine.get(k))
            problems.append(f"{name} op {index}: counts differ from op 0 in {diff}")
    return problems


def layer_metrics(ops: list[dict[str, float]], overhead_s: float) -> dict[str, tuple[float, int]]:
    """Per-op means of every total, plus the derived per-layer metrics."""
    keys = set().union(*ops)
    means = {k: sum(t.get(k, 0) for t in ops) / len(ops) for k in keys}
    candidates = means.get("fixedpoints.blowup_fixed_points.candidates", 0)
    means["fixedpoints.blowup_fixed_points.kept_frac"] = (
        means.get("fixedpoints.blowup_fixed_points.kept", 0) / candidates if candidates else 0.0
    )
    means["trace.overhead_s"] = overhead_s
    return {k: (v, len(ops)) for k, v in means.items()}


# ---------------------------------------------------------------------------
#  Workloads.
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """What one workload run measured, before it is reported."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Failed checks that are not ops: set-up and counts.
    problems: list[str] = field(default_factory=list)
    #: Metric name -> (value, number of samples).
    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    #: Traced ops the per-layer metrics average over; a layer they never call reads 0.
    traced_ops: int = 0

    def op(self, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)
        return problem is None


def timing_metrics(setup, latencies, cpu, refs, rss_kb, elapsed) -> dict[str, tuple[float, int]]:
    """End-to-end metrics of an untraced run.

    ``refs[i]`` is the CPU time of the reference task around op i: the
    mean of its runs just before and just after the op.
    """
    n = len(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "cpu_p50_ref": (statistics.median(c / r for c, r in zip(cpu, refs)), n),
        "peak_rss_mb": (max(rss_kb) / 1024, len(rss_kb)),
        "ops_per_s": (n / elapsed, n),
        "op_p50_s": (statistics.median(latencies), n),
        "cpu_per_op_s": (sum(cpu) / n, n),
        "ref_cpu_s": (statistics.median(refs), n),
    }
    if n >= P90_MIN_SAMPLES:
        metrics["op_p90_s"] = (statistics.quantiles(latencies, n=10, method="inclusive")[-1], n)
    return metrics


def ready_time(run: Run, child: Finished) -> float | None:
    problem = exit_problem(child) or (None if child.ready is not None else "no ready line")
    if problem is not None:
        run.problems.append(f"set-up: {problem}")
        return None
    return child.ready


def trace_totals(traced: Finished) -> dict[str, float] | None:
    """Layer totals of one traced command-line op, from its trace line."""
    lines = traced.stderr.splitlines()
    if not lines or not lines[-1].startswith(TRACE_MARKER):
        return None
    payload = json.loads(lines[-1][len(TRACE_MARKER):])
    [(_, totals)] = layer_ops(payload["spans"])
    totals["cli.import_s"] = payload["import_s"]
    totals["cli.process_overhead_s"] = traced.wall - totals["cli.main.s"]
    totals["repring.invariant_sections.hits"], totals["repring.invariant_sections.misses"] = payload["cache"]
    return totals


def run_cli(name: str, seed: int, seconds: float, trace: bool, characters) -> Run:
    """Closed loop of fresh command-line processes; with `trace`, each op
    is followed by a traced op on the same input."""
    run = Run()
    next_args, check = cli_workload(name, seed, characters)
    import_cli = [PYTHON, "-c", "import quartics.cli; print('ready', flush=True)"]
    setup = [] if trace else [ready_time(run, run_child(import_cli)) for _ in range(CLI_SETUP_SAMPLES)]
    latencies, cpu, refs, rss_kb, overhead, traced_ops = [], [], [], [], [], []
    before = None if trace else reference()
    start = time.perf_counter()
    while not run.attempted or time.perf_counter() - start < seconds:
        args = next_args()
        plain = run_child(quartics_cli(*args))
        after = None if trace else reference()
        ok = run.op(exit_problem(plain) or check(plain.stdout))
        if ok and not trace:
            refs.append((before + after) / 2)
        before = after
        if not ok:
            continue
        latencies.append(plain.wall)
        cpu.append(plain.cpu)
        rss_kb.append(plain.maxrss_kb)
        if trace:
            traced = run_child([PYTHON, str(BENCH / "traced_cli.py"), *args])
            totals = trace_totals(traced)
            if run.op(exit_problem(traced) or check(traced.stdout) or (None if totals else "no trace line")):
                traced_ops.append(totals)
                overhead.append(traced.wall - plain.wall)
    elapsed = time.perf_counter() - start
    if trace and traced_ops:
        run.problems += count_problems(name, traced_ops, OP_COUNTS[name])
        run.metrics = layer_metrics(traced_ops, statistics.median(overhead))
        run.traced_ops = len(traced_ops)
    elif not trace and latencies and None not in setup:
        run.metrics = timing_metrics(setup, latencies, cpu, refs, rss_kb, elapsed)
    return run


def run_sweep(seed: int, seconds: float, trace: bool, characters) -> Run:
    run = Run()
    worker = [PYTHON, str(BENCH / "sweep_worker.py"), "--trace", str(int(trace))]
    setup = []
    if not trace:
        for _ in range(SWEEP_SETUP_SAMPLES - 1):
            setup.append(ready_time(run, run_child([*worker, "--seconds", "0", "--setup-only"])))
    job = json.dumps({"label": f"sweep-{seed}", "characters": characters, "expect": HEADLINE})
    child = run_child(
        [*worker, "--seconds", repr(seconds)], job.encode(), timeout=seconds + CHILD_TIMEOUT_S
    )
    setup.append(ready_time(run, child))
    problem = exit_problem(child)
    if problem is not None:
        run.op(f"sweep worker: {problem}")
        return run
    result = json.loads(child.stdout.splitlines()[-1])
    for phase in result["phases"]:
        run.attempted += len(phase["latencies"]) + len(phase["failures"])
        run.failures += phase["failures"]
    first = result["phases"][0]
    if trace:
        grouped = layer_ops(result["spans"])
        builds = [totals for root, totals in grouped if root == "bench.setup"]
        run.problems += count_problems("sweep set-up", builds, BUILD_COUNTS)
        ops = [totals for root, totals in grouped if root == "bench.op"]
        hits, misses = result["cache"]
        for totals in ops:
            totals["repring.invariant_sections.hits"] = hits / len(ops)
            totals["repring.invariant_sections.misses"] = misses / len(ops)
            totals["cli.import_s"] = totals["cli.process_overhead_s"] = 0.0
        run.problems += count_problems("sweep", ops, OP_COUNTS["sweep"])
        traced = result["phases"][1]["latencies"]
        if ops and traced and first["latencies"]:
            overhead = statistics.median(traced) - statistics.median(first["latencies"])
            run.metrics = layer_metrics(ops, overhead)
            run.traced_ops = len(ops)
    elif first["latencies"] and None not in setup:
        run.metrics = timing_metrics(
            setup, first["latencies"], first["cpu"], first["refs"], [child.maxrss_kb], first["elapsed"]
        )
    return run


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Run:
    # One untimed dump first: it fills the bytecode cache, proves the dump
    # unchanged, and yields the tangent characters that the weight inputs
    # must not vanish on.
    dump = run_child(quartics_cli("fixed-points", "--json"))
    problem = exit_problem(dump) or check_dump(dump.stdout)
    if problem is not None:
        run = Run()
        run.problems.append(f"initial dump: {problem}")
        return run
    characters = tangent_characters(dump.stdout)
    if name == "sweep":
        return run_sweep(seed, seconds, trace, characters)
    return run_cli(name, seed, seconds, trace, characters)


# ---------------------------------------------------------------------------
#  Reporting.
# ---------------------------------------------------------------------------


def run_context(seed: int) -> dict:
    sources = sorted(PACKAGE.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (the benchmark's may not be)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(name: str, run: Run, wanted: list[dict]) -> dict:
    """Print the run for a reader and return its result object."""
    if run.traced_ops:
        for metric in wanted:
            run.metrics.setdefault(metric["name"], (0.0, run.traced_ops))
    missing = [m["name"] for m in wanted if m["name"] not in run.metrics]
    correct = not run.failures and not run.problems and not missing
    shown = [(m["name"], m["unit"]) for m in wanted]
    shown += [(extra, unit) for extra, unit in UNGATED if extra in run.metrics]
    for metric, unit in shown:
        value, samples = run.metrics.get(metric, (float("nan"), 0))
        print(f"{name:7} {metric:44} {value:14.6g} {unit:6} n={samples}")
    failed = len(run.failures)
    print(f"{name:7} {'failed_frac':44} {failed / max(run.attempted, 1):14.6g} {'ratio':6} n={run.attempted}")
    for problem in (run.failures + run.problems)[:10]:
        print(f"{name:7} FAIL {problem}")
    if missing and not run.failures and not run.problems:
        print(f"{name:7} FAIL not measured: {missing}")
    return {
        "correct": correct,
        "attempted": run.attempted or 1,
        "failed": failed if run.attempted else 1,
        "metrics": {
            m["name"]: {"value": run.metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted
            if m["name"] in run.metrics
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: {PACKAGE} not found; run from the root of a quartics checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    context = run_context(args.seed)
    print("context:", json.dumps(context))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = report(name, run, wanted)
    print("context:", json.dumps({"loadavg_end": os.getloadavg()}))
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
