"""Spans around calls into the quartics layers, recorded from outside the package.

Each hooked function is replaced on the module where its caller looks it
up (``fixedpoints`` binds ``ideal_twist`` by name, ``cli`` reaches the
other layers through module attributes), so no file under ``src/`` is
touched.  ``LaurentMonomial`` and ``RepElement`` methods stay unwrapped:
they run millions of times per build and a wrapper would swamp them.

A span is ``[name, parent, start, end, counts]``; ``parent`` is the index
of the enclosing span or None.  Spans stay in memory until the caller
ships them out at the end of the process.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager

from quartics import bott, cli, fixedpoints


def invariant_count(nvars: int, degree: int) -> int:
    """Number of degree-`degree` monomials in `nvars` characters with even x0 exponent."""
    return sum(
        math.comb(degree - e0 + nvars - 2, nvars - 2) for e0 in range(0, degree + 1, 2)
    )


# (module, attribute, span name, counts(args, result) -> dict)
HOOKS = (
    (fixedpoints, "ideal_twist", "repring.ideal_twist",
     lambda a, r: {"scanned": invariant_count(a[0].nvars, a[1]), "kept": len(r)}),
    (fixedpoints, "fiber_rep", "fixedpoints.fiber_rep", None),
    (fixedpoints, "enumerate_h3", "fixedpoints.enumerate_h3", lambda a, r: {"points": len(r)}),
    (fixedpoints, "assemble_h4", "fixedpoints.assemble_h4", lambda a, r: {"points": len(r)}),
    (fixedpoints, "blowup_fixed_points", "fixedpoints.blowup_fixed_points",
     lambda a, r: {"candidates": len(a[0].normal_basis), "kept": len(r)}),
    (fixedpoints, "limit_ideal_oracle", "fixedpoints.limit_ideal_oracle", None),
    (fixedpoints, "lemma_injectivity_check", "fixedpoints.lemma_injectivity_check", None),
    (fixedpoints, "fixed_point_record", "fixedpoints.fixed_point_record", None),
    (bott, "bott_sum", "bott.bott_sum", lambda a, r: {"terms": len(a[0])}),
    (bott, "validate_weights", "bott.validate_weights", lambda a, r: {"rejected": int(not r)}),
    (bott, "random_weight_search", "bott.random_weight_search",
     lambda a, r: {"attempts": r[1]}),
    (cli, "run_checks", "cli.run_checks", None),
)


class Recorder:
    """In-memory span recorder that patches `HOOKS` while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None, {}]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record[4]
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span_counts:
                result = fn(*args, **kwargs)
                if counts is not None:
                    span_counts.update(counts(args, result))
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, counts in HOOKS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counts))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
