"""Inputs of the benchmark, generated from its seed."""

from __future__ import annotations

import json
import random
import re
from typing import Iterator, Sequence

WEIGHT_RANGE = (1, 10_000)

_FACTOR = re.compile(r"x(\d+)(?:\^(-?\d+))?")


def tangent_characters(dump: bytes) -> list[tuple[int, ...]]:
    """Exponent vectors of every tangent character in a ``fixed-points --json`` dump."""
    characters = set()
    for record in json.loads(dump):
        for term in record["tangent"]:
            exps = [0] * 5
            for index, power in _FACTOR.findall(term["monomial"]):
                exps[int(index)] += int(power or 1)
            characters.add(tuple(exps))
    return sorted(characters)


def usable_weights(label: str, characters: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """Endless, seeded stream of weight vectors that no tangent character vanishes on.

    Five distinct integers from WEIGHT_RANGE, as the program's own search
    draws them.  A vector on one of the bad hyperplanes is skipped here, so
    every op gets an input the program must accept.
    """
    rng = random.Random(label)
    lo, hi = WEIGHT_RANGE
    while True:
        w = rng.sample(range(lo, hi + 1), 5)
        if all(sum(p * x for p, x in zip(c, w)) for c in characters):
            yield tuple(w)
