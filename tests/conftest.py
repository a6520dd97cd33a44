from __future__ import annotations

import re
from itertools import groupby
from typing import Mapping, Sequence

import pytest

from quartics.fixedpoints import FixedPoint, assemble_h4, enumerate_h3
from quartics.repring import LaurentMonomial, MonomialIdeal


@pytest.fixture(scope="session")
def h3_points():
    return enumerate_h3()


@pytest.fixture(scope="session")
def h4_points(h3_points):
    return assemble_h4(h3_points)


_FACTOR = re.compile(r"x(\d+)(?:\^(-?\d+))?")


def parse_monomial(text: str, nvars: int) -> LaurentMonomial:
    """Inverse of `str(LaurentMonomial)`: 'x0^2*x1^-1' gives (2, -1, 0, ...).

    Factors may come in any order; anything else raises ValueError.
    """
    exps = [0] * nvars
    if text != "1":
        for factor in text.split("*"):
            match = _FACTOR.fullmatch(factor)
            if match is None or int(match[1]) >= nvars:
                raise ValueError(f"malformed monomial: {text!r}")
            exps[int(match[1])] += int(match[2] or 1)
    return LaurentMonomial(exps)


#: Ideals written by hand, beside the fixed-point ideals, for the slice
#: and lemma oracles: a common factor, a pure power pair, mixed degrees.
HAND_IDEALS = [
    MonomialIdeal(parse_monomial(t, 4) for t in texts)
    for texts in (("x1*x2", "x1*x3"), ("x0^2", "x1^2"), ("x1^2", "x1*x2", "x0^2*x2"))
]


def remap(m: LaurentMonomial, perm: Sequence[int], nvars: int) -> LaurentMonomial:
    """Carry a monomial into a ring of `nvars` characters, where character i
    becomes character perm[i]: the relabelings the symmetry tests apply."""
    exps = [0] * nvars
    for i, e in zip(perm, m, strict=True):
        exps[i] += e
    return LaurentMonomial(exps)


def record_dict(point: FixedPoint) -> dict:
    """A point's dump record as a dict, the independent oracle for the text
    of `fixedpoints.fixed_point_record`: ideal and fiber as monomial strings
    in canonical order, tangent as (monomial, multiplicity) pairs, one per
    run of equal characters."""
    return {
        "stage": point.stage,
        "hyperplane": point.hyperplane,
        "ideal": [str(g) for g in point.ideal],
        "tangent": [
            {"monomial": str(m), "multiplicity": len(list(run))}
            for m, run in groupby(point.tangent)
        ],
        "fiber": list(map(str, point.fiber)),
    }


def fixed_point_from_record(record: Mapping) -> FixedPoint:
    """Inverse of `record_dict`, for the dump round trips."""
    nvars = 4 if record["hyperplane"] is None else 5
    return FixedPoint(
        stage=record["stage"],
        ideal=MonomialIdeal(parse_monomial(t, nvars) for t in record["ideal"]),
        tangent=tuple(
            m
            for t in record["tangent"]
            for m in [parse_monomial(t["monomial"], nvars)] * t["multiplicity"]
        ),
        fiber=tuple(parse_monomial(t, nvars) for t in record["fiber"]),
        hyperplane=record["hyperplane"],
    )
