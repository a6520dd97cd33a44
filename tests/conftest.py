from __future__ import annotations

from typing import Mapping

import pytest

from quartics.fixedpoints import FixedPoint, assemble_h4, enumerate_h3
from quartics.repring import LaurentMonomial, MonomialIdeal, RepElement


@pytest.fixture(scope="session")
def h3_points():
    return enumerate_h3()


@pytest.fixture(scope="session")
def h4_points(h3_points):
    return assemble_h4(h3_points)


def fixed_point_from_record(record: Mapping) -> FixedPoint:
    """Inverse of `fixedpoints.fixed_point_record`, for the dump round trips."""
    nvars = 4 if record["hyperplane"] is None else 5
    return FixedPoint(
        stage=record["stage"],
        ideal=MonomialIdeal(
            LaurentMonomial.parse(t, nvars) for t in record["ideal"]
        ),
        tangent=RepElement(
            (LaurentMonomial.parse(t["monomial"], nvars), t["multiplicity"])
            for t in record["tangent"]
        ),
        fiber=RepElement.from_monomials(
            LaurentMonomial.parse(t, nvars) for t in record["fiber"]
        ),
        hyperplane=record["hyperplane"],
    )
