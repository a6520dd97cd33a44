"""Keep the examples embedded in docstrings honest."""

import doctest

import pytest

from quartics import bott, fixedpoints, repring


@pytest.mark.parametrize("module", [repring, fixedpoints, bott], ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
