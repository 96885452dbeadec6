import doctest
import sys

import pytest

import exotwist.arith
import exotwist.certify
import exotwist.ko_ring
import exotwist.milnor
import exotwist.torus_knot


@pytest.mark.parametrize(
    "module",
    # exotwist.certify as a package attribute is the function
    [exotwist.arith, sys.modules["exotwist.certify"], exotwist.milnor, exotwist.torus_knot,
     exotwist.ko_ring],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
