"""Count rational quartic curves on a sextic hypersurface in P(2,1,1,1,1).

The package enumerates the torus-fixed points of the Hilbert-scheme
component parameterizing the quartics (126 points over each invariant
hyperplane, 504 in total), attaches to each point its tangent and
bundle-fiber representations, and evaluates Bott's localization formula
in exact rational arithmetic.  The resulting count is 6028452.

Modules
-------
repring
    Torus characters as Laurent monomials, monomial ideals, invariant
    section spaces, ideal twists.
fixedpoints
    Fixed-point enumeration: Grassmannian stage, two blow-up stages,
    flat-limit ideals, assembly over the dual projective space.
bott
    Weight specialization and the exact localization sum.
checks
    The invariant suite behind ``quartics verify``.
cli
    The ``quartics`` command-line driver.
"""

from .bott import LocalizationResult, bott_sum
from .fixedpoints import FixedPoint, assemble_h4, enumerate_h3

__version__ = "0.1.0"

__all__ = ["FixedPoint", "LocalizationResult", "assemble_h4", "bott_sum", "enumerate_h3"]
