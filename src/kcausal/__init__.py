"""Causal precedence of exact-rational measures on finite causal spaces.

The package decides whether one probability measure can be transported onto
another along the smallest closed transitive relation containing a raw
causal relation, produces witness couplings or violating-subset
certificates, and ships property suites asserting the supporting facts
(closedness under limits, transitivity, the five-condition equivalence
chain, the subset-inequality characterization, and the time-function
characterization) on randomly generated instances.
"""

# Each library module's __all__ is the one list of its public names; the
# package republishes exactly those.
from . import errors, harness, measures, structure, timefunctions, transport
from .errors import *
from .harness import *
from .measures import *
from .structure import *
from .timefunctions import *
from .transport import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (errors, harness, measures, structure, timefunctions, transport)
    for name in module.__all__
)
