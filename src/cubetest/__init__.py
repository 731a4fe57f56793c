"""cubetest: a laboratory for property testing of monotonicity and unateness.

The package is organized as:

* :mod:`cubetest.core` -- hypercube points, index sets, deterministic
  counter-based random streams.
* :mod:`cubetest.families` -- the random function families and their
  standard value oracles.
* :mod:`cubetest.sigoracle` -- the stronger signature oracles.
* :mod:`cubetest.transcripts` -- transcript bookkeeping (induced tuples),
  bad-edge classifiers and breach checks.
* :mod:`cubetest.likelihood` -- exact transcript likelihood formulas with
  brute-force counterparts.
* :mod:`cubetest.testers` -- the edge tester, the staged violation-finding
  attacks, and orientation search.
* :mod:`cubetest.distance` -- exact distances to monotone/unate and
  Monte-Carlo farness estimators.
* :mod:`cubetest.experiments` / :mod:`cubetest.cli` -- named experiments,
  CSV persistence, and the command-line front end.
"""

from .core import BitString, IndexSet, RngStream
from .families import (
    FlippedDnfInstance,
    Clause,
    Dictator,
    QuadrantInstance,
    MonoInstance,
    OneLevelInstance,
    Route,
    Term,
    UnateInstance,
    instance_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "IndexSet",
    "RngStream",
    "Term",
    "Clause",
    "Dictator",
    "Route",
    "MonoInstance",
    "FlippedDnfInstance",
    "OneLevelInstance",
    "UnateInstance",
    "QuadrantInstance",
    "instance_from_json",
    "__version__",
]
