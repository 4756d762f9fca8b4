"""Exact enumeration of rational trivalent tropical curves in R^n.

Counts genus-zero tropical curves of a fixed degree meeting affine
constraints in general position, each curve weighted by a lattice-index
multiplicity, so that the total is independent of the constraint choice.
"""

import logging

__version__ = "0.1.0"

# quiet unless the application configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())
