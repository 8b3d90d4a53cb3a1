"""Hyperbolic-amplitude reconstruction from dichotomous probabilistic data.

Builds split-complex (hyperbolic) probability amplitudes whose squared
moduli reproduce given marginals and transition probabilities, and
checks that the two conditioning orders yield unitarily equivalent
states.  The pipeline computes on floats; the split-complex object layer
(``qlra.algebra``, ``qlra.linear``) is imported on its own, and loaded by
qlra only where an object is handed out.

Each module's ``__all__`` is its list of public names; the package root
re-exports those lists.
"""

__version__ = "0.1.0"

from . import context, engine, equivalence, errors
from .context import *
from .engine import *
from .equivalence import *
from .errors import *

__all__ = ["__version__"]
__all__ += context.__all__
__all__ += engine.__all__
__all__ += equivalence.__all__
__all__ += errors.__all__
