"""riskcal: coherent monetary utilities on finite filtered probability spaces.

Exact-rational outcome spaces, Choquet/distortion and scenario-set
utilities, conditional evaluation with time-consistency audits, and the
commonotone lift construction that pins the two notions against each other.
"""

# each module's public names; riskcal.cli stays out, so importing riskcal loads no argparse or numpy
from .space import *
from .utility import *
from .conditional import *
from .lift import *
from .io import *

__all__ = space.__all__ + utility.__all__ + conditional.__all__ + lift.__all__ + io.__all__

__version__ = "0.1.0"
