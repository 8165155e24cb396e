"""courtlearn: online learning of decision rules through costly court queries.

A simulator and policy library for a setting where an unknown decision rule
can only be observed by sending cases to court, at a cost, and strategic
agents choose between settling and litigating.  Selection policies compel or
subsidize court appearances; analytics compare each policy's cumulative loss
to an offline baseline.

The package exports exactly the names in its modules' ``__all__`` lists.
"""

from . import core, learners, policies, sim, config, experiment
from .core import *
from .learners import *
from .policies import *
from .sim import *
from .config import *
from .experiment import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *learners.__all__,
    *policies.__all__,
    *sim.__all__,
    *config.__all__,
    *experiment.__all__,
]
