"""Matching-based policy learning.

Impute counterfactual outcomes by nearest-neighbor Mahalanobis matching with
optional regression bias correction, score each unit's treatment contrast,
learn a fixed-depth decision-tree policy by exact search over the scored
units, and evaluate policies on simulated or real observational data.
"""

# Each library module's __all__ is its public interface; the package
# republishes all of them, so a public name is listed once, where it is defined.
# Importing a submodule also binds it as a package attribute (advantage, ...).
from .advantage import *
from .dataset import *
from .evaluation import *
from .matching import *
from .metric import *
from .outcome_models import *
from .policytree import *
from .seeding import *
from .simulation import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (
        advantage, dataset, evaluation, matching, metric,
        outcome_models, policytree, seeding, simulation,
    )
    for name in module.__all__
]
