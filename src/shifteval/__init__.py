"""shifteval: policy-value estimation under covariate shift.

Estimates the value of a fixed individualized treatment rule on a testing
population from pooled training + calibration data, with semiparametric
efficient estimators, interchangeable covariate-weight backends, stratified
cross-fitting, and a Monte Carlo harness that checks the closed-form
asymptotic variances at desk scale.

The package exports each module's ``__all__``.
"""

__version__ = "0.1.0"

from . import calibration, data_model, estimators, montecarlo, nuisance
from .calibration import *
from .data_model import *
from .estimators import *
from .montecarlo import *
from .nuisance import *

__all__ = ["__version__", *calibration.__all__, *data_model.__all__, *estimators.__all__,
           *montecarlo.__all__, *nuisance.__all__]
