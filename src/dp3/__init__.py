"""Exact computations on the dP3 brane tiling: cluster variables from the
period-6 mutation sequence, diamond subgraphs, and their weighted perfect
matching polynomials.

The package exports the functions the README documents and the exceptions
they raise; everything else is imported from its submodule."""

from .laurent import NotDivisibleError
from .quiver import recurrence_y
from .calibration import CalibrationError, calibrate, default_scheme
from .diamonds import build_diamond, covering_monomial
from .matchings import weighted_pm_sum

__all__ = [
    "NotDivisibleError",
    "recurrence_y",
    "CalibrationError",
    "calibrate",
    "default_scheme",
    "build_diamond",
    "covering_monomial",
    "weighted_pm_sum",
]

__version__ = "0.1.0"
