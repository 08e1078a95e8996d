"""The Message Roofline Model — the paper's primary contribution.

* :class:`MessageRoofline` — sharp & rounded analytic models over (message
  size, messages per synchronization);
* :func:`fit_loggp` — infer the ceilings from empirical sweep data;
* :class:`SplitModel` — message-splitting analysis (Fig. 10);
* :func:`bound_workload` — place an instrumented workload on the roofline
  (Fig. 6);
* :func:`ascii_loglog` — terminal rendering of the plots.
"""

from repro.roofline.bounds import (
    WorkloadBound,
    WorkloadProfile,
    bound_workload,
)
from repro.roofline.fit import FitResult, FloodSample, fit_loggp
from repro.roofline.model import MessageRoofline
from repro.roofline.render import Series, ascii_loglog
from repro.roofline.split import SplitModel

__all__ = [
    "MessageRoofline",
    "FitResult",
    "FloodSample",
    "fit_loggp",
    "SplitModel",
    "WorkloadBound",
    "WorkloadProfile",
    "bound_workload",
    "Series",
    "ascii_loglog",
]
