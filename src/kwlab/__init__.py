"""kwlab: blow-up vs. global existence lab for damped wave equations
with kinetic (dynamic) boundary conditions on an annulus.

The package has three layers:

* parameter-space classification (:mod:`kwlab.regimes`, :mod:`kwlab.model`)
  deciding, from exponents and damping/source weights alone, whether a
  configuration is covered by the global-existence or blow-up criteria;
* an energy-consistent radial/angular finite-difference simulator
  (:mod:`kwlab.geometry`, :mod:`kwlab.functionals`, :mod:`kwlab.solver`)
  that tracks the energy identity and detects finite-time blow-up;
* a scalar ODE oracle (:mod:`kwlab.oracle`) that computes the blow-up
  time of the comparison ODE two independent ways, by quadrature and by
  integrating the ODE.
"""

from .functionals import (
    REPORT_COLUMNS,
    EnergyReport,
    State,
    default_k,
    dissipation_rate,
    energy_identity_residual,
    make_report,
)
from .geometry import AnnulusMesh, build_annulus
from .model import ModelParams
from .oracle import OdeProblem, blowup_time, integrate_comparison
from .regimes import (
    VERDICTS,
    CriticalExponents,
    RegimeVerdict,
    classify,
    critical_exponents,
)
from .solver import (
    BlowupReport,
    SimConfig,
    negative_energy_data,
    simulate,
    simulate_batch,
)

__version__ = "0.1.0"

__all__ = [
    "AnnulusMesh",
    "BlowupReport",
    "CriticalExponents",
    "EnergyReport",
    "ModelParams",
    "OdeProblem",
    "REPORT_COLUMNS",
    "RegimeVerdict",
    "SimConfig",
    "State",
    "VERDICTS",
    "blowup_time",
    "build_annulus",
    "classify",
    "critical_exponents",
    "default_k",
    "dissipation_rate",
    "energy_identity_residual",
    "integrate_comparison",
    "make_report",
    "negative_energy_data",
    "simulate",
    "simulate_batch",
]
