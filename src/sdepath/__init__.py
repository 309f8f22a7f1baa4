"""State-path estimation for diffusion models.

Discrete path merit functions (Euler and trapezoidal families), their
continuous-time limit functionals, a Gauss-Newton path optimiser on their
block-tridiagonal curvature with nested-grid convergence studies,
sample-path simulation, and independent oracles for cross-checking.
"""

from .model import (TimeGrid, DiscretePath, Diffusion, InitialDensity,
                    DriftModel, Measurements, GridError, ValidationReport,
                    builtin_model, make_uniform_grid, validate_model)
from .functionals import (MeritValue, MeshTooCoarseError, QuadratureRule,
                          benes_exact_merit, continuous_energy, continuous_om,
                          energy_merit, euler_energy, euler_merit, map_merit,
                          trapezoidal_merit, trapezoidal_om)
from .optimizer import (ConvergenceStudy, OptimizationResult,
                        OptimizerOptions, StudyProblem, convergence_study,
                        initial_path, maximize, sup_distance)
from .simulate import (MeasurementSample, RngStream, SimulationError,
                       euler_maruyama, order15_step, polar_normal,
                       sample_measurements, strong_order_15, wiener_pair)
from .cli import (ConfigError, IseRecord, MeasurementProtocol, compute_ise,
                  load_config)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
