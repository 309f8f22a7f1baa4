"""Merit functions for candidate state paths.

Two discrete merit families are provided, named after the quadrature of the
drift residual they apply along a discrete path:

* Euler family: `euler_energy` scores the residual of the explicit Euler
  recursion; adding the initial-density and measurement log-likelihood terms
  gives `euler_merit`.  Its refinement limit is the energy criterion.
* Trapezoidal family: `trapezoidal_om` adds a log-determinant correction and
  averages the drift over both segment endpoints; with the density terms it
  gives `trapezoidal_merit`.  Its refinement limit is the Onsager-Machlup
  criterion, the merit whose maximiser is the MAP state path.

The continuous-time limit functionals (`continuous_energy`, `continuous_om`,
`energy_merit`, `map_merit`) evaluate the corresponding integrals for the
piecewise-linear reading of a discrete path with per-segment Gauss-Legendre
quadrature.

All discrete merits return a `MeritValue` carrying the value and its exact
gradient.  Values are extended reals: a vanishing density gives -inf (with no
gradient), never NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (DiscretePath, Diffusion, DriftModel, InitialDensity,
                    Measurements)

_LOG_2PI = math.log(2.0 * math.pi)


class MeshTooCoarseError(RuntimeError):
    """A trapezoidal log-determinant factor is not positive; refine the grid."""


@dataclass(frozen=True)
class MeritValue:
    """Extended-real merit value with its gradient in the path states.

    gradient has the same shape as the path states, (N+1, n); it is None
    exactly when value is -inf.
    """

    value: float
    gradient: Optional[np.ndarray]

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on the reference segment [0, 1].

    Applied to a grid segment of length delta, the node t_k + xi*delta gets
    weight w*delta, so the weights are positive and sum to the segment length.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss_legendre(cls, n_points: int = 3) -> "QuadratureRule":
        x, w = np.polynomial.legendre.leggauss(n_points)
        return cls(nodes=0.5 * (x + 1.0), weights=0.5 * w)


_DEFAULT_RULE = QuadratureRule.gauss_legendre(3)


def _states(path: DiscretePath) -> np.ndarray:
    x = path.states
    if not np.all(np.isfinite(x)):
        raise ValueError("path states must be finite")
    return x


def euler_energy(path: DiscretePath, drift: DriftModel,
                 diffusion: Diffusion) -> MeritValue:
    """Euler-scheme energy of a discrete path.

    Sums -delta/2 times the squared weighted norm of the Euler residual
    (increment per unit time minus the drift at the left endpoint) over all
    segments.
    """
    x = _states(path)
    t = path.grid.times
    delta = path.grid.deltas
    q = diffusion.weight
    f_left = drift.f_rows(t[:-1], x[:-1])
    resid = np.diff(x, axis=0) / delta[:, None] - f_left
    q_resid = resid @ q
    value = -0.5 * float(np.sum(delta * np.einsum("kj,kj->k", resid, q_resid)))
    jac_left = drift.jac_rows(t[:-1], x[:-1])
    grad = np.zeros_like(x)
    grad[:-1] += q_resid + delta[:, None] * np.einsum("kap,ka->kp", jac_left, q_resid)
    grad[1:] -= q_resid
    return MeritValue(value=value, gradient=grad)


def euler_merit(path: DiscretePath, drift: DriftModel, diffusion: Diffusion,
                init: InitialDensity,
                measurements: Measurements = Measurements()) -> MeritValue:
    """Euler energy plus initial-density and measurement log-likelihood terms.

    The refinement limit of its maximisers is the minimum-energy path.
    """
    base = euler_energy(path, drift, diffusion)
    extra, egrad = measurements.log_density(path, init)
    if egrad is None:
        return MeritValue(value=-math.inf, gradient=None)
    return MeritValue(value=base.value + extra, gradient=base.gradient + egrad)


def _trapezoidal_parts(path: DiscretePath, drift: DriftModel, diffusion: Diffusion):
    x = _states(path)
    t = path.grid.times
    delta = path.grid.deltas
    q = diffusion.weight
    n = x.shape[1]
    f_all = drift.f_rows(t, x)
    resid = np.diff(x, axis=0) / delta[:, None] - 0.5 * (f_all[:-1] + f_all[1:])
    q_resid = resid @ q
    quad = -0.5 * float(np.sum(delta * np.einsum("kj,kj->k", resid, q_resid)))

    jac_all = drift.jac_rows(t, x)
    factors = np.eye(n)[None] - 0.5 * delta[:, None, None] * jac_all[1:]
    sign, logabs = np.linalg.slogdet(factors)
    if np.any(sign <= 0):
        k = int(np.argmax(sign <= 0))
        raise MeshTooCoarseError(
            "trapezoidal determinant factor is not positive on segment %d "
            "(delta=%.3g); refine the time grid" % (k, delta[k])
        )
    value = float(np.sum(logabs)) + quad

    grad = np.zeros_like(x)
    grad[:-1] += q_resid + 0.5 * delta[:, None] * np.einsum(
        "kap,ka->kp", jac_all[:-1], q_resid)
    grad[1:] += -q_resid + 0.5 * delta[:, None] * np.einsum(
        "kap,ka->kp", jac_all[1:], q_resid)
    inv_t = np.transpose(np.linalg.inv(factors), (0, 2, 1))
    grad[1:] += -0.5 * delta[:, None] * drift.jdc_rows(t[1:], x[1:], inv_t)
    return value, grad


def trapezoidal_om(path: DiscretePath, drift: DriftModel,
                   diffusion: Diffusion) -> MeritValue:
    """Trapezoidal-scheme Onsager-Machlup value of a discrete path.

    Per segment: the log-determinant of I - (delta/2) * jac at the right
    endpoint, minus delta/2 times the squared weighted norm of the increment
    rate minus the endpoint-averaged drift.  Determinants are evaluated by LU
    factorisation with sign tracking; a non-positive factor raises
    MeshTooCoarseError.
    """
    value, grad = _trapezoidal_parts(path, drift, diffusion)
    return MeritValue(value=value, gradient=grad)


def trapezoidal_merit(path: DiscretePath, drift: DriftModel, diffusion: Diffusion,
                      init: InitialDensity,
                      measurements: Measurements = Measurements()) -> MeritValue:
    """Trapezoidal Onsager-Machlup value plus density terms.

    The refinement limit of its maximisers is the MAP state path.
    """
    value, grad = _trapezoidal_parts(path, drift, diffusion)
    extra, egrad = measurements.log_density(path, init)
    if egrad is None:
        return MeritValue(value=-math.inf, gradient=None)
    return MeritValue(value=value + extra, gradient=grad + egrad)


def _segment_nodes(path: DiscretePath, rule: QuadratureRule):
    """Quadrature nodes along the piecewise-linear path, row-stacked."""
    t = path.grid.times
    x = path.states
    delta = path.grid.deltas
    xi = rule.nodes
    t_nodes = t[:-1, None] + xi[None, :] * delta[:, None]
    inc = np.diff(x, axis=0)
    x_nodes = x[:-1, None, :] + xi[None, :, None] * inc[:, None, :]
    return t_nodes, x_nodes


def continuous_energy(path: DiscretePath, drift: DriftModel, diffusion: Diffusion,
                      rule: QuadratureRule = _DEFAULT_RULE) -> float:
    """Energy functional of the piecewise-linear path, -1/2 the integral of
    the squared weighted norm of (slope - drift), by per-segment quadrature."""
    x = _states(path)
    delta = path.grid.deltas
    slope = np.diff(x, axis=0) / delta[:, None]
    t_nodes, x_nodes = _segment_nodes(path, rule)
    n_seg, n_q = t_nodes.shape
    f_nodes = drift.f_rows(t_nodes.ravel(),
                           x_nodes.reshape(-1, x.shape[1])).reshape(n_seg, n_q, -1)
    resid = slope[:, None, :] - f_nodes
    sq = np.einsum("kqa,ab,kqb->kq", resid, diffusion.weight, resid)
    return -0.5 * float(np.sum(delta * (sq @ rule.weights)))


def continuous_om(path: DiscretePath, drift: DriftModel, diffusion: Diffusion,
                  rule: QuadratureRule = _DEFAULT_RULE) -> float:
    """Onsager-Machlup functional of the piecewise-linear path: the energy
    integrand plus the drift divergence, both under -1/2 the integral."""
    x = _states(path)
    t_nodes, x_nodes = _segment_nodes(path, rule)
    n_seg, n_q = t_nodes.shape
    div_nodes = drift.div_rows(t_nodes.ravel(),
                               x_nodes.reshape(-1, x.shape[1])).reshape(n_seg, n_q)
    div_int = float(np.sum(path.grid.deltas * (div_nodes @ rule.weights)))
    return continuous_energy(path, drift, diffusion, rule) - 0.5 * div_int


def energy_merit(path: DiscretePath, drift: DriftModel, diffusion: Diffusion,
                 init: InitialDensity,
                 measurements: Measurements = Measurements(),
                 rule: QuadratureRule = _DEFAULT_RULE) -> float:
    """Continuous energy functional plus density terms (extended real)."""
    extra, egrad = measurements.log_density(path, init)
    if egrad is None:
        return -math.inf
    return continuous_energy(path, drift, diffusion, rule) + extra


def map_merit(path: DiscretePath, drift: DriftModel, diffusion: Diffusion,
              init: InitialDensity,
              measurements: Measurements = Measurements(),
              rule: QuadratureRule = _DEFAULT_RULE) -> float:
    """Continuous Onsager-Machlup functional plus density terms (extended real).

    This is the merit whose maximiser over paths is the MAP state path."""
    extra, egrad = measurements.log_density(path, init)
    if egrad is None:
        return -math.inf
    return continuous_om(path, drift, diffusion, rule) + extra


def _log_cosh(x: np.ndarray) -> np.ndarray:
    # Stable for large |x|: log cosh x = |x| + log1p(exp(-2|x|)) - log 2.
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def benes_exact_merit(path: DiscretePath, init: InitialDensity,
                      measurements: Measurements = Measurements()) -> MeritValue:
    """Merit using the exact transition density of the scalar tanh-drift model.

    Sums the closed-form transition log-densities over the segments plus the
    usual density terms.  Only defined for scalar paths.  The closed form is
    validated once per process against its normalisation oracle before use.
    """
    from . import oracle  # deferred: oracle also consumes this module

    oracle.ensure_benes_transition_validated()
    x = _states(path)
    if x.shape[1] != 1:
        raise ValueError("the exact-transition merit is scalar only")
    xs = x[:, 0]
    delta = path.grid.deltas
    inc = np.diff(xs)
    lc = _log_cosh(xs)
    value = float(np.sum(lc[1:] - lc[:-1] - 0.5 * delta
                         - inc * inc / (2.0 * delta)
                         - 0.5 * (_LOG_2PI + np.log(delta))))
    th = np.tanh(xs)
    rate = inc / delta
    grad = np.zeros_like(x)
    grad[:-1, 0] += -th[:-1] + rate
    grad[1:, 0] += th[1:] - rate
    extra, egrad = measurements.log_density(path, init)
    if egrad is None:
        return MeritValue(value=-math.inf, gradient=None)
    return MeritValue(value=value + extra, gradient=grad + egrad)
