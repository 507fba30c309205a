"""Model parameters, damping/source nonlinearities and structural checks.

The system under study is a wave equation on a domain whose free boundary
piece carries its own kinetic equation:

    u_tt - lap u   + alpha*(a|u_t|^{mt-2}u_t + |u_t|^{m-2}u_t) = gamma*|u|^{p-2}u   (interior)
    u_tt + du/dnu - lapS u + beta*(b|u_t|^{qt-2}u_t + |u_t|^{mu-2}u_t) = delta*|u|^{q-2}u  (free boundary)
    u = 0                                                                (pinned boundary)

with mt = m_tilde, qt = mu_tilde.  Everything here is a pure function of the
parameter record and scalar/array inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import regimes

__all__ = [
    "ModelParams",
    "AssumptionReport",
    "damping_P",
    "damping_Q",
    "damping_P_prime",
    "damping_Q_prime",
    "source_f",
    "source_g",
    "check_assumptions",
]


@dataclass(frozen=True)
class ModelParams:
    """Parameter record; constraints are validated at construction.

    N is the space dimension seen by the classifier only (the simulator is
    two-dimensional).  a, b weigh the secondary damping powers; alpha, beta
    switch/weigh the interior and boundary damping; gamma, delta weigh the
    sources.  Exponents: 1 < m_tilde <= m, 1 < mu_tilde <= mu, p, q >= 2.
    m_tilde / mu_tilde default to min(2, m) / min(2, mu).
    """

    N: int = 2
    a: float = 0.0
    b: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    m: float = 2.0
    mu: float = 2.0
    m_tilde: float | None = None
    mu_tilde: float | None = None
    p: float = 2.0
    q: float = 2.0

    def __post_init__(self):
        if not (2 <= self.N < math.inf and self.N == int(self.N)):
            raise ValueError(f"N must be an integer >= 2, got {self.N}")
        object.__setattr__(self, "N", int(self.N))
        for name in ("a", "b", "alpha", "beta", "gamma", "delta"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"constraint violated: 0 <= {name} < inf "
                                 f"(got {getattr(self, name)})")
        if self.m_tilde is None:
            object.__setattr__(self, "m_tilde", min(2.0, float(self.m)))
        if self.mu_tilde is None:
            object.__setattr__(self, "mu_tilde", min(2.0, float(self.mu)))
        for name in ("m", "mu", "m_tilde", "mu_tilde", "p", "q"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 1.0 < self.m_tilde <= self.m < math.inf:
            raise ValueError(
                f"constraint violated: 1 < m_tilde <= m < inf "
                f"(m_tilde={self.m_tilde}, m={self.m})")
        if not 1.0 < self.mu_tilde <= self.mu < math.inf:
            raise ValueError(
                f"constraint violated: 1 < mu_tilde <= mu < inf "
                f"(mu_tilde={self.mu_tilde}, mu={self.mu})")
        if not 2 <= self.p < math.inf:
            raise ValueError(f"constraint violated: 2 <= p < inf (got {self.p})")
        if not 2 <= self.q < math.inf:
            raise ValueError(f"constraint violated: 2 <= q < inf (got {self.q})")

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))


def _odd_power(v, e: float):
    """|v|^(e-2) * v with the continuous extension 0 at v=0 (valid for e>1)."""
    v = np.asarray(v, dtype=float)
    if e == 2.0:
        out = v + 0.0  # sign(v)*|v|**1.0 exactly, including -0.0 -> +0.0
    else:
        out = np.sign(v) * np.abs(v) ** (e - 1.0)
    if out.ndim == 0:
        return float(out)
    return out


def _odd_power_prime(v, e: float):
    """(e-1)|v|^(e-2), the derivative of _odd_power; inf at v=0 when e<2."""
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore"):
        out = (e - 1.0) * np.abs(v) ** (e - 2.0)
    if out.ndim == 0:
        return float(out)
    return out


def damping_P(params: ModelParams, v):
    """Interior damping alpha*(a|v|^{m_tilde-2}v + |v|^{m-2}v); odd, nondecreasing."""
    if params.alpha == 0.0:
        return np.zeros_like(np.asarray(v, dtype=float)) if np.ndim(v) else 0.0
    out = _odd_power(v, params.m)
    if params.a != 0.0:
        out = out + params.a * _odd_power(v, params.m_tilde)
    return params.alpha * out


def damping_Q(params: ModelParams, v):
    """Boundary damping beta*(b|v|^{mu_tilde-2}v + |v|^{mu-2}v)."""
    if params.beta == 0.0:
        return np.zeros_like(np.asarray(v, dtype=float)) if np.ndim(v) else 0.0
    out = _odd_power(v, params.mu)
    if params.b != 0.0:
        out = out + params.b * _odd_power(v, params.mu_tilde)
    return params.beta * out


def damping_P_prime(params: ModelParams, v):
    """dP/dv = alpha*(a(m_tilde-1)|v|^{m_tilde-2} + (m-1)|v|^{m-2}) >= 0."""
    if params.alpha == 0.0:
        return np.zeros_like(np.asarray(v, dtype=float)) if np.ndim(v) else 0.0
    out = _odd_power_prime(v, params.m)
    if params.a != 0.0:
        out = out + params.a * _odd_power_prime(v, params.m_tilde)
    return params.alpha * out


def damping_Q_prime(params: ModelParams, v):
    """dQ/dv = beta*(b(mu_tilde-1)|v|^{mu_tilde-2} + (mu-1)|v|^{mu-2}) >= 0."""
    if params.beta == 0.0:
        return np.zeros_like(np.asarray(v, dtype=float)) if np.ndim(v) else 0.0
    out = _odd_power_prime(v, params.mu)
    if params.b != 0.0:
        out = out + params.b * _odd_power_prime(v, params.mu_tilde)
    return params.beta * out


def source_f(params: ModelParams, u):
    """Interior source gamma * |u|^{p-2} u."""
    if params.gamma == 0.0:
        return np.zeros_like(np.asarray(u, dtype=float)) if np.ndim(u) else 0.0
    return params.gamma * _odd_power(u, params.p)


def source_g(params: ModelParams, u):
    """Boundary source delta * |u|^{q-2} u."""
    if params.delta == 0.0:
        return np.zeros_like(np.asarray(u, dtype=float)) if np.ndim(u) else 0.0
    return params.delta * _odd_power(u, params.q)


@dataclass(frozen=True)
class AssumptionReport:
    """Which structural hypotheses the parameter record realizes.

    local_theory: the local-theory package (parameter constraints + growth
    bounds), i.e. regimes.wellposed_ok.
    a6: the extra subcriticality giving uniqueness in high dimension.
    f1/g1: superlinear source lower bounds f(u)u - 2F(u) >= gamma0|u|^p - gamma1
    (resp. delta0, delta1, exponent q); for pure powers the sharp constants
    are gamma0 = gamma(1 - 2/p), gamma1 = 0 (and the boundary analogues).
    g2: boundary-source homogeneity g(u)u >= q_bar G(u) >= 0 with q_bar = q.
    """

    local_theory: bool
    a6: bool
    f1: bool
    g1: bool
    g2: bool
    gamma0: float
    gamma1: float
    delta0: float
    delta1: float
    q_bar: float


def check_assumptions(params: ModelParams) -> AssumptionReport:
    """Evaluate the structural hypotheses for the pure-power model family."""
    return AssumptionReport(
        local_theory=regimes.wellposed_ok(params),
        a6=regimes.uniqueness_extra_ok(params),
        f1=params.gamma > 0 and params.p > 2,
        g1=params.delta > 0 and params.q > 2,
        g2=params.q > 2,
        gamma0=params.gamma * (1.0 - 2.0 / params.p),
        gamma1=0.0,
        delta0=params.delta * (1.0 - 2.0 / params.q),
        delta1=0.0,
        q_bar=params.q,
    )
