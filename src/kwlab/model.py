"""Model parameters, damping/source nonlinearities and structural checks.

The system under study is a wave equation on a domain whose free boundary
piece carries its own kinetic equation:

    u_tt - lap u   + alpha*(a|u_t|^{mt-2}u_t + |u_t|^{m-2}u_t) = gamma*|u|^{p-2}u   (interior)
    u_tt + du/dnu - lapS u + beta*(b|u_t|^{qt-2}u_t + |u_t|^{mu-2}u_t) = delta*|u|^{q-2}u  (free boundary)
    u = 0                                                                (pinned boundary)

with mt = m_tilde, qt = mu_tilde.  Everything here is a pure function of the
parameter record and scalar/array inputs.

The four nonlinear terms share one form, weight*(h(v, e) + w2*h(v, e2)) with
h(v, e) = |v|^{e-2}v: the dampings P = (alpha, m, a, mt) and Q = (beta, mu,
b, qt), and the sources f = (gamma, p) and g = (delta, q) with w2 = 0.  The
derivatives P' and Q' that the implicit damping kick needs take the same
form with h' = (e-1)|v|^{e-2}.  _term evaluates it once for all six; a zero
weight gives exactly zero and a zero w2 drops the second summand.  |v| and
sign(v) are taken once per term and shared by both summands.
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


def differs(x, value) -> bool:
    """x != value, for a parameter held as a float or as one value per cell.

    A stack of cells holds a parameter as an array only where its cells
    disagree on it, so an array differs from any single value; the cells of
    a stack agree on which weights are zero, so an array weight is nonzero
    in every cell.
    """
    return isinstance(x, np.ndarray) or x != value


# NumPy's ** evaluates these scalar exponents by reciprocal, ones, sqrt,
# positive and square, which can differ from pow in the last bit
_SHORTCUT_EXPONENTS = (-1.0, 0.0, 0.5, 1.0, 2.0)


def abs_power(abs_v, s):
    """abs_v**s for abs_v = |v| and s a float or one exponent per cell.

    A cell whose exponent NumPy takes by a shortcut is raised on its own with
    a float exponent, so each cell's bits are those of its own field.
    """
    out = abs_v ** s
    if isinstance(s, np.ndarray):
        for i, s_cell in enumerate(s.flat):
            if s_cell in _SHORTCUT_EXPONENTS:
                out[i] = abs_v[i] ** float(s_cell)
    return out


def _term(weight, e, weight2, e2, v, prime=False):
    """weight*(h(v, e) + weight2*h(v, e2)), h the odd power or, for prime, its
    derivative (see the module docstring); |v| and sign(v) are taken only if
    read.  An exponent array (one value per cell) takes the general formula."""
    if not differs(weight, 0.0):
        return np.zeros_like(np.asarray(v, dtype=float)) if np.ndim(v) else 0.0
    v = np.asarray(v, dtype=float)
    second = differs(weight2, 0.0)
    signed = not prime and (differs(e, 2.0) or (second and differs(e2, 2.0)))
    abs_v = np.abs(v) if prime or signed else None
    sign_v = np.sign(v) if signed else None

    def h(s):
        if prime:  # inf at v = 0 when s < 2; the prime callers silence it
            return (s - 1.0) * abs_power(abs_v, s - 2.0)
        if not differs(s, 2.0):
            return v + 0.0  # sign(v)*|v|**1.0 exactly, including -0.0 -> +0.0
        return sign_v * abs_power(abs_v, s - 1.0)

    out = h(e)
    if second:
        out = out + weight2 * h(e2)
    out = weight * out
    return float(out) if out.ndim == 0 else out


def damping_P(params: ModelParams, v):
    """Interior damping alpha*(a|v|^{m_tilde-2}v + |v|^{m-2}v); odd, nondecreasing."""
    return _term(params.alpha, params.m, params.a, params.m_tilde, v)


def damping_Q(params: ModelParams, v):
    """Boundary damping beta*(b|v|^{mu_tilde-2}v + |v|^{mu-2}v)."""
    return _term(params.beta, params.mu, params.b, params.mu_tilde, v)


def damping_P_prime(params: ModelParams, v):
    """dP/dv = alpha*(a(m_tilde-1)|v|^{m_tilde-2} + (m-1)|v|^{m-2}) >= 0."""
    with np.errstate(divide="ignore"):
        return _term(params.alpha, params.m, params.a, params.m_tilde, v, prime=True)


def damping_Q_prime(params: ModelParams, v):
    """dQ/dv = beta*(b(mu_tilde-1)|v|^{mu_tilde-2} + (mu-1)|v|^{mu-2}) >= 0."""
    with np.errstate(divide="ignore"):
        return _term(params.beta, params.mu, params.b, params.mu_tilde, v, prime=True)


def source_f(params: ModelParams, u):
    """Interior source gamma * |u|^{p-2} u."""
    return _term(params.gamma, params.p, 0.0, None, u)


def source_g(params: ModelParams, u):
    """Boundary source delta * |u|^{q-2} u."""
    return _term(params.delta, params.q, 0.0, None, u)


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
