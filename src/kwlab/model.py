"""Model parameters and the plan that evaluates the damping/source nonlinearities.

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
form with h' = (e-1)|v|^{e-2}.  A plan (_Plan) resolves each term's branches
once: whether its weight is zero (the term is off and evaluates to zeros) or
the number 1 (not applied), whether w2 is zero (no second summand), and for
each summand whether its exponent is the number 2 (then h(v) = v).  The
exponents NumPy's ** takes by a shortcut are found once too (_Power), and so
are the slopes of linear dampings (lin).  The solver builds a plan when a
stack of several cells forms; a single record's plan, ModelParams._plan, is
built on first use and serves every one-cell run.  |v| and sign(v) are taken
once per evaluation; a caller that evaluates a term and its derivative at one
v passes |v| to both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

__all__ = ["ModelParams"]


@dataclass(frozen=True, init=False)
class ModelParams:
    """Parameter record; constraints are validated at construction.

    N is the space dimension seen by the classifier only (the simulator is
    two-dimensional).  a, b weigh the secondary damping powers; alpha, beta
    switch/weigh the interior and boundary damping; gamma, delta weigh the
    sources.  Exponents: 1 < m_tilde <= m, 1 < mu_tilde <= mu, p, q >= 2.
    m_tilde / mu_tilde default to min(2, m) / min(2, mu).
    """

    N: int
    a: float
    b: float
    alpha: float
    beta: float
    gamma: float
    delta: float
    m: float
    mu: float
    m_tilde: float
    mu_tilde: float
    p: float
    q: float

    def __init__(self, N=2, a=0.0, b=0.0, alpha=0.0, beta=0.0, gamma=0.0, delta=0.0,
                 m=2.0, mu=2.0, m_tilde=None, mu_tilde=None, p=2.0, q=2.0):
        # checked on the arguments, then stored in one write past the frozen __setattr__
        if not (2 <= N < math.inf and N == int(N)):
            raise ValueError(f"N must be an integer >= 2, got {N}")
        weights = (a, b, alpha, beta, gamma, delta)
        for value in weights:
            if not 0 <= value < math.inf:  # an equal earlier weight would have failed first
                name = ("a", "b", "alpha", "beta", "gamma", "delta")[weights.index(value)]
                raise ValueError(f"constraint violated: 0 <= {name} < inf (got {value})")
        # exact floats: np.float64 is a float subclass with another repr
        m, mu = float(m), float(mu)
        m_tilde = self.default_tilde(m) if m_tilde is None else float(m_tilde)
        mu_tilde = self.default_tilde(mu) if mu_tilde is None else float(mu_tilde)
        p, q = float(p), float(q)
        if not 1.0 < m_tilde <= m < math.inf:
            raise ValueError(
                f"constraint violated: 1 < m_tilde <= m < inf (m_tilde={m_tilde}, m={m})")
        if not 1.0 < mu_tilde <= mu < math.inf:
            raise ValueError(
                f"constraint violated: 1 < mu_tilde <= mu < inf (mu_tilde={mu_tilde}, mu={mu})")
        if not 2 <= p < math.inf:
            raise ValueError(f"constraint violated: 2 <= p < inf (got {p})")
        if not 2 <= q < math.inf:
            raise ValueError(f"constraint violated: 2 <= q < inf (got {q})")
        self.__dict__.update(N=int(N), a=a, b=b, alpha=alpha, beta=beta, gamma=gamma,
                             delta=delta, m=m, mu=mu, m_tilde=m_tilde, mu_tilde=mu_tilde,
                             p=p, q=q)

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_dict(cls, doc: dict) -> ModelParams:
        """Build from a JSON-style object whose keys are field names."""
        bad = set(doc) - set(cls.field_names())
        if bad:
            raise ValueError(f"unknown model parameters: {sorted(bad)}")
        return cls(**doc)

    @staticmethod
    def default_tilde(exponent: float) -> float:
        """The default m_tilde of m, and mu_tilde of mu."""
        return min(2.0, float(exponent))

    @cached_property
    def _plan(self) -> _Plan:
        """The record's terms, resolved on first use; construction stays
        cheap for the records that are only classified."""
        return _Plan([self])


# NumPy's ** evaluates these scalar exponents by reciprocal, ones, sqrt,
# positive and square, which can differ from pow in the last bit
_SHORTCUT_EXPONENTS = (-1.0, 0.0, 0.5, 1.0, 2.0)


class _Power:
    """x**s for x >= 0 and a fixed exponent s, a float or one value per cell.

    A cell whose exponent NumPy takes by a shortcut is listed once and raised
    on its own with a float exponent, so each cell's bits are those of its
    own field.
    """

    __slots__ = ("s", "cells")

    def __init__(self, s):
        self.s = s
        self.cells = ([(i, c) for i, c in enumerate(s.ravel().tolist()) if c in _SHORTCUT_EXPONENTS]
                      if isinstance(s, np.ndarray) else [])

    def __call__(self, x):
        out = x ** self.s
        for i, s_cell in self.cells:
            out[i] = x[i] ** s_cell
        return out


class _Term:
    """weight*(h(v, e) + weight2*h(v, e2)), h the odd power (see the module
    docstring), with its branches resolved at construction.

    A zero weight makes the term off: it evaluates to zeros.  A zero weight2
    drops the second summand.  A weight that is the number 1 is not applied,
    since x*1.0 is x.  A summand whose exponent is the number 2 is h(v) = v;
    the others raise |v| through a _Power.  `linear` holds when the term is
    off or every summand is h(v) = v, so the term is weight*(1 + weight2)*v.
    Otherwise the term sums the unsigned summands and multiplies by sign(v)
    once, which is exact since sign(v) is -1, +0, +1 or nan.  A caller that
    has |v| passes it as abs_v.
    """

    __slots__ = ("on", "second", "weight", "e", "weight2", "linear", "_unit", "_powers",
                 "_slopes")

    def __init__(self, weight, e, weight2=0.0, e2=None):
        self.on = isinstance(weight, np.ndarray) or weight != 0.0
        self.second = isinstance(weight2, np.ndarray) or weight2 != 0.0
        self._unit = not isinstance(weight, np.ndarray) and weight == 1.0
        self.weight, self.e, self.weight2 = weight, e, weight2
        exponents = (e, e2) if self.second else (e,)
        # None where h(v) = v (an exponent array is never the number 2), else
        # |v|**(s - 1), to be signed
        self._powers = [None if not isinstance(s, np.ndarray) and s == 2.0
                        else _Power(s - 1.0) for s in exponents]
        self.linear = not self.on or self._powers.count(None) == len(exponents)
        # h'(v) = (s - 1)|v|**(s - 2), inf at v = 0 when s < 2
        self._slopes = [(s - 1.0, _Power(s - 2.0)) for s in exponents]

    def __call__(self, v, abs_v=None):
        if not self.on:
            return np.zeros_like(v)
        if self.linear:
            # v + 0.0 is sign(v)*|v|**1.0 exactly, including -0.0 -> +0.0
            return self._sum([v + 0.0 for _ in self._powers])
        if abs_v is None:
            abs_v = np.abs(v)
        # the unsigned summands (a copy of |v| where h(v) = v, as _sum writes
        # into them), signed once; sign(v) is the left operand, as in
        # sign(v)*|v|**s, so a nan keeps its bits
        signed = np.sign(v)
        signed *= self._sum([abs_v.copy() if power is None else power(abs_v)
                             for power in self._powers])
        return signed

    def prime(self, v, abs_v=None):
        """The derivative; 0**(s - 2) divides by zero at v = 0 when s < 2, and
        the caller's np.errstate decides whether that warns."""
        if not self.on:
            return np.zeros_like(v)
        if abs_v is None:
            abs_v = np.abs(v)
        return self._sum([c * power(abs_v) for c, power in self._slopes])

    def _sum(self, h):
        """weight*(h[0] + weight2*h[1]), the second summand only if present,
        formed in the caller's fresh arrays h."""
        if len(h) > 1:
            h[1] *= self.weight2
            h[0] += h[1]
        if not self._unit:
            h[0] *= self.weight
        return h[0]


class _Plan:
    """The four terms of a stack of cells, each resolved once (see _Term).

    A parameter on which the cells differ is held as one value per cell,
    shaped (n_cells, 1, 1); the cells of a stack agree on which weights are
    zero.  P = (alpha, m, a, m_tilde) and Q = (beta, mu, b, mu_tilde) are the
    dampings, f = (gamma, p) and g = (delta, q) the sources, and lp, lq the
    powers |u|**p and |u|**q of the source norms.  key is what cells must
    share to be stacked: which weights are zero and whether the damping is
    linear.  lin is (alpha*(1 + a), beta*(1 + b)), the slopes of P and Q,
    when both are linear, else None; the kick's closed form reads it.
    """

    def __init__(self, records: list[ModelParams]):
        def field(name):
            values = [getattr(par, name) for par in records]
            if all(x == values[0] for x in values):
                return values[0]
            return np.array(values, dtype=float)[:, None, None]

        self.P = _Term(field("alpha"), field("m"), field("a"), field("m_tilde"))
        self.Q = _Term(field("beta"), field("mu"), field("b"), field("mu_tilde"))
        self.f = _Term(field("gamma"), field("p"))
        self.g = _Term(field("delta"), field("q"))
        self.lp, self.lq = _Power(self.f.e), _Power(self.g.e)
        self.damped = self.P.on or self.Q.on
        self.key = (self.P.on, self.Q.on, self.f.on, self.g.on, self.P.second,
                    self.Q.second, self.P.linear and self.Q.linear)
        self.lin = ((self.P.weight * (1.0 + self.P.weight2),
                     self.Q.weight * (1.0 + self.Q.weight2))
                    if self.P.linear and self.Q.linear else None)
