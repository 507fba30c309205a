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
once: whether its weight is zero (the term is off and evaluates to zeros),
whether w2 is zero (no second summand), and for each summand whether its
exponent is the number 2 (then h(v) = v).  The exponents NumPy's ** takes by
a shortcut are found once too (_Power), and so are the slopes of linear
dampings (lin).  The solver builds a plan when a stack of several cells
forms; a single record's plan, ModelParams._plan, is built on first use and
serves every one-cell run.  |v| and sign(v) are taken once per evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

__all__ = ["ModelParams"]


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
            object.__setattr__(self, "m_tilde", self.default_tilde(self.m))
        if self.mu_tilde is None:
            object.__setattr__(self, "mu_tilde", self.default_tilde(self.mu))
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
    drops the second summand.  A summand whose exponent is the number 2 is
    h(v) = v; the others raise |v| through a _Power.  `linear` holds when the
    term is off or every summand is h(v) = v, so the term is weight*(1 +
    weight2)*v.
    """

    __slots__ = ("on", "second", "weight", "e", "weight2", "linear", "_powers", "_slopes")

    def __init__(self, weight, e, weight2=0.0, e2=None):
        self.on = isinstance(weight, np.ndarray) or weight != 0.0
        self.second = isinstance(weight2, np.ndarray) or weight2 != 0.0
        self.weight, self.e, self.weight2 = weight, e, weight2
        exponents = (e, e2) if self.second else (e,)
        # None where h(v) = v (an exponent array is never the number 2), else
        # |v|**(s - 1), to be signed
        self._powers = [None if not isinstance(s, np.ndarray) and s == 2.0
                        else _Power(s - 1.0) for s in exponents]
        self.linear = not self.on or self._powers.count(None) == len(exponents)
        # h'(v) = (s - 1)|v|**(s - 2), inf at v = 0 when s < 2
        self._slopes = [(s - 1.0, _Power(s - 2.0)) for s in exponents]

    def __call__(self, v):
        if not self.on:
            return np.zeros_like(v)
        if not self.linear:
            abs_v, sign_v = np.abs(v), np.sign(v)
        # v + 0.0 is sign(v)*|v|**1.0 exactly, including -0.0 -> +0.0
        return self._sum([v + 0.0 if power is None else sign_v * power(abs_v)
                          for power in self._powers])

    def prime(self, v):
        """The derivative; 0**(s - 2) divides by zero at v = 0 when s < 2, and
        the caller's np.errstate decides whether that warns."""
        if not self.on:
            return np.zeros_like(v)
        abs_v = np.abs(v)
        return self._sum([c * power(abs_v) for c, power in self._slopes])

    def _sum(self, h):
        """weight*(h[0] + weight2*h[1]), the second summand only if present."""
        out = h[0] if len(h) == 1 else h[0] + self.weight2 * h[1]
        return self.weight * out


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
