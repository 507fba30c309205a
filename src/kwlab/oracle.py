"""Blow-up time of the scalar comparison ODE.

The machinery that turns a superlinear differential inequality into
finite-time blow-up reduces, at its core, to the scalar problem

    y' = |y|^l - c,    y(0) = psi0 > c^(1/l),    l > 1, c >= 0,

whose solution is increasing and reaches +infinity at the finite time

                       infinity
        T_m(psi0)  =  integral  d tau / (tau^l - c).
                        psi0

This module computes T_m by quadrature with an explicit error budget, and
independently integrates the ODE itself so the two routes can be checked
against each other.

Quadrature route (blowup_time):

    split the improper integral at a cut R >= max(2*psi0, 10):

        T_m = quad(psi0, R) + integral_R^inf dtau/(tau^l - c)

    and approximate the tail by the c = 0 closed form R^(1-l)/(l-1).
    For tau >= R the exact tail is sandwiched,

        R^(1-l)/(l-1)  <=  tail  <=  R^(1-l)/(l-1) * 1/(1 - c/R^l),

    so the dropped correction is at most

        R^(1-l)/(l-1) * c/(R^l - c),

    and R is doubled until that bound is below tol/2; the finite part gets
    the remaining tol/2 as its absolute tolerance.  When QUADPACK reports a
    failure on the finite part, or an error estimate above tol/2, the
    quadrature raises RuntimeError instead of returning a T_m it cannot
    vouch for (this happens for c > 0 and l close to 1, where the cut grows
    to 4e10 at l = 1.05 and 2e13 at l = 1.001).

Integration route (integrate_comparison): explicit RK4 with the step law
dt = eta * y^(1-l), which keeps the relative growth per step bounded as
y -> infinity, so a finite threshold is reached in O(log(threshold)/eta)
steps.  The hitting time of a threshold Y underestimates T_m by exactly the
remaining tail T_m(Y).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

__all__ = ["OdeProblem", "blowup_time", "integrate_comparison"]


@dataclass(frozen=True)
class OdeProblem:
    """y' = |y|^l - c with y(0) = psi0; requires psi0 > c^(1/l) (strict)."""

    l: float
    c: float
    psi0: float

    def __post_init__(self):
        if not self.l > 1:
            raise ValueError(f"l must exceed 1, got {self.l}")
        if not self.c >= 0:
            raise ValueError(f"c must be nonnegative, got {self.c}")
        if not self.psi0 > self.c ** (1.0 / self.l):
            raise ValueError(
                f"hypothesis violated: psi0 <= c^(1/l) "
                f"({self.psi0} <= {self.c ** (1.0 / self.l)})"
            )


def blowup_time(prob: OdeProblem, tol: float = 1e-10) -> float:
    """T_m(psi0) = integral_{psi0}^inf dtau/(tau^l - c), abs error <= tol.

    Raises RuntimeError when the quadrature cannot meet that budget.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    l, c, psi0 = prob.l, prob.c, prob.psi0
    cut = max(2.0 * psi0, 10.0)
    if c > 0:
        # double the cut until the dropped tail correction is within budget
        while cut ** (1.0 - l) / (l - 1.0) * (c / (cut**l - c)) > 0.5 * tol:
            cut *= 2.0
    # full_output=1 appends QUADPACK's message only when it reports a failure
    head, abserr, _info, *failure = quad(
        lambda tau: 1.0 / (tau**l - c), psi0, cut, epsabs=0.5 * tol, epsrel=1e-13,
        limit=200, full_output=1,
    )
    if failure or not abserr <= 0.5 * tol:
        reason = failure[0].splitlines()[0] if failure else "error estimate over budget"
        raise RuntimeError(
            f"quadrature of T_m failed for l={l}, c={c}, psi0={psi0}: {reason} "
            f"(error estimate {abserr:.3g}, budget {0.5 * tol:.3g})"
        )
    return head + cut ** (1.0 - l) / (l - 1.0)


def integrate_comparison(
    prob: OdeProblem, blow_threshold: float = 1e6, eta: float = 1e-3
) -> list[tuple[float, float]]:
    """Integrate y' = |y|^l - c until y >= blow_threshold.

    Classical RK4 with the adaptive step dt = eta*y^(1-l); the returned
    trajectory ends at the threshold crossing, located by linear
    interpolation inside the final step, so trajectory[-1] is
    (t_hit, blow_threshold).
    """
    if not prob.psi0 < blow_threshold < math.inf:
        raise ValueError(
            f"blow_threshold must exceed psi0 and be finite "
            f"(blow_threshold={blow_threshold}, psi0={prob.psi0})"
        )
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    l, c = prob.l, prob.c

    def rhs(y):
        return abs(y) ** l - c

    t, y = 0.0, prob.psi0
    traj = [(t, y)]
    while y < blow_threshold:
        dt = eta * y ** (1.0 - l)
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y_new = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t_new = t + dt
        if y_new >= blow_threshold:
            t_hit = t + (blow_threshold - y) * dt / (y_new - y)
            traj.append((t_hit, blow_threshold))
            return traj
        t, y = t_new, y_new
        traj.append((t, y))
    return traj
