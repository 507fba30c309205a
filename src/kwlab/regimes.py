"""Exponent algebra and regime classification.

Given a parameter record, decide which of four regimes it falls in:

    GlobalForAllData        every finite-energy datum yields a global solution
    BlowsUpForNegativeEnergy suitable (negative-energy) data blow up in finite time
    OutsideLocalTheory      the sources grow too fast for the local theory
    Undetermined            none of the known conditions applies

The decision surface is an algebra of inequalities between the source
exponents (p interior, q boundary), the damping exponents and the critical
Sobolev exponent r(n) = 2n/(n-2) of H^1 in dimension n (+inf when n <= 2).
The free boundary is an (N-1)-dimensional manifold whose equation mirrors the
interior one, so each growth condition is written once and read on two
sides: the interior (gamma > 0, p, m_bar, N, r(N)) and the boundary
(delta > 0, q, mu_bar, N-1, r(N-1)).  A side's damping exponent is
max{2, m} when its damping is on and 2 when it is off.  Verdicts carry a
`fired` label naming the governing condition; the labels form a stable
output contract:

    (1.6)      growth bound making the local theory applicable
    (1.11)     supplemental strict growth bound, high dimensions only
    (1.12)     extra integrability required of the datum at one exact
               borderline exponent (reported as a note, never a verdict)
    (1.14)     subcriticality upgrade giving uniqueness in high dimension
    (1.15)     damping dominates sources: global existence for all data
    (1.13)+(1.19)  linear damping with a superlinear source: blow-up
    (1.21)     interior source beats interior damping (no boundary source)
    (1.24bis)  two sources beat the dampings
    Theorem 1.1 / 1.2 / 1.3 / 1.4  the result consuming the condition

Comparisons are made in floats, so a record on a bound may land on either
side: at N = 5, p = 3.5, m = 4, alpha = gamma = 1, (1.11)'s 1 + r/d' = 3.5 rounds
to 3.5000000000000004, and GlobalForAllData is printed, not Undetermined.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

__all__ = [
    "CriticalExponents",
    "RegimeVerdict",
    "critical_exponents",
    "holder_conjugate",
    "bar",
    "classify",
    "VERDICTS",
]

VERDICTS = (
    "GlobalForAllData",
    "BlowsUpForNegativeEnergy",
    "OutsideLocalTheory",
    "Undetermined",
)


@dataclass(frozen=True)
class CriticalExponents:
    r_omega: float  # critical exponent of H^1(domain); inf when N = 2
    r_gamma: float  # critical exponent of H^1(boundary); inf when N <= 3


def _critical(n: int) -> float:
    """2n/(n-2), mapped to +inf where H^1 embeds into every L^rho."""
    return math.inf if n <= 2 else 2.0 * n / (n - 2)


@functools.lru_cache(maxsize=64)
def critical_exponents(N) -> CriticalExponents:
    """r(N) on the domain and r(N-1) on its boundary.

    Cached by N; the record is frozen, so callers share one instance."""
    if not (2 <= N < math.inf and N == int(N)):
        raise ValueError(f"N must be an integer >= 2, got {N}")
    N = int(N)
    return CriticalExponents(_critical(N), _critical(N - 1))


def holder_conjugate(rho: float) -> float:
    """rho' with 1/rho + 1/rho' = 1; conjugate of +inf is 1."""
    if rho == math.inf:
        return 1.0
    if not rho > 1:
        raise ValueError(f"conjugate defined only for 1 < rho <= inf, got {rho}")
    return rho / (rho - 1.0)


def bar(rho: float) -> float:
    """max{2, rho}; ValueError for nan, which max would drop."""
    if rho != rho:
        raise ValueError("bar undefined for nan")
    return max(2.0, float(rho))


@dataclass(frozen=True, init=False)
class RegimeVerdict:
    """classify's answer; the field order is the classify line's key order."""

    conclusion: str  # one of VERDICTS
    fired: str       # condition label governing the conclusion
    wellposed: bool
    uniqueness_extra: bool
    global_existence: bool
    blowup_interior: bool
    blowup_two_sources: bool
    blowup_linear_damping: bool

    def __init__(self, conclusion, fired, wellposed, uniqueness_extra, global_existence,
                 blowup_interior, blowup_two_sources, blowup_linear_damping):
        # one write past the frozen __setattr__
        self.__dict__.update(
            conclusion=conclusion, fired=fired, wellposed=wellposed,
            uniqueness_extra=uniqueness_extra, global_existence=global_existence,
            blowup_interior=blowup_interior, blowup_two_sources=blowup_two_sources,
            blowup_linear_damping=blowup_linear_damping)


def classify(params) -> RegimeVerdict:
    """Full verdict for a parameter record.

    Order of decision: local theory first; then global existence; then the
    blow-up conditions (interior-source, two-source, linear-damping -- the
    first applicable one is credited in `fired`); else Undetermined.
    The global and blow-up conditions are mutually exclusive by construction,
    so the order among them only affects the label, not the conclusion.
    """
    ce = critical_exponents(params.N)
    m_bar = bar(params.m) if params.alpha > 0 else 2.0
    mu_bar = bar(params.mu) if params.beta > 0 else 2.0
    on_p, on_q, p, q = params.gamma > 0, params.delta > 0, params.p, params.q
    sides = ((on_p, p, m_bar, params.N, ce.r_omega), (on_q, q, mu_bar, params.N - 1, ce.r_gamma))

    wellposed = uniqueness = glob = True
    note = False
    for on, e, d, n, r in sides:
        if not on:
            continue
        growth = 1.0 + r / holder_conjugate(d)
        wellposed &= e <= growth                                   # (1.6)
        # (1.15); (1.11) makes the growth bound strict once d passes r
        glob &= e <= d and (n < 5 or d <= r or e < growth)
        uniqueness &= n < 5 or e <= 1.0 + r / 2.0                  # (1.14)
        note |= n in (3, 4) and d > r and e == growth              # (1.12)

    b_int = on_p and not on_q and p > m_bar and mu_bar < 1.0 + p / 2.0       # (1.21)
    b_two = (on_p and on_q and p > m_bar and q > 2
             and mu_bar < max(q, 1.0 + p / 2.0))                             # (1.24bis)
    # (1.13)+(1.19) reads m and mu themselves: m_bar = 2 also holds for m = 1.5
    b_lin = (params.a == 0 and params.b == 0
             and (params.alpha == 0 or params.m == 2)
             and (params.beta == 0 or params.mu == 2)
             and (on_p or on_q) and (not on_p or p > 2) and (not on_q or q > 2))

    if not wellposed:
        conclusion, fired = "OutsideLocalTheory", "(1.6) violated"
    elif glob:
        conclusion, fired = "GlobalForAllData", "(1.15)/Theorem 1.1"
    elif b_int:
        conclusion, fired = "BlowsUpForNegativeEnergy", "(1.21)/Theorem 1.3"
    elif b_two:
        conclusion, fired = "BlowsUpForNegativeEnergy", "(1.24bis)/Theorem 1.4"
    elif b_lin:
        conclusion, fired = "BlowsUpForNegativeEnergy", "(1.19)/Theorem 1.2"
    else:
        conclusion, fired = "Undetermined", "none"

    if note:
        fired += "; (1.12) data condition applies"

    # positional, in field order: cheaper than keywords
    return RegimeVerdict(conclusion, fired, wellposed, uniqueness, glob, b_int, b_two, b_lin)
