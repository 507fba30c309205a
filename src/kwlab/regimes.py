"""Exponent algebra and regime classification.

Given a parameter record, decide which of four regimes it falls in:

    GlobalForAllData        every finite-energy datum yields a global solution
    BlowsUpForNegativeEnergy suitable (negative-energy) data blow up in finite time
    OutsideLocalTheory      the sources grow too fast for the local theory
    Undetermined            none of the known conditions applies

The decision surface is an algebra of inequalities between the source
exponents (p interior, q boundary), the damping exponents (m, mu and their
"barred" versions m_bar = max{2,m}), and the critical Sobolev exponents of
H^1 on the domain and on the boundary.  Verdicts carry a `fired` label naming
the governing condition; the labels form a stable output contract:

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

All comparisons use the exact <= / < of the conditions; ties land on the
side the condition prints.  Everything is pure and safe to call from any
number of threads.
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
    "wellposed_ok",
    "global_existence_ok",
    "blowup_interior_ok",
    "blowup_two_sources_ok",
    "blowup_linear_damping_ok",
    "uniqueness_extra_ok",
    "data_condition_note",
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


@functools.lru_cache(maxsize=64)
def critical_exponents(N) -> CriticalExponents:
    """2N/(N-2) and 2(N-1)/(N-3), with the dimensions where the embedding
    is into every L^rho mapped to +inf (so all comparisons are vacuous).

    Cached by N; the record is frozen, so callers share one instance."""
    if N != int(N):
        raise ValueError(f"N must be an integer >= 2, got {N}")
    N = int(N)
    if N < 2:
        raise ValueError(f"N must be an integer >= 2, got {N}")
    r_omega = math.inf if N == 2 else 2.0 * N / (N - 2)
    r_gamma = math.inf if N <= 3 else 2.0 * (N - 1) / (N - 3)
    return CriticalExponents(r_omega, r_gamma)


def holder_conjugate(rho: float) -> float:
    """rho' with 1/rho + 1/rho' = 1; conjugate of +inf is 1."""
    if math.isinf(rho):
        return 1.0
    if not rho > 1:
        raise ValueError(f"conjugate undefined for rho <= 1, got {rho}")
    return rho / (rho - 1.0)


def bar(rho: float) -> float:
    """max{2, rho}."""
    return max(2.0, float(rho))


def wellposed_ok(params) -> bool:
    """Growth bound on each active source against the matching damping.

    Interior: p <= 1 + r_omega/2 without interior damping, p <= 1 +
    r_omega/m_bar' with it; boundary analogue with r_gamma and mu_bar'.
    Vacuous for inactive sources and in the dimensions where the critical
    exponent is infinite.
    """
    ce = critical_exponents(params.N)
    if params.gamma > 0 and math.isfinite(ce.r_omega):
        denom = 2.0 if params.alpha == 0 else holder_conjugate(bar(params.m))
        if not params.p <= 1.0 + ce.r_omega / denom:
            return False
    if params.delta > 0 and math.isfinite(ce.r_gamma):
        denom = 2.0 if params.beta == 0 else holder_conjugate(bar(params.mu))
        if not params.q <= 1.0 + ce.r_gamma / denom:
            return False
    return True


def _supplemental_ok(params) -> bool:
    """Strict high-dimension growth bounds (conjugates of the *unbarred*
    damping exponents); only bind when the damping grows supercritically."""
    ce = critical_exponents(params.N)
    if params.N >= 5 and params.gamma > 0 and params.m > ce.r_omega:
        if not params.p < 1.0 + ce.r_omega / holder_conjugate(params.m):
            return False
    if params.N >= 6 and params.delta > 0 and params.mu > ce.r_gamma:
        if not params.q < 1.0 + ce.r_gamma / holder_conjugate(params.mu):
            return False
    return True


def global_existence_ok(params) -> bool:
    """Each active source dominated by its damping: p <= 2 (no interior
    damping) or p <= m_bar (with it), boundary analogue; plus the
    supplemental high-dimension bounds."""
    if params.gamma > 0:
        if not params.p <= (2.0 if params.alpha == 0 else bar(params.m)):
            return False
    if params.delta > 0:
        if not params.q <= (2.0 if params.beta == 0 else bar(params.mu)):
            return False
    return _supplemental_ok(params)


def _linear_damping(params) -> bool:
    return (
        params.a == 0
        and params.b == 0
        and (params.alpha == 0 or params.m == 2)
        and (params.beta == 0 or params.mu == 2)
    )


def _superlinear_sources(params) -> bool:
    """At least one source, and every active source superlinear."""
    if params.gamma == 0 and params.delta == 0:
        return False
    if params.gamma > 0 and not params.p > 2:
        return False
    if params.delta > 0 and not params.q > 2:
        return False
    return True


def blowup_linear_damping_ok(params) -> bool:
    """Both dampings linear (or off) and some superlinear source present."""
    return _linear_damping(params) and _superlinear_sources(params)


def blowup_interior_ok(params) -> bool:
    """Interior source only (gamma>0=delta): p beats the interior damping,
    and any boundary damping is dominated transversally (mu_bar < 1 + p/2)."""
    if not (params.gamma > 0 and params.delta == 0):
        return False
    if not params.p > (2.0 if params.alpha == 0 else bar(params.m)):
        return False
    if params.beta > 0 and not bar(params.mu) < 1.0 + params.p / 2.0:
        return False
    return True


def blowup_two_sources_ok(params) -> bool:
    """Both sources present: p beats the interior damping, q superlinear,
    and any boundary damping dominated by q or transversally by p."""
    if not (params.gamma > 0 and params.delta > 0):
        return False
    if not params.p > (2.0 if params.alpha == 0 else bar(params.m)):
        return False
    if not params.q > 2:
        return False
    if params.beta > 0 and not bar(params.mu) < max(params.q, 1.0 + params.p / 2.0):
        return False
    return True


def uniqueness_extra_ok(params) -> bool:
    """Subcriticality upgrade: p <= 1 + r_omega/2 when N >= 5 and the
    interior source is active; q <= 1 + r_gamma/2 when N >= 6, boundary."""
    ce = critical_exponents(params.N)
    if params.N >= 5 and params.gamma > 0 and not params.p <= 1.0 + ce.r_omega / 2.0:
        return False
    if params.N >= 6 and params.delta > 0 and not params.q <= 1.0 + ce.r_gamma / 2.0:
        return False
    return True


def data_condition_note(params) -> bool:
    """True when the datum needs extra integrability: source exponent sits
    exactly on the supplemental borderline in the mid dimensions."""
    ce = critical_exponents(params.N)
    if (
        params.N in (3, 4)
        and params.gamma > 0
        and params.m > ce.r_omega
        and params.p == 1.0 + ce.r_omega / holder_conjugate(params.m)
    ):
        return True
    if (
        params.N in (4, 5)
        and params.delta > 0
        and params.mu > ce.r_gamma
        and params.q == 1.0 + ce.r_gamma / holder_conjugate(params.mu)
    ):
        return True
    return False


@dataclass(frozen=True)
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


def classify(params) -> RegimeVerdict:
    """Full verdict for a parameter record.

    Order of decision: local theory first; then global existence; then the
    blow-up conditions (interior-source, two-source, linear-damping -- the
    first applicable one is credited in `fired`); else Undetermined.
    The global and blow-up conditions are mutually exclusive by construction,
    so the order among them only affects the label, not the conclusion.
    """
    wellposed = wellposed_ok(params)
    glob = global_existence_ok(params)
    b_int = blowup_interior_ok(params)
    b_two = blowup_two_sources_ok(params)
    b_lin = blowup_linear_damping_ok(params)

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

    if data_condition_note(params):
        fired += "; (1.12) data condition applies"

    return RegimeVerdict(
        conclusion=conclusion,
        fired=fired,
        wellposed=wellposed,
        uniqueness_extra=uniqueness_extra_ok(params),
        global_existence=glob,
        blowup_interior=b_int,
        blowup_two_sources=b_two,
        blowup_linear_damping=b_lin,
    )
