"""Classification of solutions into types I/II/III and certified
recovery of the unit-equation exponents (delta, n, m) with their growth
bounds.

The unit representation under test is
    x - y*theta_i = (-1)^delta * (t - theta_i)^n * theta_i^(-m)
in all three real embeddings simultaneously.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import (IndeterminateSignError, PrecisionInsufficientError,
                     VerificationFailedError)
from .forms import evaluate, family_form
from .realnum import CertifiedReal, dyadic_numerators, endpoint_cmp
from .roots import isolate_roots, solution_interval

ROUNDING_TOLERANCE = Fraction(1, 100)
# recovery starts at RECOVERY_PRECISION bits and doubles them at most
# RECOVERY_ESCALATIONS times
RECOVERY_PRECISION = 320
RECOVERY_ESCALATIONS = 6


class SolutionType(enum.Enum):
    SMALL = "Small"
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    TYPE_III = "TypeIII"
    NONE = "None"


# the linear form Lambda_which of each solution type
_WHICH = {SolutionType.TYPE_I: 1, SolutionType.TYPE_II: 2, SolutionType.TYPE_III: 3}


def classify(t: int, x: int, y: int) -> SolutionType:
    """Membership of x/y in I_1/I_2/I_3 (endpoints depend on |y|),
    decided by exact rational comparison; |y| <= 1 is Small."""
    if t < 10:
        raise ValueError("classification intervals are defined for t >= 10")
    if abs(y) <= 1:
        return SolutionType.SMALL
    r = Fraction(x, y)
    for tag, which in _WHICH.items():
        lo, hi = solution_interval(which, t, abs(y))
        if lo < r < hi:
            return tag
    return SolutionType.NONE


@dataclass(frozen=True)
class ExponentPair:
    delta: int
    n: int
    m: int
    residual: CertifiedReal

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.delta, self.n, self.m)


def recover_exponents(t: int, x: int, y: int) -> ExponentPair:
    """Solve the log-linear system for (n, m), round, fix delta by sign
    and certify the unit representation in all three embeddings."""
    if t < 2:
        raise ValueError("recovery requires t >= 2")
    if evaluate(family_form(3, t), x, y) != 1:
        raise ValueError("(%d, %d) is not a solution at t=%d" % (x, y, t))
    last_err: Exception = PrecisionInsufficientError("not attempted")
    for attempt in range(RECOVERY_ESCALATIONS + 1):
        prec = RECOVERY_PRECISION * 2 ** attempt
        try:
            return _recover_at_precision(t, x, y, prec)
        except (IndeterminateSignError, PrecisionInsufficientError) as err:
            last_err = err
    raise PrecisionInsufficientError(
        "exponent recovery for t=%d, (%d,%d) failed after escalation: %s"
        % (t, x, y, last_err))


@functools.lru_cache(maxsize=16)
def _unit_logs(t: int, prec: int):
    """The roots at prec bits, the units t - theta_i and the logs that
    depend on t alone and enter the 2x2 solve, ln|t - theta_i| and
    ln|theta_i| for i = 1, 2: the solutions of one t recovered at one
    precision share a single root isolation."""
    roots = isolate_roots(t, prec)
    t_th = tuple(t - th for th in roots.thetas)
    return (roots, t_th, tuple(abs(d).log() for d in t_th[:2]),
            tuple(abs(th).log() for th in roots.thetas[:2]))


def _recover_at_precision(t: int, x: int, y: int, prec: int) -> ExponentPair:
    roots, t_th, (u1, u2), (v1, v2) = _unit_logs(t, prec)
    # x - y theta_i in the three embeddings; the third enters only the
    # unit check
    units = [x - th * y for th in roots.thetas]
    # 2x2 solve on embeddings 1 and 2:  l_i = n*u_i - m*v_i
    l1, l2 = (abs(u).log() for u in units[:2])
    det = u2 * v1 - u1 * v2
    n_enc = (l2 * v1 - l1 * v2) / det
    m_enc = (l2 * u1 - l1 * u2) / det
    n = _round_mid(n_enc)
    m = _round_mid(m_enc)
    residual = CertifiedReal.hull([abs(n_enc - n), abs(m_enc - m)])
    if endpoint_cmp(residual._mpi[1], *ROUNDING_TOLERANCE.as_integer_ratio()) >= 0:
        raise PrecisionInsufficientError(
            "rounding deviation %s exceeds tolerance" % float(residual.upper))
    # delta from the sign of the first embedding
    unit_vals = [d ** n * th ** (-m) for d, th in zip(t_th, roots.thetas)]
    s_solution = units[0].sign()
    s_unit = unit_vals[0].sign()
    delta = 0 if s_solution == s_unit else 1
    sign_factor = -1 if delta else 1
    for u, w in zip(units, unit_vals):
        diff = u - sign_factor * w
        if not diff.contains_zero():
            raise VerificationFailedError(
                "unit representation (delta=%d, n=%d, m=%d) fails for t=%d, (%d,%d)"
                % (delta, n, m, t, x, y))
        # reject sloppy containment: the difference must be pinned near 0
        u_hi = abs(u)._mpi[1]
        a, b, k = dyadic_numerators(diff._mpi)
        if endpoint_cmp(u_hi, 0) > 0 and endpoint_cmp(u_hi, b - a, 1 << k) < 0:
            raise PrecisionInsufficientError("containment check too wide")
    return ExponentPair(delta, n, m, residual)


def _round_mid(enc: CertifiedReal) -> int:
    """The integer nearest the midpoint (a + b) / 2^(k+1) of enc, halves
    rounded up."""
    a, b, k = dyadic_numerators(enc._mpi)
    return (a + b + (1 << k)) >> (k + 1)
