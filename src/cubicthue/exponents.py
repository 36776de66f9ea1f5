"""Classification of solutions into types I/II/III and certified
recovery of the unit-equation exponents (delta, n, m) with
    x - y*theta = (-1)^delta * (t - theta)^n * theta^(-m).

A log-linear solve in two real embeddings finds (n, m), certified to lie
within ROUNDING_TOLERANCE of integers; the identity in Z[theta], checked
on integer coefficients, accepts them and fixes delta.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import (IndeterminateSignError, PrecisionInsufficientError,
                     VerificationFailedError)
from .forms import family_form
from .realnum import CertifiedReal, dyadic_numerators, endpoint_cmp
from .roots import T_MIN, isolate_roots, solution_interval

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
    if t < T_MIN:
        raise ValueError("classification intervals are defined for t >= %d" % T_MIN)
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


def recover_exponents(t: int, x: int, y: int) -> ExponentPair:
    """Solve the log-linear system for (n, m) and round it, then accept
    (delta, n, m) by the exact identity of the unit representation in
    Z[theta]."""
    if t < 2:
        raise ValueError("recovery requires t >= 2")
    if family_form(3, t)(x, y) != 1:
        raise ValueError("(%d, %d) is not a solution at t=%d" % (x, y, t))
    last_err: Exception = PrecisionInsufficientError("not attempted")
    for attempt in range(RECOVERY_ESCALATIONS + 1):
        prec = RECOVERY_PRECISION * 2 ** attempt
        try:
            n, m, residual = _solve_at_precision(t, x, y, prec)
            break
        except (IndeterminateSignError, PrecisionInsufficientError) as err:
            last_err = err
    else:
        raise PrecisionInsufficientError(
            "exponent recovery for t=%d, (%d,%d) failed after escalation: %s"
            % (t, x, y, last_err))
    unit = _unit_power(t, n, m)
    if unit == (x, -y, 0):
        return ExponentPair(0, n, m, residual)
    if unit == (-x, y, 0):
        return ExponentPair(1, n, m, residual)
    raise VerificationFailedError(
        "x - y*theta is not +-(t - theta)^%d * theta^%d for t=%d, (%d,%d)"
        % (n, -m, t, x, y))


@functools.lru_cache(maxsize=16)
def _unit_logs(t: int, prec: int):
    """The logs that depend on t alone and enter the 2x2 solve, u_i =
    ln|t - theta_i| and v_i = ln|theta_i| for i = 1, 2, their determinant
    u2 v1 - u1 v2, the roots they come from, and the four logs again keyed
    by their argument's enclosure: the solutions of one t recovered at one
    precision share them all, and those of (0, 1) and (t, 1), whose factors
    |x - theta_i y| are these arguments, take no log of their own."""
    roots = isolate_roots(t, prec)
    th1, th2 = roots.thetas[:2]
    args = abs(t - th1), abs(t - th2), abs(th1), abs(th2)
    u1, u2, v1, v2 = logs = [a.log() for a in args]
    return (roots, (u1, u2), (v1, v2), u2 * v1 - u1 * v2,
            {a._ival: ln for a, ln in zip(args, logs)})


def _solve_at_precision(t: int, x: int, y: int, prec: int):
    """The integers (n, m) nearest the enclosed solution of the 2x2 log
    system l_i = n*u_i - m*v_i on embeddings 1 and 2, and the residual
    that certifies them: both deviations below ROUNDING_TOLERANCE."""
    roots, (u1, u2), (v1, v2), det, known = _unit_logs(t, prec)
    # |th y - x| = |x - th y|, with no negation after the subtraction
    factors = (abs(th * y - x) for th in roots.thetas[:2])
    l1, l2 = (known[f._ival] if f._ival in known else f.log() for f in factors)
    n_enc, m_enc = (l2 * v1 - l1 * v2) / det, (l2 * u1 - l1 * u2) / det
    n, m = _round_mid(n_enc), _round_mid(m_enc)
    residual = CertifiedReal.hull([abs(n_enc - n), abs(m_enc - m)])
    if endpoint_cmp(residual._ival[1], *ROUNDING_TOLERANCE.as_integer_ratio()) >= 0:
        raise PrecisionInsufficientError(
            "rounding deviation %s exceeds tolerance" % float(residual.upper))
    return n, m, residual


def _unit_power(t: int, n: int, m: int) -> Tuple[int, int, int]:
    """(t - theta)^n * theta^(-m) as the coefficients (c0, c1, c2) of
    c0 + c1*theta + c2*theta^2 in Z[theta], theta a root of
    X^3 + B X^2 + C X + 1 = F_{3,t}(X, 1).  theta and t - theta are units,
    since F_{3,t}(0, 1) = F_{3,t}(t, 1) = 1:
        theta^-1 = -(theta^2 + B theta + C),
        (t - theta)^-1 = theta^2 + (t + B) theta + t^2 + B t + C."""
    _, B, C, _ = family_form(3, t).coefficients

    def mul(a, b):
        c = [0] * 5
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                c[i + j] += ai * bj
        # X^k = X^(k-3) * (-B X^2 - C X - 1) for k = 4, 3
        for k in (4, 3):
            c[k - 1] -= B * c[k]
            c[k - 2] -= C * c[k]
            c[k - 3] -= c[k]
        return tuple(c[:3])

    unit = (t, -1, 0) if n >= 0 else (t * t + B * t + C, t + B, 1)
    theta = (-C, -B, -1) if m >= 0 else (0, 1, 0)
    out = (1, 0, 0)
    for base, k in ((unit, abs(n)), (theta, abs(m))):
        for _ in range(k):
            out = mul(out, base)
    return out


def _round_mid(enc: CertifiedReal) -> int:
    """The integer nearest the midpoint (a + b) / 2^(k+1) of enc, halves
    rounded up."""
    a, b, k = dyadic_numerators(enc._ival)
    return (a + b + (1 << k)) >> (k + 1)
