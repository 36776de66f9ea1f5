"""Baker-Davenport reduction (Mignotte's variant) applied per t, plus
the range sweep that finishes the verification for 10 <= t <= 576241.

For each t the linear form is decomposed as Lambda = mu*alpha + nu*beta
+ delta with gamma1 = alpha/beta and gamma2 = delta/beta taken as the
exact enclosed reals, so the lemma's approximation hypotheses hold with
zero error; the enclosure widths are still checked against 1/(100 Q^2)
and 1/Q^2 so that the continued-fraction extraction is trustworthy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .bounds import (LOG_PRECISION, certified_contradiction_threshold,
                     contradiction_threshold, lambda_log_arguments)
from .errors import IndeterminateSignError, PrecisionInsufficientError
from .parallel import parallel_map
from .realnum import (CertifiedReal, certified_below, dyadic_numerators,
                      integer_distance_num, reduction_precision, shared_convergents)
from .roots import isolate_roots

DEFAULT_A = 3 * 10 ** 18
# the scan accepts a q below 10^30 at all but 345 t in [10, 576241]; those
# take the ladder's last rung.  Q = 10 ** 60 gives the paper's parameters.
DEFAULT_Q = 10 ** 30
MAX_PRECISION_ESCALATIONS = 3
Q_ESCALATION_FACTOR = 10 ** 5


@dataclass(frozen=True)
class ReductionInstance:
    which: int
    t: int
    beta: CertifiedReal
    A: int
    Q: int
    gamma1: CertifiedReal
    gamma2: CertifiedReal
    precision: int


@dataclass(frozen=True)
class Verdict:
    success: bool
    p: Optional[int]
    q: Optional[int]
    q_norm_lower: Optional[Fraction]       # certified lower bound of q*||q*gamma2||
    lambda_lower_ln: Optional[float]       # ln(|beta| / Q^2)
    margin: Optional[float]                # lambda_lower_ln - contradiction threshold
    convergents_scanned: int = 0
    # ln(|beta|/Q^2) enclosed at LOG_PRECISION bits, from |beta|'s lower endpoint
    lambda_lower_enclosure: Optional[CertifiedReal] = None


def check_bounds(A: int, Q: int):
    """Q is the convergent bound and A the bound on the exponents; below
    1 the threshold 1.01 A + 2 or the width 1/(100 Q^2) means nothing."""
    if Q < 1:
        raise ValueError("Q must be >= 1, got %d" % Q)
    if A < 1:
        raise ValueError("A must be >= 1, got %d" % A)


def build_instance(which: int, t: int, A: int = DEFAULT_A, Q: int = DEFAULT_Q,
                   precision: Optional[int] = None) -> ReductionInstance:
    """alpha, beta, delta per the Lambda_which decomposition, with
    gamma enclosure widths meeting the lemma's hypotheses.  gamma1's
    width is checked before delta = log a3 is taken, so a precision too
    low for gamma1 costs no third logarithm."""
    if t < 10:
        raise ValueError("reduction applies for t >= 10")
    check_bounds(A, Q)
    if precision is None:
        precision = reduction_precision(Q)
    roots = isolate_roots(t, precision)
    a1, a2, a3 = lambda_log_arguments(which, roots)
    alpha, beta = a1.log(), a2.log()
    gamma1 = alpha / beta
    _check_width("gamma1", gamma1, 100 * Q * Q, "1/(100 Q^2)")
    gamma2 = a3.log() / beta
    _check_width("gamma2", gamma2, Q * Q, "1/Q^2")
    return ReductionInstance(which, t, beta, A, Q, gamma1, gamma2, precision)


def _check_width(name: str, gamma: CertifiedReal, scale: int, bound: str):
    """Raises unless gamma's width (b - a)/2^k is below 1/scale,
    cross-multiplied."""
    a, b, k = dyadic_numerators(gamma._ival)
    if not scale * (b - a) < 1 << k:
        raise PrecisionInsufficientError(
            "%s width %.3g exceeds %s" % (name, float(gamma.width), bound))


def _certified_norm(gamma2_num: Tuple[int, int, int], A: int,
                    q: int) -> Optional[Fraction]:
    """The certified lower bound of q*||q*gamma2|| when it reaches
    1.01*A + 2 = (101 A + 200) / 100, else None.  gamma2 is given by its
    `dyadic_numerators` (a, b, k), so q*gamma2 lies in the exact product
    interval [q*a/2^k, q*b/2^k], and the bound is compared in integers
    over its denominator 2^k."""
    a, b, k = gamma2_num
    lo, _, _ = integer_distance_num(q * a, q * b, k)
    n = q * lo
    if 100 * n < (101 * A + 200) << k:
        return None
    return Fraction(n, 1 << k)


@functools.lru_cache(maxsize=8)
def _ln_q_squared(Q: int) -> CertifiedReal:
    return CertifiedReal.from_rational(Q * Q, LOG_PRECISION).log()


def _lambda_lower_enclosure(beta: CertifiedReal, Q: int) -> CertifiedReal:
    """ln(|beta|_lower / Q^2) enclosed at LOG_PRECISION bits, where
    |beta|_lower is the lower endpoint of |beta|'s enclosure."""
    b = abs(beta)._ival[0]
    return CertifiedReal((b, b), LOG_PRECISION).log() - _ln_q_squared(Q)


def baker_davenport(inst: ReductionInstance) -> Verdict:
    """Scan the convergents of gamma1 upward in q for the first with a
    certified q*||q*gamma2|| >= 1.01*A + 2; success yields the lower
    bound |Lambda| > |beta|/Q^2.  The expansion of gamma1 is read only up
    to that convergent, so an enclosure that cannot pin the expansion
    down past it still succeeds; a failed scan raises the expansion's
    PrecisionInsufficientError, if it has one."""
    threshold_100 = 101 * inst.A + 200      # 100 * (1.01*A + 2)
    gamma2_num = dyadic_numerators(inst.gamma2._ival)
    scanned = 0
    for conv in shared_convergents(inst.gamma1, inst.Q):
        scanned += 1
        # q*||.|| <= q/2, so small q cannot pass
        if 50 * conv.q < threshold_100:
            continue
        q_norm_lower = _certified_norm(gamma2_num, inst.A, conv.q)
        if q_norm_lower is not None:
            beta_abs_lower = abs(inst.beta).lower
            lam_ln = (math.log(beta_abs_lower.numerator)
                      - math.log(beta_abs_lower.denominator)
                      - 2 * math.log(inst.Q))
            thr = contradiction_threshold(inst.which, inst.t)
            return Verdict(True, conv.p, conv.q, q_norm_lower, lam_ln,
                           lam_ln - thr, scanned,
                           _lambda_lower_enclosure(inst.beta, inst.Q))
    return Verdict(False, None, None, None, None, None, scanned)


def contradiction_check(which: int, t: int, verdict: Verdict) -> bool:
    """Whether ln(|beta|/Q^2) exceeds the combined upper bound on
    ln|Lambda_which| at the type's growth threshold, decided on the
    verdict's certified enclosure against the threshold's, both at
    LOG_PRECISION bits.  Raises IndeterminateSignError when the two
    enclosures overlap."""
    if not verdict.success or verdict.lambda_lower_enclosure is None:
        raise ValueError("contradiction check requires a successful verdict "
                         "with a certified ln(|beta|/Q^2)")
    return certified_below(
        certified_contradiction_threshold(which, t), verdict.lambda_lower_enclosure,
        "ln(|beta|/Q^2) meets the contradiction threshold at t=%d (%d bits)"
        % (t, LOG_PRECISION))


@dataclass(frozen=True)
class ReductionOutcome:
    t: int
    which: int
    status: str                  # "success" | "failed"
    precision: int
    Q: int
    q: Optional[int]
    q_norm_lower: Optional[float]
    lambda_lower_ln: Optional[float]
    margin: Optional[float]
    contradiction: bool
    escalations: int
    reason: Optional[str] = None  # why the last attempt failed; failed records only

    def to_json(self) -> dict:
        rec = {
            "schema": 1,
            "t": self.t,
            "which": self.which,
            "status": self.status,
            "precision": self.precision,
            "Q": str(self.Q),
            "q": str(self.q) if self.q is not None else None,
            "q_norm_lower": self.q_norm_lower,
            "lambda_lower_ln": self.lambda_lower_ln,
            "margin": self.margin,
            "contradiction": self.contradiction,
            "escalations": self.escalations,
        }
        if self.status == "failed":
            rec["reason"] = self.reason
        return rec


def reduce_single(which: int, t: int, A: int = DEFAULT_A, Q: int = DEFAULT_Q,
                  precision: Optional[int] = None) -> ReductionOutcome:
    """One t with automatic precision escalation (doubling, capped) and
    a single Q escalation on convergent failure.  A success verdict is
    accepted only after its exact re-verification; one that fails it
    moves on to the next attempt.  A failed outcome carries the reason
    the last attempt failed."""
    base_prec = precision if precision is not None else reduction_precision(Q)
    attempts: List[Tuple[int, int]] = [
        (base_prec * 2 ** i, Q) for i in range(MAX_PRECISION_ESCALATIONS + 1)
    ]
    big_q = Q * Q_ESCALATION_FACTOR
    attempts.append((reduction_precision(big_q) * 2 ** MAX_PRECISION_ESCALATIONS, big_q))
    reason = None
    for idx, (prec, q_used) in enumerate(attempts):
        try:
            inst = build_instance(which, t, A, q_used, prec)
            verdict = baker_davenport(inst)
        except (PrecisionInsufficientError, IndeterminateSignError) as exc:
            reason = str(exc)
            continue
        if not verdict.success:
            reason = ("no convergent with q <= Q reaches q*||q*gamma2|| >= 1.01*A + 2 "
                      "(%d scanned)" % verdict.convergents_scanned)
        elif reverify_verdict(inst, verdict):
            return ReductionOutcome(
                t, which, "success", prec, q_used, verdict.q,
                float(verdict.q_norm_lower), verdict.lambda_lower_ln,
                verdict.margin, contradiction_check(which, t, verdict), idx)
        else:
            reason = "re-verification failed"
    return ReductionOutcome(t, which, "failed",
                            attempts[-1][0], attempts[-1][1],
                            None, None, None, None, False,
                            len(attempts) - 1, reason)


def verify_range(which: int, t_lo: int, t_hi: int,
                 A: int = DEFAULT_A, Q: int = DEFAULT_Q,
                 workers: int = 1,
                 extra_ts: Sequence[int] = (),
                 precision: Optional[int] = None,
                 after: Optional[int] = None) -> Iterator[ReductionOutcome]:
    """Per-t outcomes over [t_lo, t_hi] plus any extra sampled ts, yielded
    in t order whatever the worker count; a t <= `after`, the last one a
    previous run wrote, is skipped.  The arguments are checked at the
    call; the work runs as the outcomes are taken.  Close the iterator
    when stopping early: that shuts the worker pool down."""
    if t_lo <= t_hi and t_lo < 10:
        raise ValueError("sweep range starts at t >= 10")
    check_bounds(A, Q)
    ts = sorted(set(list(range(t_lo, t_hi + 1)) + [int(t) for t in extra_ts]))
    if after is not None:
        ts = [t for t in ts if t > after]
    return parallel_map(functools.partial(reduce_single, which, A=A, Q=Q,
                                          precision=precision), ts, workers)


def reverify_verdict(inst: ReductionInstance, verdict: Verdict) -> bool:
    """Post-hoc exact recheck of a success verdict: q <= Q, gcd(p,q)=1,
    the norm criterion, and |gamma1 - p/q| < q^-2 against the
    enclosure."""
    if not verdict.success:
        return False
    p, q = verdict.p, verdict.q
    if not (1 <= q <= inst.Q and math.gcd(p, q) == 1):
        return False
    if _certified_norm(dyadic_numerators(inst.gamma2._ival), inst.A, q) is None:
        return False
    # |e/2^k - p/q| < 1/q^2 at both endpoints e, cross-multiplied
    a, b, k = dyadic_numerators(inst.gamma1._ival)
    return all(q * abs(e * q - (p << k)) < 1 << k for e in (a, b))
