"""Baker-Davenport reduction (Mignotte's variant) applied at one t; the
`sweep` command runs it at every t from T_MIN to 576241 to finish the
verification.

For each t the linear form is decomposed as Lambda = mu*alpha + nu*beta
+ delta with gamma1 = alpha/beta and gamma2 = delta/beta taken as the
exact enclosed reals, so the lemma's approximation hypotheses hold with
zero error; the enclosure widths are still checked against 1/(100 Q^2)
and 1/Q^2 so that the continued-fraction extraction is trustworthy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .bounds import (CONTRADICTION_COEFF, LN2, contradiction_threshold,
                     lambda_log_arguments, ln_bit_bounds)
from .errors import IndeterminateSignError, PrecisionInsufficientError
from .realnum import (CertifiedReal, Endpoint, _normal, _ratio, dyadic_numerators,
                      lockstep_expansion, reduction_precision)
from .roots import T_MIN, isolate_roots, series_cell_halvings

DEFAULT_A = 3 * 10 ** 18
# the scan accepts a q below 10^30 at all but 345 t in [T_MIN, 576241]; those
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
    q_norm_lower: Optional[float]          # certified lower bound of q*||q*gamma2||, rounded
    lambda_lower_ln: Optional[float]       # ln(|beta| / Q^2)
    margin: Optional[float]                # lambda_lower_ln - contradiction threshold
    convergents_scanned: int = 0
    # what the contradiction is decided on: the lower endpoint of |beta|'s
    # enclosure and the convergent bound Q
    beta_lower: Optional[Endpoint] = None
    Q: Optional[int] = None


def check_bounds(A: int, Q: int):
    """Q is the convergent bound and A the bound on the exponents; below
    1 the threshold 1.01 A + 2 or the width 1/(100 Q^2) means nothing."""
    if Q < 1:
        raise ValueError("Q must be >= 1, got %d" % Q)
    if A < 1:
        raise ValueError("A must be >= 1, got %d" % A)


def build_instance(which: int, t: int, A: int = DEFAULT_A, Q: int = DEFAULT_Q,
                   precision: Optional[int] = None) -> ReductionInstance:
    """alpha, beta, delta per the Lambda_which decomposition, with the
    lemma's hypotheses checked here, each before the work it would waste:
    t >= T_MIN and A, Q >= 1 first; then, for which = 2, a precision at which
    `gamma1_width_floor` reaches 1/(100 Q^2) is refused before any root
    is isolated; then gamma1's width against 1/(100 Q^2) before
    delta = log a3 is taken, and gamma2's against 1/Q^2.  A refused
    precision raises PrecisionInsufficientError."""
    if t < T_MIN:
        raise ValueError("reduction applies for t >= %d" % T_MIN)
    check_bounds(A, Q)
    if precision is None:
        precision = reduction_precision(Q)
    if which == 2:
        num, den = gamma1_width_floor(t, precision)
        if 100 * Q * Q * num >= den:
            raise PrecisionInsufficientError(
                "gamma1 width floor %.3g reaches 1/(100 Q^2)" % (num / den))
    roots = isolate_roots(t, precision)
    a1, a2, a3 = lambda_log_arguments(which, roots)
    alpha, beta = a1.log(), a2.log()
    gamma1 = alpha / beta
    _check_width("gamma1", gamma1, 100 * Q * Q, "1/(100 Q^2)")
    gamma2 = a3.log() / beta
    _check_width("gamma2", gamma2, Q * Q, "1/Q^2")
    return ReductionInstance(which, t, beta, A, Q, gamma1, gamma2, precision)


def gamma1_width_floor(t: int, precision: int) -> Tuple[int, int]:
    """A lower bound num/den (den > 0) on the width of the gamma1
    enclosure that `build_instance(2, t, precision=precision)` forms
    (t >= T_MIN), from t and the precision alone.

    With K = `series_cell_halvings(t, precision)`, `isolate_roots`
    brackets theta1 in a grid cell [x_l, x_h] of exact width
    c1 = 2/(t^5 2^K) inside theta1's window (`roots.ROOT_ROWS`).  No grid
    point is a root: a rational root of the monic P with constant term 1
    is +-1, and P(+-1) != 0.  theta1's enclosure holds both ends of the
    cell and theta3's holds y = theta3, in theta3's window.  gamma1 is
    ln a1 / ln a2 of `lambda_log_arguments(2, .)` (j = 1, k = 3), formed
    by outward-rounded interval operations, so it contains -N(x)/D(x) at
    both ends x, N(x) = ln(y/|x|) and D(x) = ln((y - t)/(t - x)); its width
    is at least N(x_h)/D(x_h) - N(x_l)/D(x_l)
    = (N(x_h) - N(x_l))/D(x_h) - N(x_l) (D(x_h) - D(x_l))/(D(x_h) D(x_l)).
    On the rows' windows, for t >= T_MIN:
    - N(x_h) - N(x_l) = ln(1 + c1/|x_h|) >= ln(1 + 2^-K) >= 1/(2^K + 1),
      as |x_h| <= 2/t^5;
    - 2 ln t < D(x) < 3 ln t, as t^2 < (y - t)/(t - x) < t^3;
    - 0 < D(x_h) - D(x_l) = ln(1 + c1/(t - x_h)) <= c1/t;
    - 0 < N(x_l) < 9 ln t, as y < t^4 and |x_l| >= |theta1|
      = 1/(theta2 theta3) > 1/t^5, theta2 being below t + 2/t^5.
    So the width is at least 1/(3 (2^K + 1) ln t) - 9 c1/(4 t ln t),
    and with 2 < ln t < 0.6932 * bits(t) at least the value returned,
    10000/(20796 bits(t) (2^K + 1)) - 9/(4 t^6 2^K), over one
    denominator.  An operation that raises instead fails the rung all
    the same."""
    K = series_cell_halvings(t, precision)
    b, t6 = t.bit_length(), t ** 6
    return ((40000 * t6 << K) - 187164 * b * ((1 << K) + 1),
            83184 * b * ((1 << K) + 1) * t6 << K)


def _check_width(name: str, gamma: CertifiedReal, scale: int, bound: str):
    """Raises unless gamma's width (b - a)/2^k is below 1/scale,
    cross-multiplied."""
    a, b, k = dyadic_numerators(gamma._ival)
    if not scale * (b - a) < 1 << k:
        raise PrecisionInsufficientError(
            "%s width %.3g exceeds %s" % (name, float(gamma.width), bound))


def _norm_lower(gamma2_num: Tuple[int, int, int], q: int) -> int:
    """n with n/2^k <= q*||q*gamma2||, for gamma2's `dyadic_numerators`
    (a, b, k): q*gamma2 lies in [q*a/2^k, q*b/2^k], whose distance to
    the nearest integer is 0 if it holds one, and else, with ra and rb
    the ends' remainders mod 2^k, min(ra, 2^k - rb)/2^k."""
    a, b, k = gamma2_num
    a, b, one = q * a, q * b, 1 << k
    ra, rb = a & (one - 1), b & (one - 1)
    return 0 if ra == 0 or a >> k < b >> k else q * min(ra, one - rb)


def baker_davenport(inst: ReductionInstance) -> Verdict:
    """Scan the convergents of gamma1 upward in q for the first with a
    certified q*||q*gamma2|| >= 1.01*A + 2; success yields the lower
    bound |Lambda| > |beta|/Q^2.  The expansion of gamma1 is read only up
    to that convergent, so an enclosure that cannot pin the expansion
    down past it still succeeds; a failed scan raises the expansion's
    PrecisionInsufficientError, if it has one."""
    threshold_100 = 101 * inst.A + 200      # 100 * (1.01*A + 2)
    gamma2_num = dyadic_numerators(inst.gamma2._ival)
    k = gamma2_num[2]
    bar = threshold_100 << k                # the threshold, times 100 * 2^k
    a1, b1, k1 = dyadic_numerators(inst.gamma1._ival)
    scanned = 0
    for conv in lockstep_expansion(a1, 1 << k1, b1, 1 << k1, inst.Q):
        scanned += 1
        # q*||.|| <= q/2, so small q cannot pass
        if 50 * conv.q < threshold_100:
            continue
        lo = _norm_lower(gamma2_num, conv.q)
        if 100 * lo >= bar:
            beta_lower = abs(inst.beta)._ival[0]
            num, den = _ratio(_normal(beta_lower))
            lam_ln = math.log(num) - math.log(den) - 2 * math.log(inst.Q)
            thr = contradiction_threshold(inst.which, inst.t)
            return Verdict(True, conv.p, conv.q, lo / (1 << k), lam_ln,
                           lam_ln - thr, scanned, beta_lower, inst.Q)
    return Verdict(False, None, None, None, None, None, scanned)


def contradiction_check(which: int, t: int, verdict: Verdict) -> bool:
    """Whether L = ln(b/Q^2) exceeds T = -c t^p ln^2 t, the combined upper
    bound on ln|Lambda_which| at the type's growth threshold
    ((c, p) = CONTRADICTION_COEFF[which]; b is the lower endpoint of
    |beta|'s enclosure), decided by exact integer comparison: True when
    L > T, False when L <= T, and IndeterminateSignError when the bounds
    below decide neither.

    `ln_bit_bounds` encloses ln b, ln Q and ln t by their bit lengths, as
    numerators over 2^k, k = LN2[2]: [b_lo, b_hi], [q_lo, q_hi] and
    [t_lo, t_hi], with t_lo >= 0 for t >= 1.  So L lies in
    [b_lo - 2 q_hi, b_hi - 2 q_lo] / 2^k, and, squares keeping the order
    of non-negative numbers, T in [-c t^p t_hi^2, -c t^p t_lo^2] / 2^2k.
    L's lower bound above T's upper bound proves L > T; L's upper bound
    at most T's lower bound proves L <= T.  Both comparisons are taken
    times c's denominator and 2^2k.

    The slack: each bit-length bound is within ln 2 of its logarithm, so
    L's bounds are within 3 ln 2 of L; and for t >= 8, where
    bits(t) >= 4, ln t >= (bits(t) - 1) ln 2 >= (3/4) bits(t) ln 2
    > (3/4) ln t, so T's upper bound is at most 9/16 T and its lower bound
    at least 16/9 T.  Up to the rounding of ln 2, the check is therefore
    decided whenever L > 9/16 T + 3 ln 2 or L <= 16/9 T - 3 ln 2."""
    if not verdict.success or verdict.beta_lower is None:
        raise ValueError("contradiction check requires a successful verdict "
                         "with |beta|'s lower endpoint")
    (b_lo, b_hi), (q_lo, q_hi), (t_lo, t_hi) = (
        ln_bit_bounds(*verdict.beta_lower), ln_bit_bounds(verdict.Q), ln_bit_bounds(t))
    coef, p = CONTRADICTION_COEFF[which]
    n, d = coef.numerator * t ** p, coef.denominator << LN2[2]
    if (b_lo - 2 * q_hi) * d + n * t_lo * t_lo > 0:
        return True
    if (b_hi - 2 * q_lo) * d + n * t_hi * t_hi <= 0:
        return False
    raise IndeterminateSignError(
        "ln(|beta|/Q^2) is within the bit-length bounds' slack of the "
        "contradiction threshold at t=%d" % t)


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
    """One t on the escalation ladder: the base precision doubled up to
    MAX_PRECISION_ESCALATIONS times at Q, then one rung at
    Q * Q_ESCALATION_FACTOR.  A success is accepted only after its exact
    re-verification; a failed outcome carries why the last rung failed.
    Each rung is a `build_instance`, which checks the arguments and
    refuses a precision at which gamma1's width floor reaches
    1/(100 Q^2) before it isolates any root.

    A precision reason (a rung that raises, the floor's refusal among
    them) moves on to the next precision at Q.  A Q reason, a clean
    failed scan, skips the rungs left at Q: a higher precision reads the
    same convergents q <= Q of gamma1, and gamma2's width test (1/Q^2)
    puts each certified q*||q*gamma2|| within q^2/Q^2 <= 1 of its true
    value, so it could pass only where a true one lies in [thr, thr + 1),
    thr = 1.01*A + 2.  A skipped rung counts as an escalation."""
    base_prec = precision if precision is not None else reduction_precision(Q)
    attempts: List[Tuple[int, int]] = [
        (base_prec * 2 ** i, Q) for i in range(MAX_PRECISION_ESCALATIONS + 1)
    ]
    big_q = Q * Q_ESCALATION_FACTOR
    attempts.append((reduction_precision(big_q) * 2 ** MAX_PRECISION_ESCALATIONS, big_q))
    reason, failed_q = None, None
    for idx, (prec, q_used) in enumerate(attempts):
        if q_used == failed_q:
            continue
        try:
            inst = build_instance(which, t, A, q_used, prec)
            verdict = baker_davenport(inst)
        except (PrecisionInsufficientError, IndeterminateSignError) as exc:
            reason = str(exc)
            continue
        if not verdict.success:
            reason = ("no convergent with q <= Q reaches q*||q*gamma2|| >= 1.01*A + 2 "
                      "(%d scanned)" % verdict.convergents_scanned)
            failed_q = q_used
        elif reverify_verdict(inst, verdict):
            return ReductionOutcome(
                t, which, "success", prec, q_used, verdict.q,
                verdict.q_norm_lower, verdict.lambda_lower_ln,
                verdict.margin, contradiction_check(which, t, verdict), idx)
        else:
            reason = "re-verification failed"
    return ReductionOutcome(t, which, "failed", *attempts[-1],
                            None, None, None, None, False, idx, reason)


def reverify_verdict(inst: ReductionInstance, verdict: Verdict) -> bool:
    """Post-hoc exact recheck of a success verdict: q <= Q, gcd(p,q)=1,
    the norm criterion, and |gamma1 - p/q| < q^-2 against the
    enclosure."""
    if not verdict.success:
        return False
    p, q = verdict.p, verdict.q
    if not (1 <= q <= inst.Q and math.gcd(p, q) == 1):
        return False
    # the certified lower bound of q*||q*gamma2|| against 1.01*A + 2
    gamma2_num = dyadic_numerators(inst.gamma2._ival)
    if 100 * _norm_lower(gamma2_num, q) < (101 * inst.A + 200) << gamma2_num[2]:
        return False
    # |e/2^k - p/q| < 1/q^2 at both endpoints e, cross-multiplied
    a, b, k = dyadic_numerators(inst.gamma1._ival)
    return all(q * abs(e * q - (p << k)) < 1 << k for e in (a, b))
