"""Baker-Davenport reduction (Mignotte's variant) applied per t, plus
the range sweep that finishes the verification for 10 <= t <= 576241.

For each t the linear form is decomposed as Lambda = mu*alpha + nu*beta
+ delta with gamma1 = alpha/beta and gamma2 = delta/beta taken as the
exact enclosed reals, so the lemma's approximation hypotheses hold with
zero error; the enclosure widths are still checked against 1/(100 Q^2)
and 1/Q^2 so that the continued-fraction extraction is trustworthy.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .bounds import contradiction_threshold, lambda_log_arguments
from .errors import IndeterminateSignError, PrecisionInsufficientError
from .parallel import parallel_map
from .realnum import (CertifiedReal, continued_fraction_convergents,
                      nearest_integer_distance, reduction_precision)
from .roots import isolate_roots

DEFAULT_A = 3 * 10 ** 18
DEFAULT_Q = 10 ** 60
MAX_PRECISION_ESCALATIONS = 3
Q_ESCALATION_FACTOR = 10 ** 5
CHECKPOINT_INTERVAL = 10 ** 4


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


def build_instance(which: int, t: int, A: int = DEFAULT_A, Q: int = DEFAULT_Q,
                   precision: Optional[int] = None) -> ReductionInstance:
    """alpha, beta, delta per the Lambda_which decomposition, with
    gamma enclosure widths meeting the lemma's hypotheses."""
    if t < 10:
        raise ValueError("reduction applies for t >= 10")
    if precision is None:
        precision = reduction_precision(Q)
    roots = isolate_roots(t, precision)
    a1, a2, a3 = lambda_log_arguments(which, roots)
    alpha, beta, delta = a1.log(), a2.log(), a3.log()
    gamma1 = alpha / beta
    gamma2 = delta / beta
    if not gamma1.width < Fraction(1, 100 * Q * Q):
        raise PrecisionInsufficientError(
            "gamma1 width %.3g exceeds 1/(100 Q^2)" % float(gamma1.width))
    if not gamma2.width < Fraction(1, Q * Q):
        raise PrecisionInsufficientError(
            "gamma2 width %.3g exceeds 1/Q^2" % float(gamma2.width))
    return ReductionInstance(which, t, beta, A, Q, gamma1, gamma2, precision)


def baker_davenport(inst: ReductionInstance) -> Verdict:
    """Scan the convergents of gamma1 upward in q for the first with a
    certified q*||q*gamma2|| >= 1.01*A + 2; success yields the lower
    bound |Lambda| > |beta|/Q^2."""
    threshold = Fraction(101 * inst.A, 100) + 2
    convergents = continued_fraction_convergents(inst.gamma1, inst.Q)
    scanned = 0
    for conv in convergents:
        scanned += 1
        # q*||.|| <= q/2, so small q cannot pass
        if conv.q < 2 * threshold:
            continue
        q_norm_lower = conv.q * nearest_integer_distance(inst.gamma2 * conv.q)[0]
        if q_norm_lower >= threshold:
            beta_abs_lower = abs(inst.beta).lower
            lam_ln = (math.log(beta_abs_lower.numerator)
                      - math.log(beta_abs_lower.denominator)
                      - 2 * math.log(inst.Q))
            thr = contradiction_threshold(inst.which, inst.t)
            return Verdict(True, conv.p, conv.q, q_norm_lower, lam_ln,
                           lam_ln - thr, scanned)
    return Verdict(False, None, None, None, None, None, scanned)


def contradiction_check(which: int, t: int, verdict: Verdict) -> bool:
    """True when the certified lower bound ln(|beta|/Q^2) exceeds the
    combined upper bound at the type's growth threshold."""
    if not verdict.success:
        raise ValueError("contradiction check requires a successful verdict")
    return verdict.lambda_lower_ln > contradiction_threshold(which, t)


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

    def to_json(self) -> dict:
        return {
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


def reduce_single(which: int, t: int, A: int = DEFAULT_A, Q: int = DEFAULT_Q,
                  precision: Optional[int] = None) -> ReductionOutcome:
    """One t with automatic precision escalation (doubling, capped) and
    a single Q escalation on convergent failure.  A success verdict is
    accepted only after its exact re-verification; one that fails it
    moves on to the next attempt."""
    base_prec = precision if precision is not None else reduction_precision(Q)
    attempts: List[Tuple[int, int]] = [
        (base_prec * 2 ** i, Q) for i in range(MAX_PRECISION_ESCALATIONS + 1)
    ]
    big_q = Q * Q_ESCALATION_FACTOR
    attempts.append((reduction_precision(big_q) * 2 ** MAX_PRECISION_ESCALATIONS, big_q))
    last_exc = None
    for idx, (prec, q_used) in enumerate(attempts):
        try:
            inst = build_instance(which, t, A, q_used, prec)
            verdict = baker_davenport(inst)
        except (PrecisionInsufficientError, IndeterminateSignError) as exc:
            last_exc = exc
            continue
        if verdict.success and reverify_verdict(inst, verdict):
            return ReductionOutcome(
                t, which, "success", prec, q_used, verdict.q,
                float(verdict.q_norm_lower), verdict.lambda_lower_ln,
                verdict.margin, contradiction_check(which, t, verdict), idx)
    return ReductionOutcome(t, which, "failed",
                            attempts[-1][0], attempts[-1][1],
                            None, None, None, None, False,
                            len(attempts) - 1)


def _reduce_star(args) -> ReductionOutcome:
    which, t, A, Q, precision = args
    return reduce_single(which, t, A, Q, precision)


def _load_checkpoint(path: str, which: int, A: int, Q: int):
    if not path or not os.path.exists(path):
        return None
    with open(path) as fh:
        rec = json.load(fh)
    if rec.get("which") != which or rec.get("A") != str(A) or rec.get("Q") != str(Q):
        return None
    return rec


def _write_checkpoint(path: str, which: int, A: int, Q: int,
                      last_t: int, digest: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"which": which, "A": str(A), "Q": str(Q),
                   "last_t": last_t, "hash": digest}, fh)
    os.replace(tmp, path)


def verify_range(which: int, t_lo: int, t_hi: int,
                 A: int = DEFAULT_A, Q: int = DEFAULT_Q,
                 workers: int = 1,
                 extra_ts: Sequence[int] = (),
                 precision: Optional[int] = None,
                 checkpoint_path: Optional[str] = None) -> Iterator[ReductionOutcome]:
    """Per-t outcomes over [t_lo, t_hi] plus any extra sampled ts, yielded
    in t order whatever the worker count, and resumable through the
    checkpoint file.  The arguments are checked at the call; the work
    runs as the outcomes are taken.  A checkpoint is written only once
    the caller has taken every outcome it counts, so close the iterator
    when stopping early: that also shuts the worker pool down."""
    if t_lo <= t_hi and t_lo < 10:
        raise ValueError("sweep range starts at t >= 10")
    ts = sorted(set(list(range(t_lo, t_hi + 1)) + [int(t) for t in extra_ts]))
    ckpt = _load_checkpoint(checkpoint_path, which, A, Q) if checkpoint_path else None
    if ckpt is not None:
        ts = [t for t in ts if t > ckpt["last_t"]]
    return _sweep(which, ts, A, Q, workers, precision, checkpoint_path)


def _sweep(which: int, ts: List[int], A: int, Q: int, workers: int,
           precision: Optional[int],
           checkpoint_path: Optional[str]) -> Iterator[ReductionOutcome]:
    # one running digest over the records, each serialized once
    digest = hashlib.sha256()
    jobs = [(which, t, A, Q, precision) for t in ts]
    with contextlib.closing(parallel_map(_reduce_star, jobs, workers)) as outcomes:
        for done, outcome in enumerate(outcomes, 1):
            yield outcome
            digest.update(json.dumps(outcome.to_json(), sort_keys=True).encode())
            if checkpoint_path and (done % CHECKPOINT_INTERVAL == 0 or done == len(ts)):
                _write_checkpoint(checkpoint_path, which, A, Q,
                                  outcome.t, digest.hexdigest())


def reverify_verdict(inst: ReductionInstance, verdict: Verdict) -> bool:
    """Post-hoc exact recheck of a success verdict: q <= Q, gcd(p,q)=1,
    the norm criterion, and |gamma1 - p/q| < q^-2 against the
    enclosure."""
    if not verdict.success:
        return False
    p, q = verdict.p, verdict.q
    if not (1 <= q <= inst.Q and math.gcd(p, q) == 1):
        return False
    threshold = Fraction(101 * inst.A, 100) + 2
    if q * nearest_integer_distance(inst.gamma2 * q)[0] < threshold:
        return False
    pq = Fraction(p, q)
    err = max(abs(inst.gamma1.lower - pq), abs(inst.gamma1.upper - pq))
    return err < Fraction(1, q * q)
