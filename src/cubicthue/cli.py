"""Command-line orchestration for the verification pipeline: each
command is a list of stages, generators that yield records and return
an exit status, and `_run` writes the records.

Exit codes: 0 all checks pass, 1 a verification failed, 2 inconclusive
(precision/Q exhausted, or a certified comparison the enclosures do not
decide), 3 usage error or an --output or --checkpoint that cannot be
written, 141 (128 + SIGPIPE) stdout closed by its reader.  A run that
meets more than one reports the worst, in the order 3, 1, 2, 0: a failed
claim outranks an undecided one.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import contextlib
import functools
import json
import os
import random
import sys
from decimal import Decimal, InvalidOperation
from typing import List, NamedTuple, Optional

from . import bounds, exponents, forms, realnum, reduction, roots, search
from .errors import (IndeterminateSignError, PrecisionInsufficientError,
                     VerificationFailedError)
from .parallel import Jobs, parallel_map

# CPython's own SHA-256 for the checkpoint's digest: hashlib's maps OpenSSL
# (3.4 MB resident) into this process and into every forked worker
try:
    from _sha2 import sha256            # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256      # CPython 3.11
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_BROKEN_PIPE = 141
# the statuses stages return, from best to worst
_SEVERITY = (EXIT_OK, EXIT_INCONCLUSIVE, EXIT_VERIFICATION_FAILED, EXIT_USAGE)

DEFAULT_SEED = 20140213
SWEEP_SLICE_HI = 2000
SWEEP_SAMPLE_COUNT = 100
CHECKPOINT_INTERVAL = 10 ** 4


def _int_from_sci(text: str) -> int:
    """Accept 1e60 / 3e18 style notation but keep exact integers; any
    other text is an argparse type error, and so a usage error."""
    try:
        v = Decimal(text)
    except InvalidOperation:
        v = Decimal("NaN")          # not a number: refused below
    if not v.is_finite() or v != v.to_integral_value():
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    return int(v)


def _env_int(name: str, default: Optional[int] = None) -> Optional[int]:
    """The integer in environment variable `name`, `default` when it is
    unset; any other text is a usage error that names the variable."""
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise ValueError("%s must be an integer, got %r" % (name, text)) from None


def _env_workers(requested: Optional[int]) -> int:
    """--workers, or else CUBICTHUE_WORKERS, or else 1; fewer than one
    worker is a usage error that names where the number came from."""
    name, workers = (("--workers", requested) if requested is not None else
                     ("CUBICTHUE_WORKERS", _env_int("CUBICTHUE_WORKERS", 1)))
    if workers < 1:
        raise ValueError("%s must be at least 1, got %d" % (name, workers))
    return workers


def _env_cap(precision: Optional[int]) -> Optional[int]:
    """CUBICTHUE_PRECISION_CAP, None when it is unset, read once per command
    before its first record.  It and --precision below 1 bit are usage errors."""
    if precision is not None and precision < 1:
        raise ValueError("--precision must be at least 1, got %d" % precision)
    cap = _env_int("CUBICTHUE_PRECISION_CAP")
    if cap is not None and cap < 1:
        raise ValueError("CUBICTHUE_PRECISION_CAP must be at least 1, got %d" % cap)
    return cap


def _precision_cap(precision: Optional[int], default: int, cap: Optional[int]) -> Optional[int]:
    """--precision, or else the command's default, capped by `cap`; without a
    cap an omitted --precision stays None, so the engine picks its own default."""
    return precision if cap is None else min(default if precision is None else precision, cap)


class _Output:
    """JSON-lines sink, to the --output file or to stdout: each record, or
    each block of whole lines a stage yields as text (a t's kappa rows),
    is written and flushed as it is emitted.  The file is opened at the
    first write, so a run that ends before one leaves it as it was; a
    finished run with no records writes a single newline."""

    def __init__(self, path: Optional[str]):
        self.path = path
        self.fh = None

    def write(self, text: str):
        if self.fh is None and self.path is not None:
            self.fh = open(self.path, "w")
        fh = self.fh or sys.stdout
        fh.write(text)
        fh.flush()

    def emit(self, record: dict) -> str:
        """Writes the record as one line and returns that line, without
        its newline."""
        record.setdefault("schema", 1)
        line = json.dumps(record, sort_keys=True)
        self.write(line + "\n")
        return line

    def close(self, finished: bool = True):
        if self.fh is None and self.path is not None and finished:
            self.fh = open(self.path, "w")
            self.fh.write("\n")
        if self.fh is not None:
            self.fh.close()


def _load_checkpoint(path: Optional[str], config: dict):
    """The checkpoint at `path`, or None when there is none.  One that is not
    a JSON object with an integer last_t and a string hash, or that was
    written for another sweep `config`, is left alone and refused (ValueError)."""
    if not path or not os.path.exists(path):
        return None
    with open(path) as fh:
        try:
            rec = json.load(fh)
        except ValueError as exc:
            raise ValueError("checkpoint %s is not valid JSON: %s" % (path, exc)) from None
    if not (isinstance(rec, dict) and isinstance(rec.get("last_t"), int)
            and isinstance(rec.get("hash"), str)):
        raise ValueError("checkpoint %s lacks an integer last_t or a string hash" % path)
    if rec.get("config") != config:
        raise ValueError("checkpoint %s was written for the sweep %s, not %s"
                         % (path, json.dumps(rec.get("config"), sort_keys=True),
                            json.dumps(config, sort_keys=True)))
    return rec


def _check_checkpoint_writable(path: str):
    """Raises OSError when PATH.tmp, where each checkpoint is written before
    it replaces PATH, cannot be written; a probe file made here is removed."""
    tmp = path + ".tmp"
    existed = os.path.exists(tmp)
    open(tmp, "a").close()
    if not existed:
        os.remove(tmp)


def _write_checkpoint(path: str, config: dict, last_t: int, digest: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"config": config, "last_t": last_t, "hash": digest}, fh)
    os.replace(tmp, path)


def _resume(out: _Output, ckpt: dict, digest):
    """The records (dicts with a "t") of --output through the checkpoint's
    last t, yielded as their lines are hashed into `digest`.  Then, if the
    hash is the checkpoint's, the lines after them (a run stopped before
    its next checkpoint wrote them, the last perhaps cut mid-line) are cut
    off and --output is opened to append; if not, or with no output, it
    raises ValueError and leaves both files as they are."""
    if out.path is None:
        raise ValueError("resuming from a checkpoint needs the --output it counts")
    end, counted = 0, False
    try:
        with open(out.path, "rb") as fh:
            for line in fh:
                if not line.endswith(b"\n"):
                    break
                rec = json.loads(line)
                last = rec["t"] == ckpt["last_t"]
                digest.update(line[:-1])
                end += len(line)
                yield rec
                if last:
                    counted = digest.hexdigest() == ckpt["hash"]
                    break
    except (OSError, ValueError, LookupError, TypeError):
        pass    # a missing output or a line that is no record: not counted
    if not counted:
        raise ValueError("%s does not hold the records its checkpoint counts "
                         "through t=%d" % (out.path, ckpt["last_t"]))
    if os.path.getsize(out.path) > end:
        os.truncate(out.path, end)
    out.fh = open(out.path, "a")


class _Checkpointed(NamedTuple):
    """Yielded by the sweep before its first record: the configuration its
    --checkpoint is written for.  The runner sends back the records of
    --output such a checkpoint counts, to read through before yielding."""
    config: dict


def _run(stages, path: Optional[str], checkpoint: Optional[str]) -> int:
    """Runs the stages in turn, the only writer of their records (dicts,
    or a str of whole JSON lines written as one block), and returns the
    worst of their exit statuses, in `_SEVERITY`'s order.  While a
    _Checkpointed stage runs, --checkpoint is rewritten after every
    CHECKPOINT_INTERVAL-th of its records and after its last, with the
    sha256 of the output's lines so far, newlines left out."""
    if checkpoint and len(stages) > 1 and os.path.exists(checkpoint):
        # the stages share one --output, so a resumed stage cannot append to it
        raise ValueError("checkpoint %s already counts records; certify-all "
                         "does not resume" % checkpoint)
    out, digest, rc, finished = _Output(path), sha256(), EXIT_OK, False
    try:
        for stage in stages:
            # closed on every exit: a failed write stops a sweep's workers
            with contextlib.closing(stage):
                config, n, reply = None, 0, None
                while True:
                    try:
                        item, reply = stage.send(reply), None
                    except StopIteration as stop:
                        rc = max(rc, stop.value, key=_SEVERITY.index)
                        break
                    if isinstance(item, _Checkpointed):
                        config = item.config
                        ckpt = _load_checkpoint(checkpoint, config)
                        reply = _resume(out, ckpt, digest) if ckpt else ()
                        continue
                    if item.__class__ is str:
                        # a block of lines: the digest leaves out their newlines
                        out.write(item)
                        digest.update(item.replace("\n", "").encode())
                    else:
                        digest.update(out.emit(item).encode())
                    n += 1
                    if checkpoint and config and n % CHECKPOINT_INTERVAL == 0:
                        _write_checkpoint(checkpoint, config, item["t"], digest.hexdigest())
                if checkpoint and config and n % CHECKPOINT_INTERVAL:
                    _write_checkpoint(checkpoint, config, item["t"], digest.hexdigest())
        finished = True
    finally:
        # a run refused (exit 3) or stopped before its first record leaves
        # --output as it was; a finished one without records gets a newline
        out.close(finished=finished and rc != EXIT_USAGE)
    return rc


def _sample_ts(seed: int, count: int, lo: int, hi: int) -> List[int]:
    return sorted(random.Random(seed).sample(range(lo, hi + 1), count))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cubicthue", description="Certified verification "
                                 "pipeline for the cubic Thue family F_3,t(x,y)=1.")
    sub = ap.add_subparsers(dest="command", required=True)

    flags = {"precision": dict(type=int, default=None),
             "workers": dict(type=int, default=None),
             "seed": dict(type=int, default=DEFAULT_SEED)}

    def common(p, *read, t=False, trange=False, which=False, qa=False):
        # --output, and of the flags above only those the command reads
        for name in read:
            p.add_argument("--" + name, **flags[name])
        p.add_argument("--output", default=None)
        if t:
            p.add_argument("--t", type=int, required=True)
        if trange:
            p.add_argument("--t-lo", type=int, default=roots.T_MIN)
            p.add_argument("--t-hi", type=int, default=SWEEP_SLICE_HI)
        if which:
            p.add_argument("--which", type=int, default=2, choices=(1, 2, 3))
        if qa:
            p.add_argument("--Q", type=_int_from_sci, default=reduction.DEFAULT_Q)
            p.add_argument("--A", type=_int_from_sci, default=reduction.DEFAULT_A)

    p = sub.add_parser("roots", help="certified root enclosures")
    common(p, "precision", t=True)

    p = sub.add_parser("kappas", help="kappa-interval certification")
    common(p, "precision", "workers", trange=True)
    p.add_argument("--extra-t", type=int, nargs="*", default=[])

    p = sub.add_parser("exponents", help="unit-exponent recovery for known solutions")
    common(p, t=True)

    p = sub.add_parser("matveev", help="Matveev constant reproduction")
    common(p, "precision")
    p.add_argument("--t", type=int, default=roots.T_MIN)

    p = sub.add_parser("tmax", help="absolute bound on t")
    common(p)

    p = sub.add_parser("reduce", help="Baker-Davenport reduction at one t")
    common(p, "precision", t=True, which=True, qa=True)

    p = sub.add_parser("sweep", help="reduction sweep over a t range")
    common(p, "precision", "workers", "seed", trange=True, which=True, qa=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--samples", type=int, default=0,
                   help="seeded extra samples up to t_max")
    p.add_argument("--full", action="store_true",
                   help="sweep every t up to the absolute bound")

    p = sub.add_parser("search", help="bounded brute-force search for one form")
    common(p)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--coeffs", type=int, nargs=4, default=None,
                   metavar=("A", "B", "C", "D"))
    p.add_argument("--y-bound", type=_int_from_sci, default=1000)

    p = sub.add_parser("verify-theorem", help="bounded verification of the solution list")
    common(p, t=True)
    p.add_argument("--y-bound", type=_int_from_sci, default=5000)

    p = sub.add_parser("verify-tables", help="sporadic table verification")
    common(p)
    p.add_argument("--y-bound", type=_int_from_sci, default=10 ** 4)

    p = sub.add_parser("certify-all", help="full desk-scale certification chain")
    common(p, "precision", "workers", "seed", trange=True, qa=True)
    p.add_argument("--y-bound", type=_int_from_sci, default=5000)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--full", action="store_true")

    return ap


def _cmd_roots(precision, t):
    triple = roots.isolate_roots(
        t, _precision_cap(precision, roots.default_precision(t), _env_cap(precision)))
    for i, th in enumerate(triple.thetas, start=1):
        yield {"t": t, "root": i, "enclosure": th.as_decimal_string(40),
               "lower": float(th.lower), "upper": float(th.upper)}
    print("t=%d: three separated certified roots at %d bits" % (t, triple.precision))
    return EXIT_OK


def _cmd_kappas(precision, workers, t_lo, t_hi, extra_t):
    # each t once, in first-seen order: sorting would move certify-all's
    # 576241 ahead of 10^6 and change its output
    span = range(t_lo, t_hi + 1)
    extra = tuple(t for t in dict.fromkeys(extra_t) if t not in span)
    if any(t < roots.T_MIN for t in (*span[:1], *extra)):
        # refused before the first record, not at the first t below T_MIN
        raise ValueError("kappa claims are certified for t >= %d only" % roots.T_MIN)
    workers = _env_workers(workers)
    failures = inconclusive = 0
    ts = Jobs(span, extra)
    rows = functools.partial(_kappa_report_row, precision=precision, cap=_env_cap(precision))
    for text, t, all_pass, error in parallel_map(rows, ts, workers):
        if error is not None:
            inconclusive += 1
            print("kappas: t=%d inconclusive: %s" % (t, error), file=sys.stderr)
            continue
        yield text
        if not all_pass:
            failures += 1
            print("kappa FAILURE at t=%d" % t)
    print("kappas: %d/%d parameter values fully certified" %
          (len(ts) - failures - inconclusive, len(ts)))
    return (EXIT_VERIFICATION_FAILED if failures else
            EXIT_INCONCLUSIVE if inconclusive else EXIT_OK)


# a kappa row's JSON line as `json.dumps(record, sort_keys=True)` writes it:
# the keys in sorted order, an int by str, a bool as true or false, and a
# float (each endpoint, and in the target text) by float.__repr__
_KAPPA_LINE = ('{"kappa": %d, "lower": %r, "pass": %s, "schema": 1, "t": %d, '
               '"target": %s, "upper": %r}\n')


def _target_text(target) -> str:
    return "[%r, %r]" % (float(target[0]), float(target[1]))


# each claim's target with its text, built once: a row whose target is
# another object (a test's moved target) has its text built for it
_KAPPA_TARGETS = {j: (claim.target, _target_text(claim.target))
                  for j, claim in roots.KAPPA_CLAIMS.items()}


def _kappa_report_row(t, precision, cap):
    """The rows of one t as their JSON lines, or why its enclosures cannot
    be formed at `precision`, capped here by `cap`, in the process that
    computes the t, so the caller lists no t and gets one string per t."""
    try:
        rep = roots.verify_kappas(t, _precision_cap(precision, roots.default_precision(t), cap))
    except (IndeterminateSignError, PrecisionInsufficientError) as exc:
        return "", t, False, str(exc)
    lines = []
    for j, enclosure, target, passed in rep.rows:
        known, text = _KAPPA_TARGETS[j]
        lo, hi = enclosure._ival
        lines.append(_KAPPA_LINE % (j, realnum._float(lo), "true" if passed else "false", t,
                                    text if target is known else _target_text(target),
                                    realnum._float(hi)))
    return "".join(lines), t, rep.all_pass, None


def _cmd_exponents(t):
    solutions = forms.known_solutions(t).solutions
    for (x, y) in solutions:
        pair = exponents.recover_exponents(t, x, y)
        sol_type = (exponents.classify(t, x, y).value if t >= roots.T_MIN else "n/a")
        yield {"t": t, "x": x, "y": y, "delta": pair.delta, "n": pair.n, "m": pair.m,
               "type": sol_type, "residual_upper": float(pair.residual.upper)}
    print("t=%d: exponents recovered for all %d known solutions" % (t, len(solutions)))
    return EXIT_OK


def _cmd_matveev(precision, t):
    res = bounds.matveev_for_family(roots.isolate_roots(
        t, _precision_cap(precision, roots.default_precision(t), _env_cap(precision))))
    ok = res.in_target_window
    yield {"which": 2, "t": res.t, "coefficient": float(res.coefficient),
           "height_checks": list(res.height_checks),
           "w0_prefactor": float(bounds.w0_prefactor()), "in_target_window": ok}
    print("Matveev coefficient: %.6g (%s)" %
          (float(res.coefficient), "within target window" if ok else "OUT OF WINDOW"))
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _cmd_tmax():
    t_max, n_max = bounds.derive_t_max()
    yield {"t_max": t_max, "n_max": n_max}
    print("t_max = %d  (n < %.4g)" % (t_max, n_max))
    return EXIT_OK if t_max == 576241 else EXIT_VERIFICATION_FAILED


def _cmd_reduce(precision, t, which, Q, A):
    outcome = reduction.reduce_single(which, t, A, Q, _precision_cap(
        precision, realnum.reduction_precision(Q), _env_cap(precision)))
    yield outcome.to_json()
    if outcome.status == "success" and outcome.contradiction:
        print("t=%d: reduction success, q=%s, margin %.4g" % (t, outcome.q, outcome.margin))
        return EXIT_OK
    if outcome.status == "success":
        print("t=%d: reduction success but no contradiction" % t)
        return EXIT_VERIFICATION_FAILED
    print("t=%d: reduction inconclusive after escalation" % t)
    return EXIT_INCONCLUSIVE


def _cmd_sweep(precision, workers, seed, t_lo, t_hi, which, Q, A, samples, full):
    # the bisection for t_max is run only when the range or the samples read it
    t_max = bounds.derive_t_max()[0] if full or samples else None
    extra = _sample_ts(seed, samples, SWEEP_SLICE_HI + 1, t_max) if samples and not full else []
    t_hi = t_max if full else t_hi
    precision = _precision_cap(precision, realnum.reduction_precision(Q), _env_cap(precision))
    workers = _env_workers(workers)
    tally = collections.Counter()

    def judged(records):
        # the verdict counts every record of the sweep, resumed or written;
        # a resumed one is judged before its hash is checked, so it may be any dict
        for rec in records:
            tally["n"] += 1
            tally["ok"] += rec.get("status") == "success" and rec.get("contradiction") is True
            tally["failed"] += rec.get("status") == "failed"
            yield rec

    # everything that decides which records the sweep writes, and their bytes
    config = {"which": which, "A": str(A), "Q": str(Q), "t_range": [t_lo, t_hi],
              "extra_ts": extra, "precision": precision or realnum.reduction_precision(Q)}
    after = None
    for rec in judged((yield _Checkpointed(config))):
        after = rec["t"]
    if t_lo <= t_hi and t_lo < roots.T_MIN:
        raise ValueError("sweep range starts at t >= %d" % roots.T_MIN)
    # the ts past `after`, the last one resumed, in order: the range, with
    # the samples outside it (sorted and distinct) on either side
    span = range(t_lo if after is None else max(t_lo, after + 1), t_hi + 1)
    rest = [t for t in extra if t not in span and (after is None or t > after)]
    k = bisect.bisect_left(rest, span.start)
    reduce = functools.partial(reduction.reduce_single, which, A=A, Q=Q, precision=precision)
    # closed on every exit, so a failed write stops the workers at once
    with contextlib.closing(parallel_map(reduce, Jobs(rest[:k], span, rest[k:]),
                                         workers)) as outcomes:
        yield from judged(o.to_json() for o in outcomes)
    print("sweep which=%d: %d/%d success+contradiction" % (which, tally["ok"], tally["n"]))
    if tally["ok"] + tally["failed"] < tally["n"]:
        # a success short of a contradiction
        return EXIT_VERIFICATION_FAILED
    return EXIT_INCONCLUSIVE if tally["failed"] else EXIT_OK


def _cmd_search(t, coeffs, y_bound):
    if (t is None) == (coeffs is None):
        print("search: give exactly one of --t or --coeffs", file=sys.stderr)
        return EXIT_USAGE
    F = forms.family_form(3, t) if t is not None else forms.BinaryCubicForm(*coeffs)
    rep = search.thue_solutions_bruteforce(F, y_bound)
    yield rep.to_json()
    print("%s: %d solutions with |y| <= %d" % (F, rep.count, y_bound))
    return EXIT_OK


def _cmd_verify_theorem(t, y_bound):
    found = search.thue_solutions_bruteforce(forms.family_form(3, t), y_bound)
    expected = tuple(sorted(forms.known_solutions(t).restricted(y_bound)))
    ok = found.solutions == expected
    yield {"t": t, "y_bound": y_bound, "count": found.count,
           "solutions": [list(s) for s in found.solutions], "pass": ok}
    print("t=%d: %d solutions, %s" %
          (t, found.count, "matches published list" if ok else "MISMATCH"))
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _cmd_verify_tables(y_bound):
    reports = search.verify_sporadic_tables(y_bound)
    yield from (r.to_json() for r in reports)
    print("tables: %d/%d forms at or above their published counts" %
          (sum(r.matches_expected for r in reports), len(reports)))
    return EXIT_OK if all(r.matches_expected for r in reports) else EXIT_VERIFICATION_FAILED


def _theorem_range(y_bound):
    # serial: a bounded search costs well under a millisecond per t
    fails = [t for t in range(-30, 31)
             if t not in (0, 1) and not search.verify_theorem(t, y_bound)]
    for t in fails:
        print("theorem verification FAILED at t=%d" % t)
    yield {"stage": "theorem-range", "t_range": [-30, 30], "y_bound": y_bound,
           "failures": len(fails)}
    print("theorem range [-30,30]: %d failures" % len(fails))
    return EXIT_VERIFICATION_FAILED if fails else EXIT_OK


def _cmd_certify_all(precision, workers, seed, t_lo, t_hi, Q, A, y_bound, full):
    """The stages in proof order: kappa certification, Matveev constant,
    absolute bound, reduction sweep slice, bounded search."""
    return [_cmd_kappas(precision=precision, workers=workers, t_lo=t_lo, t_hi=min(t_hi, 2000),
                        extra_t=[10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, 576241]),
            _cmd_matveev(precision=precision, t=roots.T_MIN),
            _cmd_tmax(),
            _cmd_sweep(precision=precision, workers=workers, seed=seed, t_lo=t_lo, t_hi=t_hi,
                       which=2, Q=Q, A=A, samples=0 if full else SWEEP_SAMPLE_COUNT, full=full),
            _theorem_range(y_bound),
            _cmd_verify_tables(y_bound=10 ** 4)]


_COMMANDS = {"roots": _cmd_roots, "kappas": _cmd_kappas, "exponents": _cmd_exponents,
             "matveev": _cmd_matveev, "tmax": _cmd_tmax, "reduce": _cmd_reduce,
             "sweep": _cmd_sweep, "search": _cmd_search,
             "verify-theorem": _cmd_verify_theorem, "verify-tables": _cmd_verify_tables,
             "certify-all": _cmd_certify_all}


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # every option but these three is a parameter of the command's stages
    options = dict(vars(args))
    command, output = options.pop("command"), options.pop("output")
    checkpoint = options.pop("checkpoint", None)
    try:
        # refused before the command runs, so no record is written
        if "Q" in options:
            reduction.check_bounds(options["A"], options["Q"])
        if checkpoint:
            _check_checkpoint_writable(checkpoint)
        stages = _COMMANDS[command](**options)
        rc = _run(stages if command == "certify-all" else [stages], output, checkpoint)
    except (IndeterminateSignError, PrecisionInsufficientError) as exc:
        print("cubicthue %s: inconclusive: %s" % (command, exc), file=sys.stderr)
        rc = EXIT_INCONCLUSIVE
    except VerificationFailedError as exc:
        print("cubicthue %s: verification failed: %s" % (command, exc), file=sys.stderr)
        rc = EXIT_VERIFICATION_FAILED
    except BrokenPipeError:
        # stdout's reader went away (`cubicthue kappas ... | head`): stop, with
        # stdout on the null device so that the flush at exit does not raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        rc = EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        # the engine rejects parameters outside its range with ValueError;
        # an --output or --checkpoint that cannot be written is OSError
        print("cubicthue %s: error: %s" % (command, exc), file=sys.stderr)
        rc = EXIT_USAGE
    return rc


if __name__ == "__main__":
    sys.exit(main())
