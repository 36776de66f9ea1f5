"""Command-line orchestration for the verification pipeline.

Exit codes: 0 all checks pass, 1 a verification failed, 2 inconclusive
(precision/Q exhausted, or a certified comparison the enclosures do not
decide), 3 usage error or an --output or --checkpoint that cannot be
written, 141 (128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import sys
from decimal import Decimal, InvalidOperation
from typing import List, Optional

from . import bounds, exponents, forms, realnum, reduction, roots, search
from .errors import (IndeterminateSignError, PrecisionInsufficientError,
                     VerificationFailedError)
from .parallel import parallel_map

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_BROKEN_PIPE = 141

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
    return requested if requested is not None else _env_int("CUBICTHUE_WORKERS", 1)


def _precision_cap(precision: Optional[int], default: int) -> Optional[int]:
    """--precision, or else the command's default precision, capped by
    CUBICTHUE_PRECISION_CAP; without a cap an omitted --precision stays
    None, so the engine picks its own default.  A precision or cap below
    1 bit is a usage error."""
    if precision is not None and precision < 1:
        raise ValueError("--precision must be at least 1, got %d" % precision)
    cap = _env_int("CUBICTHUE_PRECISION_CAP")
    if cap is None:
        return precision
    if cap < 1:
        raise ValueError("CUBICTHUE_PRECISION_CAP must be at least 1, got %d" % cap)
    return min(default if precision is None else precision, cap)


class _Output:
    """JSON-lines sink: each record is written and flushed as it is
    emitted, to the --output file or to stdout.  The file is opened at
    the first record, so a run that ends before one leaves it as it was;
    a finished run with no records writes a single newline."""

    def __init__(self, path: Optional[str]):
        self.path = path
        self.fh = None

    def emit(self, record: dict) -> str:
        """Writes the record as one line and returns that line, without
        its newline."""
        record.setdefault("schema", 1)
        if self.path is None:
            fh = sys.stdout
        else:
            if self.fh is None:
                self.fh = open(self.path, "w")
            fh = self.fh
        line = json.dumps(record, sort_keys=True)
        fh.write(line + "\n")
        fh.flush()
        return line

    def close(self, finished: bool = True):
        if self.fh is None and self.path is not None and finished:
            self.fh = open(self.path, "w")
            self.fh.write("\n")
        if self.fh is not None:
            self.fh.close()


def _load_checkpoint(path: Optional[str], config: dict):
    """The checkpoint at `path`, or None when there is none; one that is
    not a JSON object with an integer last_t and a string hash, or one
    written for another sweep `config`, is refused with ValueError naming
    the file and left alone."""
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
    """Raises OSError when the checkpoint's temporary file PATH.tmp, which
    each checkpoint is written to before it replaces PATH, cannot be
    written; a probe file it had to create is removed again."""
    tmp = path + ".tmp"
    existed = os.path.exists(tmp)
    with open(tmp, "a"):
        pass
    if not existed:
        os.remove(tmp)


def _write_checkpoint(path: str, config: dict, last_t: int, digest: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"config": config, "last_t": last_t, "hash": digest}, fh)
    os.replace(tmp, path)


def _resume(out: _Output, ckpt: dict):
    """The sha256 of --output's lines up to the checkpoint's last t,
    checked against its hash, with --output opened to append after them.
    The lines past that t, which a run stopped before its next checkpoint
    wrote (the last perhaps cut mid-line), are cut off.  A missing output
    or a hash that does not match is refused with ValueError, and both
    files are left as they are."""
    if out.path is None:
        raise ValueError("resuming from a checkpoint needs the --output it counts")
    digest, end, counted = hashlib.sha256(), 0, False
    try:
        with open(out.path, "rb") as fh:
            for line in fh:
                if not line.endswith(b"\n"):
                    break
                digest.update(line[:-1])
                end += len(line)
                if json.loads(line)["t"] == ckpt["last_t"]:
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
    return digest


def _sample_ts(seed: int, count: int, lo: int, hi: int) -> List[int]:
    rng = random.Random(seed)
    return sorted(rng.sample(range(lo, hi + 1), count))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cubicthue",
        description="Certified verification pipeline for the cubic Thue "
                    "family F_3,t(x,y)=1.")
    sub = ap.add_subparsers(dest="command", required=True)

    flags = {"precision": dict(type=int, default=None),
             "workers": dict(type=int, default=None),
             "seed": dict(type=int, default=DEFAULT_SEED)}

    def common(p, *read, t=False, trange=False):
        # --output, and of the flags above only those the command reads
        for name in read:
            p.add_argument("--" + name, **flags[name])
        p.add_argument("--output", default=None)
        if t:
            p.add_argument("--t", type=int, required=True)
        if trange:
            p.add_argument("--t-lo", type=int, default=10)
            p.add_argument("--t-hi", type=int, default=SWEEP_SLICE_HI)

    p = sub.add_parser("roots", help="certified root enclosures")
    common(p, "precision", t=True)

    p = sub.add_parser("kappas", help="kappa-interval certification")
    common(p, "precision", "workers", trange=True)
    p.add_argument("--extra-t", type=int, nargs="*", default=[])

    p = sub.add_parser("exponents", help="unit-exponent recovery for known solutions")
    common(p, t=True)

    p = sub.add_parser("matveev", help="Matveev constant reproduction")
    common(p, "precision")
    p.add_argument("--t", type=int, default=10)

    p = sub.add_parser("tmax", help="absolute bound on t")
    common(p)

    p = sub.add_parser("reduce", help="Baker-Davenport reduction at one t")
    common(p, "precision", t=True)
    p.add_argument("--which", type=int, default=2, choices=(1, 2, 3))
    p.add_argument("--Q", type=_int_from_sci, default=reduction.DEFAULT_Q)
    p.add_argument("--A", type=_int_from_sci, default=reduction.DEFAULT_A)

    p = sub.add_parser("sweep", help="reduction sweep over a t range")
    common(p, "precision", "workers", "seed", trange=True)
    p.add_argument("--which", type=int, default=2, choices=(1, 2, 3))
    p.add_argument("--Q", type=_int_from_sci, default=reduction.DEFAULT_Q)
    p.add_argument("--A", type=_int_from_sci, default=reduction.DEFAULT_A)
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
    common(p, "precision", "workers", "seed", trange=True)
    p.add_argument("--Q", type=_int_from_sci, default=reduction.DEFAULT_Q)
    p.add_argument("--A", type=_int_from_sci, default=reduction.DEFAULT_A)
    p.add_argument("--y-bound", type=_int_from_sci, default=5000)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--full", action="store_true")

    return ap


def _cmd_roots(args, out: _Output) -> int:
    triple = roots.isolate_roots(
        args.t, _precision_cap(args.precision, roots.default_precision(args.t)))
    for i, th in enumerate(triple.thetas, start=1):
        out.emit({"t": args.t, "root": i,
                  "enclosure": th.as_decimal_string(40),
                  "lower": float(th.lower), "upper": float(th.upper)})
    print("t=%d: three separated certified roots at %d bits" %
          (args.t, triple.precision))
    return EXIT_OK


def _cmd_kappas(args, out: _Output) -> int:
    # each t once, in first-seen order: sorting would move certify-all's
    # 576241 ahead of 10^6 and change its output
    ts = list(dict.fromkeys([*range(args.t_lo, args.t_hi + 1), *args.extra_t]))
    if any(t < 10 for t in ts):
        # refused before the first record, not at the first t below 10
        raise ValueError("kappa claims are certified for t >= 10 only")
    workers = _env_workers(args.workers)
    failures = 0
    jobs = [(t, _precision_cap(args.precision, roots.default_precision(t))) for t in ts]
    inconclusive = 0
    for rep_rows, t, all_pass, error in parallel_map(_kappa_report_row, jobs, workers):
        if error is not None:
            inconclusive += 1
            print("kappas: t=%d inconclusive: %s" % (t, error), file=sys.stderr)
            continue
        for row in rep_rows:
            out.emit(row)
        if not all_pass:
            failures += 1
            print("kappa FAILURE at t=%d" % t)
    print("kappas: %d/%d parameter values fully certified" %
          (len(ts) - failures - inconclusive, len(ts)))
    if failures:
        return EXIT_VERIFICATION_FAILED
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


def _kappa_report_row(job):
    """The rows of one t, or the reason its enclosures could not be
    formed at the given precision."""
    t, precision = job
    try:
        rep = roots.verify_kappas(t, precision)
    except (IndeterminateSignError, PrecisionInsufficientError) as exc:
        return [], t, False, str(exc)
    return [r.to_json(t) for r in rep.rows], t, rep.all_pass, None


def _cmd_exponents(args, out: _Output) -> int:
    t = args.t
    for (x, y) in forms.known_solutions(t).solutions:
        pair = exponents.recover_exponents(t, x, y)
        sol_type = (exponents.classify(t, x, y).value if t >= 10 else "n/a")
        out.emit({"t": t, "x": x, "y": y, "delta": pair.delta,
                  "n": pair.n, "m": pair.m, "type": sol_type,
                  "residual_upper": float(pair.residual.upper)})
    print("t=%d: exponents recovered for all %d known solutions"
          % (t, len(forms.known_solutions(t))))
    return EXIT_OK


def _cmd_matveev(args, out: _Output) -> int:
    triple = roots.isolate_roots(
        args.t, _precision_cap(args.precision, roots.default_precision(args.t)))
    res = bounds.matveev_for_family(triple)
    ok = res.in_target_window
    out.emit({"which": 2, "t": res.t, "coefficient": float(res.coefficient),
              "height_checks": list(res.height_checks),
              "w0_prefactor": float(bounds.w0_prefactor()),
              "in_target_window": ok})
    print("Matveev coefficient: %.6g (%s)" %
          (float(res.coefficient), "within target window" if ok else "OUT OF WINDOW"))
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _cmd_tmax(args, out: _Output) -> int:
    t_max, n_max = bounds.derive_t_max()
    out.emit({"t_max": t_max, "n_max": n_max})
    print("t_max = %d  (n < %.4g)" % (t_max, n_max))
    return EXIT_OK if t_max == 576241 else EXIT_VERIFICATION_FAILED


def _cmd_reduce(args, out: _Output) -> int:
    outcome = reduction.reduce_single(
        args.which, args.t, args.A, args.Q,
        _precision_cap(args.precision, realnum.reduction_precision(args.Q)))
    out.emit(outcome.to_json())
    if outcome.status == "success" and outcome.contradiction:
        print("t=%d: reduction success, q=%s, margin %.4g" %
              (args.t, outcome.q, outcome.margin))
        return EXIT_OK
    if outcome.status == "success":
        print("t=%d: reduction success but no contradiction" % args.t)
        return EXIT_VERIFICATION_FAILED
    print("t=%d: reduction inconclusive after escalation" % args.t)
    return EXIT_INCONCLUSIVE


def _cmd_sweep(args, out: _Output) -> int:
    # the bisection for t_max is run only when the range or the samples read it
    t_max = bounds.derive_t_max()[0] if args.full or args.samples else None
    extra = (_sample_ts(args.seed, args.samples, SWEEP_SLICE_HI + 1, t_max)
             if args.samples and not args.full else [])
    t_hi = t_max if args.full else args.t_hi
    precision = _precision_cap(args.precision, realnum.reduction_precision(args.Q))
    # everything that decides which records the sweep writes, and their bytes
    config = {"which": args.which, "A": str(args.A), "Q": str(args.Q),
              "t_range": [args.t_lo, t_hi], "extra_ts": extra,
              "precision": precision or realnum.reduction_precision(args.Q)}
    ckpt = _load_checkpoint(args.checkpoint, config)
    n = n_ok = n_failed = 0
    # closed on every exit, so a failed write stops the workers at once
    with contextlib.closing(reduction.verify_range(
            args.which, args.t_lo, t_hi, args.A, args.Q,
            workers=_env_workers(args.workers), extra_ts=extra, precision=precision,
            after=ckpt and ckpt["last_t"])) as outcomes:
        # the checkpoint hash is the sha256 of the written lines, newlines
        # left out; it is rewritten right after the record it counts
        digest = _resume(out, ckpt) if ckpt else hashlib.sha256()
        for o in outcomes:
            digest.update(out.emit(o.to_json()).encode())
            n += 1
            n_ok += o.status == "success" and o.contradiction
            n_failed += o.status == "failed"
            if args.checkpoint and n % CHECKPOINT_INTERVAL == 0:
                _write_checkpoint(args.checkpoint, config, o.t, digest.hexdigest())
        if args.checkpoint and n % CHECKPOINT_INTERVAL:
            _write_checkpoint(args.checkpoint, config, o.t, digest.hexdigest())
    print("sweep which=%d: %d/%d success+contradiction" % (args.which, n_ok, n))
    if n_ok == n:
        return EXIT_OK
    if n_failed:
        return EXIT_INCONCLUSIVE
    return EXIT_VERIFICATION_FAILED


def _cmd_search(args, out: _Output) -> int:
    if (args.t is None) == (args.coeffs is None):
        print("search: give exactly one of --t or --coeffs", file=sys.stderr)
        return EXIT_USAGE
    F = forms.family_form(3, args.t) if args.t is not None \
        else forms.BinaryCubicForm(*args.coeffs)
    rep = search.thue_solutions_bruteforce(F, args.y_bound)
    out.emit(rep.to_json())
    print("%s: %d solutions with |y| <= %d" % (F, rep.count, args.y_bound))
    return EXIT_OK


def _cmd_verify_theorem(args, out: _Output) -> int:
    found = search.thue_solutions_bruteforce(forms.family_form(3, args.t),
                                             args.y_bound)
    expected = tuple(sorted(forms.known_solutions(args.t).restricted(args.y_bound)))
    ok = found.solutions == expected
    out.emit({"t": args.t, "y_bound": args.y_bound, "count": found.count,
              "solutions": [list(s) for s in found.solutions], "pass": ok})
    print("t=%d: %d solutions, %s" %
          (args.t, found.count, "matches published list" if ok else "MISMATCH"))
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _cmd_verify_tables(args, out: _Output) -> int:
    reports = search.verify_sporadic_tables(args.y_bound)
    ok = all(r.matches_expected for r in reports)
    for r in reports:
        out.emit(r.to_json())
    print("tables: %d/%d forms at or above their published counts" %
          (sum(r.matches_expected for r in reports), len(reports)))
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _cmd_certify_all(args, out: _Output) -> int:
    """Chains the proof order: kappa certification, Matveev constant,
    absolute bound, reduction sweep slice, bounded search."""
    def stage(cmd, **overrides) -> int:
        return cmd(argparse.Namespace(**{**vars(args), **overrides}), out)

    if args.checkpoint and os.path.exists(args.checkpoint):
        # the stages share one --output, so its sweep cannot append to it
        raise ValueError("checkpoint %s already counts records; certify-all "
                         "does not resume" % args.checkpoint)

    rc = stage(_cmd_kappas, t_hi=min(args.t_hi, 2000),
               extra_t=[10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, 576241])
    rc = max(rc, stage(_cmd_matveev, t=10))
    rc = max(rc, _cmd_tmax(args, out))
    rc = max(rc, stage(_cmd_sweep, which=2,
                       samples=0 if args.full else SWEEP_SAMPLE_COUNT))

    # serial: a bounded search costs well under a millisecond per t
    fails = 0
    for t in range(-30, 31):
        if t not in (0, 1) and not search.verify_theorem(t, args.y_bound):
            fails += 1
            print("theorem verification FAILED at t=%d" % t)
    out.emit({"stage": "theorem-range", "t_range": [-30, 30],
              "y_bound": args.y_bound, "failures": fails})
    print("theorem range [-30,30]: %d failures" % fails)
    if fails:
        rc = max(rc, EXIT_VERIFICATION_FAILED)

    return max(rc, stage(_cmd_verify_tables, y_bound=10 ** 4))


_COMMANDS = {
    "roots": _cmd_roots,
    "kappas": _cmd_kappas,
    "exponents": _cmd_exponents,
    "matveev": _cmd_matveev,
    "tmax": _cmd_tmax,
    "reduce": _cmd_reduce,
    "sweep": _cmd_sweep,
    "search": _cmd_search,
    "verify-theorem": _cmd_verify_theorem,
    "verify-tables": _cmd_verify_tables,
    "certify-all": _cmd_certify_all,
}


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    out = _Output(getattr(args, "output", None))
    try:
        if hasattr(args, "Q"):
            # refused before the command runs, so no record is written
            reduction.check_bounds(args.A, args.Q)
        if getattr(args, "checkpoint", None):
            # first written after records (sweep, certify-all's sweep
            # stage): refused before the command runs
            _check_checkpoint_writable(args.checkpoint)
        rc = _COMMANDS[args.command](args, out)
        # a refused run (exit 3) leaves an existing --output file untouched;
        # a finished one with no records opens it here, for its newline
        out.close(finished=rc != EXIT_USAGE)
    except ValueError as exc:
        # the engine rejects parameters outside its range with ValueError
        print("cubicthue %s: error: %s" % (args.command, exc), file=sys.stderr)
        rc = EXIT_USAGE
    except (IndeterminateSignError, PrecisionInsufficientError) as exc:
        print("cubicthue %s: inconclusive: %s" % (args.command, exc), file=sys.stderr)
        rc = EXIT_INCONCLUSIVE
    except VerificationFailedError as exc:
        print("cubicthue %s: verification failed: %s" % (args.command, exc),
              file=sys.stderr)
        rc = EXIT_VERIFICATION_FAILED
    except BrokenPipeError:
        # the reader of stdout went away (`cubicthue kappas ... | head`):
        # stop without a traceback, with stdout on the null device so that
        # the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        rc = EXIT_BROKEN_PIPE
    except OSError as exc:
        # an --output or --checkpoint that cannot be written: a usage
        # error, not a failed verification
        print("cubicthue %s: error: %s" % (args.command, exc), file=sys.stderr)
        rc = EXIT_USAGE
    finally:
        # a run stopped by an error before its first record leaves an
        # existing --output file untouched
        out.close(finished=False)
    return rc


if __name__ == "__main__":
    sys.exit(main())
