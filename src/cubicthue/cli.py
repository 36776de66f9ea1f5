"""Command-line orchestration for the verification pipeline.

Exit codes: 0 all checks pass, 1 a verification failed, 2 inconclusive
(precision/Q exhausted), 3 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import random
import sys
from decimal import Decimal
from typing import List, Optional

from . import bounds, exponents, forms, realnum, reduction, roots, search
from .parallel import parallel_map

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

DEFAULT_SEED = 20140213
SWEEP_SLICE_HI = 2000
SWEEP_SAMPLE_COUNT = 100


def _int_from_sci(text: str) -> int:
    """Accept 1e60 / 3e18 style notation but keep exact integers."""
    v = Decimal(text)
    if v != v.to_integral_value():
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    return int(v)


def _env_workers(requested: Optional[int]) -> int:
    if requested is not None:
        return requested
    return int(os.environ.get("CUBICTHUE_WORKERS", "1"))


def _precision_cap(precision: Optional[int], default: int) -> Optional[int]:
    """--precision, or else the command's default precision, capped by
    CUBICTHUE_PRECISION_CAP; without a cap an omitted --precision stays
    None, so the engine picks its own default."""
    cap = os.environ.get("CUBICTHUE_PRECISION_CAP")
    if cap is None:
        return precision
    return min(default if precision is None else precision, int(cap))


class _Output:
    """JSON-lines sink: each record is written and flushed as it is
    emitted, to the --output file or to stdout.  An --output file with
    no records holds a single newline."""

    def __init__(self, path: Optional[str]):
        self.fh = open(path, "w") if path else None
        self.emitted = False

    def emit(self, record: dict):
        record.setdefault("schema", 1)
        fh = self.fh or sys.stdout
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()
        self.emitted = True

    def close(self):
        if self.fh is not None:
            if not self.emitted:
                self.fh.write("\n")
            self.fh.close()


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
    p.add_argument("--csv", default=None)

    p = sub.add_parser("search", help="bounded brute-force search for one form")
    common(p, "workers")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--coeffs", type=int, nargs=4, default=None,
                   metavar=("A", "B", "C", "D"))
    p.add_argument("--y-bound", type=int, default=1000)

    p = sub.add_parser("verify-theorem", help="bounded verification of the solution list")
    common(p, "workers", t=True)
    p.add_argument("--y-bound", type=int, default=5000)

    p = sub.add_parser("verify-tables", help="sporadic table verification")
    common(p, "workers")
    p.add_argument("--y-bound", type=int, default=10 ** 4)

    p = sub.add_parser("certify-all", help="full desk-scale certification chain")
    common(p, "precision", "workers", "seed", trange=True)
    p.add_argument("--Q", type=_int_from_sci, default=reduction.DEFAULT_Q)
    p.add_argument("--A", type=_int_from_sci, default=reduction.DEFAULT_A)
    p.add_argument("--y-bound", type=int, default=5000)
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
    ts = list(range(args.t_lo, args.t_hi + 1)) + list(args.extra_t)
    workers = _env_workers(args.workers)
    failures = 0
    jobs = [(t, _precision_cap(args.precision, roots.default_precision(t))) for t in ts]
    for rep_rows, t, all_pass in parallel_map(_kappa_report_row, jobs, workers):
        for row in rep_rows:
            out.emit(row)
        if not all_pass:
            failures += 1
            print("kappa FAILURE at t=%d" % t)
    print("kappas: %d/%d parameter values fully certified" %
          (len(ts) - failures, len(ts)))
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION_FAILED


def _kappa_report_row(job):
    t, precision = job
    rep = roots.verify_kappas(t, precision)
    return [r.to_json(t) for r in rep.rows], t, rep.all_pass


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
    t = max(args.t, 10)
    res = bounds.matveev_for_family(
        2, t, precision=_precision_cap(args.precision, roots.default_precision(t)))
    ok = 8.30e15 <= res.coefficient <= 8.40e15
    out.emit({"which": 2, "coefficient": res.coefficient,
              "height_checks": list(res.height_checks),
              "w0_prefactor": bounds.w0_prefactor(),
              "in_target_window": ok})
    print("Matveev coefficient: %.6g (%s)" %
          (res.coefficient, "within target window" if ok else "OUT OF WINDOW"))
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
    t_max = bounds.derive_t_max()[0]
    extra = (_sample_ts(args.seed, args.samples, SWEEP_SLICE_HI + 1, t_max)
             if args.samples and not args.full else [])
    n = n_ok = n_failed = 0
    with contextlib.ExitStack() as stack:
        # closed on every exit, so a failed write stops the workers at once
        outcomes = stack.enter_context(contextlib.closing(reduction.verify_range(
            args.which, args.t_lo, t_max if args.full else args.t_hi, args.A, args.Q,
            workers=_env_workers(args.workers), extra_ts=extra,
            precision=_precision_cap(args.precision, realnum.reduction_precision(args.Q)),
            checkpoint_path=args.checkpoint)))
        rows = None
        if args.csv:
            # line-buffered: each row reaches the file as it is written
            fh = stack.enter_context(open(args.csv, "w", newline="", buffering=1))
            rows = csv.writer(fh)
            rows.writerow(["t", "status", "precision", "q", "lambda_lower_ln",
                           "margin", "contradiction"])
        for o in outcomes:
            out.emit(o.to_json())
            if rows is not None:
                rows.writerow([o.t, o.status, o.precision, o.q, o.lambda_lower_ln,
                               o.margin, o.contradiction])
            n += 1
            n_ok += o.status == "success" and o.contradiction
            n_failed += o.status == "failed"
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
    rep = search.thue_solutions_bruteforce(F, args.y_bound,
                                           _env_workers(args.workers))
    out.emit(rep.to_json())
    print("%s: %d solutions with |y| <= %d" % (F, rep.count, args.y_bound))
    return EXIT_OK


def _cmd_verify_theorem(args, out: _Output) -> int:
    found = search.thue_solutions_bruteforce(forms.family_form(3, args.t),
                                             args.y_bound,
                                             _env_workers(args.workers))
    expected = tuple(sorted(forms.known_solutions(args.t).restricted(args.y_bound)))
    ok = found.solutions == expected
    out.emit({"t": args.t, "y_bound": args.y_bound, "count": found.count,
              "solutions": [list(s) for s in found.solutions], "pass": ok})
    print("t=%d: %d solutions, %s" %
          (args.t, found.count, "matches published list" if ok else "MISMATCH"))
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _cmd_verify_tables(args, out: _Output) -> int:
    reports = search.verify_sporadic_tables(args.y_bound, _env_workers(args.workers))
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

    rc = stage(_cmd_kappas, t_hi=min(args.t_hi, 2000),
               extra_t=[10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, 576241])
    rc = max(rc, stage(_cmd_matveev, t=10))
    rc = max(rc, _cmd_tmax(args, out))
    rc = max(rc, stage(_cmd_sweep, which=2, csv=None,
                       samples=0 if args.full else SWEEP_SAMPLE_COUNT))

    # one pool over t, each bounded search serial inside it
    ts = [t for t in range(-30, 31) if t not in (0, 1)]
    holds = functools.partial(search.verify_theorem, y_bound=args.y_bound)
    fails = 0
    for t, ok in zip(ts, parallel_map(holds, ts, _env_workers(args.workers))):
        if not ok:
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
        rc = _COMMANDS[args.command](args, out)
    except ValueError as exc:
        # the engine rejects parameters outside its range with ValueError
        print("cubicthue %s: error: %s" % (args.command, exc), file=sys.stderr)
        rc = EXIT_USAGE
    finally:
        out.close()
    return rc


if __name__ == "__main__":
    sys.exit(main())
