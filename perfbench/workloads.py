"""The four benchmark workloads: the timed window, the output checks and,
for the traced run, each item's steps called one public function at a
time.

The engine is driven only through the public functions of cubicthue and
through the `cubicthue` command line (run as ``python -m cubicthue.cli``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from mpmath import iv

from cubicthue import bounds, exponents, forms, realnum, reduction, roots, search
from cubicthue.errors import IndeterminateSignError, PrecisionInsufficientError

import seeded_inputs as si
from spans import LAYERS, Tracer

WORKLOADS = ("reduce-slice", "kappa-slice", "search-bounded", "cli-sweep")

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("roots.isolate_calls", "count"),
    ("roots.isolate_ms", "ms"),
    ("roots.isolate_share", "ratio"),
    ("roots.envelope_ms", "ms"),
    ("roots.kappa_t_only_ms", "ms"),
    ("realnum.log_ms", "ms"),
    ("realnum.cf_ms", "ms"),
    ("realnum.cf_raises", "count"),
    ("reduction.bd_ms", "ms"),
    ("reduction.convergents_scanned", "count"),
    ("reduction.escalations", "count"),
    ("reduction.attempt_yield", "ratio"),
    ("reduction.reverify_ms", "ms"),
    ("bounds.lambda_args_ms", "ms"),
    ("bounds.tmax_ms", "ms"),
    ("exponents.recover_calls", "count"),
    ("exponents.recover_ms", "ms"),
    ("search.rows", "count"),
    ("search.row_us", "us"),
    ("search.bruteforce_ms", "ms"),
    ("cli.parallel_eff", "ratio"),
    ("cli.output_bytes", "B"),
    ("cli.checkpoint_bytes", "B"),
) + tuple(("%s.self_ms" % layer, "ms") for layer in LAYERS) + (
    ("trace.items", "count"),
    ("trace.items_per_s_ratio", "ratio"),
    ("trace.span_overhead", "ratio"),
)

WHICH = 2
Q, A = reduction.DEFAULT_Q, reduction.DEFAULT_A
DEFAULT_BITS = realnum.reduction_precision(Q)
CLI_WORKERS = 2
CLI_REPEATS = 3
SETUP_REPEATS = 3
MIN_LATENCY_SAMPLES = 20
SUBPROCESS_TIMEOUT_S = 150
TABLE_FORMS = len({F.coefficients for F, _, _ in search.MANY_SOLUTIONS_TABLE
                   + search.SPORADIC_CLASSES_TABLE + search.DELONE_NAGELL_TABLE})
REDUCE_FIELDS = ("status", "precision", "Q", "q", "margin", "contradiction",
                 "escalations")


# -- what the paper publishes -------------------------------------------

def published_solutions(t: int) -> set:
    sols = {(1, 0), (0, 1), (t, 1), (t ** 4 - 2 * t, 1),
            (1 - t ** 3, t ** 8 - 3 * t ** 5 + 3 * t * t)}
    if t == -1:
        sols.add((6, -5))
    return sols


def published_exponents(t: int) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """(n, m) of x - y*theta = +-(t - theta)^n theta^-m per known solution."""
    return {(1, 0): (0, 0), (0, 1): (0, -1), (t, 1): (1, 0),
            (t ** 4 - 2 * t, 1): (-1, 1),
            (1 - t ** 3, t ** 8 - 3 * t ** 5 + 3 * t * t): (-1, -4)}


# -- one call per item kind, and its check ----------------------------------

def _reduce(t, bits):
    return reduction.reduce_single(WHICH, t, precision=bits)


def _recover(t, _):
    return {(x, y): exponents.recover_exponents(t, x, y)
            for x, y in forms.known_solutions(t).solutions}


CALLS: Dict[str, Callable] = {
    "reduce": _reduce,
    "capped": _reduce,
    "kappa": lambda t, _: roots.verify_kappas(t),
    "recover": _recover,
    "theorem": search.verify_theorem,
}


def _check_reduce(t, bits, o) -> bool:
    return (o.t == t and o.status == "success" and o.contradiction
            and o.margin > 100)


def _check_kappa(t, _, rep) -> bool:
    return (rep.t == t and [r.j for r in rep.rows] == list(range(1, 17))
            and rep.all_pass)


def _check_recover(t, _, pairs) -> bool:
    want = published_exponents(t)
    return (set(pairs) == published_solutions(t) == set(want)
            and all((p.n, p.m) == want[s] and p.residual.upper < Fraction(1, 100)
                    for s, p in pairs.items()))


def _check_theorem(t, y_bound, ok) -> bool:
    published = {s for s in published_solutions(t) if abs(s[1]) <= y_bound}
    return ok is True and set(forms.known_solutions(t).restricted(y_bound)) == published


def _check_tables(y_bound, reports) -> bool:
    count = {r.form.coefficients: r.count for r in reports}
    tables = (search.MANY_SOLUTIONS_TABLE + search.SPORADIC_CLASSES_TABLE
              + search.DELONE_NAGELL_TABLE)
    return (len(reports) == TABLE_FORMS
            and all(r.y_bound == y_bound and r.matches_expected for r in reports)
            and all(count[F.coefficients] >= n_f for F, _, n_f in tables)
            and [count[F.coefficients] for F, _, _ in search.DELONE_NAGELL_TABLE]
            == [5, 4, 4])


CHECKS: Dict[str, Callable] = {
    "reduce": _check_reduce,
    "capped": _check_reduce,
    "kappa": _check_kappa,
    "recover": _check_recover,
    "theorem": _check_theorem,
}


def sporadic_tables() -> Tuple[int, int, float]:
    """(searches, failed searches, CPU seconds) of verify_sporadic_tables
    at TABLES_Y_BOUND.  search-bounded runs it after its timed window:
    one 5-second call stays on one CPU and would carry that CPU's
    contention into the window's rate."""
    t0 = time.thread_time_ns()
    try:
        ok = _check_tables(si.TABLES_Y_BOUND,
                           search.verify_sporadic_tables(si.TABLES_Y_BOUND))
    except Exception:
        traceback.print_exc()
        ok = False
    return TABLE_FORMS, 0 if ok else TABLE_FORMS, (time.thread_time_ns() - t0) / 1e9


# -- reference speed ---------------------------------------------------------

# the CPU time of `reference_ns` that defines reference speed
REFERENCE_NS = 2_000_000


def reference_ns() -> int:
    """CPU time of a fixed computation that uses no cubicthue code: exact
    rational bisection of a cubic with large coefficients, as in root
    isolation, and interval logarithms at 300 bits.  Sampled before each
    timed item, its median gauges the machine's speed during a run."""
    t0 = time.thread_time_ns()
    B, C, D = -(30 ** 4 - 30), 30 ** 5 - 2 * 900, 1
    lo, hi = Fraction(30), 30 + Fraction(2, 30 ** 5)
    for _ in range(80):
        mid = (lo + hi) / 2
        if ((mid + B) * mid + C) * mid + D < 0:
            hi = mid
        else:
            lo = mid
    old = iv.prec
    try:
        iv.prec = 300
        x = iv.mpf(lo.numerator) / iv.mpf(lo.denominator)
        for _ in range(4):
            x = iv.log(x * x + 1)
    finally:
        iv.prec = old
    return time.thread_time_ns() - t0


def at_reference_speed(metrics: Dict[str, float], units: Dict[str, str],
                       samples: List[int]) -> Dict[str, float]:
    """Times and rates rescaled to reference speed: with speed =
    REFERENCE_NS / median(samples), a time is multiplied and a rate
    divided by it.  Other units are left as they are."""
    speed = REFERENCE_NS / statistics.median(samples)
    scale = {"s": speed, "ms": speed, "us": speed, "1/s": 1 / speed}
    return {k: v * scale.get(units[k], 1) for k, v in metrics.items()}


# -- set-up ------------------------------------------------------------------

def prepare(workload: str, seed: int, tracer: Optional[Tracer] = None):
    """Inputs for the workload, t_max derived as the CLI derives it, and
    one untimed call of each item kind."""
    t_max = None
    if workload in ("reduce-slice", "cli-sweep"):
        with tracer.span("setup.bounds.derive_t_max") if tracer else nullcontext():
            t_max = bounds.derive_t_max()[0]
    if workload == "reduce-slice":
        items = si.reduce_slice(seed, t_max, DEFAULT_BITS)
    elif workload == "cli-sweep":
        items = si.sweep_slice(seed, t_max, DEFAULT_BITS)
    elif workload == "kappa-slice":
        items = si.kappa_slice(seed)
    else:
        items = si.search_bounded(seed)
    warmed = set()
    for kind, t, arg in items:
        if kind not in warmed:
            warmed.add(kind)
            CALLS[kind](t, arg)
    return items, t_max


def setup_probe_seconds(run_py: str, workload: str, seed: int) -> List[float]:
    """CPU time of fresh interpreters that import the package, build the
    inputs and warm up, as `prepare` does (one thread, no waiting, so
    CPU time is the wall time less stolen time)."""
    out = []
    for _ in range(SETUP_REPEATS):
        run = run_child([sys.executable, run_py, "--setup-probe", "--workload",
                         workload, "--seed", str(seed)], dict(os.environ))
        if run.returncode != 0:
            raise RuntimeError("set-up probe exited %d" % run.returncode)
        out.append(run.cpu)
    return out


# -- the timed window --------------------------------------------------------

@dataclasses.dataclass
class Window:
    count: int = 0                  # items attempted
    failed: int = 0
    busy: float = 0.0               # CPU seconds of the timed calls
    elapsed: float = 0.0            # wall seconds of the window
    latencies_ms: List[float] = dataclasses.field(default_factory=list)
    reference: List[int] = dataclasses.field(default_factory=list)
    durations: List[float] = dataclasses.field(default_factory=list)
    records: Dict[int, str] = dataclasses.field(default_factory=dict)

    @property
    def items_per_s(self) -> float:
        return self.count / self.busy


def timed_window(items, seconds: float) -> Window:
    """Closed loop, one client: the next item starts when the previous
    one ends, until `seconds` have passed and MIN_LATENCY_SAMPLES items
    were timed.  Each call is checked after its timing stops.

    Calls are timed in CPU time of this thread.  The calls are serial,
    CPU-bound and do no I/O, so on a dedicated core that equals their
    wall time; on a shared virtual machine it leaves out the time the
    hypervisor gives to other guests (steal), which reaches a quarter of
    the wall time and changes from minute to minute.  Consecutive items
    run on the process's CPUs in turn: other guests slow each CPU by up
    to half, in phases of seconds, and a run that stayed on one CPU
    would inherit that CPU's luck."""
    w = Window()
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    deadline = start + seconds
    try:
        for i, (kind, t, arg) in enumerate(items):
            if (time.perf_counter() >= deadline
                    and len(w.latencies_ms) >= MIN_LATENCY_SAMPLES):
                break
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            w.reference.append(reference_ns())
            t0 = time.thread_time_ns()
            try:
                value = CALLS[kind](t, arg)
            except Exception:
                traceback.print_exc()
                value = None
            dt = (time.thread_time_ns() - t0) / 1e9
            ok = value is not None and CHECKS[kind](t, arg, value)
            w.count += 1
            w.failed += 0 if ok else 1
            w.durations.append(dt)
            w.busy += dt
            w.latencies_ms.append(dt * 1e3)
            if kind == "reduce" and value is not None:
                w.records[t] = json.dumps(value.to_json(), sort_keys=True)
    finally:
        os.sched_setaffinity(0, cpus)
    w.elapsed = time.perf_counter() - start
    return w


def tail(latencies_ms: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it."""
    xs = sorted(latencies_ms)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- the CLI -----------------------------------------------------------------

def cli_command(args: List[str]) -> List[str]:
    return [sys.executable, "-m", "cubicthue.cli"] + args


def _children() -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = defaultdict(list)
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % name) as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids[ppid].append(int(name))
    return kids


def _hwm_kb(pid: int) -> int:
    try:
        with open("/proc/%d/status" % pid) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _watch(pid: int, peaks: Dict[int, int], stop: threading.Event):
    while not stop.is_set():
        kids = _children()
        todo = [pid]
        while todo:
            p = todo.pop()
            peaks[p] = max(peaks.get(p, 0), _hwm_kb(p))
            todo.extend(kids.get(p, ()))
        stop.wait(0.05)


def _stolen_s() -> Optional[List[float]]:
    """Seconds each CPU of this process has lost to other guests (the
    steal column of /proc/stat), or None where it is not reported."""
    try:
        with open("/proc/stat") as fh:
            steal = {int(f[0][3:]): int(f[8]) for f in (l.split() for l in fh)
                     if f[0].startswith("cpu") and f[0] != "cpu"}
        return [steal[cpu] / os.sysconf("SC_CLK_TCK")
                for cpu in sorted(os.sched_getaffinity(0))]
    except (OSError, IndexError, KeyError, ValueError):
        return None


@dataclasses.dataclass
class ChildRun:
    returncode: int
    wall: float          # seconds
    stolen: float        # seconds lost to other guests, mean over the CPUs
    cpu: float           # CPU seconds of the command and its children
    peak_rss_mb: float

    @property
    def seconds(self) -> float:
        """Wall time less stolen time: what the command takes on
        dedicated cores.  Serial items are timed in CPU time for the
        same reason; here the processes run in parallel and also wait."""
        return self.wall - self.stolen


def run_child(cmd: List[str], env: dict, watch: bool = False) -> ChildRun:
    """Runs a command, killed with its process group after
    SUBPROCESS_TIMEOUT_S.  With `watch`, the peak sums the peak resident
    set (VmHWM) of the command and every process below it, sampled every
    50 ms; without /proc it is the largest child's peak."""
    peaks: Dict[int, int] = {}
    stop = threading.Event()
    usage0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    steal0 = _stolen_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    killer = threading.Timer(SUBPROCESS_TIMEOUT_S, _kill_group, (proc.pid,))
    killer.start()
    poller = threading.Thread(target=_watch, args=(proc.pid, peaks, stop))
    if watch and os.path.isdir("/proc/%d" % proc.pid):
        poller.start()
    try:
        proc.wait()
        wall = time.perf_counter() - t0
        steal1 = _stolen_s()
    finally:
        killer.cancel()
        stop.set()
        if poller.is_alive():
            poller.join()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (usage.ru_utime + usage.ru_stime) - (usage0.ru_utime + usage0.ru_stime)
    stolen = (sum(steal1) - sum(steal0)) / len(steal0) if steal0 and steal1 else 0.0
    kb = sum(peaks.values()) or usage.ru_maxrss
    return ChildRun(proc.returncode, wall, stolen, cpu, kb / 1024)


def cli_setup_seconds(env: dict, tmp: str, seed: int) -> List[float]:
    """Wall time less stolen time of `cubicthue sweep` on the one-t range
    [10, 10]."""
    out = []
    for i in range(SETUP_REPEATS):
        path = os.path.join(tmp, "setup%d.jsonl" % i)
        ckpt = os.path.join(tmp, "setup%d.ckpt" % i)
        run = run_child(cli_command([
            "sweep", "--t-lo", "10", "--t-hi", "10", "--seed", str(seed),
            "--workers", str(CLI_WORKERS), "--checkpoint", ckpt, "--output", path]), env)
        with open(path) as fh:
            if run.returncode != 0 or len(fh.read().splitlines()) != 1:
                raise RuntimeError("one-t sweep failed (exit %d)" % run.returncode)
        out.append(run.seconds)
    return out


@dataclasses.dataclass
class SweepRun:
    serial: Window
    cli: List[ChildRun]
    attempted: int
    failed: int
    output_bytes: int
    checkpoint_bytes: int

    @property
    def seconds(self) -> float:
        """Median over the CLI runs of wall time less stolen time."""
        return statistics.median(run.seconds for run in self.cli)

    @property
    def items_per_s(self) -> float:
        """Items per second of CPU time of the CLI and its workers, over
        CLI_WORKERS: the rate on fully busy dedicated cores.  Wall time of
        two busy vCPUs also carries how the host places them (sharing a
        core or not), which moved this rate by half from run to run."""
        return self.attempted / (statistics.median(run.cpu for run in self.cli)
                                 / CLI_WORKERS)

    @property
    def wall_items_per_s(self) -> float:
        return self.attempted / self.seconds

    @property
    def peak_rss_mb(self) -> float:
        return statistics.median(run.peak_rss_mb for run in self.cli)


def _sweep_output(path: str) -> Dict[int, str]:
    got: Dict[int, str] = {}
    if os.path.exists(path):
        with open(path) as fh:
            for line in fh.read().splitlines():
                got[json.loads(line)["t"]] = line
    return got


def cli_sweep(items, seconds: float, seed: int, env: dict, tmp: str) -> SweepRun:
    """The serial reference pass over the default-precision slice, then
    CLI_REPEATS runs of `cubicthue sweep` with two workers over exactly
    the ts that pass reached.  Every record of every run must equal the
    serial one byte for byte.  The repeats and their median damp the
    host's contention, which the two busy CPUs of a run cannot average
    away the way the serial pass does."""
    serial = timed_window(items, seconds)
    done = [t for _, t, _ in items[:serial.count]]
    t_hi, samples = si.sweep_arguments(items[:serial.count])
    bad = {t for t in done if t not in serial.records}
    runs = []
    for i in range(CLI_REPEATS):
        path = os.path.join(tmp, "sweep%d.jsonl" % i)
        ckpt = os.path.join(tmp, "sweep%d.ckpt" % i)
        run = run_child(cli_command([
            "sweep", "--t-lo", str(si.SLICE_LO), "--t-hi", str(t_hi),
            "--samples", str(samples), "--seed", str(seed),
            "--workers", str(CLI_WORKERS), "--checkpoint", ckpt, "--output", path]),
            env, watch=True)
        runs.append(run)
        got = _sweep_output(path)
        if run.returncode != 0 or len(got) != len(done):
            bad.update(done)
        bad.update(t for t in done if got.get(t) != serial.records.get(t))
    failed = max(len(bad), serial.failed)
    return SweepRun(serial, runs, len(done), failed, os.path.getsize(path),
                    os.path.getsize(ckpt) if os.path.exists(ckpt) else 0)


# -- the traced run: each item's steps one public call at a time ----------

def _ladder(bits: Optional[int]) -> List[Tuple[int, int]]:
    """reduce_single's attempts: precision doubling, then one larger Q."""
    base = bits if bits is not None else DEFAULT_BITS
    steps = [(base * 2 ** i, Q) for i in range(reduction.MAX_PRECISION_ESCALATIONS + 1)]
    big = Q * reduction.Q_ESCALATION_FACTOR
    steps.append((realnum.reduction_precision(big)
                  * 2 ** reduction.MAX_PRECISION_ESCALATIONS, big))
    return steps


def _instance(tr: Tracer, t: int, bits: int, q_used: int):
    """build_instance's steps, in its order."""
    with tr.span("roots.isolate_roots"):
        triple = roots.isolate_roots(t, bits)
    with tr.span("bounds.lambda_log_arguments"):
        args = bounds.lambda_log_arguments(WHICH, triple)
    logs = []
    for a in args:
        with tr.span("realnum.log"):
            logs.append(a.log())
    alpha, beta, delta = logs
    with tr.span("realnum.div"):
        gamma1, gamma2 = alpha / beta, delta / beta
    if not (gamma1.width < Fraction(1, 100 * q_used * q_used)
            and gamma2.width < Fraction(1, q_used * q_used)):
        raise PrecisionInsufficientError("gamma enclosure too wide")
    values = dict(which=WHICH, t=t, alpha=alpha, beta=beta, delta=delta, A=A,
                  Q=q_used, gamma1=gamma1, gamma2=gamma2, precision=bits)
    fields = {f.name for f in dataclasses.fields(reduction.ReductionInstance)}
    return reduction.ReductionInstance(**{k: v for k, v in values.items() if k in fields})


def _reduce_steps(tr: Tracer, c: Counter, t: int, bits: Optional[int]) -> dict:
    steps = _ladder(bits)
    for idx, (prec, q_used) in enumerate(steps):
        try:
            inst = _instance(tr, t, prec, q_used)
            with tr.span("realnum.continued_fraction_convergents"):
                try:
                    realnum.continued_fraction_convergents(inst.gamma1, q_used)
                except PrecisionInsufficientError:
                    c["cf_raises"] += 1
                    raise
            with tr.span("reduction.baker_davenport"):
                verdict = reduction.baker_davenport(inst)
        except (PrecisionInsufficientError, IndeterminateSignError):
            c["escalations"] += 1
            continue
        c["bd_calls"] += 1
        c["convergents_scanned"] += verdict.convergents_scanned
        if verdict.success:
            with tr.span("reduction.reverify_verdict"):
                reverified = reduction.reverify_verdict(inst, verdict)
            return {"status": "success", "precision": prec, "Q": str(q_used),
                    "q": str(verdict.q), "margin": verdict.margin,
                    "contradiction": reduction.contradiction_check(WHICH, t, verdict),
                    "escalations": idx, "reverified": reverified}
        c["escalations"] += 1
    return {"status": "failed", "precision": steps[-1][0], "Q": str(steps[-1][1]),
            "q": None, "margin": None, "contradiction": False,
            "escalations": len(steps) - 1, "reverified": False}


def _traced_reduce(tr, c, t, bits) -> bool:
    with tr.span("check.reduction.reduce_single"):
        outcome = _reduce(t, bits)
    with tr.span("bench.decompose"):
        mine = _reduce_steps(tr, c, t, bits)
    c["reduce_items"] += 1
    want = outcome.to_json()
    return (_check_reduce(t, bits, outcome) and mine["reverified"]
            and all(mine[k] == want[k] for k in REDUCE_FIELDS))


def _traced_kappa(tr, c, t, _) -> bool:
    with tr.span("check.roots.verify_kappas"):
        rep = roots.verify_kappas(t)
    encs = []
    with tr.span("bench.decompose"):
        with tr.span("roots.isolate_roots"):
            triple = roots.isolate_roots(t)
        for j in range(1, 17):
            if j in roots.T_ONLY_KAPPAS:
                with tr.span("roots.kappa_t_only"):
                    encs.append(roots.kappa_t_only(j, t, triple))
            else:
                with tr.span("roots.kappa_envelope"):
                    encs.append(roots.kappa_envelope(j, t, triple))
    return _check_kappa(t, None, rep) and all(
        (e.lower, e.upper) == (r.enclosure.lower, r.enclosure.upper)
        for e, r in zip(encs, rep.rows))


def _traced_recover(tr, c, t, _) -> bool:
    pairs = {}
    for x, y in forms.known_solutions(t).solutions:
        with tr.span("exponents.recover_exponents"):
            pairs[(x, y)] = exponents.recover_exponents(t, x, y)
    return _check_recover(t, None, pairs)


def _traced_theorem(tr, c, t, y_bound) -> bool:
    with tr.span("check.search.verify_theorem"):
        ok = search.verify_theorem(t, y_bound)
    with tr.span("bench.decompose"):
        with tr.span("search.thue_solutions_bruteforce"):
            rep = search.thue_solutions_bruteforce(forms.family_form(3, t), y_bound)
    c["rows"] += 2 * y_bound + 1
    published = {s for s in published_solutions(t) if abs(s[1]) <= y_bound}
    return _check_theorem(t, y_bound, ok) and set(rep.solutions) == published


TRACED: Dict[str, Callable] = {
    "reduce": _traced_reduce,
    "capped": _traced_reduce,
    "kappa": _traced_kappa,
    "recover": _traced_recover,
    "theorem": _traced_theorem,
}


CHECKED = ("reduce", "capped", "kappa", "theorem")


def traced_window(items, seconds: float, tracer: Tracer, c: Counter) -> Window:
    """The first items of the untraced window again, one span per public
    call, until `seconds` have passed or the untraced count is reached.
    Items whose public call is repeated under a check span first run it
    once without any span, which times the spans' overhead free of the
    machine's drift; that time is left out of the window."""
    w = Window()
    start = time.perf_counter()
    deadline = start + seconds
    for i, (kind, t, arg) in enumerate(items):
        if time.perf_counter() >= deadline:
            break
        w.reference.append(reference_ns())
        if kind in CHECKED:
            t0 = time.thread_time_ns()
            CALLS[kind](t, arg)
            c["plain_ns"] += time.thread_time_ns() - t0
        tracer.item = i
        with tracer.span("bench.item"):
            try:
                ok = TRACED[kind](tracer, c, t, arg)
            except Exception:
                traceback.print_exc()
                ok = False
        w.count += 1
        w.failed += 0 if ok else 1
    tracer.item = None
    w.elapsed = time.perf_counter() - start
    w.busy = sum(s.ns for s in tracer.named("bench.item")) / 1e9
    return w


def layer_metrics(tracer: Tracer, c: Counter, traced: Window, untraced: Window,
                  sweep: Optional[SweepRun]) -> Dict[str, float]:
    """Counts and self times per traced item, *_ms and *_us per call of
    the named public function, ratios as named."""
    def total_ns(name):
        return sum(s.ns for s in tracer.named(name))

    def mean_ms(name):
        spans = tracer.named(name)
        return total_ns(name) / len(spans) / 1e6 if spans else 0.0

    layer_ns = tracer.layer_self_ns()
    engine_ns = sum(layer_ns.values())
    n = traced.count
    per_item = (lambda x: x / n) if n else (lambda x: 0.0)
    rows = c["rows"]
    reduce_items = c["reduce_items"]
    # the same calls, with and without a span around them
    check_ns = sum(s.ns for s in tracer.spans if s.name.startswith("check."))
    plain_rate = n / sum(untraced.durations[:n]) if n else 0.0
    m = {
        "roots.isolate_calls": per_item(len(tracer.named("roots.isolate_roots"))),
        "roots.isolate_ms": mean_ms("roots.isolate_roots"),
        "roots.isolate_share": (total_ns("roots.isolate_roots") / engine_ns
                                if engine_ns else 0.0),
        "roots.envelope_ms": mean_ms("roots.kappa_envelope"),
        "roots.kappa_t_only_ms": mean_ms("roots.kappa_t_only"),
        "realnum.log_ms": mean_ms("realnum.log"),
        "realnum.cf_ms": mean_ms("realnum.continued_fraction_convergents"),
        "realnum.cf_raises": per_item(c["cf_raises"]),
        "reduction.bd_ms": mean_ms("reduction.baker_davenport"),
        "reduction.convergents_scanned": (c["convergents_scanned"] / c["bd_calls"]
                                          if c["bd_calls"] else 0.0),
        "reduction.escalations": per_item(c["escalations"]),
        "reduction.attempt_yield": (reduce_items / (reduce_items + c["escalations"])
                                    if reduce_items else 0.0),
        "reduction.reverify_ms": mean_ms("reduction.reverify_verdict"),
        "bounds.lambda_args_ms": mean_ms("bounds.lambda_log_arguments"),
        "bounds.tmax_ms": mean_ms("setup.bounds.derive_t_max"),
        "exponents.recover_calls": per_item(len(tracer.named("exponents.recover_exponents"))),
        "exponents.recover_ms": mean_ms("exponents.recover_exponents"),
        "search.rows": per_item(rows),
        "search.row_us": (total_ns("search.thue_solutions_bruteforce") / rows / 1e3
                          if rows else 0.0),
        "search.bruteforce_ms": mean_ms("search.thue_solutions_bruteforce"),
        "cli.parallel_eff": (sweep.wall_items_per_s
                             / (CLI_WORKERS * sweep.serial.items_per_s) if sweep else 0.0),
        "cli.output_bytes": sweep.output_bytes if sweep else 0,
        "cli.checkpoint_bytes": sweep.checkpoint_bytes if sweep else 0,
    }
    for layer in LAYERS:
        m["%s.self_ms" % layer] = per_item(layer_ns.get(layer, 0) / 1e6)
    # the CLI runs in other processes: its time, seen from outside, per item
    m["cli.self_ms"] = sweep.seconds * 1e3 / sweep.attempted if sweep else 0.0
    m["trace.items"] = n
    m["trace.items_per_s_ratio"] = traced.items_per_s / plain_rate if plain_rate else 0.0
    m["trace.span_overhead"] = check_ns / c["plain_ns"] - 1 if c["plain_ns"] else 0.0
    return m
