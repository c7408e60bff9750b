"""arrowq benchmark: runs one workload through the program's public entry
points and prints its metrics as the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; the program is imported from the
checkout's ``src`` directory and nowhere else.  Load is a closed loop: one
process, one client, operations back to back.  Passes over the workload's
operations repeat until the pass boundary nearest to ``--seconds`` (at
least one pass).  Every operation's output goes through an oracle in
``oracles.py``; failures are classed as exception, deadline or
wrong_verdict.  End-to-end times are rescaled to a reference machine
speed measured while the workload runs (see ``calibration.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and one traced pass and reports the per-layer metrics of
the traced pass (``--seconds`` does not apply), writing the spans to
``.perfbench/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("arrow-search", "rule-audit", "bell-optimize", "cloning-circuits")
SETUP_PROBES = 7  # fresh processes that repeat the set-up; setup_s is the median
PROBE_INTERVAL_S = 0.005  # CPU seconds between calibration samples in a probe
PROBE_KERNELS = 5  # extra samples each probe takes after its set-up
PROBE_TIMEOUT_S = 60


class DeadlineExceeded(BaseException):
    """Raised in the main thread when an operation's deadline passes.

    A BaseException, so the program's own ``except Exception`` handlers
    cannot swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Record:
    name: str
    pass_no: int
    seconds: float  # measured, less the calibration kernel's time
    start: float
    end: float
    failure: str | None  # None, "exception", "deadline" or "wrong_verdict"
    detail: str
    expected: bool  # passed its oracle, or failed exactly as a known defect
    note: object
    output_bytes: int
    ref_seconds: float = 0.0  # ``seconds`` at the reference speed


def setup(workload: str, seed: int, workdir: Path):
    """Import the program and generate the workload's inputs; returns the
    operations and the ``perf_counter`` times at which this began and ended."""
    t0 = perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import arrowq
    import arrowq.cli  # noqa: F401  (the CLI is an entry point under test)

    if Path(arrowq.__file__).resolve().parent != src / "arrowq":
        raise ImportError(f"arrowq was imported from {arrowq.__file__}, not {src}")
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[workload](seed, workdir)
    return ops, (t0, perf_counter())


def execute(op, pass_no, tracer=None, sampler=None) -> Record:
    """Time one operation under its deadline, then check it (untimed).
    Calibration kernels the sampler ran inside the operation are taken out
    of its time."""
    from oracles import Rejected

    failure, detail, result = None, "", None
    # Start every operation from a collected heap, as a fresh CLI process
    # would, so garbage left by the previous operation is not billed to it.
    gc.collect()
    span = tracer.op_span(op.name) if tracer is not None else nullcontext()
    spent0 = sampler.spent if sampler is not None else 0.0
    signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
    t0 = perf_counter()
    try:
        with span:
            result = op.run()
    except DeadlineExceeded:
        failure = "deadline"
    except (Exception, SystemExit) as exc:
        failure, detail = "exception", f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = perf_counter()
    seconds = t1 - t0 - ((sampler.spent if sampler is not None else 0.0) - spent0)

    note = None
    if failure is None:
        try:
            note = op.check(result)
        except Rejected as exc:
            failure, detail = "wrong_verdict", str(exc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            failure, detail = "wrong_verdict", f"unreadable output: {exc!r}"
    defect = op.known_defect
    expected = failure is None or (
        defect is not None and failure == defect[0] and defect[1] in detail
    )
    size = len(getattr(result, "text", ""))
    return Record(op.name, pass_no, seconds, t0, t1, failure, detail, expected, note, size)


def run_passes(ops, seconds: float, tracer=None, max_passes=None, sampler=None):
    """Passes over ``ops``, ending at the pass boundary nearest to
    ``seconds`` (at least one pass).  Stopping at the nearest boundary,
    rather than before the first one that would overrun, keeps a slow
    first pass from also cutting the number of passes."""
    records, pass_times = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        records.extend(execute(op, len(pass_times), tracer, sampler) for op in ops)
        pass_times.append(perf_counter() - t0)
        if max_passes is not None and len(pass_times) >= max_passes:
            break
        if perf_counter() - start + statistics.fmean(pass_times) / 2 > seconds:
            break
    return records, pass_times


def op_means(records, field="seconds") -> dict[str, float]:
    """Mean time of each distinct operation over its executions, from the
    record field ``field`` (``seconds`` or ``ref_seconds``)."""
    times = defaultdict(list)
    for r in records:
        times[r.name].append(getattr(r, field))
    return {name: statistics.fmean(ts) for name, ts in times.items()}


def summarize(workload, records, pass_times, out=sys.stderr):
    """Human-readable per-operation lines, on stderr."""
    by_name = defaultdict(list)
    for r in records:
        by_name[r.name].append(r)
    means = op_means(records)
    print(f"# {workload}: {len(pass_times)} pass(es), {len(records)} operations", file=out)
    for name, rs in by_name.items():
        fails = Counter(r.failure for r in rs if r.failure)
        status = "ok" if not fails else ", ".join(f"{k} x{v}" for k, v in fails.items())
        if any(not r.expected for r in rs):
            status += "  UNEXPECTED: " + next(r.detail for r in rs if not r.expected)
        elif fails:
            status += "  (known defect)"
        print(f"  {name:42s} n={len(rs):3d} mean={means[name]:.6f}s  {status}", file=out)
    classes = Counter(r.failure for r in records if r.failure)
    print(f"# fail_frac={sum(classes.values()) / len(records):.4f} by class: "
          f"{dict(classes) or 'none'}", file=out)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of SETUP_PROBES fresh processes, each at the reference
    speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def pass_sums(records, field) -> list[float]:
    """Total operation time of each pass."""
    sums = defaultdict(float)
    for r in records:
        sums[r.pass_no] += getattr(r, field)
    return [sums[k] for k in sorted(sums)]


def timed_run(args, ops):
    from calibration import REFERENCE_S, SpeedSampler, full_kernel

    with SpeedSampler(full_kernel(), REFERENCE_S) as sampler:
        records, pass_times = run_passes(ops, args.seconds, sampler=sampler)
    for r in records:
        r.ref_seconds = r.seconds * sampler.scale(r.start, r.end)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summarize(args.workload, records, pass_times)
    means = list(op_means(records, "ref_seconds").values())
    setup_samples = measure_setup(args.workload, args.seed)
    raw_means = list(op_means(records).values())
    print(f"# measured, not rescaled: wall_s={statistics.fmean(pass_sums(records, 'seconds')):.6f}"
          f" op_p50_s={statistics.median(raw_means):.6f} slowest_op_s={max(raw_means):.6f};"
          f" {len(sampler.durations)} calibration samples, median"
          f" {statistics.median(sampler.durations):.6f} s", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.fmean(pass_sums(records, "ref_seconds")), "s"),
        "op_p50_s": (statistics.median(means), "s"),
        "slowest_op_s": (max(means), "s"),
        "ok_frac": (sum(r.failure is None for r in records) / len(records), "fraction"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return records, metrics


def traced_run(args, ops):
    from tracing import Tracer

    untraced, untraced_times = run_passes(ops, 0.0, max_passes=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_times = run_passes(ops, 0.0, tracer, max_passes=1)
    finally:
        tracer.uninstall()
    summarize(args.workload + " (traced)", traced, traced_times)
    gaps = [r.note for r in traced if isinstance(r.note, float)]
    metrics = tracer.metrics(
        report_bytes=sum(r.output_bytes for r in traced),
        optimizer_gap=max(gaps, default=0.0),
        overhead_s=traced_times[0] - untraced_times[0],
    )
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
    spans_path.write_text(json.dumps(
        [dict(zip(("id", "parent", "name", "start", "end"), s)) for s in tracer.spans]))
    return untraced + traced, metrics


def setup_probe(args, workdir) -> int:
    """Time the set-up once in this fresh process, at the reference speed,
    and print it."""
    from calibration import INTERPRETER_REFERENCE_S, SpeedSampler, interpreter_kernel

    sampler = SpeedSampler(interpreter_kernel, INTERPRETER_REFERENCE_S, PROBE_INTERVAL_S)
    with sampler:
        _, (t0, t1) = setup(args.workload, args.seed, workdir)
        spent = sampler.spent
        for _ in range(PROBE_KERNELS):
            sampler.sample()
    print(repr((t1 - t0 - spent) * sampler.scale(t0, t1)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            return setup_probe(args, workdir)
        try:
            ops, _ = setup(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"error: cannot import the program from {ROOT / 'src'}: {exc}",
                  file=sys.stderr)
            return 2
        signal.signal(signal.SIGALRM, _on_alarm)
        if args.trace:
            records, metrics = traced_run(args, ops)
        else:
            records, metrics = timed_run(args, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r.expected for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
