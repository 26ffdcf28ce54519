"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload spine --seed 1 --seconds 15 --trace 0

Workloads: ``spine``, ``durable``, ``planes``, ``ci`` (see README.md).
The run repeats the workload's seeded op set, part by part, until
``--seconds`` of measuring have passed, checks every round's outputs,
and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps each layer's entry points from
outside the program and reports the per-layer metrics instead. The exit
code is 0 only when every check passed; it is 2, with no result printed,
when this checkout's ``src/repro`` cannot be imported.

A short slice of a fixed reference workload (``reference.py``) runs
right before and right after each round's timed phase, and the
wall-clock end-to-end metrics are reported in reference seconds, so that
the host's drifting CPU speed cancels out.

``--setup-only`` stops at the first timed call and prints the set-up
seconds alone; an untraced run starts a few such processes to take the
median set-up time.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_share": "ratio",
    "virtual_makespan_s": "virtual_s",
    "virtual_latency_p50_s": "virtual_s",
    "virtual_latency_p99_s": "virtual_s",
    "useful_compute_share": "ratio",
}
# fresh processes that repeat the set-up alone; setup_s is the median of
# their set-up times and the run's own
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60
# reference units per slice: one slice on each side of a round's timed
# phase, one after a set-up probe's set-up; the first units of a process
# fault in the reference's memory and run slow, so a warm-up precedes them
SLICE_UNITS = 1
SETUP_SLICE_UNITS = 3
WARM_UP_UNITS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("spine", "durable", "planes", "ci")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _import_package():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        return f"cannot import repro from {SRC}: {exc}"
    location = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.dirname(location) != SRC:
        return f"repro was imported from {location}, not from {SRC}"
    return None


def to_reference_s(wall_s, speed):
    """Wall seconds at ``speed`` reference units per second, expressed in
    seconds of a host running the reference at its nominal speed."""
    return wall_s * speed / reference.NOMINAL_UNITS_PER_S


class Round:
    """Timings and checked summary of one pass over one part of the op set."""

    def __init__(self, setup_s, timed_s, speed, summary, gc_stats):
        self.setup_s = setup_s
        self.timed_s = timed_s
        # reference units per second around the timed phase
        self.speed = speed
        self.summary = summary
        self.gc_stats = gc_stats

    def rate(self):
        """Ops per reference second of the timed phase."""
        return self.summary.ops / to_reference_s(self.timed_s, self.speed)


class GcMeter:
    """Collections and pause time of the interpreter's cyclic collector."""

    def __init__(self):
        self.collections = 0
        self.pause_s = 0.0
        self._started = None
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._started
            self._started = None

    def reading(self):
        return self.collections, self.pause_s


def run_round(workload, part, guard, meter, tracer=None):
    """Build one part's worlds (untimed), run it (timed), check it.

    A reference slice runs right before and right after the timed phase.
    """
    from workloads import Summary

    gc_before = meter.reading()
    double_before = guard.double
    started = time.perf_counter()
    if tracer is not None:
        tracer.begin_round()
    state = workload.prepare(part)
    prepared = time.perf_counter()
    speeds = [reference.speed(SLICE_UNITS)]
    if tracer is not None:
        tracer.mark_timed()
    error = None
    timed = time.perf_counter()
    try:
        workload.run(state)
    except Exception as exc:  # noqa: BLE001 - a crashed run is a finding
        error = exc
    finished = time.perf_counter()
    if tracer is not None:
        tracer.end_round(finished)
    speeds.append(reference.speed(SLICE_UNITS))
    gc_after = meter.reading()
    if error is None:
        summary = workload.summarize(state)
    else:
        ops = len(workload.inputs[part])
        summary = Summary(
            ops=ops, succeeded=0, makespan=0.0, latencies=[], bad=ops,
            violations=[f"run crashed: {type(error).__name__}: {error}"],
        )
    doubled = guard.double - double_before
    if doubled:
        summary.violations.append(f"{doubled} futures resolved more than once")
    del state
    gc.collect()
    return Round(
        prepared - started, finished - timed, statistics.fmean(speeds), summary,
        (gc_after[0] - gc_before[0], gc_after[1] - gc_before[1]),
    )


def _cycles(workload, guard, meter, seconds, tracer=None):
    """Whole passes over the op set, part by part, until ``seconds`` of
    wall time have passed or a round fails its checks."""
    rounds = []
    began = time.perf_counter()
    while True:
        for part in range(workload.parts):
            rounds.append(run_round(workload, part, guard, meter, tracer))
            if rounds[-1].summary.violations:
                return rounds
        if time.perf_counter() - began >= seconds:
            return rounds


def throughput(rounds):
    """Median over rounds of their rates; whole passes keep the parts
    equally represented."""
    return statistics.median(r.rate() for r in rounds)


def _setup_probes(args):
    """Set-up reference seconds of fresh processes that stop at the
    first timed call."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    samples, problems = [], []
    for _ in range(SETUP_PROBES):
        try:
            out = subprocess.run(
                command, capture_output=True, text=True, cwd=ROOT,
                timeout=PROBE_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:
            problems.append(f"set-up probe ran over {PROBE_TIMEOUT_S} s")
            continue
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            problems.append(
                f"set-up probe exited {out.returncode}: {out.stderr.strip()[-300:]}"
            )
            continue
        probe = json.loads(lines[-1])
        samples.append(to_reference_s(probe["setup_s"], probe["speed"]))
    return samples, problems


def _digest(inputs):
    return hashlib.sha256(repr(inputs).encode("utf-8")).hexdigest()[:16]


def main(argv=None):
    args = _parse(argv)
    problem = _import_package()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        return _measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(args, scratch):
    from checks import ResolutionGuard, import_violations
    from workloads import WORKLOADS, Summary

    violations = [f"forbidden import: {v}" for v in import_violations(HERE)]
    guard = ResolutionGuard().install()
    meter = GcMeter()

    generating = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, scratch)
    generation_s = time.perf_counter() - generating
    violations += workload.warm_up(ROOT)
    # set-up before the first round; that round adds building its worlds
    once_s = time.perf_counter() - _STARTED - generation_s

    if args.setup_only:
        started = time.perf_counter()
        workload.prepare(0)
        setup_s = once_s + time.perf_counter() - started
        reference.speed(WARM_UP_UNITS)
        speed = reference.speed(SETUP_SLICE_UNITS)
        print(json.dumps({"setup_s": setup_s, "speed": speed}))
        for violation in violations:
            print(f"VIOLATION: {violation}", file=sys.stderr)
        return 0 if not violations else 1

    reference.speed(WARM_UP_UNITS)
    tracer = None
    untraced = []
    if args.trace:
        from layers import LayerTracer

        # untraced rounds first: the wall-time baseline for the tracing
        # overhead and the interpreter's own collector figures
        untraced = _cycles(workload, guard, meter, args.seconds / 3)
        tracer = LayerTracer(args.workload).install()
    measured = _cycles(workload, guard, meter, args.seconds, tracer)
    rounds = untraced + measured

    parts = workload.parts
    virtual = Summary.pooled([r.summary for r in measured[:parts]]).virtual()
    first_seen = {}
    for index, round_ in enumerate(rounds):
        violations += [f"round {index}: {v}" for v in round_.summary.violations]
        part = index % parts  # both phases run whole cycles from part 0
        figures = round_.summary.virtual()
        if first_seen.setdefault(part, figures) != figures:
            violations.append(f"round {index}: part {part} virtual figures changed")
    # a round that failed its checks ends the run mid-cycle
    complete = not any(r.summary.violations for r in rounds)

    print(f"workload {args.workload}  seed {args.seed}  inputs {_digest(workload.inputs)}")
    print(f"{'round':>5} {'traced':>6} {'setup_s':>9} {'timed_s':>9} "
          f"{'ref u/s':>8} {'ops/s':>10} {'ops/ref s':>10}")
    for index, r in enumerate(rounds):
        traced = bool(args.trace) and index >= len(untraced)
        print(f"{index:>5} {str(traced):>6} {r.setup_s:9.4f} {r.timed_s:9.4f} "
              f"{r.speed:8.2f} {r.summary.ops / r.timed_s:10.1f} {r.rate():10.1f}")
    print("virtual: " + json.dumps(virtual, sort_keys=True))
    print(f"failed_share {1.0 - virtual['success_share']:.6f} ratio  "
          f"wasted_ratio {1.0 - virtual['useful_compute_share']:.6f} ratio")

    if args.trace:
        violations += tracer.coverage_violations()
        overhead = (
            throughput(untraced) / throughput(measured)
            if complete else 0.0
        )
        metrics = tracer.metrics(measured, untraced, parts, overhead)
        tracer.write_spans(os.path.join(ROOT, ".perfbench"))
        print(tracer.report())
    else:
        first = rounds[0]
        setups = [to_reference_s(once_s + first.setup_s, first.speed)]
        samples, problems = _setup_probes(args)
        setups += samples
        violations += problems
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        values = {
            "ops_per_s": throughput(measured) if complete else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **virtual,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    for violation in violations:
        print(f"VIOLATION: {violation}")
    result = {
        "correct": not violations,
        "attempted": sum(r.summary.ops for r in rounds),
        "failed": sum(r.summary.bad for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
