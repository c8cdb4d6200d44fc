"""Benchmark of the braidseed verifier: time to verdict, decided share and
per-module self time on four seeded workloads.

Run from the repository root, with the braidseed sources under src/:

    python3 perfbench/run.py --workload longest-word --seed 1 --seconds 15 --trace 0

One single-threaded process imports braidseed from src/, builds the
workload's inputs from the seed, and repeats the workload's round of
instances until --seconds have been measured, always finishing a round.
Each instance runs under a fixed time limit (SIGALRM); every output is
checked against known answers.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1.  A wrong answer exits with code 1; missing sources exit
with code 2 and print no result.  perfbench/README.md lists the metrics.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LIMIT_S = 5.0  # per-instance time limit at reference speed; decided instances take < 2 s
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # instances required beyond the tail percentile
# Host speed yardstick: reference_work() took REFERENCE_S on the 2-vCPU host
# where the benchmark was defined (Python 3.11.7), in its fast state.  It is
# timed again every REFERENCE_EVERY_S during a run.
REFERENCE_S = 0.0085
REFERENCE_EVERY_S = 0.5


class InstanceTimeout(BaseException):
    """Raised inside the program by SIGALRM when an instance passes LIMIT_S.

    A BaseException, so that no ``except Exception`` in the program can
    swallow it."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


def reference_work() -> float:
    """Seconds taken by a fixed pure-Python computation: tuples hashed into
    a set, then modular row elimination on a 40 x 40 integer matrix.  Its
    mix of hashing and list arithmetic slows down with the host much as
    braidseed does; it never changes, so its time measures only the host."""
    start = time.perf_counter()
    seen = set()
    x = 12345
    for _ in range(12_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 63, (x >> 6) & 63, (x >> 12) & 63, (x >> 18) & 63)
        if key not in seen:
            seen.add(key)
    rows = [[(i * j + 7) % 23 - 11 for j in range(40)] for i in range(40)]
    for i, pivot in enumerate(rows):
        for row in rows[i + 1:]:
            f, p = row[i], pivot[i] or 1
            for j in range(40):
                row[j] = (row[j] * p - pivot[j] * f) % 1_000_003
    return time.perf_counter() - start


class HostSpeed:
    """Slowdown of the host against REFERENCE_S, from the median of the
    three latest timings of reference_work().

    The shared host switches between speed states within seconds (the same
    `verify all` pass took 0.36 s and 0.74 s within one hour, with CPU
    time equal to wall time).  Every time metric is therefore divided by
    the slowdown measured next to it, which turns it into seconds at the
    reference speed."""

    def __init__(self):
        self.samples = []
        self.last = -math.inf

    def slowdown(self, fresh: bool = False) -> float:
        if fresh or time.perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.samples.append(reference_work() / REFERENCE_S)
            self.last = time.perf_counter()
        return statistics.median(self.samples[-3:])


def import_braidseed() -> SimpleNamespace:
    """A fresh import of braidseed and its layer modules from src/."""
    for name in [n for n in sys.modules if n == "braidseed" or n.startswith("braidseed.")]:
        del sys.modules[name]
    package = importlib.import_module("braidseed")
    origin = Path(package.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"braidseed imported from {origin}, not from {SRC}")
    layers = {name: importlib.import_module("braidseed." + name) for name in tracer.LAYERS}
    return SimpleNamespace(
        package=package,
        layers=layers,
        errors=importlib.import_module("braidseed.errors"),
        **layers,
    )


def set_up(workload, host: HostSpeed) -> tuple:
    """Median over SETUP_REPEATS of a fresh import plus the workload's
    Cartan contexts, at reference speed; returns (seconds, modules,
    contexts)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        slowdown = host.slowdown(fresh=True)
        start = time.perf_counter()
        bs = import_braidseed()
        contexts = workload.contexts(bs)
        samples.append((time.perf_counter() - start) / slowdown)
    return statistics.median(samples), bs, contexts


class Tally:
    """Outcomes of the instances attempted in one measurement."""

    def __init__(self, size: int):
        self.size = size  # instances per round
        self.rounds = 0
        self.attempted = 0
        self.times = {}  # round index -> decided attempts, at reference speed
        self.raw_s = []  # every decided attempt, as timed
        self.failures = {}  # round index -> why the instance gave no verdict
        self.items = {}  # round index -> work items verified by one attempt
        self.renders = None  # canonical outputs of the first round, when kept

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def decided_share(self) -> float:
        return 1 - len(self.failures) / self.size

    def decided(self) -> list:
        """Round indices of the instances that reached every verdict."""
        return [index for index in self.times if index not in self.failures]

    @property
    def verdict_s(self) -> list:
        """Time to verdict of each decided instance: the median of its
        attempts, so the percentiles do not depend on how many rounds fit."""
        return [statistics.median(self.times[index]) for index in self.decided()]

    @property
    def items_per_s(self) -> float:
        """Work items of one round's decided instances over their times to
        verdict."""
        return sum(self.items[index] for index in self.decided()) / sum(self.verdict_s)


class Failure(NamedTuple):
    """An attempt that gave no verdict: the time limit, or an error."""

    reason: str


def _raised_in(err: BaseException, filename: str, function: str) -> bool:
    """Whether the innermost frame of err's traceback is function in filename."""
    tb = err.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    return (
        tb is not None
        and tb.tb_frame.f_code.co_name == function
        and Path(tb.tb_frame.f_code.co_filename).name == filename
    )


def no_verdict(err: Exception):
    """Why err leaves an instance undecided, or None when err is a wrong
    answer.  Every instance has a known answer, so a raised error is wrong,
    except: the move-graph search ran out of its node budget (the program's
    own "indeterminate"), and the float overflow in lattices._size_reduce
    that some B4 words of w0 reach, a known defect of the program that
    counts as a failed operation."""
    name = type(err).__name__
    if type(err).__module__ == "braidseed.errors":
        if name == "BudgetExhausted" or (name == "NotConnected" and not err.definitive):
            return f"{name}: {err}"
    elif isinstance(err, OverflowError) and _raised_in(err, "lattices.py", "_size_reduce"):
        return f"OverflowError in lattices._size_reduce: {err}"
    return None


def attempt(inst, limit: float):
    """(output, seconds) of inst.run() under the time limit.  The output is
    a Failure when the limit was reached or no_verdict() accepts the error
    raised; any other error raises WrongAnswer."""
    elapsed = limit
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        start = time.perf_counter()
        output = inst.run()
        elapsed = time.perf_counter() - start
    except InstanceTimeout:
        output = Failure("no verdict within the time limit")
    except Exception as err:
        signal.setitimer(signal.ITIMER_REAL, 0)
        reason = no_verdict(err)
        if reason is None:
            raise workloads.WrongAnswer(
                f"{inst.label}: raised {type(err).__name__}: {err}"
            ) from err
        output = Failure(reason)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return output, elapsed


def measure(
    instances: list, seconds: float, host: HostSpeed, keep_renders: bool = False
) -> Tally:
    """Whole rounds of instances until at least `seconds` have passed.

    An instance that fails is recorded and not attempted again in the same
    measurement."""
    tally = Tally(len(instances))
    start = time.perf_counter()
    while tally.rounds == 0 or time.perf_counter() - start < seconds:
        renders = [] if keep_renders and tally.rounds == 0 else None
        for index, inst in enumerate(instances):
            if index in tally.failures:
                continue
            slowdown = host.slowdown()
            output, elapsed = attempt(inst, LIMIT_S * slowdown)
            tally.attempted += 1
            if isinstance(output, Failure):
                tally.failures[index] = f"{inst.label}: {output.reason}"
                if renders is not None:
                    renders.append(tally.failures[index])
                continue
            tally.items[index] = inst.check(output)
            tally.raw_s.append(elapsed)
            tally.times.setdefault(index, []).append(elapsed / slowdown)
            if renders is not None:
                renders.append(inst.render(output))
        if renders is not None:
            tally.renders = renders
        tally.rounds += 1
    return tally


def tail(samples: list) -> tuple:
    """(percentile, value, instances beyond): the highest whole percentile
    with at least TAIL_BEYOND samples beyond it, by nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1], 0
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = math.ceil(pct * n / 100)
    return pct, ordered[rank - 1], n - rank


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(tally: Tally, setup_s: float, input_peak_mb: float) -> tuple:
    verdict_s = tally.verdict_s
    if not verdict_s:
        raise RuntimeError("no instance reached a verdict within the limit")
    pct, tail_s, beyond = tail(verdict_s)
    metrics = {
        "items_per_s": metric(tally.items_per_s, "1/s"),
        "verdict_ms_p50": metric(1000 * statistics.median(verdict_s), "ms"),
        "verdict_ms_tail": metric(1000 * tail_s, "ms"),
        "decided_share": metric(tally.decided_share, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    notes = {
        "verdict_ms_p50": f"median attempt {1000 * statistics.median(tally.raw_s):.1f} ms "
        "as timed",
        "verdict_ms_tail": f"p{pct} of {len(verdict_s)} decided instances, "
        f"{beyond} beyond it",
        "peak_rss_mb": f"{input_peak_mb:.1f} MB before measuring",
    }
    return metrics, notes


OVERHEAD_METRICS = [  # (name, unit, better), reported by traced runs
    ("trace.items_per_s.untraced", "1/s", "higher"),
    ("trace.items_per_s.traced", "1/s", "higher"),
    ("trace.slowdown", "ratio", "lower"),
    ("trace.host_slowdown", "ratio", "lower"),
]


def overhead(untraced: Tally, traced: Tally, host: HostSpeed) -> dict:
    """Cost of tracing: items_per_s without and with the tracer, their
    ratio, and the host slowdown the per-layer times were measured at
    (they are as timed, not at reference speed)."""
    values = [
        untraced.items_per_s,
        traced.items_per_s,
        untraced.items_per_s / traced.items_per_s,
        statistics.median(host.samples),
    ]
    return {name: metric(v, unit) for (name, unit, _), v in zip(OVERHEAD_METRICS, values)}


def peak_rss_mb() -> float:
    """Peak resident memory of the process so far.  Set-up and input
    generation are included; the note "MB before measuring" shows how far
    the measured calls raised it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_metadata(args, bs, instances) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "limit_s": LIMIT_S,
        "instances_per_round": len(instances),
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "braidseed": bs.package.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_metrics(metrics: dict, notes: dict) -> None:
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:36s} {m['value']:16.6f} {m['unit']}{note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "braidseed" / "__init__.py").is_file():
        print(f"error: braidseed sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    workload = workloads.WORKLOADS[args.workload]

    host = HostSpeed()
    setup_s, bs, contexts = set_up(workload, host)
    instances = workload.round(bs, contexts, random.Random(args.seed))
    input_peak_mb = peak_rss_mb()
    print(json.dumps({"meta": run_metadata(args, bs, instances)}, sort_keys=True))

    tally = None
    try:
        if args.trace == 0:
            tally = measure(instances, args.seconds, host)
            metrics, notes = end_to_end(tally, setup_s, input_peak_mb)
        else:
            untraced = measure(instances, args.seconds / 2, host, keep_renders=True)
            with tracer.Tracer(bs.package, bs.layers, InstanceTimeout) as tr:
                tally = measure(instances, args.seconds / 2, host, keep_renders=True)
            if tally.renders != untraced.renders:
                raise workloads.WrongAnswer("traced outputs differ from untraced outputs")
            for line in tr.table(tally.rounds):
                print(line)
            metrics = tr.metrics(tally.rounds)
            metrics.update(overhead(untraced, tally, host))
            notes = {}
    except Exception:
        traceback.print_exc()
        attempted = tally.attempted if tally else 0
        failed = tally.failed if tally else 0
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    for reason in tally.failures.values():
        print(f"failed: {reason}")
    print(f"rounds {tally.rounds}, host slowdown {statistics.median(host.samples):.3f}")
    print_metrics(metrics, notes)
    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
