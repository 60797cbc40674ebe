"""Shared plumbing of the end-to-end benchmark.

A workload is a fixed list of operations, one *round*.  A run repeats
whole rounds until ``--seconds`` of timed work have passed, so every
run attempts the same operations the same number of times per round,
and the share of failed operations is the same in every run whatever
the seed or the run length.

Untraced runs report the end-to-end metrics.  A traced run does the
same untraced rounds, then one more round with the tracer recording and
the benchmark-side timers of :class:`LayerProbe` installed, and reports
the per-layer metrics of that round.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

#: End-to-end metrics, reported with tracing off (name -> unit).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, reported by the traced run (name -> unit).  A
#: workload that never reaches a layer reports 0 for it.
PER_LAYER = {
    "generation.graph_s": "s",
    "generation.edges_per_s": "edges/s",
    "columnar.add_edges_s": "s",
    "columnar.unique_s": "s",
    "columnar.batch_merges": "count",
    "columnar.csr_builds": "count",
    "writers.write_s": "s",
    "writers.mb_per_s": "MB/s",
    "queries.workload_s": "s",
    "queries.queries_per_s": "queries/s",
    "queries.retries": "count",
    "queries.relaxed": "count",
    "selectivity.sampler_draws": "count",
    "translate.translate_s": "s",
    "engine.postgres_s": "s",
    "engine.sparql_s": "s",
    "engine.datalog_s": "s",
    "engine.cypher_s": "s",
    "engine.conjunct_s": "s",
    "engine.join_s": "s",
    "engine.frontier_s": "s",
    "engine.step_s": "s",
    "engine.count_s": "s",
    "execution.peak_mb": "MB",
    "execution.aborts": "count",
    "execution.degraded": "count",
    "service.evaluate_ms": "ms",
    "service.overhead_ms": "ms",
    "service.sync_p50_ms": "ms",
    "service.job_p50_ms": "ms",
    "service.job_submit_ms": "ms",
    "service.stream_mb_per_s": "MB/s",
    "service.journal_bytes_per_job": "B",
    "service.restart_s": "s",
    "service.cache_misses": "count",
    "service.queue_rejected": "count",
    "service.client_retries": "count",
    "observability.trace_overhead": "ratio",
}

MB = float(1 << 20)


class Recorder:
    """Latency and outcome of every operation of the timed phase.

    Failed operations are timed like the others, so they count in the
    percentiles and in the round's wall time.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []
        self._lock = threading.Lock()

    def record(self, seconds: float, failed: bool = False, label: str = "") -> None:
        with self._lock:
            self.latencies.append(seconds)
            self.labels.append(label)
            self.attempted += 1
            self.failed += bool(failed)

    def fail_recorded(self) -> None:
        """Mark one already-timed operation failed (found by a check)."""
        with self._lock:
            self.failed += 1

    def note(self, message: str) -> None:
        """Why an operation failed (printed, does not affect ``correct``)."""
        with self._lock:
            self.notes.append(message)

    def error(self, message: str) -> None:
        """An output check failed on an operation that did not fail."""
        with self._lock:
            self.errors.append(message)

    def slowest(self, count: int = 3) -> str:
        order = sorted(range(len(self.latencies)), key=self.latencies.__getitem__)
        return "; ".join(
            f"{self.labels[i]} {self.latencies[i] * 1e3:.0f}ms"
            for i in reversed(order[-count:])
        )

    @property
    def correct(self) -> bool:
        return not self.errors


def percentile_ms(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q)) * 1e3


def peak_rss_mb() -> float:
    """High-water resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """High-water resident memory (``VmHWM``) of another process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def median_of(samples) -> float:
    return float(statistics.median(samples))


def run_rounds(seconds: float, run_round) -> list[float]:
    """Call ``run_round(index)`` until its timed seconds reach ``seconds``.

    ``run_round`` returns the wall time of its timed phase only; set-up
    and output checks around it do not count towards the run length.
    """
    walls: list[float] = []
    while True:
        walls.append(run_round(len(walls)))
        if sum(walls) >= seconds:
            return walls


# -- benchmark-side tracing ------------------------------------------------


def span_seconds(roots, names: set[str]) -> dict[str, float]:
    """Total duration per span name, counting only outermost spans.

    A span nested inside a span of the same name (a recursive call) is
    already inside its ancestor's interval and is not added twice.
    """
    totals: dict[str, float] = defaultdict(float)
    stack = [(span, frozenset()) for span in roots]
    while stack:
        span, open_names = stack.pop()
        if span.name in names and span.name not in open_names:
            totals[span.name] += span.duration_s
        inner = open_names | {span.name}
        stack.extend((child, inner) for child in span.children)
    return totals


class LayerProbe:
    """Tracer capture plus benchmark-side timers for one traced round.

    :meth:`active` wraps one operation of a traced round: it records
    spans with ``TRACER.recording()``, adds the growth of every counter
    and histogram of the metrics registry, and lets the workload install
    timers around public functions that have no span of their own.
    Output checks run between activations, so they are never counted.
    ``wrap_function`` replaces a function in every loaded ``repro``
    module that bound it by name, so callers that imported it with
    ``from ... import`` are timed too; ``wrap_attribute`` replaces one
    attribute (a method, or a function called through its module).
    Only the outermost call of each timer counts, and everything is
    restored on exit.  The timers are for one thread.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.roots: list = []
        self._growth: dict[tuple[str, str], float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def active(self, install=None):
        from repro.observability.metrics import METRICS
        from repro.observability.trace import TRACER

        before = METRICS.snapshot()
        if install is not None:
            install(self)
        try:
            with TRACER.recording() as capture:
                yield self
        finally:
            for owner, name, original in reversed(self._patches):
                setattr(owner, name, original)
            self._patches.clear()
            self.roots.extend(capture.roots)
            self.add_growth(before, METRICS.snapshot())

    def add_growth(self, before: dict[str, dict], after: dict[str, dict]) -> None:
        """Add the counter/histogram growth between two metric snapshots.

        Takes :meth:`MetricsRegistry.snapshot` dictionaries and the
        records of the service's ``GET /metrics`` alike.
        """
        for name, now in after.items():
            then = before.get(name, {})
            for field in ("value", "count", "total"):
                if isinstance(now.get(field), (int, float)) and now.get("type") != "gauge":
                    self._growth[name, field] += now[field] - (then.get(field) or 0)

    def count(self, name: str) -> int:
        """Growth of a counter."""
        return int(self._growth[name, "value"])

    def total(self, name: str) -> float:
        """Growth of a histogram's sum of observations."""
        return self._growth[name, "total"]

    def observations(self, name: str) -> int:
        """Growth of a histogram's number of observations."""
        return int(self._growth[name, "count"])

    def spans(self, name: str) -> float:
        """Seconds inside outermost spans called ``name``."""
        return span_seconds(self.roots, {name})[name]

    def _timed(self, original, metric: str):
        def wrapper(*args, **kwargs):
            self._depth[metric] += 1
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._depth[metric] -= 1
                if not self._depth[metric]:
                    self.seconds[metric] += time.perf_counter() - started

        return wrapper

    def wrap_attribute(self, owner, name: str, metric: str) -> None:
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, self._timed(original, metric))

    def wrap_function(self, original, metric: str) -> None:
        wrapper = self._timed(original, metric)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)


def section(probe: "LayerProbe | None", install=None):
    """The context of a round's timed section: traced only under a probe."""
    if probe is None:
        assert_untraced()
        return nullcontext()
    return probe.active(install)


def assert_untraced() -> None:
    """The timed phase runs with the tracer off and no fault plan armed."""
    from repro.execution.faults import FAULTS
    from repro.observability.trace import TRACER

    if TRACER.enabled:
        raise RuntimeError("tracing must stay disabled in timed rounds")
    if FAULTS.armed:
        raise RuntimeError("no fault plan may be armed in timed rounds")


# -- result line -------------------------------------------------------------


def emit(recorder: Recorder, metrics: dict[str, float], units: dict[str, str],
         details: dict) -> None:
    """Print the human summary, then the one-line JSON result."""
    for key, value in details.items():
        print(f"# {key}: {value}")
    for message in sorted(set(recorder.notes))[:20]:
        print(f"# failed operation: {message}")
    for message in recorder.errors[:20]:
        print(f"# CHECK FAILED: {message}")
    width = max(len(name) for name in units)
    for name, unit in units.items():
        print(f"  {name:<{width}}  {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": recorder.correct,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }), flush=True)


def finish(workload, seconds: float, trace: bool) -> None:
    """Drive one workload object through set-up, rounds and reporting.

    A workload provides ``setup() -> seconds``, ``round(index, recorder,
    probe=None) -> timed seconds``, ``details() -> dict`` and
    ``close()``; its first round sets ``peak_mb``, and a round under a
    probe fills ``layer`` with per-layer metrics.
    """
    recorder = Recorder()
    try:
        setup_s = workload.setup()
        walls = run_rounds(
            seconds, lambda index: workload.round(index, recorder)
        )
        if not trace:
            metrics = {
                "setup_s": setup_s,
                "wall_s": median_of(walls),
                "p50_ms": percentile_ms(recorder.latencies, 50),
                "p90_ms": percentile_ms(recorder.latencies, 90),
                "peak_rss_mb": workload.peak_mb,
            }
            units = END_TO_END
        else:
            probe = LayerProbe()
            traced_wall = workload.round(len(walls), recorder, probe)
            metrics = dict.fromkeys(PER_LAYER, 0.0)
            metrics.update(workload.layer)
            metrics["observability.trace_overhead"] = (
                traced_wall / median_of(walls)
            )
            units = PER_LAYER
        p90_ms = percentile_ms(recorder.latencies, 90)
        details = {
            "rounds": len(walls) + bool(trace),
            "samples": len(recorder.latencies),
            "samples beyond p90": sum(
                1 for x in recorder.latencies if x * 1e3 > p90_ms
            ),
            "round walls (s)": " ".join(f"{w:.3f}" for w in walls),
            "slowest operations": recorder.slowest(),
            **workload.details(),
        }
    finally:
        workload.close()
    emit(recorder, metrics, units, details)
