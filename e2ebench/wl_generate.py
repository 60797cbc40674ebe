"""``generate``: build whole instances end to end on a size ladder.

One operation is the Fig. 1 front half for one instance: generate the
graph, write it in gMark's edge-list format, generate a mixed-shape
recursive query workload for it, and translate that workload into all
four dialects.  The time goes to ``generation``, the ``columnar``
store, the writers and the ``selectivity``/``queries`` generator; no
engine and no service runs.

One round builds the four scenarios, :data:`PER_RUNG` instances at
every rung of :data:`LADDER` (instance seeds ``1 .. PER_RUNG``), bib at
n=1128 with the seeds in :data:`BIB_FAULT_SEEDS`, and one lsn instance
of :data:`BIG_NODES` nodes, whose columnar merges run on arrays far
larger than the CPU caches.  ``--seed`` shuffles the order of every round.  The
instance seeds are pinned because instances of bib, wd and lsn fail
``verify_instance`` on a few seeds at every size (a zipfian side with
no hub, a gaussian mean or tail off its expectation): pinned, an
operation that fails fails in every run and is counted as failed,
never re-seeded away.  The five bib seeds at n=1128 are the ones the
fault was first reported with.

Outputs are checked outside the timed section: ``verify_instance``
against the schema's constraints, the written file read back with
``read_edge_list`` equal to the instance's edges, every query's text
parsing back to an equal query, and one statement per query in every
dialect.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import tempfile
import time
import warnings

import numpy as np

import harness
from repro.generation import writers
from repro.generation.generator import generate_graph
from repro.generation.properties import verify_instance
from repro.queries.generator import generate_workload
from repro.queries.parser import parse_query
from repro.queries.shapes import QueryShape
from repro.queries.workload import WorkloadConfiguration
from repro.scenarios import scenario_schema
from repro.schema.config import GraphConfiguration
from repro.translate import TRANSLATORS
from repro.translate.base import Translator

SCENARIOS = ("bib", "sp", "lsn", "wd")
LADDER = [int(round(300 * 1.1 ** k)) for k in range(28)]  # 300 .. 3967
PER_RUNG = 7
BIB_FAULT_NODES = 1128
BIB_FAULT_SEEDS = (52, 144, 182, 223, 234)
BIG_SCENARIO = "lsn"
BIG_NODES = 1_000_000
BIG_SEED = 1
QUERIES = 10
RECURSION = 0.3
DIALECTS = ("cypher", "datalog", "sparql", "sql")
SETUP_REPEATS = 3


def edge_digest(graph) -> str:
    """Digest of every non-empty label's sorted edge columns."""
    digest = hashlib.sha256()
    for label in sorted(graph.labels()):
        sources, targets = graph.edge_arrays(label)
        if len(sources):
            digest.update(label.encode())
            digest.update(np.ascontiguousarray(sources, dtype=np.int64).tobytes())
            digest.update(np.ascontiguousarray(targets, dtype=np.int64).tobytes())
    return digest.hexdigest()


class GenerateWorkload:
    def __init__(self, seed: int, import_s: float, workdir: str):
        self.seed = seed
        self.import_s = import_s
        self.workdir = tempfile.mkdtemp(prefix="generate-", dir=workdir)
        self.peak_mb: float | None = None
        self.layer: dict[str, float] = {}

    def setup(self) -> float:
        """Imports plus the median cost of building the four schemas."""
        times = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            self.schemas = {name: scenario_schema(name) for name in SCENARIOS}
            times.append(time.perf_counter() - started)
        self.ops = [
            (name, n, seed)
            for name in SCENARIOS for n in LADDER for seed in range(1, PER_RUNG + 1)
        ]
        self.ops += [("bib", BIB_FAULT_NODES, seed) for seed in BIB_FAULT_SEEDS]
        self.ops.append((BIG_SCENARIO, BIG_NODES, BIG_SEED))
        self.rng = random.Random(self.seed)
        return self.import_s + harness.median_of(times)

    def _instrument(self, probe: harness.LayerProbe) -> None:
        probe.wrap_attribute(np, "unique", "columnar.unique_s")
        probe.wrap_attribute(writers, "write_graph", "writers.write_s")
        probe.wrap_attribute(Translator, "translate_workload", "translate.translate_s")

    def _operation(self, scenario: str, nodes: int, seed: int, path: str):
        config = GraphConfiguration(nodes, self.schemas[scenario])
        graph = generate_graph(config, seed)
        writers.write_graph(graph, path, "edges")
        workload = generate_workload(WorkloadConfiguration(
            config, size=QUERIES, shapes=tuple(QueryShape),
            recursion_probability=RECURSION,
        ), seed)
        statements = {
            dialect: TRANSLATORS[dialect].translate_workload(workload)
            for dialect in DIALECTS
        }
        return graph, workload, statements

    def _check(self, recorder, label, graph, workload, statements) -> str:
        """Per-operation checks; returns the instance's edge digest."""
        report = verify_instance(graph)
        if not report.ok:
            recorder.fail_recorded()
            recorder.note(f"{label}: {report.violations[0]}")
        for generated in workload:
            text = generated.query.to_text()
            if parse_query(text) != generated.query:
                recorder.error(f"{label}: query text does not parse back: {text}")
        for dialect, texts in statements.items():
            if len(texts) != len(workload) or not all(texts):
                recorder.error(
                    f"{label}: {dialect} gave {len(texts)} statements "
                    f"for {len(workload)} queries"
                )
        return edge_digest(graph)

    def round(self, index, recorder, probe=None) -> float:
        written: list[tuple[str, str, str, GraphConfiguration]] = []
        edges = queries = nbytes = 0
        timed = 0.0
        order = self.rng.sample(self.ops, len(self.ops))
        for number, (scenario, nodes, seed) in enumerate(order):
            label = f"{scenario} n={nodes} seed={seed}"
            path = os.path.join(self.workdir, f"instance-{number}.txt")
            with harness.section(probe, self._instrument):
                started = time.perf_counter()
                try:
                    graph, workload, statements = self._operation(
                        scenario, nodes, seed, path
                    )
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    graph = None
                    recorder.note(f"{label}: raised {exc!r}")
                elapsed = time.perf_counter() - started
            timed += elapsed
            recorder.record(elapsed, failed=graph is None, label=label)
            if graph is None:
                continue
            edges += graph.edge_count
            queries += len(workload)
            nbytes += os.path.getsize(path)
            # Checks run with the clock stopped; the instance is dropped
            # right after, so a round holds one instance at a time.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                digest = self._check(recorder, label, graph, workload, statements)
            written.append((label, path, digest, graph.config))
            del graph, workload, statements
        if self.peak_mb is None:
            self.peak_mb = harness.peak_rss_mb()
        for label, path, digest, config in written:
            if edge_digest(writers.read_edge_list(path, config)) != digest:
                recorder.error(f"{label}: edge list read back differs")
            os.remove(path)
        if probe is not None:
            self._layer_metrics(probe, edges, queries, nbytes)
        return timed

    def _layer_metrics(self, probe, edges: int, queries: int, nbytes: int) -> None:
        graph_s = probe.total("generation.graph.seconds")
        workload_s = probe.total("workload.generate.seconds")
        write_s = probe.seconds["writers.write_s"]
        self.layer = {
            "generation.graph_s": graph_s,
            "generation.edges_per_s": edges / graph_s,
            "columnar.add_edges_s": probe.spans("graph.add_edges"),
            "columnar.unique_s": probe.seconds["columnar.unique_s"],
            "columnar.batch_merges": probe.count("columnar.batch_merges"),
            "columnar.csr_builds": probe.count("columnar.csr_builds"),
            "writers.write_s": write_s,
            "writers.mb_per_s": nbytes / harness.MB / write_s,
            "queries.workload_s": workload_s,
            "queries.queries_per_s": queries / workload_s,
            "queries.retries": probe.count("workload.retries"),
            "queries.relaxed": probe.count("workload.relaxed"),
            "selectivity.sampler_draws": probe.count("sampler.batch_draws"),
            "translate.translate_s": probe.seconds["translate.translate_s"],
            "execution.aborts": probe.count("engine.budget_aborts"),
            "execution.degraded": probe.count("execution.degraded"),
        }

    def details(self) -> dict:
        return {
            "operations per round": len(self.ops),
            "largest instance": f"{BIG_SCENARIO} n={BIG_NODES}",
        }

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
