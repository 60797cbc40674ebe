"""``evaluate``: the query workload on all four engines, as in §7.1.

The instance (bib, 10^4 nodes) and the 60-query workload are pinned
data files made by ``make_inputs.py``; ``--seed`` shuffles the order of
the operations and makes the small instance of the oracle check.  One
operation evaluates one query on one engine (P, S, D, G) under the
program's default ``ResourceBudget`` and counts its answers.  Each
round starts from a freshly loaded instance, so lazily built CSR
indexes are paid inside every round alike.  The time goes to
``engine`` (conjunct materialisation, ``join_rule``, frontier sweeps,
closure, G's binding tables) and to ``columnar`` reads.

Two recursive queries whose first conjunct is a co-author closure fail
today on P, S and D with ``EngineBudgetExceeded``: the rule engines
materialise the whole closure before joining, and the row cap is
checked only after an intermediate result was built.  They stay in the
workload and count as failed operations.

Checks, with the clock stopped: per query, P, S and D give identical
answer sets (three evaluators of the same homomorphic semantics) and
on queries without recursion G's answers are a subset of theirs (every
edge-injective match is a homomorphic match; G rewrites recursive
conjuncts by the §7.1 workaround, so there its answers may differ).  Once per run, on a bib instance of
:data:`ORACLE_NODES` nodes made from ``--seed``, every engine also
agrees with the retained seed oracles.
"""

from __future__ import annotations

import json
import random
import time
import warnings

import numpy as np

import harness
from make_inputs import DATA, read_queries
from repro.engine import joins
from repro.engine.evaluator import ENGINES
from repro.engine.reference_bfs import ReferenceSparqlEngine
from repro.engine.reference_isomorphic import ReferenceCypherEngine
from repro.engine.resultset import ResultSet
from repro.errors import EngineBudgetExceeded
from repro.execution.budget import ResourceBudget
from repro.generation.generator import generate_graph
from repro.generation.writers import read_edge_list
from repro.queries.parser import parse_query
from repro.scenarios import scenario_schema
from repro.schema.config import GraphConfiguration

ENGINE_NAMES = ("postgres", "sparql", "datalog", "cypher")  # P, S, D, G
HOMOMORPHIC = ("postgres", "sparql", "datalog")
ORACLE_NODES = 300
SETUP_REPEATS = 3


def same_answers(left: ResultSet, right: ResultSet) -> bool:
    return left.arity == right.arity and all(
        np.array_equal(a, b) for a, b in zip(left.arrays(), right.arrays())
    )


def subset_of(small: ResultSet, large: ResultSet) -> bool:
    return small.arity == large.arity and small.difference(large).count() == 0


class AnswerChecker:
    """The cross-engine checks, run as answers arrive with the clock stopped.

    Only the first homomorphic answer per query is kept (and a G answer
    waiting for it), so the checks hold little memory while the program's
    peak resident memory is measured.
    """

    def __init__(self, recorder: harness.Recorder, queries):
        self.recorder = recorder
        self.queries = queries
        self.reference: dict[int, tuple[str, ResultSet]] = {}
        self.waiting_iso: dict[int, ResultSet] = {}

    def add(self, number: int, engine: str, result: ResultSet) -> None:
        if engine in HOMOMORPHIC:
            if number in self.reference:
                first, answers = self.reference[number]
                if not same_answers(result, answers):
                    self.recorder.error(f"query {number}: {engine} differs from {first}")
                return
            self.reference[number] = (engine, result)
            iso = self.waiting_iso.pop(number, None)
            if iso is not None:
                self._check_iso(number, iso)
        elif not self.queries[number].has_recursion:
            # G rewrites recursive conjuncts (§7.1), so only queries
            # without recursion have the subset property.
            if number in self.reference:
                self._check_iso(number, result)
            else:
                self.waiting_iso[number] = result

    def _check_iso(self, number: int, iso: ResultSet) -> None:
        first, answers = self.reference[number]
        if not subset_of(iso, answers):
            self.recorder.error(f"query {number}: cypher answers outside {first}'s")


class EvaluateWorkload:
    def __init__(self, seed: int, import_s: float, workdir: str):
        self.seed = seed
        self.import_s = import_s
        self.spec = json.loads((DATA / "inputs.json").read_text())["evaluate"]
        self.peak_mb: float | None = None
        self.layer: dict[str, float] = {}
        self.oracle_checked = 0

    def _load(self):
        """The user's one-time work: load the instance and its queries."""
        config = GraphConfiguration(
            self.spec["nodes"], scenario_schema(self.spec["scenario"])
        )
        graph = read_edge_list(DATA / "evaluate_graph.txt", config)
        queries = [
            parse_query(text)
            for _, _, text in read_queries(DATA / "evaluate_queries.tsv")
        ]
        return graph, queries

    def setup(self) -> float:
        times = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            self.loaded = self._load()
            times.append(time.perf_counter() - started)
        queries = self.loaded[1]
        self.ops = [
            (index, engine) for index in range(len(queries)) for engine in ENGINE_NAMES
        ]
        self.rng = random.Random(self.seed)
        return self.import_s + harness.median_of(times)

    def _instrument(self, probe: harness.LayerProbe) -> None:
        probe.wrap_function(joins.join_rule, "engine.join_s")
        probe.wrap_attribute(ResultSet, "count", "engine.count_s")
        probe.wrap_attribute(np, "unique", "columnar.unique_s")

    def round(self, index, recorder, probe=None) -> float:
        graph, queries = self.loaded if index == 0 else self._load()
        checker = AnswerChecker(recorder, queries)
        engine_s = dict.fromkeys(ENGINE_NAMES, 0.0)
        peak_bytes = 0
        timed = 0.0
        for number, engine in self.rng.sample(self.ops, len(self.ops)):
            budget = ResourceBudget()
            with harness.section(probe, self._instrument):
                started = time.perf_counter()
                try:
                    result = ENGINES[engine].evaluate(queries[number], graph, budget)
                    result.count()
                except EngineBudgetExceeded as exc:
                    result = None
                    recorder.note(f"query {number} on {engine}: {exc}")
                elapsed = time.perf_counter() - started
            timed += elapsed
            engine_s[engine] += elapsed
            peak_bytes = max(peak_bytes, budget.peak_bytes)
            recorder.record(elapsed, failed=result is None, label=f"q{number} {engine}")
            if result is not None:
                checker.add(number, engine, result)
        if self.peak_mb is None:
            self.peak_mb = harness.peak_rss_mb()
        if probe is not None:
            self._layer_metrics(probe, engine_s, peak_bytes)
        if index == 0:
            self._check_oracles(recorder, queries)
        return timed

    def _check_oracles(self, recorder, queries) -> None:
        """Every engine equals the retained seed oracles on a small instance."""
        graph = generate_graph(
            GraphConfiguration(ORACLE_NODES, scenario_schema(self.spec["scenario"])),
            self.seed,
        )
        homomorphic, isomorphic = ReferenceSparqlEngine(), ReferenceCypherEngine()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for number, query in enumerate(queries):
                expected = homomorphic.evaluate(query, graph, ResourceBudget())
                expected_iso = isomorphic.evaluate(query, graph, ResourceBudget())
                for engine in ENGINE_NAMES:
                    oracle = expected_iso if engine == "cypher" else expected
                    answers = ENGINES[engine].evaluate(query, graph, ResourceBudget())
                    if not same_answers(answers, oracle):
                        recorder.error(
                            f"query {number}: {engine} differs from its seed "
                            f"oracle on bib n={ORACLE_NODES} seed={self.seed}"
                        )
                self.oracle_checked += 1

    def _layer_metrics(self, probe, engine_s, peak_bytes: int) -> None:
        self.layer = {
            "columnar.add_edges_s": probe.spans("graph.add_edges"),
            "columnar.unique_s": probe.seconds["columnar.unique_s"],
            "columnar.batch_merges": probe.count("columnar.batch_merges"),
            "columnar.csr_builds": probe.count("columnar.csr_builds"),
            **{f"engine.{name}_s": seconds for name, seconds in engine_s.items()},
            "engine.conjunct_s": probe.spans("engine.conjunct"),
            "engine.join_s": probe.seconds["engine.join_s"],
            "engine.frontier_s": probe.spans("frontier.sweep"),
            "engine.step_s": probe.spans("engine.step"),
            "engine.count_s": probe.seconds["engine.count_s"],
            "execution.peak_mb": peak_bytes / harness.MB,
            "execution.aborts": probe.count("engine.budget_aborts"),
            "execution.degraded": probe.count("execution.degraded"),
        }

    def details(self) -> dict:
        return {
            "instance": f"{self.spec['scenario']} n={self.spec['nodes']} "
                        f"seed={self.spec['seed']} (pinned)",
            "operations per round": len(self.ops),
            "oracle-checked queries": f"{self.oracle_checked} on bib n={ORACLE_NODES}",
        }

    def close(self) -> None:
        pass
