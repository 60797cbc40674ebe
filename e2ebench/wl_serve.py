"""``serve``: synchronous and durable-job evaluation through ``gmark serve``.

``gmark serve --journal`` runs in its own process against one warm bib
instance that the server generates from the pinned size and seed of
``inputs.json``; ``--seed`` shuffles the order of the operations.  (An
instance seeded from ``--seed`` made the round's wall time range from
2.6 s to 7.1 s with the answer size of one star query, wider than any
bound this benchmark can hold.)

:data:`CONNECTIONS` keep-alive connection forms a closed loop, because
the service's callers (benchmark harnesses, ``gmark jobs --wait``) wait
for each reply.  (Two connections gave no more throughput on two cores,
since the server's evaluations hold the interpreter lock, but made the
latencies depend on how requests happened to overlap: in interleaved
runs p50 was 13.3-17.5 ms with two connections and 7.4-7.6 ms with
one.)  One round sends every pinned query of ``serve_queries.tsv`` to
every engine twice, in an order shuffled by ``--seed``: once as
``POST /v1/evaluate`` reading the full NDJSON answer, once as ``POST
/v1/jobs`` polled every :data:`POLL_S` seconds and then fetched.  The
time goes to ``service`` (HTTP, queue, NDJSON serialisation, the
fsync'd journal) around small evaluations; while a job runs, the
journal appends and the polls run beside it.

The benchmark process, and with it every server it starts, runs on one
CPU.  Client and server take turns (their CPU times add up to the
round's wall time), so a second CPU gains nothing, while hand-offs
between two CPUs wait for the other CPU to wake: on two vCPUs, five
runs alternating pinned and unpinned gave p50 2.8-3.5 ms pinned against
5.0-6.0 ms unpinned, and round walls 2-21% shorter.  Wake-up latency is
the host's, not the program's, and swings with the host's load.

Checks, with the clock stopped: every response is 200 with
``complete: true`` and as many data lines as its header's ``rows``; P,
S and D answer identically and, on queries without recursion, G's
answers are a subset of theirs; a job's result bytes equal the
synchronous answer to the same payload.  After every round the server
is killed with SIGKILL and restarted on the same journal, and every
succeeded job must then be served byte-identical.  SIGKILL leaves the
page cache intact, so this does not prove the fsync.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import harness
from make_inputs import DATA, read_queries
from repro.queries.parser import parse_query
from repro.service.client import ServiceClient

ENGINE_NAMES = ("postgres", "sparql", "datalog", "cypher")  # P, S, D, G
HOMOMORPHIC = ("postgres", "sparql", "datalog")
CONNECTIONS = 1
SERVER_WORKERS = 2
POLL_S = 0.002
SETUP_STARTS = 5
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_SERVING = re.compile(r"serving on http://([\d.]+):(\d+)")


def _size(path: str) -> int:
    """Bytes in a journal, which the server creates on its first append."""
    return os.path.getsize(path) if os.path.exists(path) else 0


def _share_one_cpu() -> None:
    """Pin this thread, and the threads and processes it starts, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class CountingClient(ServiceClient):
    """The service's own client, counting the retries it makes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.retries = 0

    def _backoff(self, attempt, retry_after):
        self.retries += 1
        return super()._backoff(attempt, retry_after)


class Server:
    """One ``gmark serve`` process with its log in the work directory."""

    def __init__(self, workdir: str, journal: str, tag: str):
        self.log_path = os.path.join(workdir, f"serve-{tag}.log")
        src = os.path.join(os.path.dirname(DATA.parent), "src")
        env = {**os.environ, "PYTHONPATH": src}
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", str(SERVER_WORKERS), "--journal", journal],
                stdout=log, stderr=subprocess.STDOUT, env=env,
            )
        try:
            self._wait_healthy(time.monotonic() + START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, deadline: float) -> None:
        """Find the port in the log, then poll ``/healthz`` until 200."""
        match = None
        while match is None:
            if self.process.poll() is not None or time.monotonic() > deadline:
                with open(self.log_path, encoding="utf-8") as log:
                    raise RuntimeError(
                        f"gmark serve did not start:\n{log.read()[-2000:]}"
                    )
            time.sleep(0.005)
            with open(self.log_path, encoding="utf-8") as log:
                match = _SERVING.search(log.read())
        self.host, self.port = match.group(1), int(match.group(2))
        with CountingClient(self.host, self.port, max_retries=0) as client:
            while client.request("GET", "/healthz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("gmark serve never reported healthy")
                time.sleep(0.005)

    def client(self) -> CountingClient:
        return CountingClient(self.host, self.port)

    def metrics(self) -> dict[str, dict]:
        with self.client() as client:
            status, _, body = client.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        records = [json.loads(line) for line in body.decode().splitlines() if line]
        return {record["name"]: record for record in records}

    def kill(self) -> None:
        self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=STOP_TIMEOUT_S)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()


class ServeWorkload:
    def __init__(self, seed: int, import_s: float, workdir: str):
        self.seed = seed
        self.workdir = tempfile.mkdtemp(prefix="serve-", dir=workdir)
        spec = json.loads((DATA / "inputs.json").read_text())["serve"]
        self.graph = {"scenario": spec["scenario"], "nodes": spec["nodes"],
                      "seed": spec["seed"]}
        self.queries = [text for _, _, text in read_queries(DATA / "serve_queries.tsv")]
        self.recursive = [parse_query(text).has_recursion for text in self.queries]
        self.server: Server | None = None
        self.peak_mb: float | None = None
        self.layer: dict[str, float] = {}
        self.starts = 0

    def _start(self, journal: str) -> Server:
        self.starts += 1
        return Server(self.workdir, journal, str(self.starts))

    def _warm(self, server: Server) -> None:
        with server.client() as client:
            client.ensure_graph(**self.graph)

    def setup(self) -> float:
        """Median of starting ``gmark serve`` until healthy and warm."""
        _share_one_cpu()
        times = []
        for start in range(SETUP_STARTS):
            if self.server is not None:
                self.server.stop()
            self.journal = os.path.join(self.workdir, f"journal-{start}.ndjson")
            started = time.perf_counter()
            self.server = self._start(self.journal)
            self._warm(self.server)
            times.append(time.perf_counter() - started)
        self.ops = [
            (number, engine, kind)
            for number in range(len(self.queries))
            for engine in ENGINE_NAMES for kind in ("sync", "job")
        ]
        self.rng = random.Random(self.seed)
        return harness.median_of(times)

    # -- one operation -------------------------------------------------

    def _payload(self, number: int, engine: str) -> dict:
        return {**self.graph, "query": self.queries[number], "engine": engine}

    def _sync(self, client, number, engine) -> bytes:
        status, _, body = client.request(
            "POST", "/v1/evaluate", self._payload(number, engine)
        )
        if status != 200:
            raise RuntimeError(f"POST /v1/evaluate answered {status}: {body[:200]!r}")
        return body

    def _job(self, client, number, engine, log, round_index) -> bytes:
        payload = {**self._payload(number, engine),
                   "idempotency_key": f"round-{round_index}-query-{number}"}
        started = time.perf_counter()
        status, job = client.request_json("POST", "/v1/jobs", payload)
        log["submit"].append(time.perf_counter() - started)
        if status != 202:
            raise RuntimeError(f"POST /v1/jobs answered {status}: {job}")
        path = f"/v1/jobs/{job['job_id']}"
        while True:
            status, job = client.request_json("GET", path)
            if job.get("state") == "succeeded":
                break
            if status != 200 or job.get("state") in ("failed", "cancelled"):
                raise RuntimeError(f"job {path} ended {status}: {job}")
            time.sleep(POLL_S)
        status, _, body = client.request("GET", path + "/result")
        if status != 200:
            raise RuntimeError(f"GET {path}/result answered {status}")
        log["jobs"][number, engine] = job["job_id"]
        return body

    def _connection(self, server, pending, lock, recorder, log, round_index):
        with server.client() as client:
            while True:
                with lock:
                    if not pending:
                        break
                    number, engine, kind = pending.pop()
                started = time.perf_counter()
                try:
                    if kind == "sync":
                        body = self._sync(client, number, engine)
                    else:
                        body = self._job(client, number, engine, log, round_index)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    body = None
                    recorder.note(f"{kind} query {number} on {engine}: {exc!r}")
                elapsed = time.perf_counter() - started
                recorder.record(elapsed, failed=body is None,
                                label=f"{kind} q{number} {engine}")
                with lock:
                    log[kind + "_s"].append(elapsed)
                    if body is not None:
                        log[kind][number, engine] = body
            with lock:
                log["retries"] += client.retries

    # -- one round -----------------------------------------------------

    def round(self, index, recorder, probe=None) -> float:
        server = self.server
        log = {"sync": {}, "job": {}, "jobs": {}, "sync_s": [], "job_s": [],
               "submit": [], "retries": 0}
        pending = self.rng.sample(self.ops, len(self.ops))
        lock = threading.Lock()
        before = server.metrics() if probe is not None else None
        journal_before = _size(self.journal)
        with harness.section(probe):
            started = time.perf_counter()
            threads = [
                threading.Thread(target=self._connection,
                                 args=(server, pending, lock, recorder, log, index))
                for _ in range(CONNECTIONS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            timed = time.perf_counter() - started
        if pending:
            raise RuntimeError(f"{len(pending)} operations never ran; see above")
        if probe is not None:
            probe.add_growth(before, server.metrics())
        journal_growth = _size(self.journal) - journal_before
        if self.peak_mb is None:
            self.peak_mb = harness.process_peak_rss_mb(server.process.pid)
        self._check(recorder, log)
        restart_s = self._restart_and_check(recorder, log)
        if probe is not None:
            self._layer_metrics(probe, log, journal_growth, restart_s)
        return timed

    def _check(self, recorder, log) -> None:
        for (number, engine), body in log["sync"].items():
            lines = body.decode().splitlines()
            header = json.loads(lines[0])
            if not header.get("complete") or header.get("rows") != len(lines) - 1:
                recorder.error(f"query {number} on {engine}: bad result header {header}")
            job_body = log["job"].get((number, engine))
            if job_body is not None and job_body != body:
                recorder.error(f"query {number} on {engine}: job result differs from sync")
        for number, recursive in enumerate(self.recursive):
            homs = [(engine, log["sync"][number, engine])
                    for engine in HOMOMORPHIC if (number, engine) in log["sync"]]
            for engine, body in homs[1:]:
                if body != homs[0][1]:
                    recorder.error(f"query {number}: {engine} differs from {homs[0][0]}")
            iso = log["sync"].get((number, "cypher"))
            if recursive or iso is None or not homs:
                continue  # G rewrites recursive conjuncts (§7.1)
            if not set(iso.splitlines()[1:]) <= set(homs[0][1].splitlines()[1:]):
                recorder.error(f"query {number}: cypher answers outside {homs[0][0]}'s")

    def _restart_and_check(self, recorder, log) -> float:
        """SIGKILL, restart on the same journal; jobs must read back equal."""
        self.server.kill()
        started = time.perf_counter()
        self.server = self._start(self.journal)
        restart_s = time.perf_counter() - started
        with self.server.client() as client:
            for key, job_id in log["jobs"].items():
                status, _, body = client.request("GET", f"/v1/jobs/{job_id}/result")
                if status != 200 or body != log["job"].get(key):
                    recorder.error(f"job {job_id} {key}: {status} or changed after restart")
        self._warm(self.server)
        return restart_s

    def _layer_metrics(self, probe, log, journal_growth: int, restart_s: float) -> None:
        requests = probe.observations("service.request.evaluate.seconds")
        evaluate_ms = 1e3 * probe.total("service.request.evaluate.seconds") / requests
        sync_bytes = sum(len(body) for body in log["sync"].values())
        self.layer = {
            "service.evaluate_ms": evaluate_ms,
            "service.overhead_ms": 1e3 * statistics.fmean(log["sync_s"]) - evaluate_ms,
            "service.sync_p50_ms": 1e3 * harness.median_of(log["sync_s"]),
            "service.job_p50_ms": 1e3 * harness.median_of(log["job_s"]),
            "service.job_submit_ms": 1e3 * harness.median_of(log["submit"]),
            "service.stream_mb_per_s": sync_bytes / harness.MB / sum(log["sync_s"]),
            "service.journal_bytes_per_job": journal_growth / len(log["job_s"]),
            "service.restart_s": restart_s,
            "service.cache_misses": probe.count("service.cache.miss"),
            "service.queue_rejected": probe.count("service.queue.rejected"),
            "service.client_retries": log["retries"],
            "execution.aborts": probe.count("engine.budget_aborts"),
            "execution.degraded": probe.count("execution.degraded"),
        }

    def details(self) -> dict:
        return {
            "instance": f"{self.graph['scenario']} n={self.graph['nodes']} "
                        f"seed={self.graph['seed']} (pinned)",
            "operations per round": len(self.ops),
            "connections": CONNECTIONS,
            "CPUs": " ".join(map(str, sorted(os.sched_getaffinity(0)))),
            "job poll interval (ms)": POLL_S * 1e3,
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)
