"""Set-up, ops, trace hooks and metrics of the repository benchmark.

Every workload runs a closed loop (the next op starts when the previous one
has returned) on one client thread, in rounds.  A round is

* on the sim workloads, one *simulate* pass: ``run_scenario`` over the
  workload's grid, each op with a fresh seed; then
* one *fabric* block: /scenario hits, a cold /scenario miss, a /compare read
  and a ``python -m repro run`` subprocess, against a
  :class:`~repro.serve.service.ResultsService` whose store set-up filled.

The fabric block rides along on the sim workloads because every end-to-end
metric is reported on every workload; interleaving it with the passes lets
both sample the whole run window of a drifting shared host.

The traced run alternates untraced and traced rounds.  Hooks around the
layers' public functions are installed for the traced rounds only; the
untraced ones give the baseline for ``bench.trace_overhead``.

Between ops the benchmark samples a fixed pure-Python reference loop and a
served reference round trip (:class:`ServedReference`), at most every
HOST_SAMPLE_INTERVAL_S, and the end-to-end metrics are reported in reference
seconds: each op's time scaled by its round's reference samples
(``host_scaled``), so that a drift of the shared host's speed, which moves
the references as much as the program, cancels out.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlencode
from urllib.request import urlopen

import plans
from spans import Tracer, account_op
from stats import (failed_fraction, host_scale, min_samples, op_failed,
                   percentile, reference_loop, reference_sample, served_scale)

import repro.analysis.report as report_module
import repro.core.scenario as scenario_module
import repro.serve.service as service_module
from repro.analysis.report import design_space_records
from repro.core.processor import Processor
from repro.core.scenario import Scenario, ScenarioResult, run_scenario
from repro.exec import ExecutionConfig
from repro.results.store import ResultsStore
from repro.serve.client import request_json, scenario_query_url
from repro.serve.service import ResultsService

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of the benchmark inside the checkout (git-ignored).
WORK = ROOT / ".bench_work"

#: Rounds every run makes at least: 10 fabric blocks give at least 20
#: misses and CLI runs (p50 with 10 beyond) and 2000 hits, of which the
#: traced run's untraced half still gives the 1000 a p99 needs.  Round 1 is
#: the first traced one.
MIN_ROUNDS = 10
#: Failed ops do not count towards a percentile, so a run short of samples
#: goes on past ``--seconds``, for at most this many times ``--seconds`` in
#: all.
MAX_RUN_FACTOR = 2.0
#: The digest covers the first simulate passes and the misses of the first
#: MIN_ROUNDS blocks, a set fixed by the seed.
DIGEST_PASSES = 2
#: Sleep between polls of a cold miss.
MISS_POLL_S = 0.01
HTTP_TIMEOUT_S = 10.0
MISS_DEADLINE_S = 30.0
CLI_TIMEOUT_S = 60.0
#: Fewest seconds between two reference samples (one takes a few ms); every
#: round takes one before its first op.
HOST_SAMPLE_INTERVAL_S = 0.2
#: Op kinds the results service answers in one request; their times are
#: scaled by the served reference, the others' by the reference loop.
SERVED_KINDS = frozenset({"hit", "compare"})
#: Reference loop iterations and reply size of one served reference request:
#: about a hit's server-side work and body.
SERVED_ITERATIONS = 15_000
SERVED_BODY_BYTES = 3000


def child_environment(store_root: Path) -> Dict[str, str]:
    """Environment of the subprocesses: the checkout's sources, our store."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(store_root)
    return env


def expected_committed(scenario: Scenario) -> int:
    """The instruction budget a run of ``scenario`` must commit."""
    if scenario.workload.startswith("kernel:"):
        trace, _ = scenario.build_trace()
        return len(trace)
    return scenario.num_instructions


# ------------------------------------------------------------------- set-up
class Fabric:
    """A results store filled with the run's stored scenarios, served by a
    :class:`ResultsService` on an ephemeral port."""

    def __init__(self, run_seed: int) -> None:
        WORK.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.store = ResultsStore(root=self.work / "store")
        self.inputs = plans.fabric_inputs(run_seed)
        #: canonical JSON of every stored result, by store key
        self.references: Dict[str, str] = {}
        outcomes = []
        for scenario in self.inputs.stored:
            outcome = run_scenario(scenario)
            if (outcome.result.committed_instructions
                    != expected_committed(scenario)):
                raise RuntimeError(f"set-up run of {scenario.name} committed "
                                   f"{outcome.result.committed_instructions}")
            key = self.store.put(outcome)
            self.references[key] = outcome.to_json()
            outcomes.append(outcome)
        grid = outcomes[:len(self.inputs.compare_grid)]
        self.compare_records = json.loads(json.dumps(design_space_records(grid)))
        # Misses arrive one at a time (a closed loop), so every drain batch
        # holds one scenario and the local backend runs it in-process.
        self.service = ResultsService(
            store=self.store,
            execution=ExecutionConfig(backend="local", jobs=1),
            port=0).start()
        self.env = child_environment(self.store.root)

    def close(self) -> None:
        """Stop the service and delete the run's scratch directory."""
        self.service.stop()
        shutil.rmtree(self.work, ignore_errors=True)


class _ReferenceHandler(BaseHTTPRequestHandler):
    """Runs the reference loop and answers a fixed body."""

    body = b"0" * SERVED_BODY_BYTES

    def do_GET(self) -> None:  # noqa: N802  (the http.server name)
        reference_loop(SERVED_ITERATIONS)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)

    def log_message(self, *_args) -> None:
        pass


class ServedReference:
    """A loopback HTTP server of the benchmark's own, fetched with urllib.

    A served op's time is loopback TCP, a handler thread and Python work,
    and on a shared host the first two drift apart from pure-Python speed.
    A round trip to this server is made of the same host work, but runs
    none of the program's code, so it moves with the host only.
    """

    def __init__(self) -> None:
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _ReferenceHandler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/"
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    def round_trip(self) -> float:
        """Seconds of one request to the server."""
        start = time.perf_counter()
        with urlopen(self.url, timeout=HTTP_TIMEOUT_S) as response:
            response.read()
        return time.perf_counter() - start

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()


# -------------------------------------------------------------------- hooks
class Hooks:
    """Spans around the layers' public functions, for traced rounds.

    ``install`` swaps each function for a wrapper that records a span and
    calls the original; ``uninstall`` restores the originals.  The processor
    build/run split comes from wrapping ``Processor.__init__`` and
    ``Processor.run``; the engine and FIFO counters are read from the
    processor once its run has returned.
    """

    def __init__(self, tracer: Tracer, fabric: Fabric) -> None:
        self.tracer = tracer
        self.fabric = fabric
        self.store_gets = 0
        self.store_hits = 0
        self.batches: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, owner, attribute: str, name: str,
              attach: str = "stack",
              after: Optional[Callable] = None) -> None:
        original = getattr(owner, attribute)
        tracer = self.tracer

        def traced(*args, **kwargs):
            with tracer.span(name, attach=attach):
                value = original(*args, **kwargs)
            if after is not None and tracer.enabled:
                after(args, value)
            return value

        self._saved.append((owner, attribute, owner.__dict__.get(attribute)))
        setattr(owner, attribute, traced)

    def _count_get(self, _args, value) -> None:
        self.store_gets += 1
        self.store_hits += value is not None

    def _count_batch(self, _args, size: int) -> None:
        self.batches.append(size)

    def _count_run(self, args, result) -> None:
        machine = args[0]
        channels = machine.channels.values()
        self.tracer.count(
            committed=result.committed_instructions,
            events=machine.engine.events_processed,
            edges=sum(result.domain_cycles.values()),
            fifo_pushes=sum(channel.push_count for channel in channels),
            fifo_full_stalls=sum(channel.full_stall_count
                                 for channel in channels),
            wrong_path=result.wrong_path_fetched)

    def install(self) -> None:
        """Wrap every traced function."""
        store = self.fabric.store
        service = self.fabric.service
        # trace synthesis, whether a sweep's warm-up or build_trace pays it
        self._wrap(scenario_module, "build_workload", "workloads.build")
        self._wrap(ScenarioResult, "to_json", "scenario.encode")
        self._wrap(Processor, "__init__", "processor.build")
        self._wrap(Processor, "run", "processor.run", after=self._count_run)
        self._wrap(store, "key_for", "store.key")
        self._wrap(store, "get_with_seconds", "store.get",
                   after=self._count_get)
        self._wrap(store, "put", "store.put")
        self._wrap(service, "lookup", "serve.lookup")
        self._wrap(service, "compare", "serve.compare")
        self._wrap(service, "drain_once", "serve.drain", attach="op",
                   after=self._count_batch)
        self._wrap(service_module, "resume_sweep", "exec.sweep")
        self._wrap(report_module, "design_space_records", "analysis.render")
        self._wrap(report_module, "design_space_table", "analysis.render")

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for owner, attribute, original in reversed(self._saved):
            if original is None:
                delattr(owner, attribute)   # an instance falls back to its class
            else:
                setattr(owner, attribute, original)
        self._saved = []


# ---------------------------------------------------------------------- ops
@dataclass
class OpRecord:
    """Outcome of one timed op."""

    op_id: int
    kind: str
    phase: str
    block: int
    traced: bool
    seconds: float = 0.0
    failed: bool = False
    committed: int = 0
    polls: int = 0
    code: Optional[int] = None
    #: reply body, kept until the output check has read it
    body: str = ""


@dataclass
class Run:
    """Everything one benchmark run measured."""

    workload: str
    ops: List[OpRecord] = field(default_factory=list)
    digest_parts: List[str] = field(default_factory=list)
    check_failures: List[str] = field(default_factory=list)
    rejected: int = 0
    #: reference-loop rates (million iterations/s) sampled in each round
    host_rates: Dict[int, List[float]] = field(default_factory=dict)
    #: served reference round trips (seconds) sampled in each round
    served_times: Dict[int, List[float]] = field(default_factory=dict)


class Benchmark:
    """Runs one workload's loops and checks every op's output."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tracer = Tracer()
        self.fabric = Fabric(seed)
        self.reference = ServedReference()
        self.hooks = Hooks(self.tracer, self.fabric)
        self.run = Run(workload)
        self.pending_max = 0
        #: import-only subprocess times, one after each traced ``repro run``
        self.import_samples: List[float] = []
        self._last_sample = 0.0

    @contextmanager
    def _block(self, block: int) -> Iterator[bool]:
        """One round of ops; traced on the odd rounds of a traced run."""
        traced = self.traced and block % 2 == 1
        if traced:
            self.hooks.install()
            self.tracer.enabled = True
        try:
            yield traced
        finally:
            if traced:
                self.tracer.enabled = False
                self.hooks.uninstall()

    @contextmanager
    def _paused(self) -> Iterator[None]:
        """Untraced work between ops (the output checks)."""
        enabled, self.tracer.enabled = self.tracer.enabled, False
        try:
            yield
        finally:
            self.tracer.enabled = enabled

    def _sample_host(self, block: int) -> None:
        """Sample both references, untimed, if the round has no sample yet
        or HOST_SAMPLE_INTERVAL_S have passed since the last one."""
        rates = self.run.host_rates.setdefault(block, [])
        if (not rates or time.perf_counter() - self._last_sample
                >= HOST_SAMPLE_INTERVAL_S):
            rates.append(reference_sample())
            self.run.served_times.setdefault(block, []).append(
                self.reference.round_trip())
            self._last_sample = time.perf_counter()

    def _timed(self, record: OpRecord, action: Callable[[], None]) -> None:
        """Run one op as the root span ``op.<kind>``, classifying failure."""
        self._sample_host(record.block)
        error: Optional[BaseException] = None
        timed_out = False
        with self.tracer.op(record.op_id, f"op.{record.kind}"):
            start = time.perf_counter()
            try:
                action()
            except (TimeoutError, subprocess.TimeoutExpired) as exc:
                timed_out, error = True, exc
            except Exception as exc:  # an op that raised is a failed op
                error = exc
            record.seconds = time.perf_counter() - start
        if op_failed(record.code, error=error, timed_out=timed_out):
            note = (f"{type(error).__name__}: {error}" if error is not None
                    else f"HTTP {record.code}")
            self._fail(record, note)
        if record.code == 429:
            self.run.rejected += 1

    def _fail(self, record: OpRecord, note: str) -> None:
        record.failed = True
        self.run.check_failures.append(f"{record.kind} op {record.op_id}: "
                                       f"{note}")

    def _record(self, kind: str, phase: str, block: int,
                traced: bool) -> OpRecord:
        record = OpRecord(len(self.run.ops) + 1, kind, phase, block, traced)
        self.run.ops.append(record)
        return record

    # ---------------------------------------------------------- simulate op
    def simulate_op(self, scenario: Scenario, block: int, traced: bool) -> None:
        """One in-process ``run_scenario`` plus its result encoding."""
        record = self._record("simulate", "simulate", block, traced)
        outcomes: List[ScenarioResult] = []

        def action() -> None:
            outcome = run_scenario(scenario)
            record.body = outcome.to_json()
            outcomes.append(outcome)

        self._timed(record, action)
        if record.failed:
            return
        record.committed = outcomes[0].result.committed_instructions
        with self._paused():
            self._check_budget(record, scenario)
        if block < DIGEST_PASSES:
            self.run.digest_parts.append(record.body)
        record.body = ""

    # ------------------------------------------------------------ fabric ops
    def fabric_block(self, block: int, traced: bool) -> None:
        """One fabric block: hits, cold misses, /compare reads and
        ``repro run`` subprocesses."""
        for kind, argument in plans.fabric_block(self.seed, block,
                                                 self.fabric.inputs):
            record = self._record(kind, "fabric", block, traced)
            op = getattr(self, f"{kind}_op")
            self._timed(record, lambda: op(argument, record))
            if not record.failed:
                with self._paused():
                    self._check(kind, argument, record)
            if kind == "cli" and traced:
                self.import_samples.append(
                    import_probe_seconds(self.fabric.env))
            record.body = ""

    def _http(self, url: str):
        with self.tracer.span("client.http"):
            return request_json(url, timeout=HTTP_TIMEOUT_S, retries=0)

    def hit_op(self, scenario: Scenario, record: OpRecord) -> None:
        """GET /scenario for a stored scenario."""
        reply = self._http(scenario_query_url(self.fabric.service.url, scenario))
        record.code, record.body, record.polls = reply.code, reply.body, 1

    def miss_op(self, scenario: Scenario, record: OpRecord) -> None:
        """GET /scenario for a cold scenario, polled until it is served."""
        url = scenario_query_url(self.fabric.service.url, scenario)
        deadline = time.perf_counter() + MISS_DEADLINE_S
        reply = self._http(url)
        record.code, record.polls = reply.code, 1
        if reply.code != 202:
            raise RuntimeError(f"first query of a cold scenario returned "
                               f"{reply.code}, expected 202")
        if self.tracer.enabled:
            with self.tracer.span("bench.probe"):
                pending = self.fabric.service.health()["pending"]
            self.pending_max = max(self.pending_max, pending)
        while reply.code == 202:
            if time.perf_counter() > deadline:
                raise TimeoutError(f"{scenario.name} not served within "
                                   f"{MISS_DEADLINE_S} s")
            time.sleep(MISS_POLL_S)
            reply = self._http(url)
            record.polls += 1
        record.code, record.body = reply.code, reply.body

    def compare_op(self, _argument: None, record: OpRecord) -> None:
        """GET /compare over the stored grid."""
        query = urlencode(self.fabric.inputs.compare_params())
        reply = self._http(f"{self.fabric.service.url}/compare?{query}")
        record.code, record.body, record.polls = reply.code, reply.body, 1

    def cli_op(self, scenario: Scenario, record: OpRecord) -> None:
        """``python -m repro run`` of a stored scenario, in a subprocess."""
        output = self.fabric.work / "cli.json"
        output.unlink(missing_ok=True)
        command = [sys.executable, "-m", "repro", "run", scenario.name,
                   "--seed", str(scenario.seed),
                   "--instructions", str(scenario.num_instructions),
                   "--cache", "--cache-dir", str(self.fabric.store.root),
                   "--json", str(output), "--quiet"]
        with self.tracer.span("cli.run"):
            completed = subprocess.run(command, env=self.fabric.env, cwd=ROOT,
                                       capture_output=True, text=True,
                                       timeout=CLI_TIMEOUT_S)
        if completed.returncode != 0:
            raise RuntimeError(f"repro run exited {completed.returncode}: "
                               f"{completed.stderr.strip()[-300:]}")
        record.body = output.read_text()

    # ------------------------------------------------------------- checks
    def _check_budget(self, record: OpRecord, scenario: Scenario) -> None:
        expected = expected_committed(scenario)
        if record.committed != expected:
            self._fail(record, f"{scenario.name} committed {record.committed}"
                               f" of {expected} instructions")

    def _check(self, kind: str, argument, record: OpRecord) -> None:
        """Output checks of one fabric op, outside its timed region."""
        if kind != "cli" and record.code != 200:
            self._fail(record, f"HTTP {record.code}, expected 200")
            return
        if kind == "compare":
            records = json.loads(record.body).get("records")
            if records != self.fabric.compare_records:
                self._fail(record, "/compare records differ from the "
                                   "in-process grid")
            return
        if kind == "miss":
            expected = run_scenario(argument).to_json()
            record.committed = ScenarioResult.from_json(
                record.body).result.committed_instructions
            self._check_budget(record, argument)
            if record.block < MIN_ROUNDS:
                self.run.digest_parts.append(record.body)
        else:
            expected = self.fabric.references[
                self.fabric.store.key_for(argument)]
        if record.body != expected:
            self._fail(record, f"{kind} body differs from the in-process "
                               "ScenarioResult.to_json()")

    # ------------------------------------------------------------------ run
    def execute(self) -> None:
        """Run rounds until ``seconds`` have passed, at least MIN_ROUNDS.

        A round is one pass over the sim grid (sim workloads only) followed
        by one fabric block, so every metric samples the whole run window.
        While failed ops leave a metric short of samples, rounds go on up to
        MAX_RUN_FACTOR times ``seconds``.
        """
        start = time.perf_counter()
        until = start + self.seconds
        last = start + MAX_RUN_FACTOR * self.seconds
        simulating = self.workload != "fabric"
        rounds = 0
        while (rounds < MIN_ROUNDS or time.perf_counter() < until
               or (self.sample_shortfall()
                   and time.perf_counter() < last)):
            with self._block(rounds) as traced:
                if simulating:
                    for scenario in plans.sim_pass(self.workload, self.seed,
                                                   rounds):
                        self.simulate_op(scenario, rounds, traced)
                    # Untimed: collect the pass's garbage here, or the
                    # service's hits, which only share this process with
                    # the simulate loop on the sim workloads, pay for it.
                    gc.collect()
                self.fabric_block(rounds, traced)
            rounds += 1

    def sample_shortfall(self) -> List[str]:
        """The op kinds still short of the successful samples the metrics of
        this run need (empty when every metric can be computed)."""
        kinds = ["hit", "miss", "compare", "cli"]
        if self.workload != "fabric":
            kinds.append("simulate")
        done = Counter((op.kind, op.traced) for op in self.run.ops
                       if not op.failed)
        if self.traced:
            # per-layer means over traced ops; the hit tail over untraced
            # hits (the p90 per round, see below)
            needs = {(kind, True): 1 for kind in kinds}
            needs[("hit", False)] = min_samples(0.99)
        else:
            needs = {(kind, False): 1 for kind in kinds}
            needs.update({("hit", False): min_samples(0.5),
                          ("miss", False): min_samples(0.5),
                          ("cli", False): min_samples(0.5)})
        short = [kind for (kind, traced), count in needs.items()
                 if done[kind, traced] < count]
        if self.traced and not _per_round(_ok(self.run.ops, "hit"),
                                          _hit_p90):
            short.append("hit")
        return sorted(set(short))

    def close(self) -> None:
        """Stop both servers and delete the run's scratch files."""
        self.reference.close()
        self.fabric.close()


# ------------------------------------------------------------------ metrics
def _ok(ops: Sequence[OpRecord], kind: str) -> List[OpRecord]:
    """The successful untraced ops of ``kind``."""
    return [op for op in ops
            if op.kind == kind and not op.failed and not op.traced]


def _times(ops: Sequence[OpRecord], kind: str) -> List[float]:
    return [op.seconds for op in ops if op.kind == kind and not op.failed]


def _hit_p90(hits: Sequence[OpRecord]) -> Optional[float]:
    """p90 of one round's hits, None when the round has too few."""
    if len(hits) < min_samples(0.9):
        return None
    return percentile([op.seconds for op in hits], 0.9)


def _per_round(ops: Sequence[OpRecord], statistic) -> List[float]:
    """``statistic(ops of one round)`` for every round where it is defined."""
    rounds: Dict[int, List[OpRecord]] = {}
    for op in ops:
        rounds.setdefault(op.block, []).append(op)
    values = [statistic(members) for _, members in sorted(rounds.items())]
    return [value for value in values if value is not None]


def _rate(ops: Sequence[OpRecord]) -> Optional[float]:
    """Committed instructions per second over ``ops`` (None without any)."""
    seconds = sum(op.seconds for op in ops)
    return sum(op.committed for op in ops) / seconds if ops else None


def host_scaled(run: Run) -> List[OpRecord]:
    """The run's ops with their times in reference seconds: a served op's
    scaled by ``served_scale`` of its round's served reference round trips,
    any other by ``host_scale`` of its round's reference-loop rates."""
    loop = {block: host_scale(rates)
            for block, rates in run.host_rates.items()}
    served = {block: served_scale(times)
              for block, times in run.served_times.items()}
    return [replace(op, seconds=op.seconds * (
        served if op.kind in SERVED_KINDS else loop)[op.block])
        for op in run.ops]


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(workload: str, ops: Sequence[OpRecord],
                       setup_samples: Sequence[float], peak_mb: float
                       ) -> Dict[str, Tuple[float, str, int]]:
    """End-to-end metrics of ``ops``: name -> (value, unit, sample count).

    Rates and the /compare p50 are taken per round and
    reported as the median over rounds, so that a stall of the shared host
    during a few rounds does not move them.  ``ops`` and ``setup_samples``
    come in reference seconds (``host_scaled``) for the reported metrics and
    in host seconds for the raw ones printed beside them.
    """
    ops = [op for op in ops if not op.traced]
    simulating_kind = "miss" if workload == "fabric" else "simulate"
    simulating = [op for op in ops
                  if op.kind == simulating_kind and not op.failed]
    fabric_ops = [op for op in ops if op.phase == "fabric"]
    sim_rates = _per_round(simulating, _rate)
    compare_p50s = _per_round(_ok(ops, "compare"), lambda compares:
                              statistics.median(op.seconds for op in compares))
    ops_rates = _per_round(fabric_ops, lambda block: sum(
        not op.failed for op in block) / sum(op.seconds for op in block))
    hits = _times(ops, "hit")
    misses = _times(ops, "miss")
    clis = _times(ops, "cli")
    return {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "sim_instr_per_s": (statistics.median(sim_rates), "instr/s",
                            len(sim_rates)),
        "peak_rss_mb": (peak_mb, "MB", 1),
        "hit_ms_p50": (percentile(hits, 0.5) * 1e3, "ms", len(hits)),
        "miss_s_p50": (percentile(misses, 0.5), "s", len(misses)),
        "compare_ms_p50": (statistics.median(compare_p50s) * 1e3, "ms",
                           len(compare_p50s)),
        "cli_ms_p50": (percentile(clis, 0.5) * 1e3, "ms", len(clis)),
        "fabric_ops_per_s": (statistics.median(ops_rates), "ops/s",
                             len(ops_rates)),
    }


def setup_scale(samples: int = 5) -> float:
    """``host_scale`` of reference samples taken right after a set-up."""
    return host_scale([reference_sample() for _ in range(samples)])


def _mean_duration(spans, name: str) -> Tuple[float, int]:
    durations = [span.duration for span in spans if span.name == name]
    return (sum(durations) / len(durations) if durations else 0.0,
            len(durations))


def trace_overhead(run: Run) -> float:
    """Traced over untraced op time, per op kind, weighted by untraced time."""
    kinds = {op.kind for op in run.ops}
    untraced_total = sum(op.seconds for op in run.ops
                         if not op.traced and not op.failed)
    overhead = 0.0
    for kind in kinds:
        plain = [op.seconds for op in run.ops
                 if op.kind == kind and not op.traced and not op.failed]
        traced = [op.seconds for op in run.ops
                  if op.kind == kind and op.traced and not op.failed]
        if not plain or not traced:
            continue
        weight = sum(plain) / untraced_total
        overhead += weight * (statistics.median(traced)
                              / statistics.median(plain) - 1.0)
    return overhead


def exact_counters(bench: "Benchmark") -> Tuple[int, Dict[str, float]]:
    """(simulations counted, deterministic work counters per instruction).

    Taken from a set of traced simulations fixed by the seed: simulate pass
    1 on the sim workloads, the cold misses of the traced rounds among the
    first MIN_ROUNDS on fabric.
    """
    op_block = {record.op_id: (record.phase, record.block)
                for record in bench.run.ops}
    if bench.workload == "fabric":
        def chosen(phase, block):
            return phase == "fabric" and block < MIN_ROUNDS
    else:
        def chosen(phase, block):
            return phase == "simulate" and block == 1
    rows = [row for row in bench.tracer.counters
            if row["op"] is not None and chosen(*op_block[row["op"]])]
    committed = sum(row["committed"] for row in rows)
    if not committed:
        raise RuntimeError("no traced simulation to count")
    return len(rows), {
        "sim.events_per_instr": sum(r["events"] for r in rows) / committed,
        "sim.edges_per_instr": sum(r["edges"] for r in rows) / committed,
        "sim.fifo_pushes_per_instr":
            sum(r["fifo_pushes"] for r in rows) / committed,
        "sim.fifo_full_stalls_per_instr":
            sum(r["fifo_full_stalls"] for r in rows) / committed,
        "sim.wrong_path_per_instr":
            sum(r["wrong_path"] for r in rows) / committed,
    }


def import_probe_seconds(env: Dict[str, str]) -> float:
    """Wall time of a subprocess that only imports ``repro.cli``."""
    # captured like the ``repro run`` op: Popen.wait with a timeout but no
    # pipes polls with sleeps of up to 50 ms, which would inflate the time
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.cli"], env=env,
                   cwd=ROOT, check=True, capture_output=True,
                   timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - start


def per_layer_metrics(bench: "Benchmark", host_rate: float
                      ) -> Dict[str, Tuple[float, str, int]]:
    """Per-layer metrics from the traced blocks' spans and counters."""
    tracer = bench.tracer
    spans = tracer.spans
    ops = tracer.ops()
    self_times: Dict[str, float] = {}
    for op_spans in ops.values():
        for name, seconds in account_op(op_spans).items():
            self_times[name] = self_times.get(name, 0.0) + seconds
    simulating_wall = sum(op.duration for op_spans in ops.values()
                          for op in op_spans
                          if op.name in ("op.simulate", "op.miss"))
    proc_build_s, proc_builds = _mean_duration(spans, "processor.build")
    run_s, runs = _mean_duration(spans, "processor.run")
    build_s = sum(span.duration for span in spans
                  if span.name == "workloads.build") / runs
    events = sum(row["events"] for row in tracer.counters)
    encode_s, encodes = _mean_duration(spans, "scenario.encode")
    put_s, puts = _mean_duration(spans, "store.put")
    key_s, keys = _mean_duration(spans, "store.key")
    get_s, gets = _mean_duration(spans, "store.get")
    lookup_s, lookups = _mean_duration(spans, "serve.lookup")
    compare_s, compares = _mean_duration(spans, "serve.compare")
    drain_s, drains = _mean_duration(spans, "serve.drain")
    sweep_s, sweeps = _mean_duration(spans, "exec.sweep")
    names = {span.span_id: span.name for span in spans}
    render_total = sum(span.duration for span in spans
                       if span.name == "analysis.render"
                       and names.get(span.parent) != "analysis.render")
    traced_ops = [op for op in bench.run.ops if op.traced and not op.failed]
    misses = [op for op in traced_ops if op.kind == "miss"]
    cli_times = [op.seconds for op in traced_ops if op.kind == "cli"]
    # the hit tail, from the untraced rounds: a shared host's short stalls
    # move it too much between runs to bound it as an end-to-end metric
    plain_hits = _times([op for op in bench.run.ops if not op.traced], "hit")
    hit_p90s = _per_round(_ok(bench.run.ops, "hit"), _hit_p90)
    import_ms = statistics.median(bench.import_samples) * 1e3
    hooks = bench.hooks
    metrics = {
        "workloads.build_s": (build_s, "s", runs),
        "workloads.build_share": (self_times.get("workloads.build", 0.0)
                                  / simulating_wall, "ratio", runs),
        "processor.build_s": (proc_build_s, "s", proc_builds),
        "processor.run_s": (run_s, "s", runs),
        "processor.run_share": (self_times.get("processor.run", 0.0)
                                / simulating_wall, "ratio", runs),
        "sim.ns_per_event": (run_s * runs / events * 1e9, "ns", runs),
    }
    counted, counters = exact_counters(bench)
    metrics.update({name: (value, "count/instr", counted)
                    for name, value in counters.items()})
    metrics.update({
        "scenario.encode_s": (encode_s, "s", encodes),
        "store.put_ms": (put_s * 1e3, "ms", puts),
        "store.key_us": (key_s * 1e6, "us", keys),
        "store.get_us": (get_s * 1e6, "us", gets),
        "store.hit_ratio": (hooks.store_hits / hooks.store_gets, "ratio",
                            hooks.store_gets),
        "store.quarantined": (float(len(bench.fabric.store.quarantined())),
                              "count", 1),
        "serve.hit_ms_p90": (statistics.median(hit_p90s) * 1e3, "ms",
                             len(hit_p90s)),
        "serve.hit_ms_p99": (percentile(plain_hits, 0.99) * 1e3, "ms",
                             len(plain_hits)),
        "serve.lookup_us": (lookup_s * 1e6, "us", lookups),
        "serve.compare_ms": (compare_s * 1e3, "ms", compares),
        "serve.drain_s": (drain_s, "s", drains),
        "serve.batch_size": (statistics.mean(hooks.batches), "count",
                             len(hooks.batches)),
        "serve.polls_per_miss": (sum(op.polls for op in misses) / len(misses),
                                 "count", len(misses)),
        "serve.rejected": (float(bench.run.rejected), "count", 1),
        "serve.pending_max": (float(bench.pending_max), "count", len(misses)),
        "exec.sweep_s": (sweep_s, "s", sweeps),
        "analysis.render_ms": (render_total / compares * 1e3, "ms", compares),
        "cli.import_ms": (import_ms, "ms", len(bench.import_samples)),
        "cli.dispatch_ms": (statistics.median(cli_times) * 1e3 - import_ms,
                            "ms", len(cli_times)),
        "bench.trace_overhead": (trace_overhead(bench.run), "ratio",
                                 len(traced_ops)),
        "bench.host_ref_mops": (host_rate, "Mops/s", 1),
    })
    return metrics


def digest(run: Run) -> str:
    """SHA-256 over the canonical JSON of the run's deterministic results."""
    hasher = hashlib.sha256()
    for body in run.digest_parts:
        hasher.update(body.encode())
    return hasher.hexdigest()


def failed_share(run: Run) -> Tuple[int, int, float]:
    """(failed, attempted, failed_frac) over every op of the run."""
    attempted = len(run.ops)
    failed = sum(op.failed for op in run.ops)
    return failed, attempted, failed_fraction(failed, attempted)
