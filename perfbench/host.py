"""Engine process: builds the system under test and reports on it.

Run by ``perfbench/run.py``, never by hand::

    python perfbench/host.py '<spec json>'

The spec names the workload, the mode (``setup`` builds and exits,
``run`` serves or simulates), the seed, the run length and whether
layer probes are on. The process talks JSON lines on stdout:
``{"ready": ...}`` once the system is ready, then ``{"result": ...}``.
Service hosts take ``mark`` (measured window opens), ``end`` (window
closes) and ``stop`` lines on stdin.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
import workloads as wl  # noqa: E402
from probes import Probe, percentile  # noqa: E402
from repro import Simulation  # noqa: E402
from repro.obs.sinks import RingBufferSink  # noqa: E402
from repro.obs.tracer import Tracer  # noqa: E402


#: Engine accesses into the measured window at which a service run's
#: peak RSS is read; every run at ``--seconds 25`` gets this far.
RSS_AT_ACCESSES = 10_000
#: Calibration units timed once the system is built, to scale its
#: set-up time; and between two simulator chunks.
SETUP_UNITS = 5
CHUNK_UNITS = 3


def emit(**message: object) -> None:
    print(json.dumps(message), flush=True)


def emit_ready(excluded_s: float = 0.0, **message: object) -> None:
    """Announce readiness with the machine's speed at set-up.

    ``input_s`` is the time spent since launch that set-up does not
    include: input generation and the calibration itself.
    """
    started = time.perf_counter()
    unit_s = calibrate.median_unit(SETUP_UNITS)
    excluded_s += time.perf_counter() - started
    emit(ready=True, unit_s=unit_s, input_s=excluded_s, **message)


def peak_rss_mib(pid: Optional[int] = None) -> float:
    """Peak resident set of this process, or of ``pid`` (VmHWM)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# ------------------------------------------------------------------ service


class CompletedSink(RingBufferSink):
    """Ring buffer holding only ``service_completed`` events."""

    def handle(self, event) -> None:
        if event.kind == "service_completed":
            super().handle(event)

    def clear(self) -> None:
        self._buffer.clear()


class ServiceLayers:
    """Probes on a live ``OramService`` engine (or a cluster front end)."""

    def __init__(self, service, sink) -> None:
        self.service = service
        self.sink = sink
        self.probe = Probe()
        self.queue_real: List[int] = []
        self.stash_len: List[int] = []
        self.nodes_read = 0
        self.nodes_written = 0
        self.bytes_put = 0
        self.batch_nodes = {"get": 0, "put": 0}
        engine = getattr(service, "engine", None)
        self.engine = engine
        if engine is not None:
            self._wrap_engine(engine)
        fleet = getattr(service, "fleet", None)
        if fleet is not None:
            self.probe.wrap(service.router, "run_round", "cluster.round")
            for handle in fleet.handles:
                self.probe.wrap(handle, "turn", "cluster.turn")
        self.base: Dict[str, float] = {}
        self.t_mark = time.perf_counter()

    def _wrap_engine(self, engine) -> None:
        probe = self.probe
        probe.wrap(engine.label_queue, "select_next", "select")
        probe.wrap(engine.store.cipher, "open_blocks", "open")
        probe.wrap(engine.store.cipher, "seal_blocks", "seal")
        probe.wrap(engine.stash, "add_all", "stash.add")
        probe.wrap(engine.stash, "collect_for_node", "stash.evict")
        backend = engine.store.backend
        probe.wrap(backend, "aget_many", "backend.read")
        probe.wrap(backend, "aput_many", "backend.write")
        self._count_batches(backend)
        if engine.posmap.requires_chain:
            probe.wrap(engine.posmap, "run_real_chain", "posmap.real")
            probe.wrap(engine.posmap, "run_dummy_chain", "posmap.dummy")
        replicator = engine.replicator
        if replicator is not None:
            probe.wrap(replicator, "log_access", "replica.log")
            probe.wrap(
                replicator,
                "maybe_checkpoint",
                "replica.checkpoint",
                keep=lambda sealed: sealed is not None,
            )
        probe.wrap(engine, "run_access", "access")
        timed = engine.run_access

        async def sampled_access() -> None:
            self.queue_real.append(engine.label_queue.pending_real)
            before = engine.accesses
            await timed()
            if engine.accesses > before:
                _leaf, _dummy, read, written = engine.records[-1]
                self.nodes_read += read
                self.nodes_written += written
            self.stash_len.append(len(engine.stash))

        engine.run_access = sampled_access

    def _count_batches(self, backend) -> None:
        """Count nodes moved through the batch ops, so the run can check
        that every backend read and write went through them."""
        get_many, put_many = backend.get_many, backend.put_many

        def counted_get_many(node_ids):
            self.batch_nodes["get"] += len(node_ids)
            return get_many(node_ids)

        def counted_put_many(pairs):
            self.batch_nodes["put"] += len(pairs)
            self.bytes_put += sum(len(sealed) for _node, sealed in pairs)
            return put_many(pairs)

        backend.get_many = counted_get_many
        backend.put_many = counted_put_many

    def counters(self) -> Dict[str, float]:
        engine = self.engine
        out: Dict[str, float] = {"bytes_put": self.bytes_put}
        if engine is not None:
            out.update(
                accesses=engine.accesses,
                real_accesses=engine.real_accesses,
                failed_accesses=engine.failed_accesses,
                retries=engine.store.retries,
                nodes_read=self.nodes_read,
                nodes_written=self.nodes_written,
            )
            replicator = engine.replicator
            if replicator is not None:
                out["checkpoints"] = replicator.checkpoints_sealed
                out["wal_bytes"] = os.path.getsize(replicator.wal.path)
        return out

    def mark(self) -> None:
        self.probe.reset()
        self.queue_real.clear()
        self.stash_len.clear()
        self.sink.clear()
        self.base = self.counters()
        self.t_mark = time.perf_counter()

    def window(self) -> Dict[str, float]:
        """Per-layer metrics since :meth:`mark`."""
        probe = self.probe
        now = self.counters()
        delta = {k: now[k] - self.base.get(k, 0) for k in now}
        elapsed = time.perf_counter() - self.t_mark
        events = self.sink.events
        phases = [e.phases for e in events]

        def phase_ms(key: str, fraction: float) -> float:
            values = [p[key] for p in phases if key in p]
            return percentile(values, fraction) / 1e6

        accesses = delta.get("accesses", 0)
        completed = len(events)
        chains = probe.count("posmap.real", "posmap.dummy")
        out = {
            "serve.service.admission_p99_ms": phase_ms("admission_ns", 0.99),
            "server_latency_mean_ns": (
                statistics.fmean(e.latency_ns for e in events) if events else 0.0
            ),
            "core.scheduling.wait_p50_ms": phase_ms("sched_wait_ns", 0.50),
            "core.scheduling.wait_p99_ms": phase_ms("sched_wait_ns", 0.99),
            "core.scheduling.select_us": probe.mean_us("select"),
            "core.scheduling.real_frac": (
                delta.get("real_accesses", 0) / accesses if accesses else 0.0
            ),
            "core.scheduling.queue_real_mean": (
                statistics.fmean(self.queue_real) if self.queue_real else 0.0
            ),
            "core.merging.buckets_read_per_access": (
                delta.get("nodes_read", 0) / accesses if accesses else 0.0
            ),
            "core.merging.buckets_written_per_access": (
                delta.get("nodes_written", 0) / accesses if accesses else 0.0
            ),
            "serve.engine.access_us": probe.mean_us("access"),
            "serve.engine.service_p50_ms": phase_ms("service_ns", 0.50),
            "serve.engine.failed_accesses": delta.get("failed_accesses", 0),
            "oram.records.open_us_per_bucket": probe.mean_us("open"),
            "oram.records.seal_us_per_bucket": probe.mean_us("seal"),
            "oram.stash.add_us": probe.mean_us("stash.add"),
            "oram.stash.evict_us": probe.mean_us("stash.evict"),
            "oram.stash.occupancy_mean": (
                statistics.fmean(self.stash_len) if self.stash_len else 0.0
            ),
            "oram.stash.hit_frac": (
                sum(e.status == "stash" for e in events) / completed
                if completed
                else 0.0
            ),
            "serve.backends.read_batch_us": probe.mean_us("backend.read"),
            "serve.backends.write_batch_us": probe.mean_us("backend.write"),
            "serve.backends.bytes_written_per_req": (
                delta["bytes_put"] / completed if completed else 0.0
            ),
            "serve.backends.retries": delta.get("retries", 0),
            "posmap.chain_us": probe.mean_us("posmap.real", "posmap.dummy"),
            "posmap.real_chain_frac": (
                probe.count("posmap.real") / chains if chains else 0.0
            ),
            "posmap.wait_p50_ms": phase_ms("posmap_ns", 0.50),
            "replica.log_us": probe.mean_us("replica.log"),
            "replica.checkpoint_us": probe.mean_us("replica.checkpoint"),
            "replica.checkpoints": delta.get("checkpoints", 0),
            "replica.wal_bytes_per_access": (
                delta.get("wal_bytes", 0) / accesses if accesses else 0.0
            ),
            "replica.durability_p99_ms": phase_ms("durability_ns", 0.99),
            "cluster.round_us": probe.mean_us("cluster.round"),
            "cluster.turn_rpc_us": probe.mean_us("cluster.turn"),
            "cluster.rounds_per_s": probe.count("cluster.round") / elapsed,
        }
        return out

    def data_path_check(self) -> Optional[str]:
        """None when every backend node moved through get_many/put_many."""
        if self.engine is None:
            return None
        backend = self.engine.store.backend
        if (backend.reads, backend.writes) != (
            self.batch_nodes["get"],
            self.batch_nodes["put"],
        ):
            return (
                f"backend saw {backend.reads} reads / {backend.writes} writes "
                f"but the batch ops carried {self.batch_nodes['get']} / "
                f"{self.batch_nodes['put']}: a wrapper rerouted the data path"
            )
        return None


def engine_rss_mib(service) -> float:
    """Peak RSS so far of the processes holding engine state."""
    fleet = getattr(service, "fleet", None)
    workers = fleet.processes if fleet is not None else ()
    return peak_rss_mib() + sum(peak_rss_mib(p.pid) for p in workers)


async def cluster_stats(service) -> Dict[str, float]:
    """Worker ``stats``: shard skew and accesses."""
    stats = await service.router.stats()
    completed = [s["completed_requests"] for s in stats]
    mean = statistics.fmean(completed) if completed else 0.0
    return {
        "cluster.shard_access_skew": max(completed) / mean if mean else 0.0,
        "shard_accesses": [s["accesses"] for s in stats],
    }


def build_service(workload: wl.Workload, workdir: str, tracer):
    config = wl.service_config(workload, workdir)
    if workload.surface == "cluster":
        from repro.cluster.service import ClusterService

        return ClusterService(config, tracer=tracer)
    from repro.oram.encryption import make_cipher
    from repro.serve.service import OramService

    cipher = make_cipher(workload.cipher) if workload.cipher else None
    return OramService(config, cipher=cipher, tracer=tracer)


def stdin_lines(loop: asyncio.AbstractEventLoop) -> "asyncio.Queue[str]":
    queue: "asyncio.Queue[str]" = asyncio.Queue()

    def pump() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(queue.put_nowait, line.strip())
        loop.call_soon_threadsafe(queue.put_nowait, "stop")

    threading.Thread(target=pump, daemon=True).start()
    return queue


async def serve(spec: dict) -> int:
    workload = wl.Workload(**spec["workload"])
    traced = spec["trace"]
    sink = CompletedSink(capacity=1 << 18) if traced else None
    tracer = Tracer(sinks=[sink]) if traced else None
    service = build_service(workload, spec["workdir"], tracer)
    host, port = await service.start()
    layers = ServiceLayers(service, sink) if traced else None
    emit_ready(host=host, port=port, num_blocks=service.num_blocks)
    if spec["mode"] == "setup":
        await service.stop()
        return 0
    commands = stdin_lines(asyncio.get_running_loop())

    def counts() -> Dict[str, float]:
        engine = getattr(service, "engine", None)
        if engine is not None:
            return {"accesses": engine.accesses}
        return {"accesses": service.router.total_accesses()}

    base = counts()
    window: Dict[str, float] = {}
    end: Dict[str, float] = {}
    rates: List[List[float]] = []
    speeds: List[List[float]] = []
    rss: Dict[str, float] = {}
    samplers: List[asyncio.Task] = []

    async def sample_rates() -> None:
        # Engine accesses in each whole second of the window, with the
        # time each second ended.
        last = counts()["accesses"]
        while True:
            await asyncio.sleep(1.0)
            now = counts()["accesses"]
            rates.append([time.perf_counter(), now - last])
            last = now

    async def sample_speed() -> None:
        # From warmup to the end of the window, on the engine's core.
        while True:
            await asyncio.sleep(calibrate.EVERY_S)
            speeds.append([time.perf_counter(), calibrate.unit()])

    async def sample_rss() -> None:
        # Memory grows with the buckets a run has touched, so it is read
        # after a fixed amount of work: read at the end of the window, a
        # faster run would show more memory.
        while (done := counts()["accesses"] - base["accesses"]) < RSS_AT_ACCESSES:
            await asyncio.sleep(0.05)
        rss.update(mib=engine_rss_mib(service), accesses=done)

    speed_task = asyncio.create_task(sample_speed())
    while True:
        command = await commands.get()
        if command == "mark":
            base = counts()
            samplers = [
                asyncio.create_task(sample_rates()),
                asyncio.create_task(sample_rss()),
            ]
            if layers is not None:
                layers.mark()
        elif command == "end":
            end = counts()
            for task in samplers:
                task.cancel()
            if "mib" not in rss:  # a window too short or slow: read it now
                rss.update(
                    mib=engine_rss_mib(service),
                    accesses=end["accesses"] - base["accesses"],
                )
            if layers is not None:
                window = layers.window()
        elif command == "stop":
            break
    speed_task.cancel()
    result: Dict[str, object] = {
        "accesses": end.get("accesses", 0) - base.get("accesses", 0),
        "access_rates": rates,
        "speeds": speeds,
        "layers": window,
        "peak_rss_mib": rss.get("mib", 0.0),
        "rss_at_accesses": rss.get("accesses", 0),
    }
    if workload.surface == "cluster":
        stats = await cluster_stats(service)
        window["cluster.shard_access_skew"] = stats.pop(
            "cluster.shard_access_skew"
        )
        result.update(stats)
    if layers is not None:
        result["data_path_error"] = layers.data_path_check()
    emit(result=result)
    await service.stop()
    return 0


# ---------------------------------------------------------------- simulator


def sim_pass(trace, *, traced: bool = False) -> dict:
    """One Figure 10 run: warmup, then the rest of ``trace`` in chunks.

    Each chunk of ``SIM_CHUNK_REQUESTS`` requests is timed in process
    CPU time, so time the simulator spends descheduled is not charged
    to it, and calibration units are timed between chunks.
    """
    config = wl.sim_config()
    tracer = probe = None
    if traced:
        tracer = Tracer(sinks=[RingBufferSink(capacity=4096)])
    controller = Simulation(config).controller(
        trace, tracer=tracer, rng=random.Random(wl.sim_controller_seed())
    )
    controller.memory.trace.enabled = False
    if traced:
        probe = Probe()
        probe.wrap(controller.dram, "access_many", "dram")
        probe.wrap(controller.dram, "access_chain", "dram")
        probe.wrap(controller.memory, "read_many_blocks", "memory")
        probe.wrap(controller.memory, "write_many_blocks", "memory")
        probe.wrap(controller.label_queue, "select_next", "select")
        probe.wrap(controller.stash, "add_all", "stash")
    metrics = controller.metrics
    chunks: List[List[float]] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        controller.run(max_requests=wl.SIM_WARMUP_REQUESTS)
        warm_accesses = metrics.total_accesses
        warm_ids = {r.request_id for r in trace if r.complete_ns is not None}
        stats = controller.dram.stats
        warm_hits, warm_misses = stats.row_hits, stats.row_misses
        if probe is not None:
            probe.reset()
        target = metrics.real_completed
        unit_before = calibrate.median_unit(CHUNK_UNITS)
        while True:
            target += wl.SIM_CHUNK_REQUESTS
            requests, accesses = metrics.real_completed, metrics.total_accesses
            start = time.process_time()
            controller.run(max_requests=target)
            cpu_s = time.process_time() - start
            if metrics.real_completed < target:
                break  # the trace drained: a short chunk is not timed
            unit_after = calibrate.median_unit(CHUNK_UNITS)
            chunks.append(
                [
                    metrics.real_completed - requests,
                    metrics.total_accesses - accesses,
                    cpu_s,
                    (unit_before + unit_after) / 2,
                ]
            )
            unit_before = unit_after
    finally:
        if gc_was_enabled:
            gc.enable()
    summary = metrics.summary()
    timed = [r for r in trace if r.request_id not in warm_ids]
    out = {
        "chunks": chunks,
        "accesses": metrics.total_accesses - warm_accesses,
        "completed": sum(r.complete_ns is not None for r in timed),
        "requests": len(timed),
        "get_ns": [r.latency_ns for r in timed if not r.is_write],
        "put_ns": [r.latency_ns for r in timed if r.is_write],
        "fingerprint": [summary["avg_latency_ns"], summary["avg_path_buckets"]],
    }
    if probe is not None:
        hits = stats.row_hits - warm_hits
        total = hits + stats.row_misses - warm_misses
        accesses = metrics.total_accesses
        out["layers"] = {
            "dram.access_us": probe.mean_us("dram"),
            "dram.row_hit_rate": hits / total if total else 0.0,
            "oram.memory.batch_us": probe.mean_us("memory"),
            "core.controller.select_us": probe.mean_us("select"),
            "core.controller.stash_us": probe.mean_us("stash"),
            "core.merging.buckets_read_per_access": metrics.read_nodes / accesses,
            "core.merging.buckets_written_per_access": (
                metrics.written_nodes / accesses
            ),
        }
    return out


def simulate(spec: dict) -> int:
    seed, seconds = spec["seed"], spec["seconds"]
    config = wl.sim_config()

    def trace_of(index: int):
        return wl.sim_trace(wl.SIM_REQUESTS, f"{seed}:{index}", config.oram.num_blocks)

    started = time.perf_counter()
    trace = trace_of(0)
    input_s = time.perf_counter() - started
    Simulation(config).controller(trace)
    emit_ready(input_s)
    if spec["mode"] == "setup":
        return 0
    check = wl.sim_trace(
        wl.SIM_CHECK_REQUESTS, wl.SIM_CHECK_SEED, config.oram.num_blocks
    )
    result: Dict[str, object] = {
        "check_fingerprint": sim_pass(check)["fingerprint"],
    }
    passes = []
    traced = []
    while not passes or time.perf_counter() - started < seconds:
        # Traced runs alternate an untraced and a traced pass of one trace.
        passes.append(sim_pass(trace_of(len(passes)) if passes else trace))
        if spec["trace"]:
            traced.append(sim_pass(trace_of(len(passes) - 1), traced=True))
    # Modelled request latencies, pooled over the passes, in ms.
    gets = [v / 1e6 for p in passes for v in p.pop("get_ns")]
    puts = [v / 1e6 for p in passes for v in p.pop("put_ns")]
    for p in traced:
        del p["get_ns"], p["put_ns"]
    latency = gets + puts
    result["latency_ms"] = {
        "p50": percentile(latency, 0.50),
        "p99": percentile(latency, 0.99),
        "get_p99": percentile(gets, 0.99),
        "put_p99": percentile(puts, 0.99),
        "gets": len(gets),
        "puts": len(puts),
    }
    result["passes"] = passes
    result["traced"] = traced
    result["peak_rss_mib"] = peak_rss_mib()
    emit(result=result)
    return 0


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec.get("cpus"):
        os.sched_setaffinity(0, spec["cpus"])
    workload = wl.Workload(**spec["workload"])
    if workload.surface == "sim":
        return simulate(spec)
    return asyncio.run(serve(spec))


if __name__ == "__main__":
    raise SystemExit(main())
