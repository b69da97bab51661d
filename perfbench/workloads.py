"""The benchmark's four named workloads.

Each :class:`Workload` says which public surface it drives, how the
system under test is configured, and what traffic the benchmark
generates for it. The workload seed only shapes the generated traffic;
the program's own seeds stay fixed, so the program receives nothing
but the requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

#: Tree depth of every service workload: 2^15 leaves, 131 070 blocks of 64 B.
LEVELS = 15
LABEL_QUEUE = 16
#: TCP connections the load client multiplexes its callers over.
CONNECTIONS = 2
#: Requests sent before the measured window opens.
WARMUP_S = 1.0
#: A request unanswered this long after it was due counts as failed.
DEADLINE_S = 5.0

#: Figure 10 small-scale simulator run, as in ``benchmarks/bench_perf.py``.
SIM_QUEUE = 64
SIM_REQUESTS = 20_000
SIM_WARMUP_REQUESTS = 500
#: The timed part of a pass is run in chunks of this many requests; a
#: rate is the median over every chunk of the run.
SIM_CHUNK_REQUESTS = 1_000
#: Canonical fixed-seed simulator run whose behaviour is pinned below.
SIM_CHECK_REQUESTS = 1_500
SIM_CHECK_SEED = 11
#: ``(avg_latency_ns, avg_path_buckets)`` of the canonical run. A speed
#: change must leave these identical; a drift fails the run.
SIM_CHECK_FINGERPRINT = (360545.01929683203, 8.363973063973065)


@dataclass(frozen=True)
class Workload:
    name: str
    #: "service" (OramService), "cluster" (ClusterService) or "sim".
    surface: str
    #: Dotted config overrides on top of the service base config.
    overrides: Dict[str, object] = field(default_factory=dict)
    #: "open" (Poisson arrivals at ``rate_rps``), "closed" (``callers``
    #: per connection, each waiting for its reply) or "sim".
    loop: str = "closed"
    rate_rps: float = 0.0
    callers: int = 0
    put_frac: float = 0.2
    #: Addresses each caller draws from (0 = its whole slice).
    hot_span: int = 0
    #: Bucket cipher kind for the service (None = the service default).
    cipher: Optional[str] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="kv-open",
            surface="service",
            loop="open",
            # A fifth of the knee (about 4k req/s here). At 1600 req/s the
            # engine was busy almost all the time and its queue amplified
            # the machine's changes of speed: over five seeds p99 spread
            # by 0.22 of its median there and by 0.10 at 800 req/s.
            rate_rps=800.0,
            # Gets and puts take the same path here; an even mix gives
            # each op type enough samples for a steady p99.
            put_frac=0.5,
        ),
        Workload(
            name="kv-durable",
            surface="service",
            overrides={
                "posmap.mode": "recursive",
                "posmap.client_budget_bytes": 2048,
                "service.backend": "file",
                "replica.enabled": True,
                "replica.ack_mode": "checkpoint",
            },
            loop="closed",
            callers=8,
            put_frac=0.5,
            hot_span=8,
        ),
        Workload(
            name="kv-cluster",
            surface="cluster",
            overrides={"cluster.shards": 2, "cluster.workers": "process"},
            loop="closed",
            callers=8,
            put_frac=0.2,
        ),
        Workload(
            name="sim-fig10",
            surface="sim",
            loop="sim",
        ),
    )
}


def service_config(workload: Workload, workdir: str):
    """The system config of a service or cluster workload."""
    from repro.config import (
        CacheConfig,
        SchedulerConfig,
        SystemConfig,
        small_test_config,
    )

    base = SystemConfig(
        oram=small_test_config(LEVELS, block_bytes=64),
        scheduler=SchedulerConfig(label_queue_size=LABEL_QUEUE),
        cache=CacheConfig(policy="none"),
    )
    overrides = dict(workload.overrides)
    if overrides.get("service.backend") == "file":
        overrides["service.backend_path"] = f"{workdir}/store.log"
    if overrides.get("replica.enabled"):
        overrides["replica.dir"] = f"{workdir}/replica"
    return SystemConfig.from_overrides(overrides, base=base)


def sim_config():
    """The Figure 10 small-scale fork-path config of ``bench_perf.py``."""
    from repro import fork_path_scheduler
    from repro.experiments.common import SMALL, base_config

    return base_config(SMALL, scheduler=fork_path_scheduler(SIM_QUEUE))


def sim_trace(requests: int, seed: int, num_blocks: int):
    """Uniform saturating trace, 30% writes (``bench_perf.py``'s)."""
    import random

    from repro.workloads.synthetic import uniform_trace

    footprint = min(num_blocks, 1 << 20)
    return uniform_trace(
        requests, footprint, 50.0, random.Random(seed), write_fraction=0.3
    )


def sim_controller_seed() -> int:
    from repro.experiments.common import SMALL

    return SMALL.seed + 1

