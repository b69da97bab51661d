"""Benchmark of the ORAM service, cluster and simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kv-open --seed 1 --seconds 25 --trace 0

Workloads: ``kv-open``, ``kv-durable``, ``kv-cluster``, ``sim-fig10``
(see ``perfbench/README.md``). ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` alternates untraced runs with
traced, probed ones, and reports the per-layer metrics and the tracing
overhead. Human-readable lines come first; the last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. The exit code is 0 only when every response matched the
model, no request failed and the simulator fingerprint held.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads as wl  # noqa: E402
from probes import block_percentile, per_second_rates, percentile  # noqa: E402

#: Engine processes launched per untraced run to time set-up; the last
#: one also serves the measured load.
SETUP_SAMPLES = 5
#: Seconds an engine may take to become ready, to report once its run
#: length is over, and to exit: a stuck engine cannot hold a run past
#: the three minutes it is allowed.
READY_TIMEOUT_S = 30.0
REPORT_TIMEOUT_S = 40.0
EXIT_TIMEOUT_S = 20.0

#: Workloads and metrics as the benchmark declares them. Layers a
#: workload does not run report 0.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
#: Per-layer counts, summed over a traced run's sessions; every other
#: per-layer value is averaged over them.
LAYER_COUNTS = {
    "serve.engine.failed_accesses",
    "serve.backends.retries",
    "replica.checkpoints",
}
#: A traced service run alternates untraced and traced sessions.
TRACE_SESSIONS = 4


#: The load client keeps the first CPU and the engine processes (with
#: any worker processes they spawn) get the rest, so the client never
#: competes with the system under test for a core. Unpinned, the
#: scheduler often stacks the two on one core and a run slows by up to
#: half, at random.
_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPUS = _CPUS[:1] if len(_CPUS) > 1 else []
ENGINE_CPUS = _CPUS[1:] if len(_CPUS) > 1 else []


class EngineError(RuntimeError):
    """The engine process died, hung or answered nonsense."""


class Engine:
    """One ``host.py`` engine process and its JSON-line channel."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.setup_s = 0.0
        self.ready: dict = {}

    async def start(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        started = perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable,
            str(HERE / "host.py"),
            json.dumps(self.spec),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            cwd=str(ROOT),
            env=env,
            limit=1 << 24,
        )
        self.ready = await self.expect("ready", READY_TIMEOUT_S)
        elapsed = perf_counter() - started - self.ready.get("input_s", 0.0)
        # At the reference machine speed (calibrate.py).
        self.setup_s = elapsed / calibrate.slowdown(self.ready["unit_s"])
        return self.ready

    async def expect(self, key: str, timeout: float) -> dict:
        assert self.proc is not None and self.proc.stdout is not None
        deadline = perf_counter() + timeout
        while True:
            try:
                line = await asyncio.wait_for(
                    self.proc.stdout.readline(), max(0.0, deadline - perf_counter())
                )
            except asyncio.TimeoutError:
                raise EngineError(f"engine gave no {key!r} within {timeout}s")
            if not line:
                raise EngineError(f"engine exited before {key!r}")
            try:
                message = json.loads(line)
            except ValueError:
                continue
            if isinstance(message, dict) and key in message:
                return message

    def send(self, command: str) -> None:
        if self.proc is not None and self.proc.stdin is not None:
            if not self.proc.stdin.is_closing():
                self.proc.stdin.write(command.encode() + b"\n")

    async def close(self) -> int:
        """Let the engine exit (killing it past the timeout)."""
        proc = self.proc
        if proc is None:
            return 0
        if proc.stdin is not None and not proc.stdin.is_closing():
            proc.stdin.close()
        assert proc.stdout is not None
        try:
            await asyncio.wait_for(
                asyncio.gather(proc.stdout.read(), proc.wait()), EXIT_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()
            return -9
        return proc.returncode


class Workdir:
    """A fresh data directory inside the checkout, removed afterwards."""

    counter = 0

    def __enter__(self) -> str:
        Workdir.counter += 1
        self.path = ROOT / ".perfbench_work" / f"{os.getpid()}-{Workdir.counter}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return str(self.path)

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def engine_spec(workload, mode: str, seed: int, seconds: float, trace: bool, workdir):
    return {
        "workload": dataclasses.asdict(workload),
        "mode": mode,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workdir": workdir,
        "cpus": ENGINE_CPUS,
    }


async def setup_only(workload, seed: int) -> float:
    with Workdir() as workdir:
        engine = Engine(engine_spec(workload, "setup", seed, 0, False, workdir))
        try:
            await engine.start()
        finally:
            await engine.close()
    return engine.setup_s


async def setup_samples(workload, seed: int) -> List[float]:
    return [await setup_only(workload, seed) for _ in range(SETUP_SAMPLES - 1)]


# ------------------------------------------------------------------ service


async def serve_once(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One fresh service under the workload's load."""
    from loadclient import drive

    with Workdir() as workdir:
        engine = Engine(engine_spec(workload, "run", seed, seconds, trace, workdir))
        try:
            ready = await engine.start()
            load = await drive(
                ready["host"],
                ready["port"],
                ready["num_blocks"],
                loop=workload.loop,
                connections=wl.CONNECTIONS,
                callers=workload.callers,
                rate=workload.rate_rps,
                put_frac=workload.put_frac,
                hot_span=workload.hot_span,
                seed=seed,
                warmup_s=wl.WARMUP_S,
                seconds=seconds,
                deadline_s=wl.DEADLINE_S,
                on_window=engine.send,
            )
            engine.send("stop")
            try:
                host = (await engine.expect("result", REPORT_TIMEOUT_S))["result"]
            except EngineError as exc:
                host = {"error": str(exc)}
        finally:
            exit_code = await engine.close()
    return {"load": load, "host": host, "setup_s": engine.setup_s, "exit": exit_code}


def access_rates(host: dict) -> List[float]:
    """The engine's accesses in each second of the window, at the
    reference machine speed."""
    speed = calibrate.SpeedLog(host.get("speeds", []))
    return [
        count * speed.slowdown(end - 1.0, end)
        for end, count in host.get("access_rates", [])
    ] or [0.0]


def service_metrics(run: dict, seconds: float, closed: bool = False) -> Tuple[dict, dict]:
    """End-to-end values and sample counts of one service run.

    Times and the engine's rate are scaled to the reference machine
    speed second by second (``calibrate.py``). So is a closed loop's
    throughput, which the machine's speed sets; an open loop's is the
    rate it delivered, which below the knee is the offered one.
    """
    load = run["load"]
    start = load.window_start
    slowdown = calibrate.SpeedLog(run["host"].get("speeds", [])).per_second(
        start, max(1, int(seconds))
    )

    def at(t: float) -> float:
        return slowdown[min(max(int(t - start), 0), len(slowdown) - 1)]

    samples = sorted(load.samples, key=lambda s: s[1])
    scaled = [(s[0], s[2] * 1e3 / at(s[1] + s[2])) for s in samples]
    latency = [v for _op, v in scaled]
    gets = [v for op, v in scaled if op == "get"]
    puts = [v for op, v in scaled if op == "put"]
    throughput = per_second_rates(load.received, start, seconds)
    if closed:
        throughput = [n * at(start + i) for i, n in enumerate(throughput)]
    rates = access_rates(run["host"])
    values = {
        "throughput_rps": float(statistics.median(throughput)),
        "p50_ms": block_percentile(latency, 0.50),
        "p99_ms": block_percentile(latency, 0.99),
        "get_p99_ms": block_percentile(gets, 0.99),
        "put_p99_ms": block_percentile(puts, 0.99),
        "accesses_per_s": float(statistics.median(rates)),
        "peak_rss_mb": run["host"].get("peak_rss_mib", 0.0),
    }
    counts = {
        "throughput_rps": len(load.received),
        "p50_ms": len(latency),
        "p99_ms": len(latency),
        "get_p99_ms": len(gets),
        "put_p99_ms": len(puts),
        "accesses_per_s": run["host"].get("accesses", 0),
        "peak_rss_mb": run["host"].get("rss_at_accesses", 0),
    }
    return values, counts


def service_layers(run: dict, seconds: float, closed: bool) -> dict:
    """Per-layer values of one traced service session."""
    layers = dict(run["host"].get("layers", {}))
    samples = run["load"].samples
    server_mean_ns = layers.pop("server_latency_mean_ns", 0.0)
    layers["loadgen.late_p99_ms"] = percentile([s[4] * 1e3 for s in samples], 0.99)
    layers["serve.service.frontend_us"] = (
        statistics.fmean(s[3] for s in samples) * 1e6 - server_mean_ns / 1e3
        if samples and server_mean_ns
        else 0.0
    )
    layers["tracing.throughput_rps"] = service_metrics(run, seconds, closed)[0][
        "throughput_rps"
    ]
    return layers


def merge_layers(sessions: List[dict]) -> dict:
    """Sum the counts and average everything else over traced sessions."""
    names = {name for layers in sessions for name in layers}
    return {
        name: (sum if name in LAYER_COUNTS else statistics.fmean)(
            [layers.get(name, 0.0) for layers in sessions]
        )
        for name in names
    }


def tracing_overhead(untraced: List[List[float]], traced: List[List[float]]):
    """Access rate untraced / traced - 1, from the pooled rate samples of
    each kind, and the same per (untraced, traced) pair."""

    def ratio(plain: List[float], probed: List[float]) -> float:
        probed_rate = statistics.median(probed) if probed else 0.0
        return statistics.median(plain) / probed_rate - 1.0 if probed_rate else 0.0

    pooled = ratio(
        [r for rates in untraced for r in rates], [r for rates in traced for r in rates]
    )
    return pooled, [ratio(u, t) for u, t in zip(untraced, traced)]


def run_problems(run: dict) -> List[str]:
    problems = [f"model mismatch: {m}" for m in run["load"].mismatches[:5]]
    host = run["host"]
    if "error" in host:
        problems.append(f"engine: {host['error']}")
    if host.get("data_path_error"):
        problems.append(host["data_path_error"])
    if run["exit"] != 0:
        problems.append(f"engine exited with code {run['exit']}")
    return problems


async def run_service(workload, seed: int, seconds: float, trace: bool) -> dict:
    extra: dict = {}
    closed = workload.loop == "closed"
    if trace:
        # Untraced and traced sessions alternate and share the run length,
        # so a traced run takes about as long as an untraced one and a
        # change in machine speed falls on both kinds alike.
        length = seconds / TRACE_SESSIONS
        runs = [
            await serve_once(workload, seed, length, bool(i % 2))
            for i in range(TRACE_SESSIONS)
        ]
        traced_runs = runs[1::2]
        metrics = merge_layers(
            [service_layers(r, length, closed) for r in traced_runs]
        )
        rates = [access_rates(r["host"]) for r in runs]
        overhead, pairs = tracing_overhead(rates[0::2], rates[1::2])
        metrics["tracing.overhead_frac"] = overhead
        extra["tracing.overhead_per_pair"] = [round(p, 4) for p in pairs]
        counts = {}
    else:
        setups = await setup_samples(workload, seed)
        run = await serve_once(workload, seed, seconds, False)
        runs = [run]
        metrics, counts = service_metrics(run, seconds, closed)
        setups.append(run["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        counts["setup_s"] = len(setups)
    problems = [p for r in runs for p in run_problems(r)]
    attempted = sum(r["load"].attempted for r in runs)
    failed = sum(r["load"].failed for r in runs)
    extra["failed_frac"] = failed / attempted if attempted else 1.0
    return {
        "metrics": metrics,
        "counts": counts,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "extra": extra,
    }


# ---------------------------------------------------------------- simulator


def chunk_rates(passes: List[dict], index: int) -> List[float]:
    """Per-chunk rates (index 0: requests, 1: accesses) per CPU second,
    at the reference machine speed."""
    return [
        c[index] / c[2] * calibrate.slowdown(c[3])
        for p in passes
        for c in p["chunks"]
        if c[2] > 0
    ]


def sim_rate(passes: List[dict], index: int) -> float:
    """The simulator's rate: the median of its chunk rates."""
    return float(statistics.median(chunk_rates(passes, index)))


async def run_sim(workload, seed: int, seconds: float, trace: bool) -> dict:
    setups = [] if trace else await setup_samples(workload, seed)
    engine = Engine(engine_spec(workload, "run", seed, seconds, trace, ""))
    problems: List[str] = []
    try:
        await engine.start()
        result = (await engine.expect("result", seconds + REPORT_TIMEOUT_S))[
            "result"
        ]
    except EngineError as exc:
        result = {"passes": [], "traced": [], "check_fingerprint": None}
        problems.append(f"engine: {exc}")
    finally:
        exit_code = await engine.close()
    if exit_code != 0:
        problems.append(f"engine exited with code {exit_code}")
    setups.append(engine.setup_s)
    pinned = list(wl.SIM_CHECK_FINGERPRINT)
    if result["check_fingerprint"] != pinned:
        problems.append(
            f"fingerprint drift: canonical run gave "
            f"{result['check_fingerprint']}, pinned {pinned}"
        )
    passes, traced = result["passes"], result["traced"]
    attempted = sum(p["requests"] for p in passes + traced)
    failed = sum(p["requests"] - p["completed"] for p in passes + traced)
    if not passes:
        return {
            "metrics": {},
            "counts": {},
            "attempted": 1,
            "failed": 1,
            "problems": problems,
            "extra": {},
        }
    extra: dict = {"passes": len(passes) + len(traced)}
    if trace:
        for plain, probed in zip(passes, traced):
            if plain["fingerprint"] != probed["fingerprint"]:
                problems.append(
                    f"fingerprint differs with tracing and probes on: "
                    f"{plain['fingerprint']} vs {probed['fingerprint']}"
                )
        metrics = merge_layers([p["layers"] for p in traced])
        metrics["tracing.throughput_rps"] = statistics.median(chunk_rates(traced, 0))
        overhead, pairs = tracing_overhead(
            [chunk_rates([p], 1) for p in passes],
            [chunk_rates([p], 1) for p in traced],
        )
        metrics["tracing.overhead_frac"] = overhead
        extra["tracing.overhead_per_pair"] = [round(p, 4) for p in pairs]
        counts = {}
    else:
        latency = result["latency_ms"]
        samples = latency["gets"] + latency["puts"]
        metrics = {
            "throughput_rps": sim_rate(passes, 0),
            "p50_ms": latency["p50"],
            "p99_ms": latency["p99"],
            "get_p99_ms": latency["get_p99"],
            "put_p99_ms": latency["put_p99"],
            "accesses_per_s": sim_rate(passes, 1),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mib"],
        }
        counts = {
            "throughput_rps": sum(p["completed"] for p in passes),
            "p50_ms": samples,
            "p99_ms": samples,
            "get_p99_ms": latency["gets"],
            "put_p99_ms": latency["puts"],
            "accesses_per_s": sum(p["accesses"] for p in passes),
            "setup_s": len(setups),
            "peak_rss_mb": 1,
        }
    extra["fingerprint"] = passes[0]["fingerprint"]
    extra["check_fingerprint"] = result["check_fingerprint"]
    return {
        "metrics": metrics,
        "counts": counts,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "extra": extra,
    }


# --------------------------------------------------------------- reporting


def provenance(workload, seed: int, seconds: float, trace: bool) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no history
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    config = (
        wl.sim_config() if workload.surface == "sim"
        else wl.service_config(workload, "<workdir>")
    )
    from repro.config import flatten_overrides

    return {
        "workload": dataclasses.asdict(workload),
        "why": WHY[workload.name],
        "config": flatten_overrides(config),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def report(workload, outcome: dict, trace: bool) -> None:
    """One line per metric (with its sample count when untraced)."""
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    print(f"workload {workload.name} ({'traced' if trace else 'untraced'})")
    for name, unit in units.items():
        count = "" if trace else f" n={outcome['counts'].get(name, 0)}"
        value = outcome["metrics"][name]
        print(f"  {workload.name} {name:40s} {value:>12.6g} {unit}{count}")
    for name, value in outcome["extra"].items():
        print(f"  {workload.name} {name:40s} {value}")
    print(
        f"  attempted={outcome['attempted']} failed={outcome['failed']} "
        f"problems={len(outcome['problems'])}"
    )
    for problem in outcome["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = wl.WORKLOADS[args.workload]
    trace = bool(args.trace)
    if CLIENT_CPUS:
        os.sched_setaffinity(0, CLIENT_CPUS)
    try:
        outcome = run_workload(workload, args.seed, args.seconds, trace)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    outcome["metrics"] = {
        name: outcome["metrics"].get(name, 0.0) for name in units
    }
    print("provenance: " + json.dumps(provenance(workload, args.seed, args.seconds, trace)))
    report(workload, outcome, trace)
    correct = not outcome["problems"]
    line = {
        "correct": correct,
        "attempted": max(1, outcome["attempted"]),
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(line))
    return 0 if correct and outcome["failed"] == 0 else 1


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    runner = run_sim if workload.surface == "sim" else run_service
    return asyncio.run(runner(workload, seed, seconds, trace))


if __name__ == "__main__":
    raise SystemExit(main())
