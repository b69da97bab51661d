"""Checks of the benchmark itself: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import host  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from loadclient import drive  # noqa: E402
from probes import Probe, percentile  # noqa: E402
from repro.serve.protocol import encode_frame, read_message  # noqa: E402


def test_percentile_matches_inclusive_quantiles():
    values = [float(v * v % 97) for v in range(1, 500)]
    expected = statistics.quantiles(values, n=100, method="inclusive")
    assert percentile(values, 0.50) == statistics.median(values)
    assert abs(percentile(values, 0.99) - expected[98]) < 1e-9
    assert percentile([], 0.99) == 0.0


def test_speed_log_gives_the_slowdown_of_each_second():
    ref = calibrate.REFERENCE_UNIT_S
    slow = calibrate.slowdown(2 * ref)
    assert slow > 1 and calibrate.slowdown(ref) == 1.0
    log = calibrate.SpeedLog([(10.6, 2 * ref), (10.2, 2 * ref), (11.5, ref)])
    assert log.per_second(10.0, 2) == [slow, 1.0]
    assert log.slowdown(30.0, 31.0) == 1.0  # the nearest sample
    assert calibrate.SpeedLog([]).slowdown(0.0, 1.0) == 1.0


def test_engine_rates_are_scaled_second_by_second():
    ref = calibrate.REFERENCE_UNIT_S
    host_result = {
        "speeds": [(0.5, ref), (1.5, 2 * ref)],
        "access_rates": [(1.0, 100), (2.0, 100)],
    }
    assert run.access_rates(host_result) == [100.0, 100 * calibrate.slowdown(2 * ref)]


def test_probe_records_self_time_of_nested_calls():
    class Layer:
        def outer(self, inner):
            time.sleep(0.002)
            return inner()

        def inner(self):
            time.sleep(0.004)
            return 7

    layer = Layer()
    probe = Probe()
    probe.wrap(layer, "outer", "outer")
    probe.wrap(layer, "inner", "inner")
    assert layer.outer(layer.inner) == 7
    assert "outer" in vars(layer)  # the instance is patched ...
    assert Layer.__dict__["outer"].__name__ == "outer"  # ... the class is not
    assert probe.mean_us("inner") >= 4000
    assert 2000 <= probe.mean_us("outer") < 4000


def test_sim_fingerprint_is_identical_with_probes_and_tracing():
    config = wl.sim_config()
    fingerprints = []
    for traced in (False, True):
        trace = wl.sim_trace(1200, "probe-check", config.oram.num_blocks)
        result = host.sim_pass(trace, traced=traced)
        fingerprints.append(result["fingerprint"])
    assert fingerprints[0] == fingerprints[1]
    assert result["layers"]["dram.access_us"] > 0


async def _fake_store(service_s: float):
    """A correct key-value server answering one request per ``service_s``."""
    store = {}
    lock = asyncio.Lock()

    async def session(reader, writer):
        while (message := await read_message(reader)) is not None:
            async with lock:
                await asyncio.sleep(service_s)
            addr = message["addr"]
            reply = {"id": message["id"], "ok": True, "found": addr in store}
            if message["op"] == "put":
                store[addr] = message["value"]
            else:
                reply["value"] = store.get(addr)
            writer.write(encode_frame(reply))
        writer.close()

    return await asyncio.start_server(session, "127.0.0.1", 0)


def _open_loop_throughput(service_s: float) -> float:
    async def main():
        server = await _fake_store(service_s)
        port = server.sockets[0].getsockname()[1]
        async with server:
            return await drive(
                "127.0.0.1", port, 1 << 10, loop="open", connections=2,
                callers=0, rate=200.0, put_frac=0.5, hot_span=0, seed=5,
                warmup_s=0.5, seconds=3.0, deadline_s=wl.DEADLINE_S,
            )

    load = asyncio.run(main())
    assert load.failed == 0 and not load.mismatches
    values, _ = run.service_metrics({"load": load, "host": {}}, 3.0)
    return values["throughput_rps"]


def test_open_loop_throughput_falls_when_the_server_slows():
    # Throughput counts responses when they arrive: a server that keeps
    # up reports the offered 200 req/s, one that can only do 100 req/s
    # (and falls further behind, each reply still inside the deadline)
    # reports what it delivered.
    assert _open_loop_throughput(0.0) > 170
    assert _open_loop_throughput(0.01) < 130


def test_traced_service_keeps_the_batched_data_path():
    outcome = run.run_workload(wl.WORKLOADS["kv-open"], 3, 1.0, True)
    assert outcome["problems"] == []
    assert outcome["failed"] == 0
    assert outcome["metrics"]["serve.engine.access_us"] > 0
    assert outcome["metrics"]["serve.backends.read_batch_us"] > 0


def test_wedged_service_fails_the_run_within_the_deadline(monkeypatch, capsys):
    # A keyed cipher rejects the service's str values and the error
    # kills the engine loop: no request is ever answered. The run must
    # end, count every request as failed and exit non-zero.
    wedged = dataclasses.replace(wl.WORKLOADS["kv-open"], cipher="counter")
    monkeypatch.setitem(wl.WORKLOADS, "kv-open", wedged)
    monkeypatch.setattr(wl, "DEADLINE_S", 2.0)
    started = time.perf_counter()
    code = run.main(["--workload", "kv-open", "--seed", "1", "--seconds", "1"])
    elapsed = time.perf_counter() - started
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert line["failed"] > 0
    assert line["failed"] > line["attempted"] // 2
    assert elapsed < 60


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv-open",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
