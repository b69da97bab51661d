"""The benchmark's own load client.

Callers are multiplexed over a few TCP connections; each connection
carries many requests in flight, matched to responses by ``id``. Every
caller owns a disjoint address slice and a model of it, so every
response is checked: a get must return the value of the caller's last
put to that address, a put must report whether one existed. The
service applies one session's requests in the order they were sent,
and responses may come back in any order.

Latencies are raw samples. A closed-loop request is timed from its
send; an open-loop request from when it was due, and the client also
records how late it sent. A request unanswered ``deadline_s`` after it
was due counts as failed, so a wedged service cannot hang a run.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.serve.protocol import encode_frame, read_message


class Connection:
    """One TCP connection carrying many in-flight requests."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: Dict[int, "asyncio.Future[Tuple[float, dict]]"] = {}
        self._read_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    def send(self, message: dict) -> "asyncio.Future[Tuple[float, dict]]":
        """Write one request now; the future gets ``(recv_time, response)``."""
        request_id = next(self._ids)
        message["id"] = request_id
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(encode_frame(message))
        return future

    async def drain(self) -> None:
        await self._writer.drain()

    async def _read_loop(self) -> None:
        try:
            while True:
                message = await read_message(self._reader)
                if message is None:
                    break
                received = perf_counter()
                future = self._pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result((received, message))
        except (ProtocolError, ConnectionError, OSError):
            pass

    async def close(self) -> None:
        self._read_task.cancel()
        try:
            await self._read_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Model:
    """Expected contents of one caller's address slice."""

    def __init__(self, name: str, lo: int, hi: int, hot_span: int) -> None:
        self.name = name
        self.addrs = range(lo, lo + hot_span if hot_span else hi)
        self.values: Dict[int, str] = {}
        self.puts = 0

    def next_request(self, rng: random.Random, put_frac: float):
        """Draw one request; returns ``(message, expectation)``."""
        addr = rng.choice(self.addrs)
        current = self.values.get(addr)
        if rng.random() < put_frac:
            self.puts += 1
            value = f"{self.name}:{self.puts}"
            self.values[addr] = value
            return (
                {"op": "put", "addr": addr, "value": value},
                ("put", addr, current is not None, None),
            )
        return {"op": "get", "addr": addr}, ("get", addr, current is not None, current)


def check(expectation, response: dict) -> Optional[str]:
    """None if ``response`` matches the model, else what differed."""
    op, addr, found, value = expectation
    if not response.get("ok"):
        return None  # a failure, counted separately
    if response.get("found") != found or (
        op == "get" and response.get("value") != value
    ):
        return (
            f"{op} addr={addr}: expected found={found} value={value!r}, "
            f"got found={response.get('found')} value={response.get('value')!r}"
        )
    return None


@dataclass
class LoadResult:
    window_start: float = 0.0
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    #: Window samples: (op, due, latency_s, latency_from_send_s, late_s).
    samples: List[Tuple[str, float, float, float, float]] = field(
        default_factory=list
    )
    #: Receive time of every successful response, in or out of the window.
    received: List[float] = field(default_factory=list)

    def merge(self, other: "LoadResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches.extend(other.mismatches)
        self.samples.extend(other.samples)
        self.received.extend(other.received)


def _settle(
    result: LoadResult,
    expectation,
    reply: Optional[Tuple[float, dict]],
    due: float,
    sent: float,
    deadline_s: float,
    in_window: bool,
) -> None:
    result.attempted += 1
    if reply is None or reply[0] - due > deadline_s or not reply[1].get("ok"):
        result.failed += 1
        return
    mismatch = check(expectation, reply[1])
    if mismatch is not None:
        result.mismatches.append(mismatch)
    received = reply[0]
    result.received.append(received)
    if in_window:
        result.samples.append(
            (expectation[0], due, received - due, received - sent, sent - due)
        )


async def closed_caller(
    conn: Connection,
    model: Model,
    rng: random.Random,
    put_frac: float,
    window: Tuple[float, float],
    deadline_s: float,
) -> LoadResult:
    """Send, wait for the reply, repeat until the window closes."""
    result = LoadResult()
    start, stop = window
    while perf_counter() < stop:
        message, expectation = model.next_request(rng, put_frac)
        sent = perf_counter()
        future = conn.send(message)
        await conn.drain()
        try:
            reply = await asyncio.wait_for(future, deadline_s)
        except asyncio.TimeoutError:
            _settle(result, expectation, None, sent, sent, deadline_s, False)
            break  # the model no longer knows the slice's state
        _settle(
            result, expectation, reply, sent, sent, deadline_s, start <= sent < stop
        )
    return result


async def open_sender(
    conn: Connection,
    model: Model,
    rng: random.Random,
    put_frac: float,
    rate: float,
    begin: float,
    window: Tuple[float, float],
    deadline_s: float,
) -> LoadResult:
    """Poisson arrivals at ``rate``; each request is sent when due."""
    start, stop = window
    sent_log = []
    due = begin
    while True:
        due += rng.expovariate(rate)
        if due >= stop:
            break
        # Poll instead of sleeping: the client has a core of its own,
        # and a sleeping one wakes late, which would be charged to the
        # service both at the send and at the receive.
        while perf_counter() < due:
            await asyncio.sleep(0)
        message, expectation = model.next_request(rng, put_frac)
        sent = perf_counter()
        sent_log.append((conn.send(message), expectation, due, sent))
    futures = [entry[0] for entry in sent_log]
    if futures:
        remaining = max(0.0, sent_log[-1][2] + deadline_s - perf_counter())
        await asyncio.wait(futures, timeout=remaining)
    result = LoadResult()
    for future, expectation, due, sent in sent_log:
        reply = future.result() if future.done() else None
        _settle(
            result, expectation, reply, due, sent, deadline_s, start <= due < stop
        )
    return result


async def drive(
    host: str,
    port: int,
    num_blocks: int,
    *,
    loop: str,
    connections: int,
    callers: int,
    rate: float,
    put_frac: float,
    hot_span: int,
    seed: int,
    warmup_s: float,
    seconds: float,
    deadline_s: float,
    on_window=None,
) -> LoadResult:
    """Run one load pattern; ``on_window(event)`` fires at ``"mark"``
    (window opens) and ``"end"`` (window closes)."""
    conns = [await Connection.open(host, port) for _ in range(connections)]
    rng = random.Random(seed)
    per_conn = callers if loop == "closed" else 1
    bounds = _slices(num_blocks, connections * per_conn)
    begin = perf_counter()
    window = (begin + warmup_s, begin + warmup_s + seconds)
    loop_ = asyncio.get_running_loop()
    if on_window is not None:
        loop_.call_at(loop_.time() + warmup_s, on_window, "mark")
        loop_.call_at(loop_.time() + warmup_s + seconds, on_window, "end")
    tasks = []
    for index, (lo, hi) in enumerate(bounds):
        conn = conns[index // per_conn]
        model = Model(f"c{index}", lo, hi, hot_span)
        caller_rng = random.Random(rng.getrandbits(64))
        if loop == "closed":
            tasks.append(
                closed_caller(conn, model, caller_rng, put_frac, window, deadline_s)
            )
        else:
            tasks.append(
                open_sender(
                    conn,
                    model,
                    caller_rng,
                    put_frac,
                    rate / connections,
                    begin,
                    window,
                    deadline_s,
                )
            )
    total = LoadResult(window_start=window[0])
    # The client's heap grows with every request it records, and a full
    # collection of it stopped the event loop for up to 22 ms (twice per
    # 20 s kv-open run), which was charged to the service as latency.
    # Cyclic garbage waits until the load ends instead.
    gc.disable()
    try:
        for part in await asyncio.gather(*tasks):
            total.merge(part)
    finally:
        gc.enable()
        for conn in conns:
            await conn.close()
    return total


def _slices(num_blocks: int, parts: int) -> List[Tuple[int, int]]:
    step = num_blocks // parts
    return [(i * step, (i + 1) * step) for i in range(parts)]
