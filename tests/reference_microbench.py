"""Reference Figure 6 harness: the interleave loop, kept as a test oracle.

``repro.channel.microbench`` used to run sender and receiver in its own
virtual time: a loop that stepped whichever actor was next (the sender on a
tie), a list of pending posted writes applied before each step, and a
``_PipelineTiming`` clock the loop advanced before each poll.  The harness
now runs both actors as callbacks on a ``Simulator``.  This is the old loop,
line for line, driving the new endpoints of an already-built
``ChannelMicrobench``: it takes over both caches' ``writeback_hook`` and
sets ``bench.sim.now`` where it used to set the pipeline clock, so the
receiver's ``_TimedCache`` reads the loop's clock.

One line differs from the old loop: the receiver step sets ``_actor_now``.
The old loop set it only in sender steps, so the receiver's posted writes
(the consumed counter) were timed from the sender's last step instead of
the receiver's own clock.  ``test_microbench_internals.py`` compares this
loop with the kernel harness, point by point.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.channel.microbench import _PAYLOAD16, MicrobenchResult


class ReferenceLoop:
    """The old interleave loop over ``bench``'s pool, caches and endpoints."""

    def __init__(self, bench):
        self.bench = bench
        self._pending: List[tuple] = []  # (apply_time_ns, line_index, data)
        self._actor_now = 0.0
        bench.sender_cache.writeback_hook = self._delayed_writeback
        bench.receiver_cache.writeback_hook = self._delayed_writeback

    def _delayed_writeback(self, line_index: int, data: bytes, category: str) -> None:
        self._pending.append(
            (self._actor_now + self.bench.timings.cxl_write_ns, line_index, data))

    def _apply_pending(self, up_to_ns: float) -> None:
        if not self._pending:
            return
        remaining = []
        for apply_at, line_index, data in self._pending:
            if apply_at <= up_to_ns:
                self.bench.pool.write_line(line_index, data)
            else:
                remaining.append((apply_at, line_index, data))
        self._pending = remaining

    def run(self, n_messages: int = 30_000, interval_ns=None,
            warmup_fraction: float = 0.2) -> MicrobenchResult:
        bench = self.bench
        if interval_ns is None:
            arrivals = np.zeros(n_messages)
            offered = float("inf")
        else:
            arrivals = np.arange(n_messages, dtype=float) * interval_ns
            offered = 1e3 / interval_ns  # MOp/s

        sender_clock = 0.0
        receiver_clock = 0.0
        send_times: Dict[int, float] = {}
        recv_times: List[float] = []
        latencies: List[float] = []
        next_msg = 0
        received = 0

        while received < n_messages:
            if next_msg < n_messages:
                next_send_t = max(sender_clock, arrivals[next_msg])
            else:
                next_send_t = float("inf")

            if next_send_t <= receiver_clock:
                # -- sender step
                self._apply_pending(next_send_t)
                self._actor_now = next_send_t
                payload = _PAYLOAD16.pack(1, bench.message_size,
                                          next_msg & 0xFFFFFFFF, next_msg)
                payload = payload.ljust(bench.message_size, b"\x00")
                ok, cost = bench.sender.try_send(payload)
                if ok:
                    send_times[bench.sender.next_seq - 1] = next_send_t
                    sender_clock = next_send_t + cost
                    no_more_soon = (
                        next_msg + 1 >= n_messages
                        or arrivals[next_msg + 1] > sender_clock + bench.FLUSH_LAG_NS
                    )
                    if no_more_soon:
                        self._actor_now = sender_clock
                        sender_clock += bench.sender.flush()
                    next_msg += 1
                else:
                    sender_clock = next_send_t + cost + bench.RETRY_NS
            else:
                # -- receiver step
                self._apply_pending(receiver_clock)
                self._actor_now = receiver_clock
                bench.sim.now = receiver_clock
                payload, cost = bench.receiver.poll()
                receiver_clock += max(cost, 1.0)
                if payload is not None:
                    seq = bench.receiver.next_seq - 1
                    latencies.append(receiver_clock - send_times.pop(seq))
                    recv_times.append(receiver_clock)
                    received += 1

        skip = int(len(latencies) * warmup_fraction)
        lat = np.asarray(latencies[skip:]) / 1e3  # us
        times = np.asarray(recv_times[skip:])
        if len(times) > 1 and times[-1] > times[0]:
            achieved = (len(times) - 1) / (times[-1] - times[0]) * 1e3  # MOp/s
        else:
            achieved = 0.0
        return MicrobenchResult(
            design=bench.design,
            offered_mops=offered,
            achieved_mops=achieved,
            latency_p50_us=float(np.percentile(lat, 50)) if len(lat) else 0.0,
            latency_p99_us=float(np.percentile(lat, 99)) if len(lat) else 0.0,
            latency_mean_us=float(lat.mean()) if len(lat) else 0.0,
            messages=len(lat),
        )
