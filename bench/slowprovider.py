"""Provider wrapper that adds a seeded latency to every request.

The latency of a request is a pure function of (seed, request cache key),
so it does not depend on call order or on how many requests are in flight.
Most requests take 1-3 ms; a small tail (8%) takes 6-12 ms. The wrapper
records the sleep each request actually got and the peak number of
requests in flight.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Callable

TAIL_SHARE = 0.08


def request_latency_s(seed: int, cache_key: str) -> float:
    digest = hashlib.sha256(f"{seed}\x1f{cache_key}".encode("utf-8")).digest()
    u = int.from_bytes(digest[:8], "big") / 2**64
    v = int.from_bytes(digest[8:16], "big") / 2**64
    if u < TAIL_SHARE:
        return (6.0 + 6.0 * v) / 1000.0
    return (1.0 + 2.0 * v) / 1000.0


class LatencyProvider:
    """Wraps a provider; sleeps `request_latency_s` before each reply."""

    def __init__(self, inner, seed: int, sleep: Callable[[float], None] = time.sleep):
        self.inner = inner
        self.id = inner.id
        self.seed = seed
        self._sleep = sleep
        self._lock = threading.Lock()
        self.inflight = 0
        self.max_inflight = 0
        self.planned_s: list[float] = []
        self.slept_s: list[float] = []

    def generate(self, request, prompt: str) -> str:
        with self._lock:
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)
        try:
            delay = request_latency_s(self.seed, request.cache_key())
            start = time.perf_counter()
            self._sleep(delay)
            slept = time.perf_counter() - start
            with self._lock:
                self.planned_s.append(delay)
                self.slept_s.append(slept)
            return self.inner.generate(request, prompt)
        finally:
            with self._lock:
                self.inflight -= 1
