"""Seeded random number streams used across the emulation.

Every stochastic decision in the emulator (message loss, Poisson inter-arrival
times, jitter) draws from a :class:`SeededRandom` stream named through
``Simulator.rng`` so that experiments are exactly reproducible and the
property-based tests can assert determinism.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate
from typing import List, Sequence, Tuple, TypeVar

T = TypeVar("T")


class SeededRandom:
    """A thin wrapper over :class:`random.Random` with simulation helpers."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._random = random.Random(seed)

    def child(self, name: str) -> "SeededRandom":
        """Derive an independent, deterministic sub-stream."""
        return SeededRandom(deterministic_hash(self._seed, name) & 0x7FFFFFFF)

    # -- basic draws ---------------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return self._random.uniform(low, high)

    def random(self) -> float:
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def choice(self, seq: Sequence[T]) -> T:
        return self._random.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        return self._random.sample(list(seq), k)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)

    def bernoulli(self, probability: float) -> bool:
        """Return True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    # -- distributions used by workloads --------------------------------------
    def exponential(self, rate: float) -> float:
        """Exponential inter-arrival time for a Poisson process of ``rate`` events/s."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        return self._random.expovariate(rate)

    def poisson(self, lam: float) -> int:
        """Poisson-distributed count with mean ``lam`` (Knuth's algorithm)."""
        if lam < 0:
            raise ValueError(f"lambda must be non-negative, got {lam}")
        if lam == 0:
            return 0
        if lam > 500:
            # Normal approximation to avoid underflow for large lambda.
            return max(0, int(round(self._random.gauss(lam, math.sqrt(lam)))))
        threshold = math.exp(-lam)
        k = 0
        p = 1.0
        while True:
            p *= self._random.random()
            if p <= threshold:
                return k
            k += 1

    def lognormal(self, mu: float, sigma: float) -> float:
        return self._random.lognormvariate(mu, sigma)

    def jitter(self, value: float, fraction: float = 0.05) -> float:
        """Return ``value`` perturbed by a uniform +/- ``fraction`` jitter."""
        if fraction <= 0:
            return value
        return value * (1.0 + self._random.uniform(-fraction, fraction))

    def zipf_index(self, n: int, skew: float = 1.0) -> int:
        """Draw an index in [0, n) following a Zipf distribution (topic popularity).

        One ``random()`` draw per call (``randrange(n)`` when ``skew <= 0``).
        The draw is the first index whose running weight sum reaches
        ``random() * total``: a bisection over a cumulative table built once
        per ``(n, skew)``, with the same left-to-right sums a linear scan would
        add up, so the index equals the scan's for the same stream state.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if skew <= 0:
            return self._random.randrange(n)
        cumulative, total = _zipf_table(n, skew)
        index = bisect_left(cumulative, self._random.random() * total)
        return min(index, n - 1)


@lru_cache(maxsize=None)
def _zipf_table(n: int, skew: float) -> Tuple[Tuple[float, ...], float]:
    """Running weight sums and the total for ``zipf_index`` (a few shapes per
    program, so the cache stays small; the tuple is shared, hence immutable).
    The total is ``sum(weights)``, not the last running sum: ``sum`` may round
    differently, and every draw depends on the total bit for bit."""
    weights = [1.0 / ((i + 1) ** skew) for i in range(n)]
    return tuple(accumulate(weights)), sum(weights)


def deterministic_hash(*parts: object) -> int:
    """A process-stable hash for deriving seeds from strings/tuples."""
    accumulator = 1469598103934665603
    for part in parts:
        for byte in str(part).encode("utf-8"):
            accumulator ^= byte
            accumulator = (accumulator * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return accumulator


__all__ = ["SeededRandom", "deterministic_hash"]
