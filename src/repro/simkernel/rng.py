"""Deterministic named random-number streams.

Every stochastic component of the simulation (arrival processes, size
distributions, hash salts, schedule jitter...) draws from its own named
stream derived from a single experiment seed.  This keeps experiments
reproducible and lets one component's draws change without perturbing
every other component (the classic "common random numbers" discipline).
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Optional

__all__ = ["RandomStreams", "DistributionSampler"]


class RandomStreams:
    """A factory of independent, deterministic ``random.Random`` streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (cached) stream for ``name``."""
        if name not in self._streams:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode("utf-8")).digest()
            self._streams[name] = random.Random(
                int.from_bytes(digest[:8], "big"))
        return self._streams[name]

    def fork(self, label: str) -> "RandomStreams":
        """Derive a child stream-factory (e.g. one per host)."""
        digest = hashlib.sha256(
            f"{self.seed}/fork:{label}".encode("utf-8")).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))


class DistributionSampler:
    """Convenience samplers over one RNG stream.

    Wraps the handful of distributions the workload generators need, with
    guards (truncation, minimums) so pathological draws cannot wedge the
    simulation.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng

    def exponential(self, mean: float) -> float:
        """Exponential with the given mean (``mean <= 0`` returns 0)."""
        if mean <= 0:
            return 0.0
        return self.rng.expovariate(1.0 / mean)

    def uniform(self, low: float, high: float) -> float:
        return self.rng.uniform(low, high)

    def pareto(self, alpha: float, minimum: float,
               cap: Optional[float] = None) -> float:
        """Bounded Pareto: heavy-tailed sizes with a floor and optional cap."""
        value = minimum * self.rng.paretovariate(alpha)
        if cap is not None:
            value = min(value, cap)
        return value

    def poisson(self, lam: float) -> int:
        """Poisson draw via inversion (fine for the small lambdas we use)."""
        if lam <= 0:
            return 0
        if lam > 50:
            # Normal approximation keeps inversion cheap for large lambda.
            return max(0, round(self.rng.gauss(lam, math.sqrt(lam))))
        threshold = math.exp(-lam)
        k, product = 0, self.rng.random()
        while product > threshold:
            k += 1
            product *= self.rng.random()
        return k

    def bernoulli(self, p: float) -> bool:
        return self.rng.random() < p
