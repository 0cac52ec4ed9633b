"""The per-proxy bundle of resilience mechanisms.

One :class:`ResiliencePlane` lives on each :class:`ProxygenServer`
(outliving individual generations, like its counters): circuit breakers
per upstream destination, a shared retry/hedge budget, the backoff
policy, and the machine's admission gate.  Passive health for the
app-server fleet lives on the (shared) ``AppServerPool`` instead — the
balancer-wide view — via :class:`~repro.resilience.health.OutlierTracker`.
"""

from __future__ import annotations

from .admission import AdmissionController
from .breaker import BreakerBoard
from .retry import BackoffPolicy, RetryBudget

__all__ = ["ResiliencePlane"]

#: Token-bucket budgets: each request deposits ``ratio`` tokens, each
#: retry (or hedge) withdraws 1.0 — i.e. at most ~ratio retries per
#: request in steady state, with a small floor for bursts.
RETRY_BUDGET_RATIO = 0.2
RETRY_BUDGET_FLOOR = 10.0
HEDGE_BUDGET_RATIO = 0.05
HEDGE_BUDGET_FLOOR = 2.0


class ResiliencePlane:
    """Breakers + budgets + backoff + admission for one proxy machine."""

    def __init__(self, config, env, rng, counters):
        config.validate()
        self.config = config
        self.env = env
        self.rng = rng
        self.counters = counters
        self.breakers = BreakerBoard(config, env, rng, counters)
        self.backoff = BackoffPolicy(rng)
        self.retry_budget = RetryBudget(
            RETRY_BUDGET_RATIO, RETRY_BUDGET_FLOOR, counters, name="retry")
        self.hedge_budget = RetryBudget(
            HEDGE_BUDGET_RATIO, HEDGE_BUDGET_FLOOR, counters, name="hedge")
        self.admission = AdmissionController(config, counters)

    # -- convenience -----------------------------------------------------

    def backoff_wait(self, attempt: int):
        """Generator: sleep the jittered backoff for retry ``attempt``."""
        delay = self.backoff.delay(attempt)
        self.counters.inc("retry_backoff_waits")
        if delay > 0:
            yield self.env.timeout(delay)

    def note_request(self) -> None:
        """A first attempt: deposit into the retry and hedge budgets."""
        self.retry_budget.note_request()
        self.hedge_budget.note_request()

    def spend_retry(self) -> bool:
        """Budget gate for one retry; counts the decision either way."""
        if self.retry_budget.try_spend():
            self.counters.inc("retries")
            return True
        return False
