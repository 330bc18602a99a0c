"""Token-bucket retry budget (the anti-retry-storm governor).

Unbudgeted per-request exponential backoff is the classic metastable-failure
recipe: under saturation every request times out, every timeout retries, and
the retry traffic alone keeps the device saturated after the original surge
has passed.  The budget couples retries to *fresh* traffic: each fresh
request deposits ``ratio`` tokens (capped), each retry attempt spends one
token, and a retry with an empty bucket is denied -- so retry traffic can
never exceed roughly ``ratio`` times the fresh arrival rate.
"""

from __future__ import annotations

__all__ = ["RetryBudget"]


class RetryBudget:
    """Shared per-frontend token bucket gating retry attempts."""

    __slots__ = ("ratio", "cap", "tokens", "deposits", "spent", "denied")

    def __init__(self, ratio: float = 0.2, initial: float = 8.0,
                 cap: float = 64.0):
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"ratio must be in [0, 1], got {ratio}")
        if cap <= 0 or initial < 0:
            raise ValueError("cap must be positive and initial >= 0")
        self.ratio = ratio
        self.cap = cap
        self.tokens = min(initial, cap)
        self.deposits = 0       # fresh requests seen
        self.spent = 0          # retry tokens granted
        self.denied = 0         # retry attempts refused

    def deposit(self, n: int = 1) -> None:
        """Credit the bucket for ``n`` fresh (non-retry) requests."""
        self.deposits += n
        self.tokens = min(self.cap, self.tokens + n * self.ratio)

    def try_spend(self, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens for one retry attempt, if available."""
        if self.tokens >= cost:
            self.tokens -= cost
            self.spent += 1
            return True
        self.denied += 1
        return False
