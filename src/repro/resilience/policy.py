"""Retry/supervision policy for the sharded detector and batch runner.

A :class:`RetryPolicy` is plain data: attempt budgets, timeout budgets,
and an exponential backoff whose jitter is derived from a seed with
splitmix64 — two runs with the same policy sleep the same amount, so
recovery schedules are as reproducible as the detection itself.

``RetryPolicy()`` supervises: worker failures are retried, then
escalated, then degraded to in-process serial detection.  The engine
builds one only from a non-empty ``DiscoveryConfig.resilience``; a
default sharded run passes no policy.  ``RetryPolicy.disabled()``
preserves the pre-supervision contract — any worker failure raises
``ShardedDetectionError`` — and is what ``ShardedDetector`` uses when
constructed without a policy, keeping the hot benchmark paths
byte-for-byte on their old behavior. Either way the timeout fields
replace the detector's former hardcoded 120 s done-queue wait and 30 s
finalize join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

_MASK64 = (1 << 64) - 1
_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB


def _mix64(value: int) -> int:
    """splitmix64 finalizer — the repo's stock seeded-determinism mixer."""
    value = (value + _MIX_A) & _MASK64
    value ^= value >> 30
    value = (value * _MIX_B) & _MASK64
    value ^= value >> 27
    value = (value * _MIX_C) & _MASK64
    value ^= value >> 31
    return value


@dataclass
class RetryPolicy:
    """Supervision budgets for one detection run.

    Attempt budgets
    ---------------
    max_shard_retries   re-executions of a single failed shard before the
                        failure escalates to a pool restart.
    max_pool_restarts   full restart-and-replay rounds (incomplete shards
                        only) before the run degrades or raises.
    degrade             when the ladder is exhausted, fall back to
                        in-process serial vectorized detection (warn +
                        ``resilience.degraded`` metric) instead of raising.

    Timeout budgets (seconds)
    -------------------------
    done_timeout    cap on one blocking wait for worker results
                    (formerly the hardcoded ``timeout=120``).
    join_timeout    cap on joining a worker at finalize/abort
                    (formerly the hardcoded ``join(timeout=30)``).
    hang_timeout    a shard with an outstanding obligation (unacked slab,
                    missing done payload) and no liveness signal for this
                    long is declared hung and recovered. Must exceed the
                    worst single-batch/flush processing time.
    poll_interval   supervisor wait granularity while blocked.

    Backoff
    -------
    Delay before retry ``n`` (1-based) is
    ``min(backoff_max, backoff_base * backoff_factor**(n-1))`` scaled by a
    deterministic jitter factor in ``[1 - jitter, 1]`` drawn from
    ``splitmix64(seed, n)``.
    """

    max_shard_retries: int = 2
    max_pool_restarts: int = 1
    degrade: bool = True
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    done_timeout: float = 120.0
    join_timeout: float = 30.0
    hang_timeout: float = 60.0
    poll_interval: float = 0.25
    supervise: bool = True

    @classmethod
    def disabled(cls, **overrides: object) -> "RetryPolicy":
        """Legacy contract: no journal, no retries, failures raise."""
        overrides.setdefault("supervise", False)
        return cls(**overrides)  # type: ignore[arg-type]

    def backoff_delay(self, attempt: int) -> float:
        """Deterministic sleep before retry ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        base = min(self.backoff_max, self.backoff_base * self.backoff_factor ** (attempt - 1))
        unit = _mix64((self.seed << 20) ^ attempt) / float(_MASK64)
        return base * (1.0 - self.jitter * unit)

    def to_dict(self) -> dict:
        return {
            "max_shard_retries": self.max_shard_retries,
            "max_pool_restarts": self.max_pool_restarts,
            "degrade": self.degrade,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_max": self.backoff_max,
            "jitter": self.jitter,
            "seed": self.seed,
            "done_timeout": self.done_timeout,
            "join_timeout": self.join_timeout,
            "hang_timeout": self.hang_timeout,
            "poll_interval": self.poll_interval,
            "supervise": self.supervise,
        }

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> "RetryPolicy":
        data = dict(data or {})
        unknown = set(data) - set(cls().to_dict())
        if unknown:
            raise ValueError(f"unknown resilience option(s): {sorted(unknown)}")
        return cls(**data)
