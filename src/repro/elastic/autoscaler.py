"""The autoscaler: a deterministic policy loop over the cluster's own signals.

The autoscaler closes the elasticity loop: the coordinator exposes the
signals (admission-queue depth, per-dispatch latency) and the mechanism
(:meth:`~repro.cluster.ClusterCoordinator.add_shard` /
:meth:`~repro.cluster.ClusterCoordinator.remove_shard` with warm artifact
handoff); the autoscaler is the policy that connects them.

It runs on **simulated time**, not a wall-clock thread: the open-loop load
generator calls :meth:`Autoscaler.evaluate` at every dispatch-window boundary
with the window's timestamp, after the window's arrivals are queued and
before they dispatch — so queue depth is measured at its per-window peak, and
the whole run (arrivals, scale events, rebalances) is reproducible from the
seed alone.  Three policies:

* ``fixed`` — converge on ``target_shards`` and hold (the control-loop
  equivalent of a static cluster, useful as an A/B baseline);
* ``queue-depth`` — scale up when mean queued-per-shard crosses
  ``scale_up_depth``, down when it falls under ``scale_down_depth``;
* ``slo`` — scale up when the observed p99 latency (fed via
  :meth:`Autoscaler.observe`) crosses ``target_p99``, down when it sits
  under half the target.

Every decision respects ``min_shards``/``max_shards``, the evaluation
interval, and a post-scale ``cooldown`` (rebalances are not free — scaling
again before the last handoff settles just thrashes the ring).  Scale-downs
remove the highest-numbered shard so repeated runs shrink identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.coordinator import ClusterCoordinator, ClusterReport
from repro.metrics import quantile as _quantile

__all__ = ["AUTOSCALER_POLICIES", "Autoscaler", "AutoscalerConfig", "ScaleEvent"]

#: The recognised scaling policies.
AUTOSCALER_POLICIES = ("fixed", "queue-depth", "slo")


@dataclass(frozen=True)
class AutoscalerConfig:
    """Every knob of the policy loop (validated on construction).

    Attributes:
        policy: one of :data:`AUTOSCALER_POLICIES`.
        min_shards / max_shards: hard bounds on the shard set.
        evaluate_interval: simulated seconds between policy evaluations.
        cooldown: simulated seconds after a scale event before the next one.
        target_shards: the ``fixed`` policy's goal (defaults to ``min_shards``).
        scale_up_depth / scale_down_depth: the ``queue-depth`` policy's mean
            queued-per-shard thresholds.
        target_p99: the ``slo`` policy's latency goal in seconds (scale up
            above it, down under half of it).
        slo_window: how many recent dispatch reports the ``slo`` policy pools
            for its p99 estimate.
        scale_step: shards added or removed per event.
    """

    policy: str = "queue-depth"
    min_shards: int = 1
    max_shards: int = 8
    evaluate_interval: float = 0.1
    cooldown: float = 0.2
    target_shards: int | None = None
    scale_up_depth: float = 8.0
    scale_down_depth: float = 1.0
    target_p99: float = 0.25
    slo_window: int = 4
    scale_step: int = 1

    def __post_init__(self) -> None:
        if self.policy not in AUTOSCALER_POLICIES:
            raise ValueError(
                f"unknown autoscaler policy {self.policy!r}; use one of {AUTOSCALER_POLICIES}"
            )
        if self.min_shards < 1:
            raise ValueError("min_shards must be at least 1")
        if self.max_shards < self.min_shards:
            raise ValueError("max_shards must be >= min_shards")
        if self.evaluate_interval <= 0 or self.cooldown < 0:
            raise ValueError("evaluate_interval must be positive and cooldown non-negative")
        if self.scale_step < 1:
            raise ValueError("scale_step must be at least 1")
        if self.scale_down_depth > self.scale_up_depth:
            raise ValueError("scale_down_depth must not exceed scale_up_depth")
        if self.target_p99 <= 0:
            raise ValueError("target_p99 must be positive")
        if self.slo_window < 1:
            raise ValueError("slo_window must be at least 1")
        if self.target_shards is not None and not (
            self.min_shards <= self.target_shards <= self.max_shards
        ):
            raise ValueError("target_shards must lie within [min_shards, max_shards]")


@dataclass(frozen=True)
class ScaleEvent:
    """One applied scaling decision, with the rebalance cost it incurred.

    ``moved_fraction`` is the share of seen fingerprints whose placement the
    event moved (cold caches, unless the warm handoff carried them).
    """

    at: float
    direction: str  # "up" | "down"
    from_shards: int
    to_shards: int
    reason: str
    moved_fraction: float = 0.0

    def as_row(self) -> dict[str, object]:
        return {
            "at": self.at,
            "direction": self.direction,
            "from_shards": self.from_shards,
            "to_shards": self.to_shards,
            "reason": self.reason,
            "moved_fraction": self.moved_fraction,
        }


class Autoscaler:
    """Drives ``add_shard``/``remove_shard`` on a live coordinator by policy.

    Args:
        coordinator: the cluster to scale (used live; never copied).
        config: the policy and its knobs.
        metrics: defaults to the coordinator's registry
            (``repro_cluster_autoscaler_*`` families).
    """

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        config: AutoscalerConfig | None = None,
        metrics=None,
    ) -> None:
        self.coordinator = coordinator
        self.config = config if config is not None else AutoscalerConfig()
        self.metrics = metrics if metrics is not None else coordinator.metrics
        self.events: list[ScaleEvent] = []
        self._last_evaluated: float | None = None
        self._last_scaled: float | None = None
        self._recent_reports: list[ClusterReport] = []
        self._m_events = self.metrics.counter(
            "repro_cluster_autoscaler_events_total",
            "Scale events applied, by direction.",
            labels=("direction",),
        )
        self._m_shards = self.metrics.gauge(
            "repro_cluster_autoscaler_shards", "Current shard count under autoscaling."
        )
        self._m_shards.set(coordinator.shard_count)

    # -- signals ---------------------------------------------------------------

    def observe(self, report: ClusterReport) -> None:
        """Feed one dispatch report into the ``slo`` policy's latency window."""
        self._recent_reports.append(report)
        del self._recent_reports[: -self.config.slo_window]

    def _observed_p99(self) -> float:
        seconds: list[float] = []
        for report in self._recent_reports:
            seconds.extend(report.query_seconds)
        return _quantile(seconds, 0.99)

    def _desired_shards(self, current: int) -> tuple[int, str]:
        """The policy's raw target (pre-clamp) and the reason it would give."""
        config = self.config
        if config.policy == "fixed":
            target = config.target_shards if config.target_shards is not None else config.min_shards
            if target > current:
                return current + min(config.scale_step, target - current), "below fixed target"
            if target < current:
                return current - min(config.scale_step, current - target), "above fixed target"
            return current, ""
        if config.policy == "queue-depth":
            depth = self.coordinator.pending_count / current if current else 0.0
            if depth > config.scale_up_depth:
                return current + config.scale_step, f"mean queue depth {depth:.1f}"
            if depth < config.scale_down_depth:
                return current - config.scale_step, f"mean queue depth {depth:.1f}"
            return current, ""
        # slo policy
        if not self._recent_reports:
            return current, ""
        p99 = self._observed_p99()
        if p99 > config.target_p99:
            return current + config.scale_step, f"p99 {p99:.3f}s over target"
        if p99 < config.target_p99 / 2:
            return current - config.scale_step, f"p99 {p99:.3f}s under half target"
        return current, ""

    # -- the loop --------------------------------------------------------------

    def evaluate(self, now: float) -> ScaleEvent | None:
        """One policy evaluation at simulated time ``now``; applies at most one event.

        Returns the applied :class:`ScaleEvent`, or ``None`` when the policy
        held (interval not elapsed, cooling down, already at the bound, or
        simply satisfied).
        """
        config = self.config
        if (
            self._last_evaluated is not None
            and now - self._last_evaluated < config.evaluate_interval
        ):
            return None
        self._last_evaluated = now
        if self._last_scaled is not None and now - self._last_scaled < config.cooldown:
            return None
        current = self.coordinator.shard_count
        desired, reason = self._desired_shards(current)
        desired = max(config.min_shards, min(config.max_shards, desired))
        if desired == current:
            return None
        if desired > current:
            stats = None
            for _ in range(desired - current):
                stats = self.coordinator.add_shard()
            direction = "up"
        else:
            stats = None
            for _ in range(current - desired):
                # Highest-numbered shard goes first: deterministic shrink order.
                victim = max(
                    self.coordinator.shard_ids,
                    key=lambda shard_id: (len(shard_id), shard_id),
                )
                stats = self.coordinator.remove_shard(victim)
            direction = "down"
        event = ScaleEvent(
            at=now,
            direction=direction,
            from_shards=current,
            to_shards=desired,
            reason=reason,
            moved_fraction=stats.moved_fraction if stats is not None else 0.0,
        )
        self.events.append(event)
        self._last_scaled = now
        self._m_events.labels(direction=direction).inc()
        self._m_shards.set(desired)
        return event

    def as_rows(self) -> list[dict[str, object]]:
        """Every applied scale event as a report table."""
        return [event.as_row() for event in self.events]
