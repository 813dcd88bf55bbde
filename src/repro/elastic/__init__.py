"""The elastic control plane: autoscaling, fault injection, and failover.

ROADMAP item 2's closing move.  The cluster tier already knows how to scale
(:meth:`~repro.cluster.ClusterCoordinator.add_shard` /
:meth:`~repro.cluster.ClusterCoordinator.remove_shard` with warm artifact
handoff), replicate (``replication_factor`` + hot-key EWMA), and fail over
(:meth:`~repro.cluster.ClusterCoordinator.check_health` /
:meth:`~repro.cluster.ClusterCoordinator.fail_shard`); this package adds the
*drivers* that exercise those mechanisms:

* :mod:`repro.elastic.autoscaler` — a policy loop (``fixed`` /
  ``queue-depth`` / ``slo``) that watches admission-queue depth and the SLO
  latency signal and grows/shrinks the shard set on simulated time, with
  cooldown and min/max bounds;
* :mod:`repro.elastic.faults` — seeded :class:`FaultPlan` schedules (shard
  crash, slow shard, network partition, heal, rejoin) applied to a live
  coordinator by a :class:`FaultInjector`, on both the local and tcp
  transports (a tcp crash kills the real shard server process).

Both plug into :meth:`~repro.cluster.OpenLoopLoadGenerator.run` so a single
seeded open-loop run exercises scale events and a kill/rejoin cycle and then
proves ``lost_batches == 0`` in the SLO report — the correctness frame is the
HSUC crash-broadcast spec: a crash must be *observed* and its in-flight work
*re-owned*, never silently dropped.
"""

from repro.elastic.autoscaler import (
    AUTOSCALER_POLICIES,
    Autoscaler,
    AutoscalerConfig,
    ScaleEvent,
)
from repro.elastic.faults import (
    FAULT_EVENT_KINDS,
    PROCESS_FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)

__all__ = [
    "AUTOSCALER_POLICIES",
    "Autoscaler",
    "AutoscalerConfig",
    "FAULT_EVENT_KINDS",
    "PROCESS_FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "ScaleEvent",
]
