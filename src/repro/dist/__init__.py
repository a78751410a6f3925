"""Distributed, resumable sweep execution (docs/DIST.md).

One coordinator (``repro dist coordinate``) owns a campaign: it
expands a :class:`~repro.sweep.spec.SweepSpec` into contiguous job
shards, hands them to workers under crash-safe time-limited leases
(lease → heartbeat → complete / expire; an expired lease is simply
re-issued, so a SIGKILL'd worker never loses work), and merges the
streamed-back results into the shared content-addressed
:class:`~repro.sweep.store.ResultStore` — the same store, keys, and
payloads a single-host :class:`~repro.sweep.engine.SweepEngine` run
produces, byte for byte.  Workers (``repro dist work``) are dumb pull
loops around the exact sweep :func:`~repro.sweep.worker.execute_job`
path, so kernels, fault plans, and the per-trial event budget are
inherited unchanged.

The HTTP/JSON dialect is :mod:`repro.netutil` (shared with
:mod:`repro.serve`), and all wall-clock access goes through the
injected :mod:`repro.serve.clock` seam — the dist package itself is
inside the lint determinism scope.
"""

from repro.dist.aggregate import CampaignAggregator
from repro.dist.client import CoordinatorClient
from repro.dist.coordinator import Coordinator, CoordinatorConfig
from repro.dist.leases import Lease, LeaseError, LeaseManager
from repro.dist.protocol import DIST_PROTOCOL_VERSION
from repro.dist.shards import Shard, job_from_wire, job_wire, make_shards
from repro.dist.worker import DistWorker, WorkerStats

__all__ = [
    "CampaignAggregator",
    "Coordinator",
    "CoordinatorConfig",
    "CoordinatorClient",
    "DIST_PROTOCOL_VERSION",
    "DistWorker",
    "Lease",
    "LeaseError",
    "LeaseManager",
    "Shard",
    "WorkerStats",
    "job_from_wire",
    "job_wire",
    "make_shards",
]
