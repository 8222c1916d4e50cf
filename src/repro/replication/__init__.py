"""Replication: one writer, N read replicas tailing the delta WAL.

The subsystem is a composition of primitives earlier layers already
provide — the write-ahead log's journalled delta frames (whose on-disk
format *is* the wire format), the MVCC store's deterministic version
chain, and the incremental-maintenance fold path — wired into three
pieces:

* :class:`ReplicationHub` (:mod:`repro.replication.hub`) — primary-side
  fan-out: every published delta is offered to every live log
  subscription, and ``subscribe`` computes a race-free catch-up plan
  (snapshot bootstrap or tail-from-version);
* :class:`ReplicaTail` (:mod:`repro.replication.replica`) — replica-side:
  tail the stream, fold each delta through the ordinary store publish
  path, report lag; ``GraphServer(primary=(host, port))`` serves one tail
  per tenant with the full read surface at the replicated version;
* :class:`~repro.client.RoutedClient` (:mod:`repro.client.routed`) —
  client-side read/write splitting across the topology.

Wire surface: ``subscribe_log`` requests and ``{"sub": s, "frames":
[...], "head": h}`` shipping frames, all over the existing
:mod:`repro.framing` codec; a replica's ``health`` reply carries each
tail's :meth:`ReplicaTail.status`.
"""

from repro.replication.hub import (
    DEFAULT_SUBSCRIPTION_BUFFER,
    LogSubscription,
    ReplicationHub,
    get_hub,
)
from repro.replication.replica import ReplicaTail

__all__ = [
    "DEFAULT_SUBSCRIPTION_BUFFER",
    "LogSubscription",
    "ReplicaTail",
    "ReplicationHub",
    "get_hub",
]
