"""Communication / data-redistribution time estimation used by the mappers.

The mapping step needs an estimate of the time required to move the data
of an edge ``v_i -> v_j`` from the processors of ``v_i`` to those of
``v_j`` in order to compute data-ready times and earliest finish times.
The estimate follows the platform topology:

* when both tasks run on the **same cluster**, the redistribution happens
  inside the cluster (memory / local interconnect); its cost is assumed
  negligible with respect to inter-cluster transfers and is modelled as
  zero,
* when the tasks run on **different clusters**, the data crosses the
  cluster switches: the estimated time is the path latency plus the data
  volume divided by the bottleneck bandwidth of the path.  The bottleneck
  accounts for the aggregate NIC pools of the two clusters (every node
  has its own link to the switch, so a redistribution between two
  processor sets uses many NICs in parallel) and for the switch
  backplanes on the route.  Contention with other transfers is only
  modelled by the discrete-event simulator, not by this estimator --
  exactly like a static scheduler that cannot know the future traffic.

Performance
-----------
The mappers evaluate the same edges against the same cluster pairs over
and over (once per candidate cluster per ready task), so the estimator
memoizes both the per-pair path parameters ``(latency, bottleneck
bandwidth)`` -- which are constant for a given platform -- and the final
transfer time per ``(edge data volume, source cluster, destination
cluster)`` triple.  The cached arithmetic is the exact expression of the
uncached version, so memoization never changes a schedule.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.exceptions import MappingError
from repro.platform.multicluster import MultiClusterPlatform


class CommunicationEstimator:
    """Static estimate of inter-cluster data redistribution times.

    Models the paper's data redistribution between the processor sets of
    two dependent tasks; intra-cluster redistribution is free, an
    inter-cluster one pays path latency plus volume over the bottleneck
    bandwidth.
    """

    def __init__(self, platform: MultiClusterPlatform) -> None:
        self.platform = platform
        self.topology = platform.topology
        # (src, dst) -> (latency, bottleneck bandwidth); constant per platform
        self._pair_cache: Dict[Tuple[str, str], Tuple[float, float]] = {}
        # (data_bytes, src, dst) -> transfer time
        self._time_cache: Dict[Tuple[float, str, str], float] = {}

    def _pair_parameters(self, src_cluster: str, dst_cluster: str) -> Tuple[float, float]:
        """Memoized ``(path latency, bottleneck bandwidth)`` of one pair."""
        key = (src_cluster, dst_cluster)
        cached = self._pair_cache.get(key)
        if cached is None:
            latency = self.topology.path_latency(src_cluster, dst_cluster)
            bandwidth = self.topology.route_bandwidth(
                src_cluster,
                dst_cluster,
                self.platform.cluster(src_cluster).num_processors,
                self.platform.cluster(dst_cluster).num_processors,
            )
            cached = (latency, bandwidth)
            self._pair_cache[key] = cached
        return cached

    def transfer_time(
        self, data_bytes: float, src_cluster: str, dst_cluster: str
    ) -> float:
        """Estimated time to move *data_bytes* from *src_cluster* to *dst_cluster*.

        The memo is read first: a memoised key passed the argument checks
        when it was first seen.  Zero-byte and intra-cluster transfers
        (exactly ``0.0``) are memoised like the others.
        """
        key = (data_bytes, src_cluster, dst_cluster)
        cached = self._time_cache.get(key)
        if cached is not None:
            return cached
        if data_bytes < 0:
            raise MappingError(f"data_bytes must be non-negative, got {data_bytes}")
        if src_cluster not in self.platform or dst_cluster not in self.platform:
            raise MappingError(
                f"unknown cluster in transfer {src_cluster!r} -> {dst_cluster!r}"
            )
        if data_bytes == 0 or src_cluster == dst_cluster:
            cached = 0.0
        else:
            latency, bandwidth = self._pair_parameters(src_cluster, dst_cluster)
            cached = latency + data_bytes / bandwidth
        self._time_cache[key] = cached
        return cached

    def worst_case_transfer_time(self, data_bytes: float) -> float:
        """Largest transfer estimate over all cluster pairs (used for bounds)."""
        names = self.platform.cluster_names()
        return max(
            self.transfer_time(data_bytes, a, b) for a in names for b in names
        )
