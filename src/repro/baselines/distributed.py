"""The TaoBao in-house distributed LP solution (cluster BSP simulator).

The paper's Section 5.4 baseline: a message-passing (Pregel-style) LP
running on 32 machines, each with 4x Intel Xeon Platinum 8168 and 512 GB
RAM.  Per BSP superstep every vertex sends its label along its out-edges;
messages crossing partitions traverse the datacenter network, get
(de)serialized, and the superstep ends with a global barrier.

The cost profile that makes the cluster lose to one GPU:

* **network**: per-edge messages through the cluster's aggregate bandwidth
  (each byte is serialized, shipped and deserialized), vs. GLP reading
  labels straight from HBM2;
* **stragglers**: the superstep waits for the heaviest partition;
* **barriers**: a fixed coordination latency every superstep.

All constants are explicit :class:`ClusterSpec` fields; the 8.2x headline of
Figure 7 *emerges* from the bandwidth arithmetic, not from a hard-coded
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.cpumodel import (
    CPUEngineBase,
    CPUSpec,
    XEON_PLATINUM_8168_X4,
)
from repro.graph.csr import CSRGraph
from repro.graph.partition import balanced_edge_partition, boundary_edge_counts
from repro.scaling import TIME_SCALE


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of the distributed deployment."""

    name: str = "TaoBao-inhouse-32"
    num_machines: int = 32
    machine: CPUSpec = XEON_PLATINUM_8168_X4
    #: Per-machine NIC bandwidth (25 GbE full duplex, datacenter fabric).
    nic_bandwidth: float = 2.5e9
    #: Bytes on the wire per label message (label + vertex id + framing).
    message_bytes: int = 16
    #: CPU-side (de)serialization throughput per machine (bytes/second).
    serialization_bandwidth: float = 4.0e9
    #: Global barrier / coordination latency per superstep (pre-scaled to
    #: the reproduction's time scale, see :mod:`repro.scaling`).
    barrier_seconds: float = 500e-6 * TIME_SCALE

    @property
    def total_cores(self) -> int:
        return self.num_machines * self.machine.num_cores


#: The paper's cluster.
TAOBAO_CLUSTER = ClusterSpec()


class InHouseDistributedEngine(CPUEngineBase):
    """BSP message-passing LP over a simulated cluster.

    Functionally identical to every other engine (bulk-synchronous MFL with
    the same tie-breaking); only the per-iteration timing model differs.
    """

    name = "InHouse-Distributed"

    def __init__(self, spec: ClusterSpec = TAOBAO_CLUSTER) -> None:
        super().__init__(spec.machine)
        self.cluster = spec
        #: ``(graph, edges, boundary)`` of the last graph profiled.
        self._profile = None

    # ------------------------------------------------------------------
    def _partition_profile(self, graph: CSRGraph):
        """Per-partition edge counts and boundary (cross-machine) edges.

        Memoized for the last graph only, matched by identity: the memo
        holds that graph, so its ``id`` cannot be reused by another.
        """
        if self._profile is None or self._profile[0] is not graph:
            parts = balanced_edge_partition(graph, self.cluster.num_machines)
            edges = np.array([p.num_edges for p in parts], dtype=np.int64)
            self._profile = (graph, edges, boundary_edge_counts(graph, parts))
        return self._profile[1:]

    def _iteration_seconds(
        self, graph: CSRGraph, *, active_edges: int, active_vertices: int
    ) -> float:
        cluster = self.cluster
        machine = cluster.machine
        part_edges, boundary = self._partition_profile(graph)
        if graph.num_edges == 0:
            return cluster.barrier_seconds
        activity = active_edges / graph.num_edges

        # Local compute: the straggler partition bounds the superstep.
        per_machine_rate = (
            machine.edges_per_core_per_second * machine.num_cores * 1.2
        )
        compute = float(part_edges.max()) * activity / per_machine_rate

        # Network: every cross-partition edge carries one label message;
        # the busiest receiver's NIC is the bottleneck link, and every byte
        # is serialized on the sender and deserialized on the receiver.
        max_in_bytes = float(boundary.max()) * activity * cluster.message_bytes
        network = max_in_bytes / cluster.nic_bandwidth
        serialization = 2.0 * max_in_bytes / cluster.serialization_bandwidth

        # Compute overlaps the shuffle only partially in BSP: model the
        # superstep as compute followed by exchange, plus the barrier.
        return compute + network + serialization + cluster.barrier_seconds
