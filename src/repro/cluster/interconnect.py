"""Interconnect link specs and ring-collective latency models.

Tensor parallelism turns every transformer layer into compute *plus*
communication: Megatron-style sharding inserts two all-reduces per layer
(after the attention output projection and after the MLP down
projection) and one all-gather for the sharded LM head.  At decode
batch sizes these messages are small, so the *per-hop latency* term —
not bandwidth — dominates on PCIe-class links, which is why tensor
parallelism across PCIe is rarely worth it.  That trade-off is exactly
what the SG2042-style hardware characterisation literature measures:
system behaviour is set by the interconnect as much as by the cores.

The model is the standard ring-collective cost used by NCCL tuning
guides: a ring all-reduce over ``p`` ranks moves each byte around the
ring twice (reduce-scatter + all-gather), ``2 (p-1)/p * n`` bytes per
rank, in ``2 (p-1)`` latency-bearing steps; an all-gather is the second
half alone.  Bandwidth figures are per-direction per-GPU ring
bandwidths (the number NCCL calls "busbw" at saturation).

Like every latency in this reproduction, the absolute microseconds are
calibrated model outputs; the *relative* orderings (NVLink vs PCIe,
degree scaling, message-size scaling) are what the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LinkSpec:
    """One GPU-to-GPU interconnect generation.

    ``bandwidth_gbps`` is the per-direction, per-GPU ring bandwidth in
    GB/s (achievable, not headline aggregate); ``latency_us`` is the
    per-hop cost of one ring step: kernel launch, synchronisation and
    wire latency for the first byte.
    """

    name: str
    bandwidth_gbps: float
    latency_us: float

    def __post_init__(self):
        if self.bandwidth_gbps <= 0:
            raise ValueError("bandwidth_gbps must be positive")
        if self.latency_us < 0:
            raise ValueError("latency_us must be >= 0")

    @property
    def bytes_per_s(self) -> float:
        """Per-direction link bandwidth in bytes/s."""
        return self.bandwidth_gbps * 1e9


#: NVLink 4 (Hopper NVSwitch): ~450 GB/s per GPU achievable ring busbw.
NVLINK4 = LinkSpec(name="NVLink 4", bandwidth_gbps=450.0, latency_us=2.0)

#: NVLink 3 (Ampere, A100 SXM HGX boards): ~235 GB/s achievable.
NVLINK3 = LinkSpec(name="NVLink 3", bandwidth_gbps=235.0, latency_us=2.0)

#: PCIe 4.0 x16 (RTX 4090 / A40 servers without NVLink bridges):
#: ~25 GB/s achievable per direction, and a noticeably higher hop
#: latency because every step crosses the host root complex.
PCIE4 = LinkSpec(name="PCIe 4.0 x16", bandwidth_gbps=25.0, latency_us=6.0)

#: PCIe 5.0 x16: doubled lanes' signalling rate, same topology penalty.
PCIE5 = LinkSpec(name="PCIe 5.0 x16", bandwidth_gbps=50.0, latency_us=6.0)

#: An idealised free interconnect (zero latency, near-infinite
#: bandwidth): isolates pure sharding effects in tests and sweeps.
IDEAL_LINK = LinkSpec(name="ideal", bandwidth_gbps=1e9, latency_us=0.0)


def _validate(nbytes: float, degree: int) -> None:
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if degree < 1:
        raise ValueError("degree must be >= 1")


def ring_all_reduce_us(nbytes: float, degree: int, link: LinkSpec) -> float:
    """Latency of a ring all-reduce of ``nbytes`` across ``degree`` GPUs.

    Reduce-scatter then all-gather: ``2 (degree-1)`` steps, each moving
    one ``nbytes/degree`` shard per rank and paying one hop latency.
    A single rank (or an empty message) communicates nothing.
    """
    _validate(nbytes, degree)
    if degree == 1 or nbytes == 0:
        return 0.0
    steps = 2 * (degree - 1)
    shard_us = (nbytes / degree) / link.bytes_per_s * 1e6
    return steps * (shard_us + link.latency_us)


def ring_all_gather_us(nbytes: float, degree: int, link: LinkSpec) -> float:
    """Latency of a ring all-gather producing ``nbytes`` on every GPU.

    Each rank starts with an ``nbytes/degree`` shard; ``degree - 1``
    steps circulate the shards until everyone holds the full buffer.
    """
    _validate(nbytes, degree)
    if degree == 1 or nbytes == 0:
        return 0.0
    steps = degree - 1
    shard_us = (nbytes / degree) / link.bytes_per_s * 1e6
    return steps * (shard_us + link.latency_us)
