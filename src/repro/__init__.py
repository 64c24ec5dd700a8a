"""repro — reproduction of VQ-LLM (HPCA 2025).

VQ-LLM is a code-generation framework for fused vector-quantization
(VQ) dequantization + computation kernels in LLM inference.  This
package reproduces it on an analytic GPU model:

- :mod:`repro.gpu` — GPU hardware model (occupancy, banks, traffic,
  roofline latency) for the paper's RTX 4090 / Tesla A40;
- :mod:`repro.vq` — the VQ algorithm substrate (k-means codebooks,
  residual quantization, the Tbl. II algorithm presets, element-wise
  quantization baselines);
- :mod:`repro.llm` — a numpy Llama-architecture transformer with FP16
  and VQ-compressed KV caches;
- :mod:`repro.kernels` — FP16, element-wise-quantized and fused-VQ
  kernel models;
- :mod:`repro.core` — the paper's contribution: codebook cache,
  codebook-centric dataflow and hierarchical fusion, adaptive
  heuristics, and the kernel code generator;
- :mod:`repro.bench` — the experiment harness regenerating every table
  and figure of the paper's evaluation;
- :mod:`repro.serve` — a continuous-batching serving simulator that
  drives the analytic stack at the request level (arrivals, KV-cache
  admission control, throughput/TTFT/TPOT/latency percentiles);
- :mod:`repro.cluster` — the multi-GPU layer: interconnect collective
  models, Megatron-style tensor-parallel sharding, and a multi-replica
  fleet simulator with routing policies and SLO-based fleet sizing;
- :mod:`repro.obs` — observability for the serving stack: a
  zero-cost-when-disabled tracer, a counter/gauge/histogram registry,
  and Chrome/Perfetto timeline export with a markdown report CLI.

See ``README.md`` for a guided tour and ``docs/architecture.md`` for
the data-flow picture.

Quickstart::

    import numpy as np
    from repro import RTX4090, VQLLMCodeGenerator, make_quantizer
    from repro.kernels import GemmShape

    weight = np.random.default_rng(0).standard_normal((512, 1024))
    qt = make_quantizer("gptvq-2").quantize(weight)
    gen = VQLLMCodeGenerator(RTX4090)
    kernel = gen.generate_gemv(GemmShape(m=1, n=4096, k=4096), qt)
    print(kernel.latency_us(), "us")
    print(kernel.source)
"""

from repro.core.codegen import GeneratedKernel, VQLLMCodeGenerator
from repro.core.engine import ComputeEngine, LevelSweep
from repro.gpu.spec import A40, A100, RTX4090, GPUSpec, get_spec
from repro.vq.algorithms import ALGORITHMS, make_config, make_quantizer
from repro.vq.config import VQConfig
from repro.vq.quantizer import QuantizedTensor, VectorQuantizer

__version__ = "1.0.0"

__all__ = [
    "A40",
    "A100",
    "ALGORITHMS",
    "ComputeEngine",
    "GPUSpec",
    "GeneratedKernel",
    "LevelSweep",
    "QuantizedTensor",
    "RTX4090",
    "VQConfig",
    "VQLLMCodeGenerator",
    "VectorQuantizer",
    "__version__",
    "get_spec",
    "make_config",
    "make_quantizer",
]
