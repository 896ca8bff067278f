"""``repro.nn.engine`` — compiled inference engine for the forward path.

The training substrate (:mod:`repro.nn`) runs every op through the
autograd :class:`~repro.nn.tensor.Tensor`; that is the right tool for
the design loop but pure overhead at deployment time, where the paper's
headline numbers are throughput (67.33 FPS TX2 / 25.05 FPS Ultra96).
This package provides the ahead-of-time alternative:

* :func:`compile_net` — walk a trained module, fold eval-mode BatchNorm
  into conv weights, fuse each Bundle's DWConv3x3 -> PWConv1x1 -> act
  chain (and a following max-pool) into one kernel, and emit a flat
  :class:`CompiledNet` plan.  fp32 and integer plans share that planner,
  its pass list and one kernel set; precision is each kernel's epilogue.
* :class:`BufferArena` — slabs planned by liveness on the first forward
  at each input shape, so im2col columns and activation maps share
  memory with dead values and are reused across frames (static
  deployment shapes).
* :class:`QuantConfig` — integer-domain execution: pass
  ``compile_net(net, quant=QuantConfig(8, 8), calibration=batch)`` to
  calibrate power-of-two scales and run the same plan on int8/int16
  feature maps (Section 6.4.1 / Table 7 of the paper).

Compiled plans implement the eval-mode forward only and snapshot the
weights at compile time: retrain, then recompile.
"""

from .arena import BufferArena
from .compiler import CompiledNet, CompileError, compile_net
from .quant import QuantConfig

__all__ = [
    "BufferArena",
    "CompiledNet",
    "CompileError",
    "QuantConfig",
    "compile_net",
]
