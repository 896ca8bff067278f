"""Hardware substrate: device specs, latency/resource/energy models.

The paper's bottom-up flow is hardware-aware from the start: Bundle and
network candidates are scored with realistic device feedback.  This
package provides that feedback analytically — a roofline GPU model, an
IP-based FPGA model (the same estimator family the paper itself uses
during search), fixed-point quantization, a system-pipeline simulator,
and a power/energy model — all consuming the layer-structure
descriptors that :func:`repro.hardware.describe` reads off a module's
traced forward.
"""

from . import fpga, gpu
from .descriptor import LayerDesc, NetDescriptor, compare_networks, describe
from .energy import EnergyReport, PowerModel
from .pipeline import PipelineResult, PipelineSimulator, Stage
from .pruning import PruningMask, magnitude_prune, prunable_parameters, sparsity
from .quantization import (
    TABLE7_SCHEMES,
    QuantScheme,
    feature_map_quantization,
    fm_megabytes,
    param_megabytes,
    quantization_error,
    quantize_fixed,
    quantized_inference,
    weight_quantization,
)
from .spec import DEVICES, GTX_1080TI, PYNQ_Z1, TX2, ULTRA96, FpgaSpec, GpuSpec

__all__ = [
    "LayerDesc",
    "NetDescriptor",
    "describe",
    "PowerModel",
    "EnergyReport",
    "PipelineSimulator",
    "PipelineResult",
    "Stage",
    "PruningMask",
    "magnitude_prune",
    "prunable_parameters",
    "sparsity",
    "compare_networks",
    "quantize_fixed",
    "quantization_error",
    "weight_quantization",
    "feature_map_quantization",
    "quantized_inference",
    "QuantScheme",
    "TABLE7_SCHEMES",
    "param_megabytes",
    "fm_megabytes",
    "GpuSpec",
    "FpgaSpec",
    "TX2",
    "GTX_1080TI",
    "ULTRA96",
    "PYNQ_Z1",
    "DEVICES",
    "fpga",
    "gpu",
]
