"""Board-level power and energy model.

DAC-SDC scores energy per Eq. (3)/(4): each entry's total energy over
the test set relative to the field's average.  We model board power as
idle power plus dynamic power proportional to compute-unit utilization,
and energy per frame as power x latency.

Calibration anchor points (DESIGN.md §5): SkyNet measured 13.50 W on
TX2 and 7.26 W on Ultra96 during inference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spec import FpgaSpec, GpuSpec

__all__ = ["PowerModel", "EnergyReport"]


@dataclass(frozen=True)
class EnergyReport:
    """Power/energy for one workload on one device."""

    device: str
    power_w: float
    latency_ms: float
    joules_per_frame: float

    def total_joules(self, frames: int) -> float:
        return self.joules_per_frame * frames


class PowerModel:
    """Utilization-based power model for GPUs and FPGAs.

    Parameters
    ----------
    spec:
        Device spec with ``idle_w``/``peak_w``.
    """

    def __init__(self, spec: GpuSpec | FpgaSpec) -> None:
        self.spec = spec

    def power_w(self, utilization: float) -> float:
        """Board power at a compute-utilization fraction in [0, 1]."""
        if not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must be in [0, 1]")
        return self.spec.idle_w + utilization * (
            self.spec.peak_w - self.spec.idle_w
        )

    def report(
        self, latency_ms: float, utilization: float, device: str | None = None
    ) -> EnergyReport:
        """Energy for one frame processed in ``latency_ms`` at a load level."""
        if latency_ms <= 0:
            raise ValueError("latency must be positive")
        p = self.power_w(utilization)
        return EnergyReport(
            device=device or self.spec.name,
            power_w=p,
            latency_ms=latency_ms,
            joules_per_frame=p * latency_ms / 1e3,
        )
