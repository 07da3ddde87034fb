"""Single-FPGA device model.

An :class:`FPGADevice` describes one FPGA of the target platform: its absolute
on-chip resource counts, its DRAM bandwidth, and helpers to convert between
absolute quantities and the percentage units used by the optimisation model
(Tables 2-3 of the paper express every per-CU cost as a percent of one
device).  In a heterogeneous platform each
:class:`~repro.platform.multi_fpga.DeviceClass` carries one device; the
percentage caps of every class are expressed relative to the platform's
*reference* device (see :func:`repro.platform.presets.relative_capacity`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .resources import ResourceVector


@dataclass(frozen=True)
class FPGADevice:
    """One FPGA device of a multi-FPGA platform.

    Parameters
    ----------
    name:
        Human-readable device name (e.g. ``"xcvu9p"``).
    bram_blocks, dsp_slices, luts, ffs:
        Absolute resource counts of the device.
    dram_bandwidth_gbps:
        Peak external DRAM bandwidth available to the device, in GB/s.
    dram_banks:
        Number of DRAM channels attached to the device.
    """

    name: str
    bram_blocks: int
    dsp_slices: int
    luts: int
    ffs: int
    dram_bandwidth_gbps: float
    dram_banks: int = 4

    def __post_init__(self) -> None:
        for attr in ("bram_blocks", "dsp_slices", "luts", "ffs", "dram_banks"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive, got {getattr(self, attr)}")
        if self.dram_bandwidth_gbps <= 0:
            raise ValueError("dram_bandwidth_gbps must be positive")

    # ------------------------------------------------------------------ #
    # Percentage conversions
    # ------------------------------------------------------------------ #
    def absolute_counts(self) -> dict[str, float]:
        """Return absolute resource counts keyed by resource kind."""
        return {
            "bram": float(self.bram_blocks),
            "dsp": float(self.dsp_slices),
            "lut": float(self.luts),
            "ff": float(self.ffs),
        }

    def to_percent(self, usage: dict[str, float]) -> ResourceVector:
        """Convert absolute resource usage counts to a percent ResourceVector."""
        counts = self.absolute_counts()
        return ResourceVector.from_mapping(
            {kind: 100.0 * usage.get(kind, 0.0) / counts[kind] for kind in counts}
        )

    def to_absolute(self, usage_percent: ResourceVector) -> dict[str, float]:
        """Convert a percent ResourceVector back to absolute counts."""
        counts = self.absolute_counts()
        return {kind: counts[kind] * usage_percent[kind] / 100.0 for kind in counts}

    def bandwidth_percent(self, gbps: float) -> float:
        """Convert an absolute bandwidth demand (GB/s) to percent of the device."""
        if gbps < 0:
            raise ValueError("bandwidth demand must be non-negative")
        return 100.0 * gbps / self.dram_bandwidth_gbps

    def bandwidth_gbps(self, percent: float) -> float:
        """Convert a bandwidth percentage back to GB/s."""
        if percent < 0:
            raise ValueError("bandwidth percentage must be non-negative")
        return self.dram_bandwidth_gbps * percent / 100.0


@dataclass(frozen=True)
class FPGAState:
    """Mutable-in-spirit record of how much of one FPGA is in use.

    The allocator never mutates these in place; it builds new states as it
    assigns compute units, which keeps backtracking trivially correct.
    """

    device: FPGADevice
    used: ResourceVector = field(default_factory=ResourceVector.zeros)
    used_bandwidth: float = 0.0

    def __post_init__(self) -> None:
        if self.used_bandwidth < 0:
            raise ValueError("used_bandwidth must be non-negative")

    def with_additional(self, usage: ResourceVector, bandwidth: float) -> "FPGAState":
        """Return a new state with the given usage added."""
        return FPGAState(
            device=self.device,
            used=self.used + usage,
            used_bandwidth=self.used_bandwidth + bandwidth,
        )

    def slack(self, capacity: ResourceVector) -> ResourceVector:
        """Remaining resources relative to a (possibly derated) capacity."""
        return capacity - self.used

    def bandwidth_slack(self, bandwidth_capacity: float) -> float:
        """Remaining bandwidth (percent) relative to a capacity."""
        return max(0.0, bandwidth_capacity - self.used_bandwidth)
