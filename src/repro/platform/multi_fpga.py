"""Multi-FPGA platform model, homogeneous or heterogeneous.

The paper targets an AWS F1 instance: a host CPU orchestrating up to eight
identical Xilinx UltraScale+ FPGAs, each with its own DRAM banks (Fig. 1).
Real deployments are rarely that uniform -- mixed-generation fleets and
multi-die devices with uneven per-die capacity are the norm -- so the model
generalises: a platform is a list of per-FPGA ``(device, resource cap,
bandwidth cap)`` entries grouped into :class:`DeviceClass` *device classes*.
FPGAs inside one class are interchangeable; FPGAs of different classes are
not.  The homogeneous case is exactly one class, and every legacy constructor,
accessor and serialised document keeps working unchanged for it.

All capacities are expressed in percent of the platform's *reference device*
(the device of the first class), matching the workload tables: a kernel's
per-CU cost is a percentage of that reference device, and a smaller FPGA in
the fleet is modelled as a class whose resource cap is the smaller device's
capacity expressed as a percentage of the reference (see
:func:`repro.platform.presets.relative_capacity`).

The optimisation model reads the platform through the per-FPGA expansion
(:meth:`MultiFPGAPlatform.fpga_resource_limits` /
:meth:`~MultiFPGAPlatform.fpga_bandwidth_limits`, in class-major order) plus
the class grouping (:meth:`~MultiFPGAPlatform.fpga_class_indices`), which the
solvers use to restrict symmetry breaking to interchangeable FPGAs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .fpga import FPGADevice
from .resources import ResourceVector


@dataclass(frozen=True)
class DeviceClass:
    """A group of identical FPGAs within a (possibly mixed) platform.

    Parameters
    ----------
    device:
        The FPGA device of this class.  Descriptive for reporting and the
        HLS cost model; the optimisation model reads only the percentage
        caps below.
    count:
        Number of identical FPGAs in this class.
    resource_limit:
        Per-FPGA resource cap, in percent of the platform's *reference
        device* (the device of the platform's first class).
    bandwidth_limit:
        Per-FPGA DRAM bandwidth cap, percent of the reference device's
        bandwidth.
    """

    device: FPGADevice
    count: int
    resource_limit: ResourceVector
    bandwidth_limit: float = 100.0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"device class count must be >= 1, got {self.count}")
        if self.bandwidth_limit <= 0:
            raise ValueError("bandwidth_limit must be positive")
        if self.resource_limit.max_component() <= 0:
            raise ValueError("resource_limit must have at least one positive component")

    def describe(self) -> str:
        """One-line human readable description of the class."""
        return (
            f"{self.count} x {self.device.name} "
            f"(R={self.resource_limit.max_component():.1f}%, "
            f"B={self.bandwidth_limit:.1f}%)"
        )


@dataclass(frozen=True)
class MultiFPGAPlatform:
    """A cluster of FPGAs sharing a host CPU, grouped into device classes.

    The legacy homogeneous constructor is unchanged: ``device``,
    ``num_fpgas``, ``resource_limit`` and ``bandwidth_limit`` describe ``F``
    identical FPGAs and ``classes`` stays ``None``.  Heterogeneous platforms
    are built with :meth:`from_classes`; their legacy fields mirror the
    *first* class (the reference device) and ``classes`` carries the full
    fleet.  A single-class :meth:`from_classes` platform is normalised onto
    the legacy representation, so it compares equal to the equivalent
    homogeneous platform.

    Parameters
    ----------
    device:
        The reference FPGA device (the device of the first class).
    num_fpgas:
        Total number of FPGAs over all classes (``F`` in the paper).
    resource_limit:
        Per-FPGA resource cap ``R`` of the first class, percent of the
        reference device.  The paper sweeps this value (the "resource
        constraint") between roughly 40 % and 90 %.
    bandwidth_limit:
        Per-FPGA DRAM bandwidth cap ``B`` of the first class, percent of the
        reference device's bandwidth.
    name:
        Optional human-readable platform name.
    classes:
        ``None`` for a homogeneous platform; otherwise the full tuple of
        device classes (two or more entries), whose counts sum to
        ``num_fpgas``.
    """

    device: FPGADevice
    num_fpgas: int
    resource_limit: ResourceVector
    bandwidth_limit: float = 100.0
    name: str = "multi-fpga"
    classes: "tuple[DeviceClass, ...] | None" = None

    def __post_init__(self) -> None:
        if self.num_fpgas < 1:
            raise ValueError(f"num_fpgas must be >= 1, got {self.num_fpgas}")
        if self.bandwidth_limit <= 0:
            raise ValueError("bandwidth_limit must be positive")
        if self.resource_limit.max_component() <= 0:
            raise ValueError("resource_limit must have at least one positive component")
        if self.classes is not None:
            classes = tuple(self.classes)
            if len(classes) < 2:
                raise ValueError(
                    "classes must hold two or more device classes; "
                    "single-class platforms use the homogeneous constructor"
                )
            total = sum(device_class.count for device_class in classes)
            if total != self.num_fpgas:
                raise ValueError(
                    f"class counts sum to {total}, but num_fpgas is {self.num_fpgas}"
                )
            first = classes[0]
            if (
                first.device != self.device
                or first.resource_limit != self.resource_limit
                or first.bandwidth_limit != self.bandwidth_limit
            ):
                raise ValueError(
                    "the platform's legacy fields must mirror the first device class; "
                    "build heterogeneous platforms with MultiFPGAPlatform.from_classes"
                )
            object.__setattr__(self, "classes", classes)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_classes(
        cls, classes: "tuple[DeviceClass, ...] | list[DeviceClass]", name: str = "multi-fpga"
    ) -> "MultiFPGAPlatform":
        """Build a platform from a list of device classes.

        A single class yields the equivalent homogeneous platform (and
        compares equal to one built with the legacy constructor); two or
        more classes yield a heterogeneous platform whose FPGAs are indexed
        class-major (every FPGA of class 0 first, then class 1, ...).
        """
        classes = tuple(classes)
        if not classes:
            raise ValueError("a platform needs at least one device class")
        first = classes[0]
        return cls(
            device=first.device,
            num_fpgas=sum(device_class.count for device_class in classes),
            resource_limit=first.resource_limit,
            bandwidth_limit=first.bandwidth_limit,
            name=name,
            classes=classes if len(classes) > 1 else None,
        )

    # ------------------------------------------------------------------ #
    # Device-class view
    # ------------------------------------------------------------------ #
    @property
    def is_homogeneous(self) -> bool:
        """True when every FPGA is identical (exactly one device class)."""
        return self.classes is None

    @property
    def device_classes(self) -> tuple[DeviceClass, ...]:
        """The platform's device classes (one synthesised class when homogeneous)."""
        if self.classes is not None:
            return self.classes
        return (
            DeviceClass(
                device=self.device,
                count=self.num_fpgas,
                resource_limit=self.resource_limit,
                bandwidth_limit=self.bandwidth_limit,
            ),
        )

    def fpga_class_indices(self) -> tuple[int, ...]:
        """Class index of every FPGA, in platform (class-major) FPGA order."""
        indices: list[int] = []
        for class_index, device_class in enumerate(self.device_classes):
            indices.extend([class_index] * device_class.count)
        return tuple(indices)

    def class_of_fpga(self, fpga_index: int) -> DeviceClass:
        """The device class hosting one FPGA."""
        if not 0 <= fpga_index < self.num_fpgas:
            raise IndexError(f"FPGA index {fpga_index} out of range 0..{self.num_fpgas - 1}")
        if self.classes is None:
            return self.device_classes[0]
        remaining = fpga_index
        for device_class in self.classes:
            if remaining < device_class.count:
                return device_class
            remaining -= device_class.count
        raise IndexError(fpga_index)  # pragma: no cover - guarded above

    # ------------------------------------------------------------------ #
    # Per-FPGA expansion
    # ------------------------------------------------------------------ #
    def fpga_resource_limits(self) -> tuple[ResourceVector, ...]:
        """Per-FPGA resource caps in platform FPGA order."""
        if self.classes is None:
            return (self.resource_limit,) * self.num_fpgas
        limits: list[ResourceVector] = []
        for device_class in self.classes:
            limits.extend([device_class.resource_limit] * device_class.count)
        return tuple(limits)

    def fpga_bandwidth_limits(self) -> tuple[float, ...]:
        """Per-FPGA bandwidth caps in platform FPGA order."""
        if self.classes is None:
            return (self.bandwidth_limit,) * self.num_fpgas
        limits: list[float] = []
        for device_class in self.classes:
            limits.extend([device_class.bandwidth_limit] * device_class.count)
        return tuple(limits)

    def fpga_resource_limit(self, fpga_index: int) -> ResourceVector:
        """Resource cap of one FPGA."""
        return self.class_of_fpga(fpga_index).resource_limit

    def fpga_bandwidth_limit(self, fpga_index: int) -> float:
        """Bandwidth cap of one FPGA."""
        return self.class_of_fpga(fpga_index).bandwidth_limit

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def total_resources(self) -> ResourceVector:
        """Aggregate resource capacity of the whole platform."""
        if self.classes is None:
            return self.resource_limit * self.num_fpgas
        total = ResourceVector.zeros()
        for device_class in self.classes:
            total = total + device_class.resource_limit * device_class.count
        return total

    def total_bandwidth(self) -> float:
        """Aggregate bandwidth capacity (percent-of-reference-FPGA units)."""
        if self.classes is None:
            return self.bandwidth_limit * self.num_fpgas
        return sum(
            device_class.bandwidth_limit * device_class.count for device_class in self.classes
        )

    # ------------------------------------------------------------------ #
    # Constraint sweeps
    # ------------------------------------------------------------------ #
    def with_resource_limit(self, limit_percent: float) -> "MultiFPGAPlatform":
        """Return a copy with the per-FPGA resource cap set to ``limit_percent``.

        This is the knob swept on the x-axis of Figures 2-5 ("Resource
        Constraint (%)").  The same percentage cap is applied to every
        resource kind of every FPGA, so on a heterogeneous platform it
        flattens any per-class skew (the skew sweep builds its own
        platforms instead).
        """
        if limit_percent <= 0:
            raise ValueError("resource limit must be positive")
        uniform = ResourceVector.full(limit_percent)
        if self.classes is None:
            return replace(self, resource_limit=uniform)
        classes = tuple(
            replace(device_class, resource_limit=uniform) for device_class in self.classes
        )
        return replace(self, resource_limit=uniform, classes=classes)

    def with_bandwidth_limit(self, limit_percent: float) -> "MultiFPGAPlatform":
        """Return a copy with a uniform per-FPGA bandwidth cap on every class."""
        if limit_percent <= 0:
            raise ValueError("bandwidth limit must be positive")
        if self.classes is None:
            return replace(self, bandwidth_limit=limit_percent)
        classes = tuple(
            replace(device_class, bandwidth_limit=limit_percent)
            for device_class in self.classes
        )
        return replace(self, bandwidth_limit=limit_percent, classes=classes)

    def with_num_fpgas(self, num_fpgas: int) -> "MultiFPGAPlatform":
        """Return a copy with a different FPGA count (homogeneous platforms only).

        Heterogeneous platforms have no single count to scale; rebuild them
        from classes instead.
        """
        if self.classes is not None:
            raise ValueError(
                "with_num_fpgas is ambiguous on a heterogeneous platform; "
                "rebuild it with MultiFPGAPlatform.from_classes"
            )
        return replace(self, num_fpgas=num_fpgas)

    def scaled_resource_limit(self, extra_percent: float) -> ResourceVector:
        """First-class resource cap relaxed by ``extra_percent`` points.

        Algorithm 1 searches "in the vicinity of the initial resource
        constraint": ``Rc = R + i * delta`` while ``Rc < R + T``; the relaxed
        cap never exceeds the full device (100 %).  On a heterogeneous
        platform this describes the first class only -- the allocator uses
        :meth:`fpga_scaled_resource_limits` for the whole fleet.
        """
        return self._relaxed(self.resource_limit, extra_percent)

    def fpga_scaled_resource_limits(self, extra_percent: float) -> tuple[ResourceVector, ...]:
        """Per-FPGA resource caps relaxed by ``extra_percent`` points each."""
        return tuple(
            self._relaxed(limit, extra_percent) for limit in self.fpga_resource_limits()
        )

    @staticmethod
    def _relaxed(limit: ResourceVector, extra_percent: float) -> ResourceVector:
        relaxed = {
            kind: min(100.0, value + extra_percent) for kind, value in limit.as_dict().items()
        }
        return ResourceVector.from_mapping(relaxed)

    def describe(self) -> str:
        """One-line human readable description."""
        if self.classes is None:
            return (
                f"{self.name}: {self.num_fpgas} x {self.device.name}, "
                f"R={self.resource_limit.max_component():.1f}%, "
                f"B={self.bandwidth_limit:.1f}%"
            )
        parts = " + ".join(device_class.describe() for device_class in self.classes)
        return f"{self.name}: {parts}"
