"""Unit tests of the heterogeneous platform abstraction."""

from __future__ import annotations

import pytest

from repro.platform.fpga import FPGADevice
from repro.platform.multi_fpga import DeviceClass, MultiFPGAPlatform
from repro.platform.presets import (
    XCKU115,
    XCVU9P,
    aws_f1,
    derated_die_platform,
    mixed_fleet,
    relative_bandwidth,
    relative_capacity,
)
from repro.platform.resources import ResourceVector


def two_class_platform() -> MultiFPGAPlatform:
    return MultiFPGAPlatform.from_classes(
        (
            DeviceClass(XCVU9P, 2, ResourceVector.full(70.0), 100.0),
            DeviceClass(XCKU115, 3, ResourceVector.full(35.0), 50.0),
        ),
        name="two-class",
    )


class TestDeviceClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceClass(XCVU9P, 0, ResourceVector.full(50.0))
        with pytest.raises(ValueError):
            DeviceClass(XCVU9P, 1, ResourceVector.full(50.0), bandwidth_limit=0.0)
        with pytest.raises(ValueError):
            DeviceClass(XCVU9P, 1, ResourceVector.zeros())

    def test_describe(self):
        device_class = DeviceClass(XCVU9P, 4, ResourceVector.full(70.0), 80.0)
        text = device_class.describe()
        assert "4 x xcvu9p" in text and "70.0%" in text


class TestFromClasses:
    def test_single_class_equals_homogeneous(self):
        single = MultiFPGAPlatform.from_classes(
            (DeviceClass(XCVU9P, 4, ResourceVector.full(70.0), 100.0),),
            name="aws-f1-4x",
        )
        assert single == aws_f1(num_fpgas=4, resource_limit_percent=70.0)
        assert single.is_homogeneous
        assert single.classes is None

    def test_empty_classes_rejected(self):
        with pytest.raises(ValueError):
            MultiFPGAPlatform.from_classes(())

    def test_counts_and_expansion(self):
        platform = two_class_platform()
        assert not platform.is_homogeneous
        assert platform.num_fpgas == 5
        assert platform.fpga_class_indices() == (0, 0, 1, 1, 1)
        limits = platform.fpga_resource_limits()
        assert [limit.bram for limit in limits] == [70.0, 70.0, 35.0, 35.0, 35.0]
        assert platform.fpga_bandwidth_limits() == (100.0, 100.0, 50.0, 50.0, 50.0)
        assert platform.fpga_resource_limit(0).bram == 70.0
        assert platform.fpga_resource_limit(4).bram == 35.0
        assert platform.fpga_bandwidth_limit(3) == 50.0

    def test_legacy_fields_mirror_first_class(self):
        platform = two_class_platform()
        assert platform.device == XCVU9P
        assert platform.resource_limit == ResourceVector.full(70.0)
        assert platform.bandwidth_limit == 100.0

    def test_mismatched_legacy_fields_rejected(self):
        with pytest.raises(ValueError):
            MultiFPGAPlatform(
                device=XCVU9P,
                num_fpgas=5,
                resource_limit=ResourceVector.full(99.0),  # does not match class 0
                classes=(
                    DeviceClass(XCVU9P, 2, ResourceVector.full(70.0), 100.0),
                    DeviceClass(XCKU115, 3, ResourceVector.full(35.0), 50.0),
                ),
            )

    def test_wrong_total_rejected(self):
        with pytest.raises(ValueError):
            MultiFPGAPlatform(
                device=XCVU9P,
                num_fpgas=9,
                resource_limit=ResourceVector.full(70.0),
                classes=(
                    DeviceClass(XCVU9P, 2, ResourceVector.full(70.0), 100.0),
                    DeviceClass(XCKU115, 3, ResourceVector.full(35.0), 50.0),
                ),
            )


class TestDerivedQuantities:
    def test_totals(self):
        platform = two_class_platform()
        assert platform.total_resources().bram == pytest.approx(2 * 70.0 + 3 * 35.0)
        assert platform.total_bandwidth() == pytest.approx(2 * 100.0 + 3 * 50.0)

    def test_homogeneous_totals_unchanged(self):
        platform = aws_f1(num_fpgas=8, resource_limit_percent=70.0)
        assert platform.total_resources().dsp == 8 * 70.0
        assert platform.total_bandwidth() == 800.0

    def test_describe_lists_classes(self):
        text = two_class_platform().describe()
        assert "xcvu9p" in text and "xcku115" in text


class TestSweeps:
    def test_with_resource_limit_applies_to_every_class(self):
        derated = two_class_platform().with_resource_limit(50.0)
        assert all(
            limit == ResourceVector.full(50.0) for limit in derated.fpga_resource_limits()
        )
        assert not derated.is_homogeneous  # class structure survives

    def test_with_resource_limit_lifts_a_derated_class(self):
        # The cap replaces each class's limit, so a class below it is raised.
        lifted = two_class_platform().with_resource_limit(90.0)
        assert lifted.fpga_resource_limits() == (ResourceVector.full(90.0),) * 5
        assert lifted.resource_limit == ResourceVector.full(90.0)

    def test_with_resource_limit_keeps_devices_counts_and_bandwidth(self):
        platform = two_class_platform()
        derated = platform.with_resource_limit(50.0)
        assert [(c.device, c.count, c.bandwidth_limit) for c in derated.classes] == [
            (c.device, c.count, c.bandwidth_limit) for c in platform.classes
        ]
        assert derated.fpga_bandwidth_limits() == platform.fpga_bandwidth_limits()
        assert derated.num_fpgas == platform.num_fpgas

    @pytest.mark.parametrize("limit", [0.0, -5.0])
    def test_with_resource_limit_rejects_non_positive_on_heterogeneous(self, limit):
        with pytest.raises(ValueError):
            two_class_platform().with_resource_limit(limit)

    def test_with_bandwidth_limit_applies_to_every_class(self):
        capped = two_class_platform().with_bandwidth_limit(25.0)
        assert capped.fpga_bandwidth_limits() == (25.0,) * 5

    def test_with_num_fpgas_rejected_on_heterogeneous(self):
        with pytest.raises(ValueError):
            two_class_platform().with_num_fpgas(4)

    def test_scaled_limits_per_fpga(self):
        platform = two_class_platform()
        relaxed = platform.fpga_scaled_resource_limits(10.0)
        assert relaxed[0].bram == 80.0
        assert relaxed[4].bram == 45.0
        # never exceeds the full device
        assert platform.fpga_scaled_resource_limits(50.0)[0].bram == 100.0


class TestPresets:
    def test_relative_capacity(self):
        relative = relative_capacity(XCKU115)
        assert relative.bram == pytest.approx(100.0)  # same BRAM count as VU9P
        assert relative.lut == pytest.approx(100.0 * 663_360 / 1_182_240)
        assert relative_bandwidth(XCKU115) == pytest.approx(50.0)

    def test_relative_capacity_caps_at_reference(self):
        bigger = FPGADevice(
            name="huge",
            bram_blocks=10_000,
            dsp_slices=10_000,
            luts=10_000_000,
            ffs=10_000_000,
            dram_bandwidth_gbps=500.0,
        )
        assert relative_capacity(bigger).max_component() == 100.0
        assert relative_bandwidth(bigger) == 100.0

    def test_mixed_fleet(self):
        platform = mixed_fleet(2, 2, resource_limit_percent=70.0)
        assert platform.num_fpgas == 4
        assert len(platform.device_classes) == 2
        large, small = platform.device_classes
        assert large.resource_limit == ResourceVector.full(70.0)
        assert small.resource_limit.lut < large.resource_limit.lut
        assert small.bandwidth_limit == pytest.approx(50.0)

    def test_derated_die(self):
        platform = derated_die_platform(2, 2, resource_limit_percent=70.0, derate_percent=80.0)
        full, derated = platform.device_classes
        assert full.resource_limit == ResourceVector.full(70.0)
        assert derated.resource_limit == ResourceVector.full(56.0)
        assert derated.bandwidth_limit == full.bandwidth_limit

    def test_preset_validation(self):
        with pytest.raises(ValueError):
            mixed_fleet(0, 2)
        with pytest.raises(ValueError):
            derated_die_platform(derate_percent=100.0)
