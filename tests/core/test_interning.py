"""Tests for repro.core.interning: packed profile storage width."""

import numpy as np

from repro.core.interning import packed_dtype_for
from repro.core.profile import MachineShape, ResourceGroup


def small_shape() -> MachineShape:
    return MachineShape(
        groups=(
            ResourceGroup(name="cpu", capacities=(4, 4, 4), anti_collocation=True),
            ResourceGroup(name="mem", capacities=(8,), anti_collocation=False),
        )
    )


class TestPackedDtype:
    def test_small_caps_pack_to_uint8(self):
        assert packed_dtype_for(small_shape()) == np.dtype(np.uint8)

    def test_medium_caps_pack_to_uint16(self):
        shape = MachineShape(
            groups=(
                ResourceGroup(
                    name="mem", capacities=(300,), anti_collocation=False
                ),
            )
        )
        assert packed_dtype_for(shape) == np.dtype(np.uint16)

    def test_large_caps_pack_to_uint32(self):
        shape = MachineShape(
            groups=(
                ResourceGroup(
                    name="disk", capacities=(70_000,), anti_collocation=False
                ),
            )
        )
        assert packed_dtype_for(shape) == np.dtype(np.uint32)
