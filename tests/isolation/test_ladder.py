"""Tests for the Table-3 isolation ladder."""

import pytest

from repro.isolation.ladder import isolation_ladder
from repro.sim.machine import MachineConfig


class TestLadder:
    def test_five_rungs_in_paper_order(self):
        names = [step.name for step in isolation_ladder()]
        assert names == [
            "Default",
            "+ Disable frequency scaling",
            "+ Pin to separate cores",
            "+ Remove IRQ interrupts",
            "+ Run in separate VMs",
        ]

    def test_mechanisms_accumulate(self):
        """Each configuration inherits all previous mechanisms (§5.1)."""
        steps = isolation_ladder()
        default, no_dvfs, pinned, irqbalanced, vms = [s.machine for s in steps]
        assert default.frequency.scaling_enabled
        assert not no_dvfs.frequency.scaling_enabled
        assert not no_dvfs.pin_cores
        assert pinned.pin_cores and not pinned.frequency.scaling_enabled
        assert irqbalanced.irqbalance and irqbalanced.pin_cores
        assert vms.vm.enabled and vms.irqbalance and vms.pin_cores
        assert not vms.frequency.scaling_enabled

    def test_default_rung_has_no_isolation(self):
        default = isolation_ladder()[0].machine
        assert not default.pin_cores
        assert not default.irqbalance
        assert not default.vm.enabled

    def test_custom_base(self):
        base = MachineConfig(n_cores=8)
        steps = isolation_ladder(base)
        assert all(s.machine.n_cores == 8 for s in steps)
