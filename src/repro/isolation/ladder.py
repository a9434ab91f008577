"""The Table-3 isolation ladder.

The paper evaluates the Python loop-counting attacker under isolation
mechanisms added *incrementally*: each configuration inherits all
mechanisms of the previous one.

1. Default — no isolation.
2. + Disable frequency scaling (``cpufreq-set`` pins 2.5 GHz).
3. + Pin attacker and victim to separate cores (``taskset``).
4. + Remove IRQ interrupts (``irqbalance`` binds movable IRQs to core 0;
   timer ticks, softirqs, rescheduling IPIs and TLB shootdowns cannot be
   moved and stay on the attacker's core).
5. + Run attacker and victim in separate VMs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sim.machine import MachineConfig
from repro.sim.vm import SEPARATE_VMS


@dataclass(frozen=True)
class IsolationStep:
    """One rung of the ladder: a label and a full machine config."""

    name: str
    machine: MachineConfig


def isolation_ladder(base: MachineConfig | None = None) -> list[IsolationStep]:
    """The five Table-3 configurations, in order."""
    default = base or MachineConfig()
    no_dvfs = default.with_isolation(
        frequency=replace(default.frequency, scaling_enabled=False)
    )
    pinned = no_dvfs.with_isolation(pin_cores=True)
    irqbalanced = pinned.with_isolation(irqbalance=True)
    vms = irqbalanced.with_isolation(vm=SEPARATE_VMS)
    return [
        IsolationStep("Default", default),
        IsolationStep("+ Disable frequency scaling", no_dvfs),
        IsolationStep("+ Pin to separate cores", pinned),
        IsolationStep("+ Remove IRQ interrupts", irqbalanced),
        IsolationStep("+ Run in separate VMs", vms),
    ]
