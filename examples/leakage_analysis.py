"""Leakage analysis: prove the attack's signal comes from interrupts.

Reproduces the paper's §5.2 methodology end to end:

1. simulate a victim page load with the attacker pinned to one core,
2. observe execution gaps from user space (the Rust clock poller),
3. log interrupts from the kernel side (the eBPF tracer),
4. attribute every gap >100 ns to the interrupts inside it, and
5. profile per-type handling times (Fig 6) and handler-time share
   over the load (Fig 5).

Run:  python examples/leakage_analysis.py
"""

import numpy as np

from repro import InterruptSynthesizer, InterruptType, MachineConfig, profile_for
from repro.core.analysis import analyze_run
from repro.experiments.base import sparkline
from repro.sim.events import MS, US, seconds_to_ns
from repro.tracing.attribution import attribute_every_core
from repro.tracing.ebpf import KprobeTracer
from repro.tracing.histograms import FIG6_TYPES, gap_length_histograms


def main() -> None:
    # irqbalance + pinning: only non-movable interrupts can reach the
    # attacker's core, as in the paper's Fig 5 experiment.
    machine = MachineConfig(irqbalance=True, pin_cores=True)
    synthesizer = InterruptSynthesizer(machine)
    rng = np.random.default_rng(42)
    site = profile_for("weather.com")
    timeline = site.generate_load(rng, seconds_to_ns(15.0))
    run = synthesizer.synthesize(timeline, style=site.style, rng=rng)

    analysis = analyze_run(run)
    print(f"victim: {site.name}")
    print(f"observed gaps > 100 ns: {len(analysis.observed_gaps)}")
    print(
        f"attributed to interrupts: {analysis.attributed_fraction * 100:.2f}% "
        "(paper: >99%)"
    )
    print(f"core time stolen by handlers: {analysis.stolen_fraction * 100:.2f}%")

    counter = analysis.attribution.type_counter()
    print("\ninterrupt types participating in gaps:")
    for itype, count in counter.most_common():
        print(f"  {itype.value:18s} {count:7d}")

    tracer = KprobeTracer(run)
    times, fraction = tracer.handler_time_fraction(100 * MS)
    print("\nhandler-time share over the load (Fig 5):")
    print(f"  peak {fraction.max() * 100:.1f}%   {sparkline(fraction, width=60)}")

    print("\ngap-length distributions (Fig 6, all cores):")
    histograms = gap_length_histograms(attribute_every_core([run]))
    for itype in FIG6_TYPES:
        hist = histograms[itype]
        if not hist.n_samples:
            continue
        print(
            f"  {itype.value:18s} n={hist.n_samples:6d} "
            f"min={hist.min_ns() / US:5.2f}us mode={hist.mode_ns() / US:5.2f}us  "
            f"{sparkline(hist.counts, width=40)}"
        )


if __name__ == "__main__":
    main()
