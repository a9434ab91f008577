"""Ablation benchmarks for the design choices DESIGN.md §7 calls out.

These are not paper tables; they isolate the mechanisms behind them:

* the sweep-counting attacker's cache-vs-interrupt signal split (drives
  the Table 2 contrast),
* irqbalance steering movable IRQs off the attacker core, and softirq
  placement as the non-movable leakage path that remains (both drive
  Table 3's irqbalance rung),
* the VM amplification factor (drives Table 3's final rung), and
* the classifier backends on identical data.
"""

from dataclasses import replace

import numpy as np

from repro.config import SMOKE
from repro.core.attacker import SweepCountingAttacker
from repro.core.pipeline import FingerprintingPipeline
from repro.ml.models import FeatureFingerprinter, LstmFingerprinter
from repro.sim.machine import InterruptSynthesizer, MachineConfig
from repro.sim.vm import VmConfig
from repro.workload.browser import CHROME, LINUX
from repro.workload.website import profile_for

ABLATION_SCALE = SMOKE.with_(n_sites=6, traces_per_site=6, trace_seconds=4.0)


def closed_world_accuracy(attacker=None, machine=None, scale=ABLATION_SCALE, seed=0):
    pipeline = FingerprintingPipeline(
        machine or MachineConfig(os=LINUX), CHROME,
        attacker=attacker, scale=scale, seed=seed,
    )
    return pipeline.run_closed_world().top1.mean


def attacker_stolen_ns(machine, site_name, seeds, horizon_ns=4_000_000_000):
    """Total time stolen from the attacker core over one load per seed."""
    synthesizer = InterruptSynthesizer(machine)
    site = profile_for(site_name)
    total = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        timeline = site.generate_load(rng, horizon_ns)
        run = synthesizer.synthesize(timeline, style=site.style, rng=rng)
        total += run.attacker_timeline.gaps.total_stolen_ns
    return total


def test_sweep_signal_is_not_the_cache():
    """Removing the cache channel entirely barely moves the sweep attack:
    its discriminative signal is the interrupt channel (Takeaway 2)."""
    with_cache = closed_world_accuracy(attacker=SweepCountingAttacker())
    no_cache = closed_world_accuracy(attacker=SweepCountingAttacker(occupancy_coupling=0.0))
    base = 1.0 / ABLATION_SCALE.n_sites
    assert no_cache > 1.5 * base  # interrupt channel alone classifies
    assert abs(with_cache - no_cache) < 0.25  # cache adds little


def test_irqbalance_removes_stolen_time():
    """Accuracy saturates at simulator scale (Table 3's rungs barely
    move), so check the mechanism directly: with pinned cores, irqbalance
    steers movable IRQs away and the attacker core loses less time."""

    def stolen(irqbalance):
        machine = MachineConfig(os=LINUX, pin_cores=True, irqbalance=irqbalance)
        return attacker_stolen_ns(machine, "nytimes.com", range(4), 8_000_000_000)

    assert stolen(irqbalance=True) < stolen(irqbalance=False)


def test_nonmovable_placement_is_the_irqbalance_leak():
    """With irqbalance on, the attacker's signal survives only because
    the kernel places softirqs/IPIs on arbitrary cores.  Forcing all
    deferred work to follow its (pinned) trigger core kills most of the
    remaining leakage on the attacker core."""

    def stolen(follow_probability):
        os_spec = replace(LINUX, softirq_follow_probability=follow_probability)
        machine = MachineConfig(os=os_spec, irqbalance=True, pin_cores=True)
        return attacker_stolen_ns(machine, "nytimes.com", range(3))

    assert stolen(1.0) < 0.8 * stolen(0.6)


def test_vm_amplification_scales_signal():
    """Stolen time grows monotonically with the VM amplification factor
    (the §5.1 explanation for Table 3's counter-intuitive last rung)."""

    def stolen(amplification):
        vm = VmConfig(enabled=True, amplification=amplification)
        machine = MachineConfig(os=LINUX, pin_cores=True, irqbalance=True, vm=vm)
        return attacker_stolen_ns(machine, "amazon.com", [1])

    assert stolen(1.0) < stolen(1.8) < stolen(2.6)


def test_classifier_backends_agree():
    """The fast feature backend and the paper's CNN+LSTM reach comparable
    conclusions on identical data (the backend substitution is sound)."""
    pipeline = FingerprintingPipeline(
        MachineConfig(os=LINUX), CHROME,
        scale=ABLATION_SCALE.with_(n_sites=4, traces_per_site=20), seed=2,
    )
    x, labels = pipeline.collect_closed_world()
    from repro.ml.encoding import LabelEncoder

    encoder = LabelEncoder()
    y = encoder.fit_transform(labels)
    split = np.arange(len(y)) % 5 != 0
    base = 1.0 / encoder.n_classes

    feature = FeatureFingerprinter(seed=0).fit(x[split], y[split], encoder.n_classes)
    feature_accuracy = (feature.predict_proba(x[~split]).argmax(axis=1) == y[~split]).mean()
    lstm = LstmFingerprinter(
        conv_filters=16, lstm_units=16, dropout=0.2, epochs=80,
        learning_rate=0.003, patience=25, batch_size=16, seed=0,
    ).fit(x[split], y[split], encoder.n_classes)
    lstm_accuracy = (lstm.predict_proba(x[~split]).argmax(axis=1) == y[~split]).mean()
    assert feature_accuracy > 2 * base
    assert lstm_accuracy > 2 * base
