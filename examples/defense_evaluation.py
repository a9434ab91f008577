"""Defense evaluation: the paper's two countermeasures (§6).

Compares the loop-counting attack's closed-world accuracy under:

* the browser's default (jittered) timer — no defense,
* the randomized timer (random increments at random intervals), and
* spurious-interrupt noise injection (with its +15.7 % page-load cost).

Run:  python examples/defense_evaluation.py
"""

from repro import CHROME, SMOKE, FingerprintingPipeline, MachineConfig
from repro.defenses.interrupt_noise import PAGE_LOAD_OVERHEAD, interrupt_noise_hooks
from repro.timers.spec import RANDOMIZED_DEFENSE_TIMER

SCALE = SMOKE.with_(traces_per_site=8)


def evaluate(label, timer=None, noise=None) -> None:
    pipeline = FingerprintingPipeline(
        MachineConfig(), CHROME, scale=SCALE, timer=timer, seed=11
    )
    result = pipeline.run_closed_world(noise=noise)
    print(f"  {label:32s} top-1 {result.top1.as_percent()}%")


def main() -> None:
    base_rate = 100.0 / SCALE.n_sites
    print(
        f"Loop-counting attack vs defenses "
        f"({SCALE.n_sites} sites, base rate {base_rate:.1f}%):"
    )
    evaluate("no defense (Chrome jittered)")
    evaluate("randomized timer (Δ=1ms)", timer=RANDOMIZED_DEFENSE_TIMER)
    evaluate("spurious-interrupt noise", noise=interrupt_noise_hooks())
    print(
        f"\ninterrupt-noise cost: page loads slow down by "
        f"{(PAGE_LOAD_OVERHEAD - 1) * 100:.1f}% (paper: 3.12 s -> 3.61 s)"
    )
    print("paper reference: 96.6% undefended -> 5.2% randomized timer, 70.7% noise")


if __name__ == "__main__":
    main()
