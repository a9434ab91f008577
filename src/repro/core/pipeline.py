"""End-to-end website-fingerprinting pipeline (paper §4.1).

Combines trace collection, label encoding, classifier training and
cross-validated evaluation for both of the paper's setups:

* **closed world** — the attacker knows all N candidate sites and
  classifies among them (base rate 1/N);
* **open world** — the attacker knows N "sensitive" sites; the victim
  also visits unknown sites, all labeled "non-sensitive", forming an
  (N+1)-class problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.config import DEFAULT, Scale
from repro.core.attacker import Attacker, LoopCountingAttacker
from repro.core.collector import NoiseHooks, TraceCollector
from repro.ml.crossval import CrossValResult, cross_validate, fold_probabilities
from repro.ml.encoding import LabelEncoder
from repro.ml.metrics import open_world_metrics
from repro.ml.models import make_fingerprinter
from repro.sim.events import MS
from repro.sim.machine import MachineConfig
from repro.stats.summary import MeanStd
from repro.timers.spec import TimerSpec
from repro.workload.browser import Browser
from repro.workload.catalog import NON_SENSITIVE_LABEL, closed_world, open_world
from repro.workload.website import WebsiteProfile

from dataclasses import replace as _dc_replace


@dataclass
class OpenWorldResult:
    """Open-world accuracies, matching Table 1's three sub-columns.

    ``false_accusation_rate`` and ``missed_sensitive_rate`` decompose
    the errors from the attacker's deployment perspective (see
    :mod:`repro.ml.metrics`).
    """

    sensitive: MeanStd
    non_sensitive: MeanStd
    combined: MeanStd
    false_accusation_rate: MeanStd | None = None
    missed_sensitive_rate: MeanStd | None = None


@dataclass(frozen=True)
class _BackendFactory:
    """Picklable ``make_classifier(fold)`` for parallel cross-validation."""

    backend: str
    seed: int

    def __call__(self, fold: int):
        return make_fingerprinter(self.backend, seed=self.seed + fold)


class FingerprintingPipeline:
    """One attack configuration, ready to evaluate.

    Everything after ``machine``/``browser`` is keyword-only; prefer
    :meth:`from_spec`, which also accepts a
    :class:`~repro.engine.context.RunContext` so experiments never
    hand-wire :class:`~repro.core.collector.TraceCollector` internals.
    """

    def __init__(
        self,
        machine: MachineConfig,
        browser: Browser,
        *,
        attacker: Optional[Attacker] = None,
        scale: Scale = DEFAULT,
        timer: Optional[TimerSpec] = None,
        seed: int = 0,
        engine=None,
    ):
        self.machine = machine
        self.scale = scale
        self.seed = int(seed)
        self.engine = engine
        trace_seconds = scale.scaled_trace_seconds(browser.trace_seconds)
        self.browser = _dc_replace(browser, trace_seconds=trace_seconds)
        self.attacker = attacker or LoopCountingAttacker()
        self.collector = TraceCollector(
            machine,
            self.browser,
            attacker=self.attacker,
            period_ns=int(scale.period_ms * MS),
            timer=timer,
            seed=seed,
            engine=engine,
        )

    @classmethod
    def from_spec(
        cls,
        machine: MachineConfig,
        browser: Browser,
        *,
        ctx=None,
        attacker: Optional[Attacker] = None,
        scale: Optional[Scale] = None,
        timer: Optional[TimerSpec] = None,
        seed: Optional[int] = None,
        engine=None,
    ) -> "FingerprintingPipeline":
        """Build a pipeline from declarative parts.

        A :class:`~repro.engine.context.RunContext` supplies scale, seed
        and engine defaults; explicit keyword arguments override it.
        """
        if ctx is not None:
            scale = scale if scale is not None else ctx.scale
            seed = seed if seed is not None else ctx.seed
            engine = engine if engine is not None else ctx.engine
        return cls(
            machine,
            browser,
            attacker=attacker,
            scale=scale if scale is not None else DEFAULT,
            timer=timer,
            seed=seed if seed is not None else 0,
            engine=engine,
        )

    # ------------------------------------------------------------------

    def sites(self) -> list[WebsiteProfile]:
        """The closed-world candidate sites at this scale."""
        return closed_world(self.scale.n_sites)

    def collect_closed_world(
        self, noise: Optional[NoiseHooks] = None
    ) -> tuple[np.ndarray, list[str]]:
        """Closed-world dataset ``(X, labels)``."""
        with obs.span(
            "pipeline.collect",
            sites=self.scale.n_sites,
            traces_per_site=self.scale.traces_per_site,
        ):
            return self.collector.collect(
                self.sites(), self.scale.traces_per_site, noise=noise
            ).stacked()

    def run_closed_world(self, noise: Optional[NoiseHooks] = None) -> CrossValResult:
        """Collect and cross-validate the closed-world experiment."""
        x, labels = self.collect_closed_world(noise=noise)
        return self.evaluate(x, labels)

    def evaluate(self, x: np.ndarray, labels: Sequence[str]) -> CrossValResult:
        """Cross-validate this pipeline's classifier on a dataset."""
        encoder = LabelEncoder()
        y = encoder.fit_transform(list(labels))
        with obs.span(
            "pipeline.evaluate",
            backend=self.scale.backend,
            folds=self.scale.n_folds,
            samples=len(x),
        ):
            return cross_validate(
                _BackendFactory(self.scale.backend, self.seed),
                x,
                y,
                n_classes=encoder.n_classes,
                n_folds=self.scale.n_folds,
                seed=self.seed,
                engine=self.engine,
            )

    # ------------------------------------------------------------------

    def run_open_world(self, noise: Optional[NoiseHooks] = None) -> OpenWorldResult:
        """The paper's open-world experiment (§4.1, Table 1 right half)."""
        with obs.span("pipeline.open_world", sites=self.scale.open_world_sites):
            return self._run_open_world(noise)

    def _run_open_world(self, noise: Optional[NoiseHooks]) -> OpenWorldResult:
        x_sensitive, labels = self.collect_closed_world(noise=noise)
        open_sites = open_world(self.scale.open_world_sites)
        x_open, open_labels = self.collector.collect(
            open_sites,
            noise=noise,
            labels=[NON_SENSITIVE_LABEL] * len(open_sites),
        ).stacked()
        x = np.concatenate([x_sensitive, x_open])
        all_labels = list(labels) + list(open_labels)
        encoder = LabelEncoder()
        y = encoder.fit_transform(all_labels)
        non_sensitive = int(encoder.transform([NON_SENSITIVE_LABEL])[0])
        correct, sensitive, errors = [], [], []
        for truth, probs in fold_probabilities(
            _BackendFactory(self.scale.backend, self.seed),
            x,
            y,
            encoder.n_classes,
            self.scale.n_folds,
            self.seed,
            self.engine,
        ):
            predicted = probs.argmax(axis=1)
            is_sensitive = truth != non_sensitive
            correct.append(predicted == truth)
            sensitive.append(is_sensitive)
            # Folds that hold both kinds of visit decompose the errors.
            if is_sensitive.any() and not is_sensitive.all():
                errors.append(open_world_metrics(truth, predicted, non_sensitive))
        return OpenWorldResult(
            sensitive=_fold_accuracy(correct, sensitive),
            non_sensitive=_fold_accuracy(correct, [~rows for rows in sensitive]),
            combined=MeanStd.of([float(hits.mean()) for hits in correct]),
            false_accusation_rate=(
                MeanStd.of([e.false_accusation_rate for e in errors]) if errors else None
            ),
            missed_sensitive_rate=(
                MeanStd.of([e.missed_sensitive_rate for e in errors]) if errors else None
            ),
        )


def _fold_accuracy(correct: list, rows: list) -> MeanStd:
    """Accuracy over each fold's ``rows``, skipping folds that hold none."""
    return MeanStd.of([float(hits[r].mean()) for hits, r in zip(correct, rows) if r.any()])
