"""Differential-oracle model and registry.

An :class:`Oracle` names a *reference* computation and an *optimized*
computation over the same seeded :class:`Case` inputs, plus a comparison
mode.  Three modes exist:

* ``bit`` — outputs must be bit-identical (equal values with equal sign
  bits on every array element and scalar, so ``0.0`` differs from
  ``-0.0``; NaN equals NaN).  The strongest claim: the
  optimization changed *how*, not *what*.
* ``allclose`` — outputs must agree within ``rtol``/``atol``.  For pairs
  whose floating-point operation *order* legitimately differs (e.g. a
  cumulative-sum identity vs a scalar recurrence).
* ``invariant`` — no reference/optimized pair; a single ``check``
  callable evaluates structural properties of one implementation and
  returns a failure description (or ``None``).

Oracles register into the process-global :data:`ORACLES` table by name.
The registry is rebuilt on import in every process, so sweep tasks can
cross process boundaries carrying only ``(oracle name, Case)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.verify.compare import diff_structures

#: Every comparison mode an oracle may declare.
COMPARISON_MODES = ("bit", "allclose", "invariant")


@dataclass(frozen=True)
class Case:
    """One seeded input configuration an oracle is evaluated on.

    The four fields are exactly the dimensions the shrinker minimizes:
    the seed picks the RNG streams, ``sites``/``traces`` scale the
    workload, and ``horizon_ms`` scales each simulated trace.
    """

    seed: int
    sites: int = 2
    traces: int = 2
    horizon_ms: float = 400.0

    def __post_init__(self) -> None:
        if self.sites < 1 or self.traces < 1:
            raise ValueError("cases need at least one site and one trace")
        if self.horizon_ms <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon_ms}")

    def describe(self) -> str:
        return (
            f"seed={self.seed} sites={self.sites} traces={self.traces} "
            f"horizon_ms={self.horizon_ms:g}"
        )

    def as_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "sites": int(self.sites),
            "traces": int(self.traces),
            "horizon_ms": float(self.horizon_ms),
        }


@dataclass(frozen=True)
class Oracle:
    """One differential (or invariant) correctness oracle."""

    name: str
    description: str
    mode: str
    reference: Optional[Callable[[Case], Any]] = None
    optimized: Optional[Callable[[Case], Any]] = None
    check: Optional[Callable[[Case], Optional[str]]] = None
    rtol: float = 1e-9
    atol: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in COMPARISON_MODES:
            raise ValueError(
                f"unknown comparison mode {self.mode!r}; pick from {COMPARISON_MODES}"
            )
        if self.mode == "invariant":
            if self.check is None or self.reference or self.optimized:
                raise ValueError(
                    f"oracle {self.name}: invariant mode takes exactly a check callable"
                )
        elif self.reference is None or self.optimized is None or self.check:
            raise ValueError(
                f"oracle {self.name}: {self.mode} mode takes reference + optimized"
            )

    def run_case(self, case: Case) -> Optional[str]:
        """Evaluate one case; ``None`` on agreement, a description on failure."""
        if self.mode == "invariant":
            return self.check(case)
        reference = self.reference(case)
        optimized = self.optimized(case)
        return diff_structures(
            reference, optimized, mode=self.mode, rtol=self.rtol, atol=self.atol
        )


#: Process-global oracle registry, keyed by oracle name.
ORACLES: Dict[str, Oracle] = {}


def register(oracle: Oracle) -> Oracle:
    """Add ``oracle`` to the registry; names must be unique."""
    if oracle.name in ORACLES:
        raise ValueError(f"oracle {oracle.name!r} is already registered")
    ORACLES[oracle.name] = oracle
    return oracle


def get_oracle(name: str) -> Oracle:
    """Look up a registered oracle, with a helpful error."""
    try:
        return ORACLES[name]
    except KeyError:
        known = ", ".join(list_oracles()) or "<none>"
        raise KeyError(f"unknown oracle {name!r}; registered: {known}") from None


def list_oracles() -> List[str]:
    """All registered oracle names, sorted."""
    return sorted(ORACLES)
