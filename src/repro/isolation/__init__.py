"""Isolation mechanisms evaluated in Table 3."""

from repro.isolation.ladder import IsolationStep, isolation_ladder

__all__ = ["IsolationStep", "isolation_ladder"]
