"""Structural comparison for differential-oracle outputs.

Oracle callables return plain structures — nested dicts / lists /
tuples whose leaves are numpy arrays, numbers, strings, booleans or
``None``.  :func:`diff_structures` walks a reference and an optimized
structure in lockstep and returns a human-readable description of the
*first* divergence (with its path, e.g. ``$.cores[1].arrivals``), or
``None`` when the structures agree under the requested mode.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np

#: Leaves treated as scalars (compared by value, never recursed into).
_SCALAR_TYPES = (str, bytes, bool, int, float, complex, type(None))


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, bool
    )


def _is_integer(value: Any) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _format_value(value: Any) -> str:
    if isinstance(value, np.ndarray):
        return f"ndarray(shape={value.shape}, dtype={value.dtype})"
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _first_array_mismatch(a: np.ndarray, b: np.ndarray, close: np.ndarray) -> str:
    bad = np.flatnonzero(~np.ravel(close))
    index = int(bad[0])
    where = np.unravel_index(index, a.shape) if a.ndim > 1 else index
    return (
        f"first mismatch at element {where}: "
        f"{a.ravel()[index]!r} vs {b.ravel()[index]!r} "
        f"({len(bad)} of {a.size} elements differ)"
    )


def _same_floats(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit mode on real floats: equal with equal sign bits, or both NaN."""
    return ((a == b) & (np.signbit(a) == np.signbit(b))) | (np.isnan(a) & np.isnan(b))


def _diff_arrays(
    a: np.ndarray, b: np.ndarray, mode: str, rtol: float, atol: float, path: str
) -> Optional[str]:
    if a.shape != b.shape:
        return f"{path}: array shapes differ: {a.shape} vs {b.shape}"
    if a.dtype.kind != b.dtype.kind:
        return f"{path}: array dtype kinds differ: {a.dtype} vs {b.dtype}"
    if a.size == 0:
        return None
    if a.dtype.kind in "fc":
        if mode == "bit" and a.dtype.kind == "c":
            close = _same_floats(a.real, b.real) & _same_floats(a.imag, b.imag)
        elif mode == "bit":
            close = _same_floats(a, b)
        else:
            close = np.isclose(a, b, rtol=rtol, atol=atol, equal_nan=True)
    else:
        close = a == b
    if bool(np.all(close)):
        return None
    return f"{path}: {_first_array_mismatch(a, b, np.asarray(close))}"


def diff_structures(
    reference: Any,
    optimized: Any,
    mode: str = "bit",
    rtol: float = 1e-9,
    atol: float = 0.0,
    path: str = "$",
) -> Optional[str]:
    """First divergence between two structures, or ``None`` if equal.

    ``mode`` is ``"bit"`` (exact equality, and two floats must also
    agree in sign, so ``0.0`` and ``-0.0`` differ; NaNs compare equal to
    NaNs; two integers compare as integers, an integer and a float as
    floats) or ``"allclose"`` (numbers within ``rtol``/``atol``).  Containers
    must match in type-shape exactly under either mode.
    """
    a, b = reference, optimized
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return (
                f"{path}: types differ: {type(a).__name__} vs {type(b).__name__}"
            )
        return _diff_arrays(a, b, mode, rtol, atol, path)
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            only_a = sorted(set(a) - set(b))
            only_b = sorted(set(b) - set(a))
            return (
                f"{path}: dict keys differ "
                f"(only in reference: {only_a}, only in optimized: {only_b})"
            )
        for key in sorted(a, key=repr):
            found = diff_structures(
                a[key], b[key], mode=mode, rtol=rtol, atol=atol,
                path=f"{path}.{key}",
            )
            if found:
                return found
        return None
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return f"{path}: lengths differ: {len(a)} vs {len(b)}"
        for i, (item_a, item_b) in enumerate(zip(a, b)):
            found = diff_structures(
                item_a, item_b, mode=mode, rtol=rtol, atol=atol,
                path=f"{path}[{i}]",
            )
            if found:
                return found
        return None
    if mode == "bit" and _is_integer(a) and _is_integer(b):
        # Exact: ints past 2**53 (RNG states, hashes) collide as floats.
        if int(a) != int(b):
            return f"{path}: numbers differ: {a!r} vs {b!r}"
        return None
    if _is_number(a) and _is_number(b):
        a_f, b_f = float(a), float(b)
        if math.isnan(a_f) and math.isnan(b_f):
            return None
        if mode == "bit":
            equal = a_f == b_f and math.copysign(1.0, a_f) == math.copysign(1.0, b_f)
        else:
            equal = math.isclose(a_f, b_f, rel_tol=rtol, abs_tol=atol)
        if not equal:
            return f"{path}: numbers differ: {a!r} vs {b!r}"
        return None
    if type(a) is not type(b):
        return f"{path}: types differ: {type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, _SCALAR_TYPES):
        if a != b:
            return f"{path}: values differ: {_format_value(a)} vs {_format_value(b)}"
        return None
    return f"{path}: unsupported leaf type {type(a).__name__} in oracle output"


__all__ = ["diff_structures"]
