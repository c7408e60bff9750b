"""Input guards shared across modules.

Every exhaustive operation checks its input against a fixed limit before
doing factorial or exponential work.  Limits can be raised (never lowered)
by setting the ARROWQ_GUARD_OVERRIDE environment variable to a positive
integer multiplier.

Each JSON value kind has one reader below; it raises ValueError on anything
else json yields (true, "1", 1.9, NaN, 10**400) instead of coercing it.
"""

import os
from itertools import chain
from math import isfinite
from types import NoneType

import numpy as np

GUARD_ENV = "ARROWQ_GUARD_OVERRIDE"
_NUMBERS = frozenset((int, float))  # type(True) is bool, so true is not one
_ROWS = frozenset((list, NoneType))


class SizeLimitError(ValueError):
    """An input exceeds the configured exhaustive-search size guard."""


def guard_multiplier() -> int:
    raw = os.environ.get(GUARD_ENV)
    if raw is None:
        return 1
    try:
        mult = int(raw)
    except ValueError:
        raise ValueError(f"{GUARD_ENV} must be an integer, got {raw!r}") from None
    if mult < 1:
        raise ValueError(f"{GUARD_ENV} must be >= 1, got {mult}")
    return mult


def check_guard(value: int, base_limit: int, what: str) -> None:
    limit = base_limit * guard_multiplier()
    if value > limit:
        raise SizeLimitError(_exceeds(what, value, limit))


def check_power_guard(base: int, exponent: int, base_limit: int, what: str, factor: int = 1) -> None:
    """check_guard(factor * base ** exponent, base_limit, what) for a factor
    >= 1, without building a power past the limit: once the exponent
    exceeds the limit's bit length, the value >= 2 ** exponent > limit, and
    the message names the power instead of printing it.  The override is
    read once per call."""
    limit = base_limit * guard_multiplier()
    if base > 1 and exponent > limit.bit_length():
        power = f"{base}^{exponent}" if factor == 1 else f"{factor}*{base}^{exponent}"
        raise SizeLimitError(_exceeds(what, power, limit))
    value = factor * base ** exponent
    if value > limit:
        raise SizeLimitError(_exceeds(what, value, limit))


def _exceeds(what: str, value, limit: int) -> str:
    return f"{what} = {value} exceeds the size guard {limit} (set {GUARD_ENV} to raise it)"


# ---- JSON values ----

def json_ints(value, what: str) -> tuple[int, ...]:
    """A JSON list of integers as a tuple."""
    if type(value) is not list or not {int}.issuperset(map(type, value)):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


def json_int_lists(value: list, what: str) -> None:
    """Check that a JSON list's entries are null or lists of integers.  One
    type scan covers every entry and leaf; only when it fails are the
    entries walked, so the error is json_ints's for the first bad entry."""
    kinds = set(map(type, value))
    rows = filter(None, value) if NoneType in kinds else value
    if not (kinds <= _ROWS and {int}.issuperset(map(type, chain.from_iterable(rows)))):
        for row in value:
            if row is not None:
                json_ints(row, what)


def json_floats(value, what: str) -> np.ndarray:
    """A JSON list of finite numbers as a float array."""
    if type(value) is not list or not _NUMBERS.issuperset(map(type, value)):
        raise ValueError(f"{what} must be a list of numbers, got {value!r}")
    try:
        out = np.array(value, dtype=float)
    except OverflowError as exc:  # an int past the float range
        raise ValueError(f"{what} must be finite, got an {exc}") from None
    if not np.isfinite(out).all():
        bad = next(x for x in value if not isfinite(x))
        raise ValueError(f"{what} must be finite, got {bad!r}")
    return out


def json_amplitudes(value, what: str) -> np.ndarray:
    """A JSON list of [re, im] pairs of finite numbers as a complex vector."""
    for z in value if type(value) is list else [value]:
        if (type(z) is not list or len(z) != 2
                or type(z[0]) not in _NUMBERS or type(z[1]) not in _NUMBERS):
            raise ValueError(f"{what} must be an [re, im] pair of numbers, got {z!r}")
    return json_floats([x for z in value for x in z], what).view(complex)


def amplitudes_to_json(amplitudes: np.ndarray) -> list:
    """Complex amplitudes, any shape, as nested lists of [re, im] floats."""
    return np.stack((amplitudes.real, amplitudes.imag), axis=-1).tolist()
