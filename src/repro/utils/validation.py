"""Argument validation helpers.

These raise :class:`repro.exceptions.ConfigurationError` with uniform,
informative messages.  Centralising the checks keeps the algorithmic code
readable and guarantees consistent error reporting across the package.
"""

from __future__ import annotations

from numbers import Real

from repro.exceptions import ConfigurationError


def check_positive(name: str, value: Real) -> None:
    """Require ``value > 0``."""
    if not isinstance(value, Real) or not value > 0:
        raise ConfigurationError(f"{name} must be a positive number, got {value!r}")


def check_non_negative(name: str, value: Real) -> None:
    """Require ``value >= 0``."""
    if not isinstance(value, Real) or value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value!r}")


def check_in_unit_interval(name: str, value: Real, *, closed_low: bool = True) -> None:
    """Require ``value`` in ``[0, 1]`` (or ``(0, 1]`` when *closed_low* is False)."""
    if not isinstance(value, Real):
        raise ConfigurationError(f"{name} must be a number in [0, 1], got {value!r}")
    low_ok = value >= 0 if closed_low else value > 0
    if not (low_ok and value <= 1):
        interval = "[0, 1]" if closed_low else "(0, 1]"
        raise ConfigurationError(f"{name} must be in {interval}, got {value!r}")


def check_fraction(name: str, value: Real) -> None:
    """Require a resource fraction in ``(0, 1]`` (the domain of ``beta``)."""
    check_in_unit_interval(name, value, closed_low=False)


def check_int_at_least(name: str, value, minimum: int) -> None:
    """Require an integer ``value >= minimum``."""
    if not isinstance(value, (int,)) or isinstance(value, bool) or value < minimum:
        raise ConfigurationError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )


def check_max_tasks(value) -> None:
    """Require an optional task-count cap: ``None`` or an integer ``>= 1``."""
    if value is not None and (not isinstance(value, int) or value < 1):
        raise ConfigurationError(
            f"max_tasks must be a positive integer or null, got {value!r}"
        )
