"""Exception types shared across the package."""

from __future__ import annotations


class NumericalFailureError(RuntimeError):
    """A solver or root-finder produced a non-finite or inconsistent state."""


class ConfigurationError(ValueError):
    """An experiment configuration is inconsistent or incomplete."""
