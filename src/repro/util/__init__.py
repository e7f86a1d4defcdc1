"""Shared utilities: deterministic RNG."""

from repro.util.rng import make_rng

__all__ = ["make_rng"]
