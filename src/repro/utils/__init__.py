"""Shared utilities: deterministic RNG and table formatting."""

from .rng import default_rng, seed_all, spawn
from .tables import format_table, print_table

__all__ = ["default_rng", "seed_all", "spawn", "format_table",
           "print_table"]
