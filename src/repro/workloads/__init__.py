"""Workload generators: initial configurations and sweep grids."""

from .initial import (
    paper_bias,
    paper_initial_configuration,
    plateau_configuration,
    plateau_gap_configuration,
    random_multinomial_configuration,
    two_block_configuration,
    zipf_configuration,
)
from .sweeps import SweepPoint, ensure_unique_labels, k_sweep

__all__ = [
    "SweepPoint",
    "ensure_unique_labels",
    "k_sweep",
    "paper_bias",
    "paper_initial_configuration",
    "plateau_configuration",
    "plateau_gap_configuration",
    "random_multinomial_configuration",
    "two_block_configuration",
    "zipf_configuration",
]
