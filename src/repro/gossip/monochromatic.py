"""Monochromatic distance (Becchetti et al., SODA'15).

The paper's related-work section recalls that in the Gossip model the
USD reaches consensus in ``O(md(c) · log n)`` rounds w.h.p., where
``md(c)`` is the *monochromatic distance* of the initial configuration:

.. math::

    \\mathrm{md}(\\mathbf{c}) \\;=\\; \\sum_{i=1}^{k} \\left(
        \\frac{c_i}{c_{\\max}} \\right)^2

with ``c_max`` the largest opinion support.  It measures how far the
configuration is from monochromatic: ``1`` for consensus-like
configurations and up to ``k`` for perfectly balanced ones.

Experiment ``model-comparison`` uses this to check the
``md(c) · log n`` law empirically against our gossip engine.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from ..core.configuration import Configuration
from ..errors import ConfigurationError

__all__ = ["monochromatic_distance", "md_time_bound"]


def monochromatic_distance(config: Union[Configuration, np.ndarray]) -> float:
    """``md(c) = Σ_i (c_i / c_max)²`` over the opinion supports.

    Accepts an opinion-level :class:`Configuration` (undecided agents
    are ignored, matching the definition over opinion supports) or a
    bare vector of opinion counts.
    """
    if isinstance(config, Configuration):
        counts = np.asarray(config.opinion_counts, dtype=float)
    else:
        counts = np.asarray(config, dtype=float)
        if counts.ndim != 1:
            raise ConfigurationError("opinion counts must be a 1-D vector")
        if np.any(counts < 0):
            raise ConfigurationError("opinion counts must be non-negative")
    top = counts.max() if counts.size else 0.0
    if top <= 0:
        raise ConfigurationError("monochromatic distance needs a non-empty support")
    ratios = counts / top
    return float(np.dot(ratios, ratios))


def md_time_bound(config: Union[Configuration, np.ndarray], n: int) -> float:
    """The Becchetti et al. Gossip-model time scale ``md(c) · ln n``.

    Returned without the (unknown) leading constant; experiments fit the
    constant empirically and check the *shape*.
    """
    if n < 2:
        raise ConfigurationError(f"population must have at least 2 agents, got {n}")
    return monochromatic_distance(config) * math.log(n)
