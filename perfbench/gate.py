"""Correctness gate of the benchmark: re-checks every verdict the program returns.

A FALSIFIED verdict is re-checked with a plain numpy forward pass over the
network's affine/ReLU maps: the counterexample must lie inside the input box
and violate one output constraint ``C @ y + d >= 0``.  This module imports
numpy only, so the check shares no code with the bound analysers it judges.

A VERIFIED verdict is attacked with PGD by the caller; the attack's best
input goes through the same check, so the verdict fails only on an input
this module itself confirms as a counterexample.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

#: Containment slack for a counterexample, as in the program's own check.
BOX_TOLERANCE = 1e-9


def forward(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
            point: np.ndarray) -> np.ndarray:
    """Network output at ``point``: ReLU after every affine map but the last."""
    hidden = np.asarray(point, dtype=float).reshape(-1)
    last = len(weights) - 1
    for index, (weight, bias) in enumerate(zip(weights, biases)):
        hidden = weight @ hidden + bias
        if index < last:
            hidden = np.maximum(hidden, 0.0)
    return hidden


def counterexample_error(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
                         lower: np.ndarray, upper: np.ndarray,
                         coefficients: np.ndarray, offsets: np.ndarray,
                         point: Optional[np.ndarray]) -> Optional[str]:
    """Why ``point`` is not a real counterexample, or ``None`` when it is one."""
    if point is None:
        return "FALSIFIED without a counterexample"
    point = np.asarray(point, dtype=float).reshape(-1)
    if point.shape != lower.shape or not np.all(np.isfinite(point)):
        return "counterexample has the wrong shape or is not finite"
    if np.any(point < lower - BOX_TOLERANCE) or np.any(point > upper + BOX_TOLERANCE):
        return "counterexample lies outside the input box"
    margin = float(np.min(coefficients @ forward(weights, biases, point) + offsets))
    if margin >= 0.0:
        return f"counterexample satisfies the property (margin {margin:.3g})"
    return None

