"""Test-local reference analyses: DeepPoly and IBP, one sub-problem at a time.

The library bounds every sub-problem through one batched kernel per
analysis (``DeepPolyAnalyzer.analyze`` and ``interval_bounds`` are its batch
of one), so comparing its single and batched entry points checks the kernel
against itself.  These references are written apart from that kernel: no
batch axis, no cache, no parent reuse, no timings, one substitution
direction per pass and the ReLU relaxation built neuron by neuron.  Only the
data types (``SplitAssignment``, ``ScalarBounds``, ``BoundReport``) are
shared with the library.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds.linear_form import ScalarBounds
from repro.bounds.report import BoundReport
from repro.bounds.splits import ACTIVE, INACTIVE, SplitAssignment
from repro.nn.network import LoweredNetwork
from repro.specs.properties import InputBox, LinearOutputSpec

Relaxation = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _clip(lower: np.ndarray, upper: np.ndarray,
          phases: dict) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Intersect bounds with the decided phases; sort them if that empties them."""
    lower, upper = lower.copy(), upper.copy()
    for unit, phase in phases.items():
        if phase == ACTIVE:
            lower[unit] = max(lower[unit], 0.0)
        elif phase == INACTIVE:
            upper[unit] = min(upper[unit], 0.0)
    if np.all(lower <= upper + 1e-12):
        return lower, upper, False
    return np.minimum(lower, upper), np.maximum(lower, upper), True


def _relaxation(lower: np.ndarray, upper: np.ndarray, phases: dict,
                lower_slopes: Optional[np.ndarray]) -> Relaxation:
    """``ls·z <= ReLU(z) <= us·z + ui`` for each neuron, one at a time."""
    lower_slope = np.zeros(lower.size)
    upper_slope = np.zeros(lower.size)
    upper_intercept = np.zeros(lower.size)
    for unit in range(lower.size):
        phase = phases.get(unit)
        low, high = lower[unit], upper[unit]
        if phase == ACTIVE or low >= 0.0:
            lower_slope[unit] = upper_slope[unit] = 1.0
        elif phase == INACTIVE or high <= 0.0:
            continue
        else:
            slope = high / (high - low)
            upper_slope[unit] = slope
            upper_intercept[unit] = -slope * low
            if lower_slopes is None:
                lower_slope[unit] = 1.0 if high > -low else 0.0
            else:
                lower_slope[unit] = min(max(lower_slopes[unit], 0.0), 1.0)
    return lower_slope, upper_slope, upper_intercept


def _substitute(network: LoweredNetwork, coefficients: np.ndarray,
                constants: np.ndarray, last_hidden: int,
                relaxations: Sequence[Relaxation],
                minimize: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Rewrite ``A @ h_last_hidden + c`` as a form over the input, one way."""
    A = np.asarray(coefficients, dtype=float)
    c = np.asarray(constants, dtype=float)
    for layer in range(last_hidden, -1, -1):
        lower_slope, upper_slope, upper_intercept = relaxations[layer]
        positive = np.clip(A, 0.0, None)
        negative = np.clip(A, None, 0.0)
        if minimize:
            A = positive * lower_slope + negative * upper_slope
            c = c + negative @ upper_intercept
        else:
            A = positive * upper_slope + negative * lower_slope
            c = c + positive @ upper_intercept
        c = c + A @ network.biases[layer]
        A = A @ network.weights[layer]
    return A, c


def _bound(network: LoweredNetwork, coefficients: np.ndarray,
           constants: np.ndarray, last_hidden: int,
           relaxations: Sequence[Relaxation],
           box: InputBox) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower and upper bounds of the expression, plus its lower input form."""
    lower_A, lower_c = _substitute(network, coefficients, constants,
                                   last_hidden, relaxations, minimize=True)
    upper_A, upper_c = _substitute(network, coefficients, constants,
                                   last_hidden, relaxations, minimize=False)
    lower = (np.clip(lower_A, 0.0, None) @ box.lower
             + np.clip(lower_A, None, 0.0) @ box.upper + lower_c)
    upper = (np.clip(upper_A, 0.0, None) @ box.upper
             + np.clip(upper_A, None, 0.0) @ box.lower + upper_c)
    return lower, upper, lower_A


def reference_deeppoly(network: LoweredNetwork, box: InputBox,
                       splits: Optional[SplitAssignment] = None,
                       spec: Optional[LinearOutputSpec] = None,
                       lower_slopes: Optional[Sequence[np.ndarray]] = None
                       ) -> BoundReport:
    """DeepPoly on one sub-problem, the way the report fields are defined."""
    splits = splits or SplitAssignment.empty()
    relaxations: List[Relaxation] = []
    pre_activation_bounds: List[ScalarBounds] = []
    infeasible = False
    for layer in range(network.num_relu_layers):
        lower, upper, _ = _bound(network, network.weights[layer],
                                 network.biases[layer], layer - 1, relaxations, box)
        phases = splits.layer_phases(layer, lower.size)
        lower, upper, emptied = _clip(lower, upper, phases)
        infeasible = infeasible or emptied
        slopes = None if lower_slopes is None else lower_slopes[layer]
        relaxations.append(_relaxation(lower, upper, phases, slopes))
        pre_activation_bounds.append(ScalarBounds(lower, upper))

    last_hidden = network.num_relu_layers - 1
    output_lower, output_upper, _ = _bound(network, network.weights[-1],
                                           network.biases[-1], last_hidden,
                                           relaxations, box)
    spec_row_lower = p_hat = candidate = None
    if spec is not None:
        spec_row_lower, _, spec_A = _bound(
            network, spec.coefficients @ network.weights[-1],
            spec.coefficients @ network.biases[-1] + spec.offsets,
            last_hidden, relaxations, box)
        worst = int(np.argmin(spec_row_lower))
        candidate = np.where(spec_A[worst] > 0, box.lower, box.upper)
        p_hat = float("inf") if infeasible else float(spec_row_lower[worst])
    return BoundReport(pre_activation_bounds=pre_activation_bounds,
                       output_bounds=ScalarBounds(output_lower, output_upper),
                       spec_row_lower=spec_row_lower, p_hat=p_hat,
                       candidate_input=candidate, infeasible=infeasible,
                       method="deeppoly")


def _affine_interval(weight: np.ndarray, bias: np.ndarray, lower: np.ndarray,
                     upper: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Interval image of ``W @ h + b`` for ``h`` in ``[lower, upper]``."""
    positive = np.clip(weight, 0.0, None)
    negative = np.clip(weight, None, 0.0)
    return (positive @ lower + negative @ upper + bias,
            positive @ upper + negative @ lower + bias)


def reference_ibp(network: LoweredNetwork, box: InputBox,
                  splits: Optional[SplitAssignment] = None,
                  spec: Optional[LinearOutputSpec] = None) -> BoundReport:
    """Interval bound propagation on one sub-problem."""
    splits = splits or SplitAssignment.empty()
    lower, upper = box.lower, box.upper
    pre_activation_bounds: List[ScalarBounds] = []
    infeasible = False
    for layer in range(network.num_relu_layers):
        pre_lower, pre_upper = _affine_interval(network.weights[layer],
                                                network.biases[layer], lower, upper)
        pre_lower, pre_upper, emptied = _clip(
            pre_lower, pre_upper, splits.layer_phases(layer, pre_lower.size))
        infeasible = infeasible or emptied
        pre_activation_bounds.append(ScalarBounds(pre_lower, pre_upper))
        lower, upper = np.maximum(pre_lower, 0.0), np.maximum(pre_upper, 0.0)

    output_lower, output_upper = _affine_interval(network.weights[-1],
                                                  network.biases[-1], lower, upper)
    spec_row_lower = p_hat = candidate = None
    if spec is not None:
        spec_row_lower, _ = _affine_interval(spec.coefficients, spec.offsets,
                                             output_lower, output_upper)
        p_hat = float("inf") if infeasible else float(np.min(spec_row_lower))
        candidate = box.center
    return BoundReport(pre_activation_bounds=pre_activation_bounds,
                       output_bounds=ScalarBounds(output_lower, output_upper),
                       spec_row_lower=spec_row_lower, p_hat=p_hat,
                       candidate_input=candidate, infeasible=infeasible,
                       method="ibp")
