"""ReLU branching heuristics (the heuristic ``H`` of Alg. 1).

Given a sub-problem whose AppVer bound raised a false alarm, the heuristic
selects the unstable ReLU neuron to split on.  The paper is orthogonal to
this choice (§III, §VI) and simply adopts a state-of-the-art heuristic
(DeepSplit) for both ABONN and the BaB baseline; this module provides that
heuristic along with the classical alternatives used in the ablation
benchmarks:

* ``widest``   — split the neuron with the widest pre-activation interval;
* ``babsr``    — BaB-SR (Bunel et al.): relaxation-gap × output-sensitivity;
* ``deepsplit``— DeepSplit-like indirect-effect score: BaB-SR's direct term
  plus the neuron's estimated effect on downstream unstable relaxations;
* ``fsb``      — filtered smart branching: shortlist by BaB-SR, then score
  each shortlisted neuron by the actual bound improvement of its two
  children (costs extra AppVer calls);
* ``random``   — uniform choice among unstable neurons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds.report import BoundReport
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit, SplitAssignment
from repro.nn.network import LoweredNetwork
from repro.specs.properties import LinearOutputSpec
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import require

Neuron = Tuple[int, int]


@dataclass
class BranchingContext:
    """Everything a heuristic may inspect when choosing a split neuron."""

    network: LoweredNetwork
    spec: LinearOutputSpec
    report: BoundReport
    splits: SplitAssignment
    #: Optional callback evaluating a hypothetical child sub-problem and
    #: returning its ``p̂`` (used by look-ahead heuristics such as FSB; the
    #: caller is responsible for charging any budget).
    evaluate_split: Optional[Callable[[SplitAssignment], float]] = None

    def unstable_neurons(self) -> List[Neuron]:
        return self.report.unstable_neurons(self.splits)


class BranchingHeuristic:
    """Base class: pick one unstable neuron to split (or ``None`` at a leaf)."""

    name = "heuristic"

    def select(self, context: BranchingContext) -> Optional[Neuron]:
        unstable = context.unstable_neurons()
        if not unstable:
            return None
        scores = self.scores(context, unstable)
        require(len(scores) == len(unstable), "heuristic returned wrong number of scores")
        return unstable[int(np.argmax(scores))]

    def scores(self, context: BranchingContext,
               unstable: Sequence[Neuron]) -> np.ndarray:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Shared sensitivity machinery
# ---------------------------------------------------------------------------

def _relaxation_slopes(report: BoundReport) -> List[np.ndarray]:
    """Per-layer upper-relaxation slopes implied by the report's bounds."""
    slopes = []
    for bounds in report.pre_activation_bounds:
        lower, upper = bounds.lower, bounds.upper
        slope = np.ones_like(lower)
        inactive = upper <= 0.0
        unstable = (lower < 0.0) & (upper > 0.0)
        slope[inactive] = 0.0
        denominator = np.where(unstable, upper - lower, 1.0)
        slope[unstable] = (upper / denominator)[unstable]
        slopes.append(slope)
    return slopes


def _relaxation_gap(report: BoundReport, layer: int) -> np.ndarray:
    """Per-neuron area/intercept of the triangle relaxation (0 when stable)."""
    bounds = report.pre_activation_bounds[layer]
    lower, upper = bounds.lower, bounds.upper
    unstable = (lower < 0.0) & (upper > 0.0)
    gap = np.zeros_like(lower)
    denominator = np.where(unstable, upper - lower, 1.0)
    gap[unstable] = (upper * (-lower) / denominator)[unstable]
    return gap


def output_sensitivities(network: LoweredNetwork, spec: LinearOutputSpec,
                         report: BoundReport) -> List[np.ndarray]:
    """Estimated |d margin / d h_layer| for every hidden layer.

    Propagates the specification coefficients backwards through the affine
    layers, passing ReLU layers with their upper-relaxation slope, and
    aggregates absolute values over the specification rows.
    """
    return _sensitivities_from_slopes(network, spec, _relaxation_slopes(report))


def _sensitivities_from_slopes(network: LoweredNetwork, spec: LinearOutputSpec,
                               slopes: List[np.ndarray]) -> List[np.ndarray]:
    """:func:`output_sensitivities` for already computed relaxation slopes."""
    coefficients = spec.coefficients @ network.weights[-1]
    sensitivities: List[np.ndarray] = [np.abs(coefficients).max(axis=0)]
    for layer in range(network.num_relu_layers - 1, 0, -1):
        coefficients = (coefficients * slopes[layer]) @ network.weights[layer]
        sensitivities.append(np.abs(coefficients).max(axis=0))
    sensitivities.reverse()
    return sensitivities


def _pre_activation_sensitivities(network: LoweredNetwork, slopes: List[np.ndarray],
                                  target_layer: int, lowest_source: int
                                  ) -> Dict[int, np.ndarray]:
    """|d z_target / d h_source| matrix estimates for every source layer in
    ``lowest_source <= source < target_layer``, keyed by source layer.

    The estimate for ``source`` extends the one for ``source + 1`` by one
    relaxed layer, so the whole chain costs one product per layer.
    """
    coefficients = np.abs(network.weights[target_layer])
    influences = {target_layer - 1: coefficients}
    for layer in range(target_layer - 1, lowest_source, -1):
        coefficients = np.abs((coefficients * slopes[layer]) @ np.abs(network.weights[layer]))
        influences[layer - 1] = coefficients
    return influences


# ---------------------------------------------------------------------------
# Concrete heuristics
# ---------------------------------------------------------------------------

class WidestHeuristic(BranchingHeuristic):
    """Split the unstable neuron with the widest pre-activation interval."""

    name = "widest"

    def scores(self, context: BranchingContext,
               unstable: Sequence[Neuron]) -> np.ndarray:
        scores = np.empty(len(unstable))
        for index, (layer, unit) in enumerate(unstable):
            bounds = context.report.pre_activation_bounds[layer]
            scores[index] = bounds.upper[unit] - bounds.lower[unit]
        return scores


class BaBSRHeuristic(BranchingHeuristic):
    """BaB-SR: relaxation gap weighted by estimated output sensitivity."""

    name = "babsr"

    def scores(self, context: BranchingContext,
               unstable: Sequence[Neuron]) -> np.ndarray:
        sensitivities = output_sensitivities(context.network, context.spec, context.report)
        gaps = {layer: _relaxation_gap(context.report, layer)
                for layer in {layer for layer, _ in unstable}}
        scores = np.empty(len(unstable))
        for index, (layer, unit) in enumerate(unstable):
            scores[index] = gaps[layer][unit] * sensitivities[layer][unit]
        return scores


class DeepSplitHeuristic(BranchingHeuristic):
    """DeepSplit-like indirect-effect analysis.

    The score of a neuron combines the *direct* effect of removing its
    relaxation gap on the output bound (the BaB-SR term) with an *indirect*
    effect: tightening this neuron also tightens the pre-activation bounds of
    downstream unstable neurons, weighted by their own output sensitivity.
    """

    name = "deepsplit"

    def __init__(self, indirect_weight: float = 0.5) -> None:
        require(indirect_weight >= 0.0, "indirect_weight must be non-negative")
        self.indirect_weight = indirect_weight

    def scores(self, context: BranchingContext,
               unstable: Sequence[Neuron]) -> np.ndarray:
        network = context.network
        report = context.report
        slopes = _relaxation_slopes(report)
        sensitivities = _sensitivities_from_slopes(network, context.spec, slopes)
        gaps = [_relaxation_gap(report, layer)
                for layer in range(network.num_relu_layers)]

        # Downstream influence: for every later layer with unstable neurons,
        # how much does each earlier neuron feed into those relaxation gaps?
        # Each (later, layer) influence matrix is built once per call.  Every
        # neuron still gets its own dot product with a strided column of it
        # (a matrix-vector product would sum in another order), summed over
        # the later layers in ascending order, so the scores are bit-for-bit
        # those of scoring each neuron on its own.
        lowest = min(layer for layer, _ in unstable) if unstable else 0
        downstream = []  # (later, its gap weight, {layer: influence matrix})
        for later in range(lowest + 1, network.num_relu_layers):
            later_gap_weight = gaps[later] * sensitivities[later]
            if np.any(later_gap_weight):
                influences = _pre_activation_sensitivities(network, slopes, later, lowest)
                downstream.append((later, later_gap_weight, influences))

        scores = np.empty(len(unstable))
        for index, (layer, unit) in enumerate(unstable):
            direct = gaps[layer][unit] * sensitivities[layer][unit]
            indirect = 0.0
            for later, later_gap_weight, influences in downstream:
                if later > layer:
                    indirect += float(later_gap_weight.dot(influences[layer][:, unit]))
            scores[index] = direct + self.indirect_weight * indirect
        return scores


class FSBHeuristic(BranchingHeuristic):
    """Filtered smart branching: BaB-SR shortlist + exact look-ahead scoring."""

    name = "fsb"

    def __init__(self, shortlist_size: int = 3) -> None:
        require(shortlist_size >= 1, "shortlist_size must be positive")
        self.shortlist_size = shortlist_size
        self._fallback = BaBSRHeuristic()

    def select(self, context: BranchingContext) -> Optional[Neuron]:
        unstable = context.unstable_neurons()
        if not unstable:
            return None
        babsr_scores = self._fallback.scores(context, unstable)
        order = np.argsort(babsr_scores)[::-1][:self.shortlist_size]
        shortlist = [unstable[int(i)] for i in order]
        if context.evaluate_split is None or len(shortlist) == 1:
            return shortlist[0]
        best_neuron = shortlist[0]
        best_score = -np.inf
        for layer, unit in shortlist:
            improvements = []
            for phase in (ACTIVE, INACTIVE):
                child = context.splits.with_split(ReluSplit(layer, unit, phase))
                improvements.append(context.evaluate_split(child))
            score = min(improvements)
            if score > best_score:
                best_score = score
                best_neuron = (layer, unit)
        return best_neuron

    def scores(self, context: BranchingContext,
               unstable: Sequence[Neuron]) -> np.ndarray:  # pragma: no cover
        return self._fallback.scores(context, unstable)


class RandomHeuristic(BranchingHeuristic):
    """Uniformly random choice among unstable neurons (ablation baseline)."""

    name = "random"

    def __init__(self, seed: SeedLike = 0) -> None:
        self._rng = as_rng(seed)

    def scores(self, context: BranchingContext,
               unstable: Sequence[Neuron]) -> np.ndarray:
        return self._rng.random(len(unstable))


_HEURISTICS: Dict[str, Callable[[], BranchingHeuristic]] = {
    "widest": WidestHeuristic,
    "babsr": BaBSRHeuristic,
    "deepsplit": DeepSplitHeuristic,
    "fsb": FSBHeuristic,
    "random": RandomHeuristic,
}


def make_heuristic(name: str) -> BranchingHeuristic:
    """Instantiate a branching heuristic by name."""
    require(name in _HEURISTICS,
            f"unknown branching heuristic {name!r}; available: {sorted(_HEURISTICS)}")
    return _HEURISTICS[name]()


def available_heuristics() -> Tuple[str, ...]:
    return tuple(sorted(_HEURISTICS))
