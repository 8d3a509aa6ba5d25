"""Tests for repro.bab.heuristics (ReLU branching heuristics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bab.heuristics import (
    BaBSRHeuristic,
    BranchingContext,
    DeepSplitHeuristic,
    FSBHeuristic,
    RandomHeuristic,
    WidestHeuristic,
    available_heuristics,
    make_heuristic,
    output_sensitivities,
)
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit, SplitAssignment
from repro.nn import dense_network
from repro.specs.robustness import local_robustness_spec
from repro.verifiers.appver import ApproximateVerifier

ALL_HEURISTICS = ["widest", "babsr", "deepsplit", "fsb", "random"]


@pytest.fixture()
def context(small_network):
    reference = np.array([0.4, 0.5, 0.6, 0.3])
    label = int(small_network.predict(reference.reshape(1, -1))[0])
    spec = local_robustness_spec(reference, 0.25, label, 3)
    appver = ApproximateVerifier(small_network, spec)
    outcome = appver.evaluate()
    return BranchingContext(network=appver.lowered, spec=spec.output_spec,
                            report=outcome.report, splits=SplitAssignment.empty(),
                            evaluate_split=lambda splits: appver.evaluate(splits).p_hat)


class TestRegistry:
    def test_all_heuristics_registered(self):
        assert set(available_heuristics()) == set(ALL_HEURISTICS)

    @pytest.mark.parametrize("name", ALL_HEURISTICS)
    def test_make_heuristic(self, name):
        assert make_heuristic(name).name == name

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ValueError):
            make_heuristic("smartest")


class TestSelection:
    @pytest.mark.parametrize("name", ALL_HEURISTICS)
    def test_selects_an_unstable_neuron(self, name, context):
        neuron = make_heuristic(name).select(context)
        assert neuron in context.unstable_neurons()

    @pytest.mark.parametrize("name", ALL_HEURISTICS)
    def test_returns_none_when_everything_is_decided(self, name, context):
        splits = SplitAssignment.empty()
        for layer, unit in context.report.unstable_neurons():
            splits = splits.with_split(ReluSplit(layer, unit, ACTIVE))
        leaf_context = BranchingContext(network=context.network, spec=context.spec,
                                        report=context.report, splits=splits)
        assert make_heuristic(name).select(leaf_context) is None

    def test_deterministic_heuristics_are_stable(self, context):
        for name in ("widest", "babsr", "deepsplit"):
            heuristic = make_heuristic(name)
            assert heuristic.select(context) == heuristic.select(context)

    def test_widest_picks_maximal_interval(self, context):
        neuron = WidestHeuristic().select(context)
        widths = {}
        for layer, unit in context.unstable_neurons():
            bounds = context.report.pre_activation_bounds[layer]
            widths[(layer, unit)] = bounds.upper[unit] - bounds.lower[unit]
        assert widths[neuron] == pytest.approx(max(widths.values()))

    def test_fsb_without_evaluator_falls_back(self, context):
        bare = BranchingContext(network=context.network, spec=context.spec,
                                report=context.report, splits=context.splits)
        neuron = FSBHeuristic(shortlist_size=3).select(bare)
        assert neuron in bare.unstable_neurons()

    def test_fsb_with_evaluator_picks_from_shortlist(self, context):
        heuristic = FSBHeuristic(shortlist_size=2)
        shortlist_scores = BaBSRHeuristic().scores(context, context.unstable_neurons())
        order = np.argsort(shortlist_scores)[::-1][:2]
        shortlist = {context.unstable_neurons()[int(i)] for i in order}
        assert heuristic.select(context) in shortlist

    def test_random_heuristic_is_seedable(self, context):
        a = RandomHeuristic(seed=1).select(context)
        b = RandomHeuristic(seed=1).select(context)
        assert a == b


class TestScores:
    def test_babsr_scores_nonnegative(self, context):
        scores = BaBSRHeuristic().scores(context, context.unstable_neurons())
        assert np.all(scores >= 0.0)

    def test_deepsplit_scores_at_least_direct_term(self, context):
        unstable = context.unstable_neurons()
        direct = DeepSplitHeuristic(indirect_weight=0.0).scores(context, unstable)
        combined = DeepSplitHeuristic(indirect_weight=1.0).scores(context, unstable)
        assert np.all(combined >= direct - 1e-12)

    def test_negative_indirect_weight_rejected(self):
        with pytest.raises(ValueError):
            DeepSplitHeuristic(indirect_weight=-0.5)

    def test_output_sensitivities_shapes(self, context):
        sensitivities = output_sensitivities(context.network, context.spec, context.report)
        assert len(sensitivities) == context.network.num_relu_layers
        for layer, sizes in enumerate(context.network.relu_layer_sizes()):
            assert sensitivities[layer].shape == (sizes,)
            assert np.all(sensitivities[layer] >= 0.0)


# ---------------------------------------------------------------------------
# Bit-identity against the per-neuron reference formulas
# ---------------------------------------------------------------------------

def _reference_slopes(report):
    slopes = []
    for bounds in report.pre_activation_bounds:
        lower, upper = bounds.lower, bounds.upper
        slope = np.ones_like(lower)
        unstable = (lower < 0.0) & (upper > 0.0)
        slope[upper <= 0.0] = 0.0
        denominator = np.where(unstable, upper - lower, 1.0)
        slope[unstable] = (upper / denominator)[unstable]
        slopes.append(slope)
    return slopes


def _reference_gap(report, layer):
    bounds = report.pre_activation_bounds[layer]
    lower, upper = bounds.lower, bounds.upper
    unstable = (lower < 0.0) & (upper > 0.0)
    gap = np.zeros_like(lower)
    denominator = np.where(unstable, upper - lower, 1.0)
    gap[unstable] = (upper * (-lower) / denominator)[unstable]
    return gap


def _reference_sensitivities(network, spec, report):
    slopes = _reference_slopes(report)
    coefficients = spec.coefficients @ network.weights[-1]
    sensitivities = [np.abs(coefficients).max(axis=0)]
    for layer in range(network.num_relu_layers - 1, 0, -1):
        coefficients = (coefficients * slopes[layer]) @ network.weights[layer]
        sensitivities.append(np.abs(coefficients).max(axis=0))
    sensitivities.reverse()
    return sensitivities


def _reference_influence(network, slopes, target_layer, source_layer):
    coefficients = network.weights[target_layer]
    for layer in range(target_layer - 1, source_layer, -1):
        coefficients = (np.abs(coefficients) * slopes[layer]) @ np.abs(network.weights[layer])
    return np.abs(coefficients)


def _reference_babsr(context, unstable):
    """BaB-SR scored one neuron at a time, rebuilding the layer's gaps each time."""
    sensitivities = _reference_sensitivities(context.network, context.spec, context.report)
    scores = np.empty(len(unstable))
    for index, (layer, unit) in enumerate(unstable):
        gap = _reference_gap(context.report, layer)[unit]
        scores[index] = gap * sensitivities[layer][unit]
    return scores


def _reference_deepsplit(context, unstable, indirect_weight):
    """DeepSplit scored one neuron at a time, rebuilding every influence chain."""
    network, report = context.network, context.report
    slopes = _reference_slopes(report)
    sensitivities = _reference_sensitivities(network, context.spec, report)
    gaps = [_reference_gap(report, layer) for layer in range(network.num_relu_layers)]
    scores = np.empty(len(unstable))
    for index, (layer, unit) in enumerate(unstable):
        direct = gaps[layer][unit] * sensitivities[layer][unit]
        indirect = 0.0
        for later in range(layer + 1, network.num_relu_layers):
            later_gap_weight = gaps[later] * sensitivities[later]
            if not np.any(later_gap_weight):
                continue
            influence = _reference_influence(network, slopes, later, layer)
            indirect += float(later_gap_weight @ influence[:, unit])
        scores[index] = direct + indirect_weight * indirect
    return scores


#: How the property picks the split assignment of the scored sub-problem.
SPLIT_MODES = ("random", "deepest_layer_decided", "one_layer_unstable")


def _split_context(depth, width, seed, mode):
    """A scoring context on a random dense network under a partial split."""
    rng = np.random.default_rng(seed)
    sizes = [3] + [int(w) for w in rng.integers(2, width + 1, size=depth)] + [3]
    network = dense_network(sizes, seed=seed)
    reference = rng.random(3)
    label = int(network.predict(reference.reshape(1, -1))[0])
    spec = local_robustness_spec(reference, 0.3, label, 3)
    appver = ApproximateVerifier(network, spec, use_cache=False)
    root = appver.evaluate().report.unstable_neurons()
    layers = sorted({layer for layer, _ in root})
    if mode == "random":
        chosen = [neuron for neuron in root if rng.random() < 0.3]
    elif mode == "deepest_layer_decided":
        # Every neuron of the deepest unstable layer is split, so that
        # layer's gap weight is all zero for every earlier neuron.
        chosen = [neuron for neuron in root if layers and neuron[0] == layers[-1]]
    else:
        kept = layers[int(rng.integers(len(layers)))] if layers else None
        chosen = [neuron for neuron in root if neuron[0] != kept]
    splits = SplitAssignment.from_splits(
        ReluSplit(layer, unit, ACTIVE if rng.random() < 0.5 else INACTIVE)
        for layer, unit in chosen)
    report = appver.evaluate(splits).report
    return BranchingContext(network=appver.lowered, spec=spec.output_spec,
                            report=report, splits=splits)


class TestBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(depth=st.integers(min_value=2, max_value=5),
           width=st.integers(min_value=2, max_value=8),
           seed=st.integers(min_value=0, max_value=10_000),
           mode=st.sampled_from(SPLIT_MODES),
           indirect_weight=st.sampled_from([0.0, 0.5, 1.7]))
    def test_scores_equal_per_neuron_reference(self, depth, width, seed, mode,
                                               indirect_weight):
        context = _split_context(depth, width, seed, mode)
        unstable = context.unstable_neurons()
        deepsplit = DeepSplitHeuristic(indirect_weight=indirect_weight)
        assert np.array_equal(deepsplit.scores(context, unstable),
                              _reference_deepsplit(context, unstable, indirect_weight))
        assert np.array_equal(BaBSRHeuristic().scores(context, unstable),
                              _reference_babsr(context, unstable))

    @pytest.mark.parametrize("mode", SPLIT_MODES[1:])
    def test_split_modes_reach_their_case(self, mode):
        """The property's special modes do produce the cases they name."""
        reached = False
        for seed in range(20):
            context = _split_context(3, 6, seed, mode)
            unstable = context.unstable_neurons()
            layers = {layer for layer, _ in unstable}
            if mode == "one_layer_unstable":
                # Above layer 0, so the influence chains start past the input.
                reached = len(layers) == 1 and unstable[0][0] > 0
            else:
                report = context.report
                sensitivities = output_sensitivities(context.network, context.spec, report)
                silent = [later for later in range(context.network.num_relu_layers)
                          if not np.any(_reference_gap(report, later) * sensitivities[later])]
                reached = bool(unstable) and any(later > min(layers) for later in silent)
            if reached:
                break
        assert reached
