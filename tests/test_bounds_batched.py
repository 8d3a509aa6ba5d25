"""Equivalence regression tests: batched AppVer vs a per-sub-problem reference.

``ApproximateVerifier.evaluate_batch`` and ``evaluate`` must reproduce the
test-local one-sub-problem-at-a-time analyses of ``reference_bounds`` to
1e-9 — for batch sizes 1, 2 and 17, with and without warmed cache
prefixes, and including infeasible-split reports.  ``evaluate`` is the
batch of one of the same kernel, so the reference, not ``evaluate``, is
the oracle.

The two-sided batched DeepPoly kernel is also checked against an
independent oracle: a test-local copy of the one-direction batched
substitution it replaced, run once per direction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AbonnVerifier, Budget, dense_network
from repro.bounds.deeppoly import DeepPolyAnalyzer
from repro.bounds.linear_form import BatchedAffineForms, BatchedLinearForm, LinearForm
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit, SplitAssignment
from repro.nn.network import LoweredNetwork
from repro.specs.properties import InputBox, LinearOutputSpec
from repro.specs.robustness import local_robustness_spec
from repro.verifiers.appver import ApproximateVerifier, AppVerOutcome
from reference_bounds import reference_deeppoly, reference_ibp

TOLERANCE = 1e-9


@pytest.fixture()
def medium_problem(small_network):
    reference = np.array([0.45, 0.55, 0.5, 0.4])
    label = int(small_network.predict(reference.reshape(1, -1))[0])
    spec = local_robustness_spec(reference, 0.12, label, 3, name="batched-spec")
    return small_network, spec


def _make_splits_pool(network, spec, seed=0):
    """A pool of assignments: empty, single, chained, and infeasible splits."""
    verifier = ApproximateVerifier(network, spec, use_cache=False)
    report = verifier.evaluate().report
    unstable = report.unstable_neurons()
    assert unstable, "fixture problem must have unstable neurons"

    rng = np.random.default_rng(seed)
    pool = [SplitAssignment.empty()]
    for layer, unit in unstable:
        pool.append(SplitAssignment.from_splits([ReluSplit(layer, unit, ACTIVE)]))
        pool.append(SplitAssignment.from_splits([ReluSplit(layer, unit, INACTIVE)]))
    for _ in range(8):
        chosen = rng.choice(len(unstable), size=min(2, len(unstable)), replace=False)
        splits = SplitAssignment.empty()
        for index in chosen:
            layer, unit = unstable[int(index)]
            phase = ACTIVE if rng.random() < 0.5 else INACTIVE
            splits = splits.with_split(ReluSplit(layer, unit, phase))
        pool.append(splits)

    # Force an infeasible sub-problem: a provably-active neuron split INACTIVE.
    stable_active = [(layer, unit)
                     for layer, bounds in enumerate(report.pre_activation_bounds)
                     for unit in range(bounds.size)
                     if bounds.lower[unit] > 1e-6]
    assert stable_active, "fixture problem must have a stably active neuron"
    layer, unit = stable_active[0]
    pool.append(SplitAssignment.from_splits([ReluSplit(layer, unit, INACTIVE)]))
    return pool


def _reference_outcomes(network, spec, method, batch):
    """The reference analysis of each sub-problem, as AppVer outcomes."""
    analyse = reference_deeppoly if method == "deeppoly" else reference_ibp
    outcomes = []
    for splits in batch:
        report = analyse(network.lowered(), spec.input_box, splits,
                         spec.output_spec)
        valid = report.p_hat < 0.0 and spec.is_counterexample(
            network, report.candidate_input)
        outcomes.append(AppVerOutcome(report.p_hat, report.candidate_input,
                                      valid, report))
    return outcomes


def _assert_reports_match(got, want):
    """Bound reports equal to TOLERANCE, with exact infeasibility flags."""
    assert got.infeasible == want.infeasible
    if want.p_hat == float("inf"):
        assert got.p_hat == float("inf")
    else:
        assert abs(got.p_hat - want.p_hat) <= TOLERANCE
    for name in ("spec_row_lower", "candidate_input"):
        assert np.allclose(getattr(got, name), getattr(want, name), atol=TOLERANCE)
    for got_bounds, want_bounds in zip(
            [got.output_bounds, *got.pre_activation_bounds],
            [want.output_bounds, *want.pre_activation_bounds]):
        assert np.allclose(got_bounds.lower, want_bounds.lower, atol=TOLERANCE)
        assert np.allclose(got_bounds.upper, want_bounds.upper, atol=TOLERANCE)


def _assert_outcomes_match(got_outcomes, want_outcomes):
    assert len(got_outcomes) == len(want_outcomes)
    for got, want in zip(got_outcomes, want_outcomes):
        assert got.is_valid_counterexample == want.is_valid_counterexample
        _assert_reports_match(got.report, want.report)


class TestEvaluateBatchEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 2, 17])
    @pytest.mark.parametrize("method", ["deeppoly", "ibp"])
    def test_matches_sequential_without_cache(self, medium_problem, batch_size, method):
        network, spec = medium_problem
        pool = _make_splits_pool(network, spec)
        batch = [pool[index % len(pool)] for index in range(batch_size)]
        reference = _reference_outcomes(network, spec, method, batch)
        verifier = ApproximateVerifier(network, spec, method, use_cache=False)
        _assert_outcomes_match(verifier.evaluate_batch(batch), reference)
        _assert_outcomes_match([verifier.evaluate(splits) for splits in batch],
                               reference)

    @pytest.mark.parametrize("batch_size", [1, 2, 17])
    def test_matches_sequential_with_cached_prefixes(self, medium_problem, batch_size):
        network, spec = medium_problem
        pool = _make_splits_pool(network, spec)
        batch = [pool[index % len(pool)] for index in range(batch_size)]
        reference = _reference_outcomes(network, spec, "deeppoly", batch)
        # Warm the cache with the root and a few parents, then batch-evaluate.
        verifier = ApproximateVerifier(network, spec, use_cache=True)
        verifier.evaluate()
        verifier.evaluate(pool[1])
        batched = verifier.evaluate_batch(batch)
        assert verifier.cache.stats.hits > 0
        _assert_outcomes_match(batched, reference)
        # A second pass is served from the report cache and still matches.
        again = verifier.evaluate_batch(batch)
        _assert_outcomes_match(again, reference)

    def test_infeasible_split_reports(self, medium_problem):
        network, spec = medium_problem
        pool = _make_splits_pool(network, spec)
        infeasible_splits = pool[-1]
        verifier = ApproximateVerifier(network, spec, use_cache=False)
        outcomes = verifier.evaluate_batch([SplitAssignment.empty(), infeasible_splits])
        assert not outcomes[0].report.infeasible
        assert outcomes[1].report.infeasible
        assert outcomes[1].p_hat == float("inf")
        assert outcomes[1].verified

    def test_empty_batch(self, medium_problem):
        network, spec = medium_problem
        verifier = ApproximateVerifier(network, spec)
        assert verifier.evaluate_batch([]) == []
        assert verifier.num_calls == 0

    def test_batch_charges_one_call_per_subproblem(self, medium_problem):
        network, spec = medium_problem
        pool = _make_splits_pool(network, spec)
        verifier = ApproximateVerifier(network, spec)
        verifier.evaluate_batch(pool[:5])
        assert verifier.num_calls == 5

    def test_none_entries_mean_empty_assignment(self, medium_problem):
        network, spec = medium_problem
        verifier = ApproximateVerifier(network, spec)
        outcome_none, outcome_empty = verifier.evaluate_batch(
            [None, SplitAssignment.empty()])
        assert outcome_none.p_hat == outcome_empty.p_hat

    def test_alpha_crown_batch_falls_back_to_sequential(self, medium_problem):
        network, spec = medium_problem
        pool = _make_splits_pool(network, spec)
        batch = pool[:2]
        sequential = [ApproximateVerifier(network, spec,
                                          "alpha-crown").evaluate(splits)
                      for splits in batch]
        batched = ApproximateVerifier(network, spec,
                                      "alpha-crown").evaluate_batch(batch)
        for got, want in zip(batched, sequential):
            assert got.p_hat == pytest.approx(want.p_hat, abs=TOLERANCE)


class TestLowerSlopesMatchReference:
    def test_single_and_batched_slopes_match_reference(self, medium_problem):
        """α-CROWN's slope override, as one ``(width,)`` array per layer for
        ``analyze`` and ``(B, width)`` for ``analyze_batch``."""
        network, spec = medium_problem
        lowered = network.lowered()
        pool = _make_splits_pool(network, spec)
        rng = np.random.default_rng(5)
        widths = [weight.shape[0] for weight in lowered.weights[:-1]]
        slopes = [rng.uniform(-0.2, 1.2, size=(len(pool), width)) for width in widths]
        analyzer = DeepPolyAnalyzer(lowered)
        batched = analyzer.analyze_batch(spec.input_box, pool, spec=spec.output_spec,
                                         lower_slopes=slopes)
        for index, splits in enumerate(pool):
            row = [layer_slopes[index] for layer_slopes in slopes]
            want = reference_deeppoly(lowered, spec.input_box, splits,
                                      spec.output_spec, lower_slopes=row)
            single = analyzer.analyze(spec.input_box, splits, spec=spec.output_spec,
                                      lower_slopes=row)
            _assert_reports_match(single, want)
            _assert_reports_match(batched[index], want)


class TestBatchedLinearForm:
    def test_batched_form_matches_per_element_forms(self):
        rng = np.random.default_rng(3)
        coefficients = rng.standard_normal((4, 3, 5))
        constants = rng.standard_normal((4, 3))
        from repro.specs.properties import InputBox
        box = InputBox(np.zeros(5), np.ones(5))
        batched = BatchedLinearForm(coefficients, constants)
        assert batched.batch_size == 4
        assert batched.num_rows == 3
        assert batched.input_dim == 5
        x = rng.random(5)
        values = batched.evaluate(x)
        lower = batched.lower_bound(box)
        upper = batched.upper_bound(box)
        rows = np.array([0, 2, 1, 0])
        corners = batched.minimizers(box, rows)
        for index in range(4):
            form = batched.select(index)
            assert isinstance(form, LinearForm)
            assert np.allclose(values[index], form.evaluate(x))
            assert np.allclose(lower[index], form.lower_bound(box))
            assert np.allclose(upper[index], form.upper_bound(box))
            assert np.array_equal(corners[index],
                                  form.minimizer(box, int(rows[index])))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BatchedLinearForm(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            BatchedLinearForm(np.zeros((2, 3, 4)), np.zeros((2, 4)))


# -- oracle: the one-direction batched substitution, run once per direction --

#: Agreement required between the two-sided kernel and the oracle.
KERNEL_TOLERANCE = 1e-12


def _oracle_substitute(network, coefficients, constants, last_hidden,
                       lower_slopes, upper_slopes, upper_intercepts, minimize):
    """``(B, rows, width)`` coefficients rewritten down to the input."""
    A = np.asarray(coefficients, dtype=float)
    c = np.asarray(constants, dtype=float)
    batch, rows = A.shape[0], A.shape[1]
    for layer in range(last_hidden, -1, -1):
        ls = lower_slopes[layer][:, None, :]
        us = upper_slopes[layer][:, None, :]
        ui = upper_intercepts[layer]
        positive = np.clip(A, 0.0, None)
        negative = np.clip(A, None, 0.0)
        if minimize:
            new_A = positive * ls + negative * us
            c = c + np.matmul(negative, ui[:, :, None])[..., 0]
        else:
            new_A = positive * us + negative * ls
            c = c + np.matmul(positive, ui[:, :, None])[..., 0]
        A = new_A
        weight = network.weights[layer]
        flat = A.reshape(batch * rows, A.shape[2])
        c = c + (flat @ network.biases[layer]).reshape(batch, rows)
        A = (flat @ weight).reshape(batch, rows, weight.shape[1])
    return A, c


def _oracle_concretize(coefficients, constants, box, minimize):
    batch, rows, dim = coefficients.shape
    flat = coefficients.reshape(batch * rows, dim)
    positive = np.clip(flat, 0.0, None)
    negative = np.clip(flat, None, 0.0)
    if minimize:
        values = positive @ box.lower + negative @ box.upper
    else:
        values = positive @ box.upper + negative @ box.lower
    return values.reshape(batch, rows) + constants


def _oracle_bound_expression(network, coefficients, constants, batch, last_hidden,
                             lower_slopes, upper_slopes, upper_intercepts, box):
    """The replaced kernel: two independent passes over broadcast inputs."""
    coefficients = np.broadcast_to(coefficients, (batch,) + coefficients.shape)
    constants = np.broadcast_to(constants, (batch,) + constants.shape)
    relaxations = (lower_slopes, upper_slopes, upper_intercepts)
    lower_A, lower_c = _oracle_substitute(network, coefficients, constants,
                                          last_hidden, *relaxations, minimize=True)
    upper_A, upper_c = _oracle_substitute(network, coefficients, constants,
                                          last_hidden, *relaxations, minimize=False)
    lower = _oracle_concretize(lower_A, lower_c, box, minimize=True)
    upper = _oracle_concretize(upper_A, upper_c, box, minimize=False)
    return lower, upper, BatchedAffineForms(lower_A, lower_c, upper_A, upper_c)


def _oracle_kernel(self, coefficients, constants, signs, batch, last_hidden,
                   lower_slopes, upper_slopes, upper_intercepts, box, timings=None):
    """Adapter with the analyzer kernel's signature around the oracle."""
    return _oracle_bound_expression(self.network, coefficients, constants, batch,
                                    last_hidden, lower_slopes, upper_slopes,
                                    upper_intercepts, box)


def _random_relaxation(rng, batch, width):
    """Stacked ``(batch, width)`` relaxation rows mixing identity, zero and
    unstable columns (unstable lower slopes in ``[0, 1]``, as α-CROWN uses)."""
    kind = rng.integers(0, 3, size=(batch, width))
    low = -rng.uniform(0.05, 2.0, size=(batch, width))
    high = rng.uniform(0.05, 2.0, size=(batch, width))
    slope = high / (high - low)
    unstable = kind == 2
    lower_slope = np.where(kind == 0, 1.0,
                           np.where(unstable, rng.uniform(0.0, 1.0, size=(batch, width)),
                                    0.0))
    upper_slope = np.where(kind == 0, 1.0, np.where(unstable, slope, 0.0))
    upper_intercept = np.where(unstable, -slope * low, 0.0)
    return lower_slope, upper_slope, upper_intercept


def _assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want)
                  <= KERNEL_TOLERANCE * np.maximum(np.abs(want), 1.0))


class TestTwoSidedKernel:
    @settings(max_examples=200, deadline=None)
    @given(depth=st.integers(0, 5),
           batch=st.sampled_from([1, 2, 5]),
           widths=st.lists(st.sampled_from([1, 3, 5, 7, 9]), min_size=7, max_size=7),
           spec_rows=st.integers(1, 3),
           seed=st.integers(0, 2 ** 16))
    def test_matches_one_direction_oracle(self, depth, batch, widths, spec_rows, seed):
        rng = np.random.default_rng(seed)
        dims = widths[:depth + 2]
        weights = tuple(rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i])
                        for i in range(depth + 1))
        biases = tuple(rng.standard_normal(dims[i + 1]) * 0.5 for i in range(depth + 1))
        network = LoweredNetwork(weights, biases, (dims[0],))
        lower = rng.uniform(-1.0, 1.0, size=dims[0])
        box = InputBox(lower, lower + rng.uniform(0.0, 1.0, size=dims[0]))
        spec = LinearOutputSpec(rng.standard_normal((spec_rows, dims[-1])),
                                rng.standard_normal(spec_rows))
        relaxations = [_random_relaxation(rng, batch, dims[layer + 1])
                       for layer in range(depth)]
        lower_slopes, upper_slopes, upper_intercepts = (
            [relaxation[part] for relaxation in relaxations] for part in range(3))
        analyzer = DeepPolyAnalyzer(network)
        last_hidden = depth - 1
        for coefficients, constants, signs in (analyzer._top_rows(spec),
                                               analyzer._top_rows(None)):
            got_lower, got_upper, got = analyzer._bound_expression_batch(
                coefficients, constants, signs, batch, last_hidden,
                lower_slopes, upper_slopes, upper_intercepts, box)
            want_lower, want_upper, want = _oracle_bound_expression(
                network, coefficients, constants, batch, last_hidden,
                lower_slopes, upper_slopes, upper_intercepts, box)
            _assert_close(got_lower, want_lower)
            _assert_close(got_upper, want_upper)
            for name in ("lower_A", "lower_c", "upper_A", "upper_c"):
                _assert_close(getattr(got, name), getattr(want, name))
            # The counterexample corner reads the lower form's signs.
            decided = np.abs(want.lower_A) > 1e-9
            assert np.array_equal((got.lower_A > 0)[decided],
                                  (want.lower_A > 0)[decided])

    def test_verify_identical_with_oracle_kernel(self, monkeypatch, conv_network,
                                                 trained_network):
        """Verdicts, node counts and counterexamples do not depend on the kernel.

        The problems are those of ``tests/test_integration.py``.
        """
        problems = []
        for seed in (11, 23, 37):
            for epsilon in (0.05, 0.2, 0.35):
                rng = np.random.default_rng(seed)
                network = dense_network([4, 7, 6, 3], seed=seed)
                reference = rng.random(4)
                label = int(network.predict(reference.reshape(1, -1))[0])
                problems.append((network, local_robustness_spec(reference, epsilon,
                                                                label, 3)))
        trained, dataset = trained_network
        image, label = dataset.sample(33)
        for epsilon in (0.08, 0.5):
            problems.append((trained, local_robustness_spec(
                image.reshape(-1), epsilon, label, dataset.num_classes)))
        reference = np.full(36, 0.5)
        label = int(conv_network.predict(reference.reshape(1, 1, 6, 6))[0])
        problems.append((conv_network, local_robustness_spec(reference, 0.05, label, 3)))

        def outcomes():
            keys = []
            for network, spec in problems:
                result = AbonnVerifier().verify(network, spec, Budget(max_nodes=4000))
                cex = result.counterexample
                keys.append((result.status, result.nodes_explored,
                             None if cex is None
                             else np.asarray(cex, dtype=float).tobytes()))
            return keys

        two_sided = outcomes()
        calls = []

        def counted_oracle(*args, **kwargs):
            calls.append(1)
            return _oracle_kernel(*args, **kwargs)

        monkeypatch.setattr(DeepPolyAnalyzer, "_bound_expression_batch", counted_oracle)
        assert outcomes() == two_sided
        assert calls, "the batched kernel was never reached"


class TestSignSplitsNeverStale:
    def test_specs_in_sequence_match_fresh_analyzers(self, small_network):
        lowered = small_network.lowered()
        problem = local_robustness_spec(np.array([0.45, 0.55, 0.5, 0.4]), 0.12, 0, 3)
        box, spec_a = problem.input_box, problem.output_spec
        spec_b = LinearOutputSpec(np.array([[1.0, -0.5, 0.25]]), np.array([0.75]))
        unstable = DeepPolyAnalyzer(lowered).analyze(box).unstable_neurons()
        layer, unit = unstable[0]
        splits_list = [None,
                       SplitAssignment.from_splits([ReluSplit(layer, unit, ACTIVE)]),
                       SplitAssignment.from_splits([ReluSplit(layer, unit, INACTIVE)])]
        shared = DeepPolyAnalyzer(lowered)
        for spec in (spec_a, spec_b, None):
            got = shared.analyze_batch(box, splits_list, spec=spec)
            want = DeepPolyAnalyzer(lowered).analyze_batch(box, splits_list, spec=spec)
            for got_report, want_report in zip(got, want):
                assert got_report.p_hat == want_report.p_hat
                for attribute in ("spec_row_lower", "candidate_input"):
                    got_value = getattr(got_report, attribute)
                    want_value = getattr(want_report, attribute)
                    assert (got_value is None) == (want_value is None)
                    if want_value is not None:
                        assert np.array_equal(got_value, want_value)
                assert np.array_equal(got_report.output_bounds.lower,
                                      want_report.output_bounds.lower)
                assert np.array_equal(got_report.output_bounds.upper,
                                      want_report.output_bounds.upper)
