"""Tests for batched + cached leaf-LP resolution (``solve_leaf_lp_batch``)."""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, sparse

from repro.bounds.cache import LpCache
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit, SplitAssignment
from repro.nn import Dense, dense_network
from repro.specs.robustness import local_robustness_spec
from repro.verifiers.appver import ApproximateVerifier
from repro.verifiers.milp import (
    RowOptimum,
    _build_encoding,
    _encode_problem,
    _layer_row_block,
    _leaf_phase_signature,
    _leaf_variable_bounds,
    _objective_vector,
    _solve,
    _stack_row_blocks,
    solve_leaf_lp,
    solve_leaf_lp_batch,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

# The sibling-heavy decided-leaf generator is shared with the CI-gated
# benchmark so the acceptance workload and the tested workload never drift.
from bench_batching import _decided_leaf_workload  # noqa: E402


def _problem(network, reference, epsilon):
    reference = np.asarray(reference, dtype=float)
    label = int(network.predict(reference.reshape(1, -1))[0])
    return local_robustness_spec(reference, epsilon, label, network.output_dim)


def _biased_network(layer_sizes, seed):
    """A dense network with nonzero biases (``dense_network`` starts at zero),
    so that the encodings' bias handling is exercised."""
    network = dense_network(layer_sizes, seed=seed)
    rng = np.random.default_rng(seed)
    for layer in network.layers:
        if isinstance(layer, Dense):
            layer.bias[:] = rng.normal(0.0, 0.3, size=layer.bias.shape)
    network.invalidate_lowered()
    return network


def _reference_encoding(lowered, box, report, splits, with_binaries):
    """The MILP / leaf-LP encoding built one row and one weight at a time.

    An independent construction of the constraint system: every row is a
    dict of nonzero coefficients with the bias moved into its bounds.
    Returns ``(encoding, matrix, row_lower, row_upper, var_lower, var_upper)``.
    """
    unstable = [(layer, unit)
                for layer, bounds in enumerate(report.pre_activation_bounds)
                for unit in range(bounds.size)
                if not splits.is_decided(layer, unit)
                and bounds.lower[unit] < 0.0 < bounds.upper[unit]]
    encoding = _build_encoding(lowered, unstable, with_binaries)
    rows, row_lower, row_upper = [], [], []

    def add(coefficients, lower, upper):
        row = np.zeros(encoding.num_variables)
        for index, value in coefficients.items():
            row[index] += value
        rows.append(row)
        row_lower.append(lower)
        row_upper.append(upper)

    def add_affine_row(weight_row, bias, first_column, extra, lower, upper):
        coefficients = dict(extra)
        for index, value in enumerate(weight_row):
            if value != 0.0:
                key = first_column + index
                coefficients[key] = coefficients.get(key, 0.0) + value
        add(coefficients, lower - bias, upper - bias)

    var_lower = np.full(encoding.num_variables, -np.inf)
    var_upper = np.full(encoding.num_variables, np.inf)
    var_lower[:encoding.num_inputs] = box.lower
    var_upper[:encoding.num_inputs] = box.upper
    infinity = float("inf")
    for layer, size in enumerate(encoding.hidden_sizes):
        first_column = 0 if layer == 0 else encoding.hidden_offsets[layer - 1]
        weight, bias = lowered.weights[layer], lowered.biases[layer]
        bounds = report.pre_activation_bounds[layer]
        for unit in range(size):
            h_index = encoding.hidden_offsets[layer] + unit
            lower_z, upper_z = float(bounds.lower[unit]), float(bounds.upper[unit])
            phase = splits.phase_of(layer, unit)
            if phase == 0:
                phase = ACTIVE if lower_z >= 0.0 else INACTIVE if upper_z <= 0.0 else 0
            if phase == ACTIVE:
                var_lower[h_index] = max(0.0, lower_z)
                var_upper[h_index] = max(0.0, upper_z)
                add_affine_row(weight[unit], float(bias[unit]), first_column,
                               {h_index: -1.0}, 0.0, 0.0)
                add_affine_row(weight[unit], float(bias[unit]), first_column,
                               {}, 0.0, infinity)
            elif phase == INACTIVE:
                var_lower[h_index] = 0.0
                var_upper[h_index] = 0.0
                add_affine_row(weight[unit], float(bias[unit]), first_column,
                               {}, -infinity, 0.0)
            else:
                a_index = encoding.binary_index[(layer, unit)]
                var_lower[h_index] = 0.0
                var_upper[h_index] = max(0.0, upper_z)
                var_lower[a_index] = 0.0
                var_upper[a_index] = 1.0
                add_affine_row(-weight[unit], -float(bias[unit]), first_column,
                               {h_index: 1.0}, 0.0, infinity)
                add_affine_row(-weight[unit], -float(bias[unit]), first_column,
                               {h_index: 1.0, a_index: -lower_z}, -infinity, -lower_z)
                add({h_index: 1.0, a_index: -upper_z}, -infinity, 0.0)
    matrix = np.vstack(rows) if rows else np.zeros((0, encoding.num_variables))
    return (encoding, matrix, np.asarray(row_lower), np.asarray(row_upper),
            var_lower, var_upper)


def _reference_leaf_lp(lowered, box, spec, splits, report):
    """The leaf LP solved one spec row at a time over the reference encoding
    — guards the per-layer row blocks against an encoding bug that would
    fool a batch-vs-wrapper self-comparison."""
    encoding, matrix, row_lower, row_upper, var_lower, var_upper = _reference_encoding(
        lowered, box, report, splits, with_binaries=False)
    constraints = optimize.LinearConstraint(sparse.csr_matrix(matrix), row_lower,
                                            row_upper)
    integrality = np.zeros(encoding.num_variables)
    best = RowOptimum(float("inf"), None, feasible=False)
    any_feasible = False
    for row_index in range(spec.num_constraints):
        objective, constant = _objective_vector(lowered,
                                                spec.coefficients[row_index],
                                                encoding)
        constant += float(spec.offsets[row_index])
        optimum = _solve(objective, constant, constraints, var_lower, var_upper,
                         integrality, encoding, None)
        if not optimum.feasible:
            continue
        any_feasible = True
        if optimum.value < best.value or best.minimizer is None:
            best = optimum
    if not any_feasible:
        return RowOptimum(float("inf"), None, feasible=False)
    return best


def _assert_system_equal(system, reference):
    """``system`` and ``reference`` are both ``(matrix, row_lower, row_upper,
    var_lower, var_upper)``."""
    for built, expected in zip(system, reference):
        assert np.array_equal(built, expected)


@pytest.fixture(scope="module")
def lp_workload():
    network = dense_network([3, 6, 5, 3], seed=4)
    spec = _problem(network, [0.5, 0.4, 0.6], 0.25)
    lowered, leaves = _decided_leaf_workload(network, spec, clusters=3, seed=3)
    assert len(leaves) >= 4, "workload generator produced too few decided leaves"
    return lowered, spec, leaves


@pytest.fixture(scope="module")
def biased_lp_workload():
    network = _biased_network([3, 6, 5, 3], seed=4)
    spec = _problem(network, [0.5, 0.4, 0.6], 0.25)
    lowered, leaves = _decided_leaf_workload(network, spec, clusters=3, seed=3)
    assert len(leaves) >= 4, "workload generator produced too few decided leaves"
    return lowered, spec, leaves


class TestBatchedLeafLp:
    @pytest.mark.parametrize("workload", ["lp_workload", "biased_lp_workload"])
    def test_leaf_system_equals_reference_encoding(self, workload, request):
        """The solver sees exactly the reference system: the batch path's
        shared row blocks and leaf variable bounds, and ``_encode_problem``
        without binaries, are array-equal to the row-by-row encoding."""
        lowered, spec, leaves = request.getfixturevalue(workload)
        box = spec.input_box
        for splits, report in leaves:
            reference = _reference_encoding(lowered, box, report, splits,
                                            with_binaries=False)
            encoding = reference[0]
            signature = _leaf_phase_signature(lowered, report, splits)
            blocks = [_layer_row_block(lowered, encoding, layer, phases)
                      for layer, phases in enumerate(signature)]
            matrix, row_lower, row_upper = _stack_row_blocks(blocks)
            var_lower, var_upper = _leaf_variable_bounds(box, report, signature,
                                                         encoding)
            _assert_system_equal((matrix, row_lower, row_upper, var_lower, var_upper),
                                 reference[1:])
            _, constraints, var_lower, var_upper, has_unstable = _encode_problem(
                lowered, box, report, splits, with_binaries=False)
            assert not has_unstable
            _assert_system_equal((constraints.A.toarray(), constraints.lb, constraints.ub,
                                  var_lower, var_upper), reference[1:])

    @pytest.mark.parametrize("seed", range(6))
    def test_milp_system_equals_reference_encoding(self, seed):
        """With unstable neurons (three binary rows each) and a partial
        split, the MILP system is array-equal to the row-by-row encoding."""
        network = _biased_network([3, 7, 6, 5, 3], seed=seed)
        spec = _problem(network, np.random.default_rng(seed).random(3), 0.3)
        appver = ApproximateVerifier(network, spec, use_cache=False)
        unstable = appver.evaluate().report.unstable_neurons()
        splits = SplitAssignment.from_splits(
            ReluSplit(layer, unit, ACTIVE if index % 2 else INACTIVE)
            for index, (layer, unit) in enumerate(unstable[::3]))
        report = appver.evaluate(splits).report
        assert report.unstable_neurons(splits), "need unstable neurons to encode"
        reference = _reference_encoding(appver.lowered, spec.input_box, report,
                                        splits, with_binaries=True)
        encoding, constraints, var_lower, var_upper, has_unstable = _encode_problem(
            appver.lowered, spec.input_box, report, splits, with_binaries=True)
        assert has_unstable
        assert encoding.binary_index == reference[0].binary_index
        _assert_system_equal((constraints.A.toarray(), constraints.lb, constraints.ub,
                              var_lower, var_upper), reference[1:])

    def test_batch_matches_independent_reference_encoding(self, lp_workload):
        """The batched leaf LP must reach the optima of the row-by-row
        reference encoding solved one spec row at a time."""
        lowered, spec, leaves = lp_workload
        reference = [_reference_leaf_lp(lowered, spec.input_box,
                                        spec.output_spec, splits, report)
                     for splits, report in leaves]
        batched = solve_leaf_lp_batch(lowered, spec.input_box, spec.output_spec,
                                      leaves)
        for a, b in zip(reference, batched):
            assert a.feasible == b.feasible
            if a.feasible:
                assert a.value == pytest.approx(b.value, abs=1e-9)
                if a.minimizer is not None:
                    np.testing.assert_allclose(a.minimizer, b.minimizer,
                                               atol=1e-9)

    def test_batch_matches_one_at_a_time(self, lp_workload):
        lowered, spec, leaves = lp_workload
        single = [solve_leaf_lp(lowered, spec.input_box, spec.output_spec,
                                splits, report) for splits, report in leaves]
        batched = solve_leaf_lp_batch(lowered, spec.input_box, spec.output_spec,
                                      leaves)
        assert len(batched) == len(single)
        for a, b in zip(single, batched):
            assert a.feasible == b.feasible
            if a.feasible:
                assert a.value == pytest.approx(b.value, abs=1e-9)
                if a.minimizer is None:
                    assert b.minimizer is None
                else:
                    np.testing.assert_allclose(a.minimizer, b.minimizer,
                                               atol=1e-9)

    def test_empty_batch(self, lp_workload):
        lowered, spec, _ = lp_workload
        assert solve_leaf_lp_batch(lowered, spec.input_box, spec.output_spec,
                                   []) == []

    def test_rejects_undecided_leaves(self, lp_workload):
        lowered, spec, leaves = lp_workload
        network = dense_network([3, 6, 5, 3], seed=4)
        root_report = ApproximateVerifier(network, spec,
                                          use_cache=False).evaluate().report
        assert root_report.unstable_neurons(), "root must have unstable neurons"
        with pytest.raises(ValueError):
            solve_leaf_lp_batch(lowered, spec.input_box, spec.output_spec,
                                [(SplitAssignment.empty(), root_report)])


class TestLpCache:
    def test_hit_returns_identical_row_optimum(self, lp_workload):
        lowered, spec, leaves = lp_workload
        cache = LpCache()
        cold = solve_leaf_lp_batch(lowered, spec.input_box, spec.output_spec,
                                   leaves, cache=cache)
        assert cache.stats.hits == 0
        assert cache.stats.misses == len(leaves)
        assert cache.stats.solves == len(leaves)
        warm = solve_leaf_lp_batch(lowered, spec.input_box, spec.output_spec,
                                   leaves, cache=cache)
        assert cache.stats.hits == len(leaves)
        assert cache.stats.solves == len(leaves)  # nothing re-solved
        for a, b in zip(cold, warm):
            assert a is b  # the identical object, not a recomputation

    def test_duplicates_within_one_batch_solve_once(self, lp_workload):
        lowered, spec, leaves = lp_workload
        cache = LpCache()
        doubled = list(leaves) + list(leaves)
        results = solve_leaf_lp_batch(lowered, spec.input_box, spec.output_spec,
                                      doubled, cache=cache)
        assert cache.stats.solves == len(leaves)
        assert cache.stats.hits == len(leaves)
        for first, second in zip(results[:len(leaves)], results[len(leaves):]):
            assert first is second

    def test_single_leaf_path_uses_cache(self, lp_workload):
        lowered, spec, leaves = lp_workload
        splits, report = leaves[0]
        cache = LpCache()
        first = solve_leaf_lp(lowered, spec.input_box, spec.output_spec,
                              splits, report, cache=cache)
        second = solve_leaf_lp(lowered, spec.input_box, spec.output_spec,
                               splits, report, cache=cache)
        assert first is second
        assert cache.stats.solves == 1

    def test_eviction_respects_lru_order(self):
        cache = LpCache(max_entries=2)
        a = RowOptimum(1.0, None, feasible=True)
        b = RowOptimum(2.0, None, feasible=True)
        c = RowOptimum(3.0, None, feasible=True)
        cache.put(("a",), a)
        cache.put(("b",), b)
        assert cache.get(("a",)) is a  # refreshes "a" to most-recent
        cache.put(("c",), c)           # evicts "b", the least recent
        assert cache.stats.evictions == 1
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is a
        assert cache.get(("c",)) is c
        assert len(cache) == 2

    def test_rejects_invalid_capacity(self):
        with pytest.raises(ValueError):
            LpCache(max_entries=0)

    def test_hit_rate(self):
        cache = LpCache()
        assert cache.stats.hit_rate == 0.0
        cache.put(("k",), RowOptimum(0.0, None, feasible=True))
        cache.get(("k",))
        cache.get(("missing",))
        assert cache.stats.hit_rate == pytest.approx(0.5)
