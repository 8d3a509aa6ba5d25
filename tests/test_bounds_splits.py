"""Tests for repro.bounds.splits."""

import numpy as np
import pytest

from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit, SplitAssignment


class TestReluSplit:
    def test_negation(self):
        split = ReluSplit(1, 3, ACTIVE)
        assert split.negated() == ReluSplit(1, 3, INACTIVE)

    def test_invalid_phase_rejected(self):
        with pytest.raises(ValueError):
            ReluSplit(0, 0, 2)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            ReluSplit(-1, 0, ACTIVE)

    def test_string_representation(self):
        assert str(ReluSplit(0, 2, ACTIVE)) == "r+(0,2)"
        assert str(ReluSplit(1, 0, INACTIVE)) == "r-(1,0)"


class TestSplitAssignment:
    def test_empty(self):
        assignment = SplitAssignment.empty()
        assert len(assignment) == 0
        assert assignment.phase_of(0, 0) == 0
        assert not assignment.is_decided(0, 0)

    def test_with_split_is_persistent(self):
        base = SplitAssignment.empty()
        extended = base.with_split(ReluSplit(0, 1, ACTIVE))
        assert len(base) == 0
        assert len(extended) == 1
        assert extended.phase_of(0, 1) == ACTIVE

    def test_conflicting_split_rejected(self):
        assignment = SplitAssignment.empty().with_split(ReluSplit(0, 1, ACTIVE))
        with pytest.raises(ValueError):
            assignment.with_split(ReluSplit(0, 1, INACTIVE))

    def test_repeated_identical_split_allowed(self):
        assignment = SplitAssignment.empty().with_split(ReluSplit(0, 1, ACTIVE))
        again = assignment.with_split(ReluSplit(0, 1, ACTIVE))
        assert len(again) == 1

    def test_layer_phases(self):
        assignment = SplitAssignment.from_splits([ReluSplit(0, 1, ACTIVE),
                                                  ReluSplit(1, 0, INACTIVE),
                                                  ReluSplit(0, 3, INACTIVE)])
        assert assignment.layer_phases(0, 10) == {1: ACTIVE, 3: INACTIVE}
        assert assignment.layer_phases(1, 10) == {0: INACTIVE}
        assert assignment.layer_phases(2, 10) == {}

    def test_layer_phases_respects_width(self):
        assignment = SplitAssignment.from_splits([ReluSplit(0, 7, ACTIVE)])
        assert assignment.layer_phases(0, 5) == {}

    def test_layer_phases_ignore_negative_units(self):
        """A raw mapping may hold a negative unit; like an index past the
        width, it names no neuron and must not wrap around to the last one."""
        assignment = SplitAssignment({(0, -1): ACTIVE, (0, 1): INACTIVE})
        assert assignment.layer_phases(0, 3) == {1: INACTIVE}
        assert assignment.layer_phase_array(0, 3).tolist() == [0, INACTIVE, 0]

    def test_equality_and_hash(self):
        a = SplitAssignment.from_splits([ReluSplit(0, 1, ACTIVE), ReluSplit(1, 2, INACTIVE)])
        b = SplitAssignment.from_splits([ReluSplit(1, 2, INACTIVE), ReluSplit(0, 1, ACTIVE)])
        assert a == b
        assert hash(a) == hash(b)

    def test_iteration_is_sorted(self):
        assignment = SplitAssignment.from_splits([ReluSplit(1, 0, ACTIVE),
                                                  ReluSplit(0, 2, INACTIVE)])
        neurons = [split.neuron for split in assignment]
        assert neurons == [(0, 2), (1, 0)]

    def test_str(self):
        assert str(SplitAssignment.empty()) == "Γ=ε"
        assignment = SplitAssignment.from_splits([ReluSplit(0, 0, ACTIVE)])
        assert "r+(0,0)" in str(assignment)

    def test_satisfied_by(self):
        assignment = SplitAssignment.from_splits([ReluSplit(0, 0, ACTIVE),
                                                  ReluSplit(1, 1, INACTIVE)])
        pre = [np.array([0.5, -1.0]), np.array([3.0, -0.2])]
        assert assignment.satisfied_by(pre)
        pre_bad = [np.array([-0.5, -1.0]), np.array([3.0, -0.2])]
        assert not assignment.satisfied_by(pre_bad)

    def test_satisfied_by_out_of_range(self):
        assignment = SplitAssignment.from_splits([ReluSplit(3, 0, ACTIVE)])
        assert not assignment.satisfied_by([np.array([1.0])])

    def test_decided_neurons(self):
        assignment = SplitAssignment.from_splits([ReluSplit(2, 1, ACTIVE),
                                                  ReluSplit(0, 0, INACTIVE)])
        assert assignment.decided_neurons() == ((0, 0), (2, 1))
