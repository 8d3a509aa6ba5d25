"""DeepPoly / CROWN backward bound propagation with ReLU split constraints.

This is the library's main approximated verifier (the ``AppVer`` of the
paper).  For every hidden layer it derives sound lower/upper bounds on the
pre-activations by substituting linear ReLU relaxations backwards down to
the input box, then bounds the output specification the same way.  The
minimum specification-row lower bound is the paper's ``p̂``; the box corner
minimising that row's input-level linear form is the candidate
counterexample ``x̂``.

Split constraints (``r+`` / ``r-`` decisions of a BaB sub-problem) tighten
the analysis in two ways:

* the decided neuron's relaxation becomes exact (identity or zero);
* its pre-activation bounds are intersected with ``[0, ∞)`` / ``(-∞, 0]``.

If an intersection becomes empty the sub-problem region is empty and the
report is flagged ``infeasible`` (vacuously verified).

There is one analysis kernel, and it is batched:
:meth:`DeepPolyAnalyzer.analyze_batch` bounds ``B`` sub-problems of one box
in one pass, carrying a leading batch axis through the backward
substitution (stacked relaxation slopes/intercepts, batched matmuls against
the shared weights, vectorised concretisation over the shared input box).
:meth:`DeepPolyAnalyzer.analyze` is its ``B = 1`` case: it passes
``[splits]``, ``[parent]`` and ``(1, width)`` slopes to the same private
kernel, so a single sub-problem and a batch of them are bounded by the
same code.

The kernel is *two-sided*: the minimising and maximising
substitutions of an expression run as one stacked pass, lower forms in
slots ``[0, B)`` and upper forms in ``[B, 2B)`` of one ``(2B, rows,
width)`` array, so each layer step costs one clip pair, one bias product
and one weight GEMM for both directions.  Every expression starts
from a matrix the whole batch shares — a hidden weight, or the fused
output-plus-spec rows — whose sign split is precomputed: once per analyzer
for the weights, once per spec for the top rows.  The kernel agrees with
running the two directions as separate passes to 1e-12 (it is not
byte-equal: BLAS rounds a row according to its position in the GEMM), and
with the per-sub-problem, one-direction-at-a-time reference substitution
kept in the tests within 1e-9.

The kernel accepts a :class:`~repro.bounds.cache.BoundCache` that memoises
per-layer results keyed by the split-assignment *prefix* relevant to that
layer, so a child sub-problem only recomputes layers at-or-below its newly
decided neuron.

**Incremental parent-pass reuse.**  When the caller additionally supplies
the *parent* assignment of a sub-problem (``parent=`` / ``parents=``) and
the child extends the parent by exactly one split at layer ``l*``, the
analysis reuses the parent's memoised pass further: the child's layer-``l*``
state is derived from the parent's :class:`~repro.bounds.cache.SubstitutionEntry`
by a **rank-1 correction** — clip the decided neuron's pre-activation
bounds with its phase and swap that single relaxation row to the exact
identity/zero form — instead of re-substituting the whole layer through
every layer below.  The correction reproduces the layer's full
recomputation up to the sub-1e-9 GEMM-reassociation noise of the batched
substitution (clipping is per-neuron independent and the relaxation
rebuild is element-wise on identical inputs).  Layers
above ``l*`` genuinely change (the tightened relaxation propagates) and are
recomputed exactly as the non-incremental path would — which is what keeps
verdicts, node charges and counterexamples identical whether the
incremental path is on or off (see ``docs/BATCHING.md``).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds.cache import BoundCache, SubstitutionEntry
from repro.bounds.linear_form import (
    BatchedAffineForms,
    ScalarBounds,
    concretize_lower,
    concretize_lower_batch,
    concretize_upper,
    concretize_upper_batch,
)
from repro.bounds.report import BoundReport
from repro.bounds.splits import (
    ACTIVE,
    INACTIVE,
    ReluSplit,
    SplitAssignment,
    clip_bounds_with_phases,
    insert_into_canonical,
    prefix_counts,
    split_delta,
    stacked_phase_array,
)
from repro.nn.network import LoweredNetwork
from repro.specs.properties import InputBox, LinearOutputSpec
from repro.utils.timing import PhaseTimings
from repro.utils.validation import require


def _measure(timings: Optional[PhaseTimings], phase: str):
    """A ``timings.measure(phase)`` context, or a no-op without timings."""
    return timings.measure(phase) if timings is not None else nullcontext()


def default_lower_slope(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """DeepPoly's area-minimising choice of the unstable lower slope."""
    return (upper > -lower).astype(float)


def _relaxation_arrays(lower: np.ndarray, upper: np.ndarray, phases: np.ndarray,
                       unstable_lower_slope: Optional[np.ndarray]
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised triangle relaxation; works on 1-D and batched 2-D arrays.

    A neuron is exact-identity when split ACTIVE or provably non-negative,
    exact-zero when split INACTIVE or provably non-positive, and otherwise
    gets the triangle upper relaxation with the supplied (or default) lower
    slope.
    """
    active = (phases == ACTIVE) | (lower >= 0.0)
    inactive = ~active & ((phases == INACTIVE) | (upper <= 0.0))
    unstable = ~active & ~inactive
    if unstable_lower_slope is None:
        unstable_lower_slope = default_lower_slope(lower, upper)
    denominator = np.where(unstable, upper - lower, 1.0)
    slope = np.where(unstable, upper / denominator, 0.0)
    lower_slope = np.where(active, 1.0,
                           np.where(unstable, unstable_lower_slope, 0.0))
    upper_slope = np.where(active, 1.0, slope)
    upper_intercept = np.where(unstable, -slope * lower, 0.0)
    return lower_slope, upper_slope, upper_intercept


class DeepPolyAnalyzer:
    """Backward-substitution bound analyser for a lowered network."""

    def __init__(self, network: LoweredNetwork) -> None:
        self.network = network
        # Sign parts of every weight a batched pass starts a substitution
        # from.  Layer 0's expression is already over the input and is
        # concretised directly, so it needs none.
        self._weight_signs: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] + [
            (np.maximum(weight, 0.0), np.minimum(weight, 0.0))
            for weight in network.weights[1:]]
        # The fused top rows of the last spec seen, as ``(spec, rows)``.
        self._top_memo: Optional[Tuple[LinearOutputSpec, tuple]] = None

    def _top_rows(self, spec: Optional[LinearOutputSpec]) -> tuple:
        """The fused output-plus-spec rows every batched pass ends with.

        The output-bound and specification rows share every relaxation, so
        one backward pass bounds both; the spec rows follow the
        ``output_dim`` output rows.  Returns ``(coefficients, constants,
        signs)``, built once per spec: the memo is keyed by the spec object
        and its value depends on nothing else, so rebuilding it is harmless.
        """
        network = self.network
        if spec is None:
            return network.weights[-1], network.biases[-1], self._weight_signs[-1]
        memo = self._top_memo
        if memo is not None and memo[0] is spec:
            return memo[1]
        require(spec.output_dim == network.output_dim,
                "specification output dimension does not match the network")
        coefficients = np.vstack([network.weights[-1],
                                  spec.coefficients @ network.weights[-1]])
        constants = np.concatenate([network.biases[-1],
                                    spec.coefficients @ network.biases[-1] + spec.offsets])
        rows = (coefficients, constants,
                (np.maximum(coefficients, 0.0), np.minimum(coefficients, 0.0)))
        self._top_memo = (spec, rows)
        return rows

    # -- backward substitution ------------------------------------------------
    def _bound_expression_batch(self, coefficients: np.ndarray, constants: np.ndarray,
                                signs: Optional[Tuple[np.ndarray, np.ndarray]],
                                batch: int, last_hidden: int,
                                lower_slopes: Sequence[np.ndarray],
                                upper_slopes: Sequence[np.ndarray],
                                upper_intercepts: Sequence[np.ndarray],
                                box: InputBox,
                                timings: Optional[PhaseTimings] = None
                                ) -> Tuple[np.ndarray, np.ndarray, BatchedAffineForms]:
        """Scalar bounds and input-level forms of one expression over the box.

        The expression ``A @ h_last_hidden + c`` is shared by a batch:
        ``coefficients`` ``(rows, width)`` and ``constants`` ``(rows,)`` are
        common to all ``batch`` sub-problems, which differ only in their
        relaxations: one ``(batch, width_layer)`` array per hidden layer up
        to ``last_hidden``.  ``signs`` holds the coefficients' positive and
        negative parts, precomputed by the caller (unused, and may be
        ``None``, when ``last_hidden = -1``).  Returns ``(batch, rows)``
        lower and upper bound arrays plus the input-level forms; the lower
        form's minimising corner is the counterexample candidate.

        The minimising and maximising substitutions run as one two-sided
        stack: lower forms in slots ``[0, batch)`` and upper forms in
        ``[batch, 2·batch)`` of one ``(2·batch, rows, width)`` array.  A
        step clips the whole stack once, scales positive parts by the
        stacked slopes ``(lower, upper)`` and negative parts by ``(upper,
        lower)``, adds the intercepts of the lower half's negative and the
        upper half's positive part, and substitutes the affine layer with
        one bias product and one weight GEMM over all ``2·batch·rows`` rows.
        """
        if last_hidden < 0:
            # Already over the input: every sub-problem has the same form.
            with _measure(timings, "concretize"):
                lower = concretize_lower(coefficients, constants, box)
                upper = concretize_upper(coefficients, constants, box)
            A = np.repeat(coefficients[None], batch, axis=0)
            c = np.repeat(constants[None], batch, axis=0)
            return (np.repeat(lower[None], batch, axis=0),
                    np.repeat(upper[None], batch, axis=0),
                    BatchedAffineForms(A, c, A, c))
        count = 2 * batch
        rows = coefficients.shape[0]
        positive, negative = signs
        with _measure(timings, "substitute"):
            A = None
            c = np.empty((count, rows))
            for layer in range(last_hidden, -1, -1):
                ui = upper_intercepts[layer]
                # Positive parts take slopes (lower | upper), negative parts
                # (upper | lower): both are views of one concatenation.
                slopes = np.concatenate((lower_slopes[layer], upper_slopes[layer],
                                         lower_slopes[layer]))
                on_positive = slopes[:count, None, :]
                on_negative = slopes[batch:, None, :]
                if A is None:
                    # First step: the shared matrix's precomputed sign parts.
                    c[:batch] = constants + ui @ negative.T
                    c[batch:] = constants + ui @ positive.T
                    A = positive * on_positive
                    A += negative * on_negative
                else:
                    positive = np.maximum(A, 0.0)
                    negative = np.minimum(A, 0.0)
                    c[:batch] += np.matmul(negative[:batch], ui[:, :, None])[..., 0]
                    c[batch:] += np.matmul(positive[batch:], ui[:, :, None])[..., 0]
                    positive *= on_positive
                    negative *= on_negative
                    A = positive
                    A += negative
                # Substitute z = W h_{layer-1} + b for the whole stack at once.
                weight = self.network.weights[layer]
                flat = A.reshape(count * rows, A.shape[2])
                c += (flat @ self.network.biases[layer]).reshape(count, rows)
                A = (flat @ weight).reshape(count, rows, weight.shape[1])
        lower_A, upper_A = A[:batch], A[batch:]
        lower_c, upper_c = c[:batch], c[batch:]
        with _measure(timings, "concretize"):
            lower = concretize_lower_batch(lower_A, lower_c, box)
            upper = concretize_upper_batch(upper_A, upper_c, box)
        return lower, upper, BatchedAffineForms(lower_A, lower_c, upper_A, upper_c)

    # -- incremental rank-1 split correction -----------------------------------
    @staticmethod
    def _scalar_relaxation(lower: float, upper: float,
                           phase: int) -> Tuple[float, float, float]:
        """The triangle relaxation of one neuron — the rank-1 payload.

        Scalar mirror of :func:`_relaxation_arrays` for a single element
        (identical operations in identical order, so the result is
        bit-identical to the vectorised rebuild).
        """
        active = (phase == ACTIVE) or (lower >= 0.0)
        inactive = (not active) and ((phase == INACTIVE) or (upper <= 0.0))
        if active:
            return 1.0, 1.0, 0.0
        if inactive:
            return 0.0, 0.0, 0.0
        unstable_lower_slope = 1.0 if upper > -lower else 0.0
        slope = upper / (upper - lower)
        return unstable_lower_slope, slope, (-slope) * lower

    @classmethod
    def _correct_neuron(cls, low, high, phase: int):
        """Clip one neuron by its decided phase and re-derive its relaxation.

        Only the clipped neuron can break consistency — the parent's row was
        consistent and the other entries are untouched.  Returns
        ``(low, high, infeasible, lower_slope, upper_slope, intercept)``.
        """
        if phase == ACTIVE:
            low = max(low, 0.0)
        else:
            high = min(high, 0.0)
        infeasible = not low <= high + 1e-12
        if infeasible:
            low, high = min(low, high), max(low, high)
        return (low, high, infeasible) + cls._scalar_relaxation(low, high, phase)

    def _apply_split_corrections_batch(self, corrected, layer: int,
                                       deltas, cache, keys,
                                       lower, upper, ls, us, ui,
                                       layer_infeasible) -> None:
        """Rank-1 split corrections for one layer's stacked rows.

        ``corrected`` pairs stacked-row indices with their parents'
        substitution entries.  Each child inherits the parent's bounds and
        relaxation rows wholesale and only the decided neuron's column is
        rewritten through :meth:`_correct_neuron`.  Every untouched column's
        relaxation inputs are identical to the parent's, so inheriting its
        stored values *is* the full elementwise rebuild, bit for bit.
        """
        for row, entry in corrected:
            delta = deltas[row]
            unit = delta.unit
            lower[row] = entry.lower
            upper[row] = entry.upper
            ls[row] = entry.lower_slope
            us[row] = entry.upper_slope
            ui[row] = entry.upper_intercept
            (lower[row, unit], upper[row, unit], row_infeasible,
             ls[row, unit], us[row, unit], ui[row, unit]) = \
                self._correct_neuron(lower[row, unit], upper[row, unit],
                                     delta.phase)
            layer_infeasible[row] = row_infeasible
            # The stacked rows are written exactly once per layer, so views
            # of them are safe to memoise.
            cache.put_layer(layer, keys[row], SubstitutionEntry(
                lower[row], upper[row], ls[row], us[row], ui[row],
                row_infeasible))
        cache.record_delta_corrections(len(corrected))

    # -- public API -------------------------------------------------------------
    def analyze(self, box: InputBox, splits: Optional[SplitAssignment] = None,
                spec: Optional[LinearOutputSpec] = None,
                lower_slopes: Optional[Sequence[np.ndarray]] = None,
                cache: Optional[BoundCache] = None,
                parent: Optional[SplitAssignment] = None,
                timings: Optional[PhaseTimings] = None) -> BoundReport:
        """Run the full analysis over ``box`` under ``splits``.

        The batch of one of :meth:`analyze_batch`: the same kernel bounds
        ``[splits]`` with ``[parent]`` and one-row slopes.

        Parameters
        ----------
        lower_slopes:
            Optional per-hidden-layer arrays of unstable lower-relaxation
            slopes in ``[0, 1]`` (used by the α-CROWN optimiser); ``None``
            selects DeepPoly's default slope heuristic.
        cache:
            Optional split-aware bound cache.  Only consulted with the
            default slopes; the cache must be dedicated to this network,
            box and spec.
        parent:
            Optional assignment of the sub-problem's BaB parent.  When
            ``splits`` extends it by exactly one neuron and the parent's
            substitution entry at that layer is cached, the split layer is
            derived by the rank-1 correction instead of re-substituted;
            results are identical either way.
        timings:
            Optional :class:`~repro.utils.timing.PhaseTimings` receiving the
            ``substitute`` / ``correct`` / ``concretize`` breakdown.
        """
        if lower_slopes is not None:
            lower_slopes = [np.asarray(slopes, dtype=float)[None]
                            for slopes in lower_slopes]
        parents = None if parent is None else [parent]
        return self._analyze(box, [splits], spec, cache, lower_slopes, parents,
                             timings)[0]

    def analyze_batch(self, box: InputBox,
                      splits_list: Sequence[Optional[SplitAssignment]],
                      spec: Optional[LinearOutputSpec] = None,
                      cache: Optional[BoundCache] = None,
                      lower_slopes: Optional[Sequence[np.ndarray]] = None,
                      parents: Optional[Sequence[Optional[SplitAssignment]]] = None,
                      timings: Optional[PhaseTimings] = None
                      ) -> List[BoundReport]:
        """Analyse ``B`` sub-problems of the same box in one batched pass.

        The backward substitution of all sub-problems runs through shared,
        stacked matmuls; each report agrees with bounding its sub-problem
        alone up to floating-point reassociation well below 1e-9 on the
        networks used here.  With a ``cache``,
        sub-problems whose layer prefixes (or whole assignment) were seen
        before skip straight past the memoised layers.

        ``lower_slopes`` optionally supplies one ``(B, width_layer)`` array
        per hidden layer of unstable lower-relaxation slopes in ``[0, 1]``
        (row ``b`` applies to ``splits_list[b]``), used by the α-CROWN
        optimiser; supplying slopes bypasses the cache entirely.

        ``parents`` optionally supplies the BaB parent of each sub-problem
        (index-aligned with ``splits_list``, ``None`` entries allowed); a
        sub-problem extending its parent by one split resolves its split
        layer through the rank-1 correction against the parent's cached
        substitution entry instead of a fresh backward substitution.
        """
        return self._analyze(box, splits_list, spec, cache, lower_slopes, parents,
                             timings)

    def _analyze(self, box: InputBox,
                 splits_list: Sequence[Optional[SplitAssignment]],
                 spec: Optional[LinearOutputSpec],
                 cache: Optional[BoundCache],
                 lower_slopes: Optional[Sequence[np.ndarray]],
                 parents: Optional[Sequence[Optional[SplitAssignment]]],
                 timings: Optional[PhaseTimings]) -> List[BoundReport]:
        """The analysis kernel behind :meth:`analyze` and :meth:`analyze_batch`.

        Both public entry points call it directly rather than one another,
        so a wrapper installed on one of them (a profiler's span, say) never
        also sees the other's calls.
        """
        network = self.network
        require(box.dimension == network.input_dim,
                "input box dimension does not match the network")
        splits_list = [s or SplitAssignment.empty() for s in splits_list]
        batch_size = len(splits_list)
        if batch_size == 0:
            return []
        if lower_slopes is not None:
            require(len(lower_slopes) == network.num_relu_layers,
                    "lower_slopes must provide one array per hidden layer")
        if parents is not None:
            require(len(parents) == batch_size,
                    "parents must be index-aligned with splits_list")
        use_cache = cache is not None and lower_slopes is None
        incremental = use_cache and parents is not None
        num_layers = network.num_relu_layers

        # Canonical keys: in incremental mode a one-split child's key is
        # derived from its parent's by a sorted insertion (the parent's key
        # is sorted once per round, not once per child per layer).
        canonical_keys: List[Tuple] = [None] * batch_size
        all_deltas: List[Optional[ReluSplit]] = [None] * batch_size
        if use_cache:
            if incremental:
                parent_canonicals = {}
                for index, splits in enumerate(splits_list):
                    # Only a one-split extension of the parent at a hidden
                    # layer reuses the parent's pass.
                    delta = split_delta(parents[index], splits)
                    if delta is None or delta.layer >= num_layers:
                        canonical_keys[index] = splits.canonical_key()
                        continue
                    parent = parents[index]
                    parent_canonical = parent_canonicals.get(id(parent))
                    if parent_canonical is None:
                        parent_canonical = parent.canonical_key()
                        parent_canonicals[id(parent)] = parent_canonical
                    canonical_keys[index] = insert_into_canonical(parent_canonical,
                                                                  delta)
                    all_deltas[index] = delta
            else:
                for index, splits in enumerate(splits_list):
                    canonical_keys[index] = splits.canonical_key()

        reports: List[Optional[BoundReport]] = [None] * batch_size
        if use_cache:
            for index in range(batch_size):
                cached = cache.get_report(canonical_keys[index], spec is not None)
                if cached is not None:
                    reports[index] = cached.shallow_copy()
        pending = [index for index in range(batch_size) if reports[index] is None]
        if not pending:
            return reports
        sub = [splits_list[index] for index in pending]
        count = len(sub)

        # Per pending sub-problem: the parent assignment and single-split
        # delta when the incremental rank-1 correction applies, plus the
        # per-layer prefix-slice boundaries of the derived canonical key.
        deltas: List[Optional[ReluSplit]] = [None] * count
        parent_of: List[Optional[SplitAssignment]] = [None] * count
        sub_canonicals: List[Tuple] = [None] * count
        sub_counts: List[Tuple[int, ...]] = [None] * count
        parent_phase_memo = {}
        if use_cache:
            for position, index in enumerate(pending):
                sub_canonicals[position] = canonical_keys[index]
                if incremental:
                    sub_counts[position] = prefix_counts(canonical_keys[index],
                                                         num_layers)
                    deltas[position] = all_deltas[index]
                    if all_deltas[index] is not None:
                        parent_of[position] = parents[index]

        def _parent_phases(position: int, layer: int, width: int) -> np.ndarray:
            """The parent's decided-phase row for one layer, memoised per
            round.  Valid for the child too at every layer except the
            split layer (the delta adds the only new decision)."""
            parent = parent_of[position]
            memo_key = (id(parent), layer)
            phases = parent_phase_memo.get(memo_key)
            if phases is None:
                phases = parent.layer_phase_array(layer, width)
                parent_phase_memo[memo_key] = phases
            return phases

        parent_key_memo = {}

        def _parent_prefix(position: int, layer: int) -> Tuple:
            """The parent's prefix key at one layer, memoised per round
            (both phase-split siblings probe the same parent entry)."""
            parent = parent_of[position]
            memo_key = (id(parent), layer)
            key = parent_key_memo.get(memo_key)
            if key is None:
                key = parent.prefix_key(layer)
                parent_key_memo[memo_key] = key
            return key

        # Per layer, stacked (count, width) relaxation state of every pending
        # sub-problem (named ``relax_*`` to keep them distinct from the
        # ``lower_slopes`` override parameter).
        relax_lower_slopes: List[np.ndarray] = []
        relax_upper_slopes: List[np.ndarray] = []
        relax_upper_intercepts: List[np.ndarray] = []
        lower_layers: List[np.ndarray] = []
        upper_layers: List[np.ndarray] = []
        infeasible = np.zeros(count, dtype=bool)

        for layer in range(network.num_relu_layers):
            weight = network.weights[layer]
            bias = network.biases[layer]
            width = weight.shape[0]
            lower = np.empty((count, width))
            upper = np.empty((count, width))
            ls = np.empty((count, width))
            us = np.empty((count, width))
            ui = np.empty((count, width))
            layer_infeasible = np.zeros(count, dtype=bool)

            keys = None
            miss = list(range(count))
            if use_cache:
                if incremental:
                    keys = [sub_canonicals[row][:sub_counts[row][layer]]
                            for row in range(count)]
                else:
                    keys = [splits.prefix_key(layer) for splits in sub]
                miss = []
                corrected: List[Tuple[int, SubstitutionEntry]] = []
                for row in range(count):
                    entry = cache.get_layer(layer, keys[row])
                    if entry is not None:
                        lower[row] = entry.lower
                        upper[row] = entry.upper
                        ls[row] = entry.lower_slope
                        us[row] = entry.upper_slope
                        ui[row] = entry.upper_intercept
                        layer_infeasible[row] = entry.infeasible
                        continue
                    delta = deltas[row]
                    if delta is not None and delta.layer == layer:
                        parent_entry = cache.peek_layer(
                            layer, _parent_prefix(row, layer))
                        if parent_entry is not None and not parent_entry.infeasible:
                            corrected.append((row, parent_entry))
                            continue
                    miss.append(row)
                if corrected:
                    with _measure(timings, "correct"):
                        self._apply_split_corrections_batch(
                            corrected, layer, deltas, cache, keys,
                            lower, upper, ls, us, ui, layer_infeasible)

            if miss:
                idx = np.asarray(miss, dtype=int)
                relaxations = (relax_lower_slopes, relax_upper_slopes,
                               relax_upper_intercepts)
                if len(miss) < count:
                    relaxations = [[a[idx] for a in stack] for stack in relaxations]
                miss_lower, miss_upper, _ = self._bound_expression_batch(
                    weight, bias, self._weight_signs[layer], len(miss), layer - 1,
                    *relaxations, box, timings=timings)
                if incremental:
                    # Away from its split layer a child's decided phases are
                    # exactly its parent's, so the rows of the clip mask can
                    # be memoised per parent instead of rebuilt per child.
                    phases = np.stack([
                        (_parent_phases(row, layer, width)
                         if parent_of[row] is not None
                         and deltas[row].layer != layer
                         else sub[row].layer_phase_array(layer, width))
                        for row in miss])
                else:
                    phases = stacked_phase_array([sub[row] for row in miss],
                                                 layer, width)
                miss_lower, miss_upper, inconsistent = clip_bounds_with_phases(
                    miss_lower, miss_upper, phases)
                miss_slopes = None
                if lower_slopes is not None:
                    layer_slopes = np.clip(
                        np.asarray(lower_slopes[layer], dtype=float), 0.0, 1.0)
                    require(layer_slopes.shape == (batch_size, width),
                            f"lower_slopes for layer {layer} must have shape "
                            f"{(batch_size, width)}")
                    miss_slopes = layer_slopes[
                        np.asarray([pending[row] for row in miss], dtype=int)]
                miss_ls, miss_us, miss_ui = _relaxation_arrays(
                    miss_lower, miss_upper, phases, miss_slopes)
                lower[idx] = miss_lower
                upper[idx] = miss_upper
                ls[idx] = miss_ls
                us[idx] = miss_us
                ui[idx] = miss_ui
                layer_infeasible[idx] = inconsistent
                if use_cache:
                    for position, row in enumerate(miss):
                        cache.put_layer(layer, keys[row], SubstitutionEntry(
                            miss_lower[position].copy(), miss_upper[position].copy(),
                            miss_ls[position].copy(), miss_us[position].copy(),
                            miss_ui[position].copy(), bool(inconsistent[position])))

            infeasible |= layer_infeasible
            lower_layers.append(lower)
            upper_layers.append(upper)
            relax_lower_slopes.append(ls)
            relax_upper_slopes.append(us)
            relax_upper_intercepts.append(ui)

        # One fused backward pass bounds the output and specification rows
        # (the spec rows are sliced off the stacked result afterwards).
        last_hidden = network.num_relu_layers - 1
        num_outputs = network.biases[-1].shape[0]
        top_lower, top_upper, top_forms = self._bound_expression_batch(
            *self._top_rows(spec), count, last_hidden, relax_lower_slopes,
            relax_upper_slopes, relax_upper_intercepts, box, timings=timings)
        output_lower = top_lower[:, :num_outputs]
        output_upper = top_upper[:, :num_outputs]

        spec_lower = None
        candidates = None
        worst_rows = None
        if spec is not None:
            spec_lower = top_lower[:, num_outputs:]
            worst_rows = np.argmin(spec_lower, axis=1)
            candidates = BatchedAffineForms(
                top_forms.lower_A[:, num_outputs:, :],
                top_forms.lower_c[:, num_outputs:],
                top_forms.upper_A[:, num_outputs:, :],
                top_forms.upper_c[:, num_outputs:]).minimizers(box, worst_rows)

        for position, index in enumerate(pending):
            pre_bounds = [ScalarBounds.wrap(lower_layers[layer][position],
                                            upper_layers[layer][position])
                          for layer in range(network.num_relu_layers)]
            spec_row_lower = None
            p_hat = None
            candidate = None
            if spec is not None:
                spec_row_lower = spec_lower[position]
                candidate = candidates[position]
                p_hat = (float("inf") if infeasible[position]
                         else float(spec_row_lower[worst_rows[position]]))
            report = BoundReport(pre_activation_bounds=pre_bounds,
                                 output_bounds=ScalarBounds.wrap(output_lower[position],
                                                                 output_upper[position]),
                                 spec_row_lower=spec_row_lower,
                                 p_hat=p_hat,
                                 candidate_input=candidate,
                                 infeasible=bool(infeasible[position]),
                                 method="deeppoly")
            # Report entries are stored for every child, including those
            # resolved through the parent delta: within one run the
            # substitution entries subsume report reuse (a frontier never
            # re-bounds a child it already expanded), but a *shared* cache
            # outlives the run — the verification service replays identical
            # jobs against it, and their children are report hits only if
            # the first run stored them.
            if use_cache:
                cache.put_report(sub_canonicals[position], spec is not None,
                                 report.shallow_copy())
            reports[index] = report
        return reports

def deeppoly_bounds(network: LoweredNetwork, box: InputBox,
                    splits: Optional[SplitAssignment] = None,
                    spec: Optional[LinearOutputSpec] = None,
                    lower_slopes: Optional[Sequence[np.ndarray]] = None) -> BoundReport:
    """Convenience wrapper around :class:`DeepPolyAnalyzer`."""
    return DeepPolyAnalyzer(network).analyze(box, splits=splits, spec=spec,
                                             lower_slopes=lower_slopes)


def deeppoly_bounds_batch(network: LoweredNetwork, box: InputBox,
                          splits_list: Sequence[Optional[SplitAssignment]],
                          spec: Optional[LinearOutputSpec] = None,
                          cache: Optional[BoundCache] = None) -> List[BoundReport]:
    """Convenience wrapper around :meth:`DeepPolyAnalyzer.analyze_batch`."""
    return DeepPolyAnalyzer(network).analyze_batch(box, splits_list, spec=spec,
                                                   cache=cache)
