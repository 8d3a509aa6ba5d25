"""The naive BaB verifier the paper uses as ``BaB-baseline``.

It explores the sub-problem space breadth-first ("first come, first served",
§IV): whenever a sub-problem's bound raises a false alarm, both children are
created, bounded, and appended to a FIFO queue.  A depth-first variant is
also provided because it is a useful ablation point.

The frontier loop itself runs on the shared
:class:`~repro.engine.driver.FrontierDriver`: this module contributes a thin
queue work source that pops up to ``frontier_size`` sub-problems per round
(FIFO or LIFO) and pushes starved sub-problems back so budget exhaustion
surfaces as TIMEOUT — never as a spurious VERIFIED from an emptied queue.
``frontier_size=1`` (the default) reproduces the sequential loop's
verdicts, counterexamples and charges (one deferred-leaf-LP caveat in the
terminal round when a leaf LP falsifies — see the engine's docstring).

Completeness: when a sub-problem has no unstable neuron left but its bound
is still negative (an artefact of the linear relaxation not feeding the
split constraints back into the input region), the sub-problem is resolved
exactly with the leaf LP of :mod:`repro.verifiers.milp` — the same role the
paper's GUROBI back-end plays.  All decided leaves of one round are solved
through one batched, cached :func:`~repro.verifiers.milp.solve_leaf_lp_batch`
call.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.bab.domain import BaBNode, BaBStatistics
from repro.bab.heuristics import BranchingHeuristic, make_heuristic
from repro.bounds.alpha_crown import AlphaCrownConfig
from repro.bounds.cache import LpCache
from repro.bounds.splits import SplitAssignment
from repro.engine.driver import DriverVerdict, EngineRun, FrontierDriver, \
    LinearWorkSource, root_verdict
from repro.nn.network import Network
from repro.specs.properties import Specification
from repro.utils.timing import Budget
from repro.utils.validation import require
from repro.verifiers.appver import ApproximateVerifier
from repro.verifiers.milp import shared_cache_fingerprint
from repro.verifiers.result import (
    CompletedRun,
    VerificationResult,
    Verifier,
    VerifierRun,
    make_budget,
)


class QueueFrontierSource(LinearWorkSource):
    """A FIFO/LIFO queue of BaB sub-problems as a work source.

    Budget starvation pushes the popped node back to the *front* of its
    exploration order so the unresolved sub-problem keeps the queue alive —
    the TIMEOUT-not-VERIFIED invariants, the statistics and every other
    hook live in :class:`~repro.engine.driver.LinearWorkSource`.
    """

    def __init__(self, exploration: str, root: BaBNode, **common) -> None:
        self.exploration = exploration
        self.queue: Deque[BaBNode] = deque()
        super().__init__(root, **common)

    def has_work(self) -> bool:
        """Whether any unresolved sub-problem is still queued."""
        return bool(self.queue)

    def _pop(self) -> BaBNode:
        """Pop in exploration order (front for BFS, back for DFS)."""
        return self.queue.popleft() if self.exploration == "bfs" else self.queue.pop()

    def _push(self, node: BaBNode) -> None:
        """Queue a newly bounded sub-problem at the back."""
        self.queue.append(node)

    def _reinsert(self, node: BaBNode) -> None:
        """Undo a pop: restore the node to the end it was popped from."""
        if self.exploration == "bfs":
            self.queue.appendleft(node)
        else:
            self.queue.append(node)


class BaBBaselineVerifier(Verifier):
    """Breadth-first (or depth-first) branch-and-bound verification.

    ``lp_cache`` optionally shares a leaf-LP cache across runs on the same
    verification problem (see :class:`~repro.bounds.cache.LpCache`);
    ``bound_cache`` does the same for the split-aware bound cache (the
    verification service scopes both by the problem fingerprint).
    """

    name = "BaB-baseline"

    def __init__(self, heuristic: str = "deepsplit", bound_method: str = "deeppoly",
                 exploration: str = "bfs",
                 alpha_config: Optional[AlphaCrownConfig] = None,
                 frontier_size: int = 1,
                 lp_cache: Optional[LpCache] = None,
                 incremental: bool = True,
                 bound_cache=None) -> None:
        require(exploration in ("bfs", "dfs"),
                f"exploration must be 'bfs' or 'dfs', got {exploration!r}")
        require(frontier_size >= 1, "frontier_size must be positive")
        self.heuristic_name = heuristic
        self.bound_method = bound_method
        self.exploration = exploration
        self.alpha_config = alpha_config
        self.frontier_size = frontier_size
        self.lp_cache = lp_cache
        self.incremental = incremental
        self.bound_cache = bound_cache
        if exploration == "dfs":
            self.name = "BaB-dfs"

    def _make_heuristic(self) -> BranchingHeuristic:
        return make_heuristic(self.heuristic_name)

    def start_run(self, network: Network, spec: Specification,
                  budget: Optional[Budget] = None) -> VerifierRun:
        """Set up BaB and return a run preemptible at round boundaries."""
        budget = make_budget(budget)
        appver = ApproximateVerifier(network, spec, self.bound_method,
                                     alpha_config=self.alpha_config,
                                     incremental=self.incremental,
                                     bound_cache=self.bound_cache)
        heuristic = self._make_heuristic()
        lp_cache = self.lp_cache if self.lp_cache is not None else LpCache()

        root_outcome = appver.evaluate()
        budget.charge_node()
        verdict = root_verdict(root_outcome)
        if verdict is not None:
            return CompletedRun(self._finish(verdict, budget, appver, lp_cache,
                                             BaBStatistics()))

        source = QueueFrontierSource(
            self.exploration, BaBNode(SplitAssignment.empty(), 0, root_outcome),
            appver=appver, heuristic=heuristic, spec=spec, budget=budget,
            lp_cache=lp_cache,
            lp_fingerprint=shared_cache_fingerprint(self.lp_cache, appver.lowered,
                                                    spec),
            probe=True)
        driver = FrontierDriver(appver, self.frontier_size)
        return EngineRun(driver.start(source, budget),
                         lambda verdict: self._finish(verdict, budget, appver,
                                                      lp_cache, source.statistics))

    def verify(self, network: Network, spec: Specification,
               budget: Optional[Budget] = None) -> VerificationResult:
        """Run breadth/depth-first BaB on the shared frontier engine."""
        return self.start_run(network, spec, budget).run_to_completion()

    # -- helpers --------------------------------------------------------------
    def _finish(self, verdict: DriverVerdict, budget: Budget,
                appver: ApproximateVerifier, lp_cache: LpCache,
                statistics: BaBStatistics) -> VerificationResult:
        statistics.tree_size = appver.num_calls
        extras = statistics.as_dict()
        extras["frontier_size"] = self.frontier_size
        extras["incremental"] = self.incremental
        extras["bound_cache"] = appver.cache_stats()
        extras["lp_cache"] = lp_cache.stats.as_dict()
        extras["timings"] = appver.timings.as_dict()
        return VerificationResult(
            status=verdict.status,
            verifier=self.name,
            elapsed_seconds=budget.elapsed_seconds,
            nodes_explored=appver.num_calls,
            tree_size=appver.num_calls,
            counterexample=verdict.counterexample,
            bound=verdict.bound,
            extras=extras,
        )
