"""An αβ-CROWN-like baseline verifier.

The paper compares ABONN against the αβ-CROWN tool, "the state-of-the-art
verification tool ... that features various sophisticated heuristics for
performance improvement".  The closed-source-free reproduction below keeps
the behaviours that matter for that comparison:

* **attack-first falsification** — a multi-restart PGD attack runs before
  any expensive bounding, so clearly-violated instances are dispatched
  immediately;
* **optimised root bounds** — the root sub-problem is bounded with α-CROWN
  (optimised lower-relaxation slopes), which certifies many instances
  without any branching;
* **bound-ordered best-first BaB** — remaining sub-problems are explored
  best-first by their bound (most-violated first), with per-neuron split
  constraints tightening the child bounds (the role β plays in the original
  tool) and batched, cached LP resolution of fully-decided leaves.  The
  frontier loop runs on the shared
  :class:`~repro.engine.driver.FrontierDriver` over a thin heap work
  source: each round pops the top-``frontier_size`` most-violated
  sub-problems and bounds all of their children in one batched call (the
  original tool batches hundreds of domains per GPU pass the same way);
  ``frontier_size=1`` reproduces the sequential loop's verdicts and
  charges (one deferred-leaf-LP caveat in the terminal round when a leaf
  LP falsifies — see the engine's docstring).

Node-budget accounting: one α-CROWN evaluation internally performs several
bound computations (the SPSA iterations), so it is charged accordingly —
this mirrors the higher per-call cost of the original tool.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Tuple

from repro.bab.domain import BaBNode
from repro.bab.heuristics import make_heuristic
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
from repro.verifiers.attack import AttackConfig, pgd_attack
from repro.verifiers.milp import shared_cache_fingerprint
from repro.verifiers.result import (
    CompletedRun,
    VerificationResult,
    VerificationStatus,
    Verifier,
    VerifierRun,
    make_budget,
)

#: A heap entry: (bound, tie-break counter, sub-problem).
HeapEntry = Tuple[float, int, BaBNode]


class HeapFrontierSource(LinearWorkSource):
    """A best-first (most-violated-bound) heap as a work source.

    Budget starvation pushes the popped entry straight back onto the heap
    (its bound key and tie-break are unchanged), keeping the unresolved
    sub-problem alive; the TIMEOUT-not-VERIFIED invariants and every other
    hook live in :class:`~repro.engine.driver.LinearWorkSource`.
    """

    def __init__(self, root: BaBNode, **common) -> None:
        self.heap: List[HeapEntry] = []
        self.counter = itertools.count()
        self._popped: Optional[HeapEntry] = None
        super().__init__(root, **common)

    def has_work(self) -> bool:
        """Whether any unresolved sub-problem is still on the heap."""
        return bool(self.heap)

    def _pop(self) -> BaBNode:
        """Pop the most-violated sub-problem."""
        self._popped = heapq.heappop(self.heap)
        return self._popped[2]

    def _push(self, node: BaBNode) -> None:
        """Push a sub-problem keyed by its bound (ties in push order)."""
        heapq.heappush(self.heap, (node.outcome.p_hat, next(self.counter), node))

    def _reinsert(self, node: BaBNode) -> None:
        """Undo the latest pop: its entry becomes the next pop again."""
        heapq.heappush(self.heap, self._popped)


class AlphaBetaCrownVerifier(Verifier):
    """Attack + α-CROWN root + bound-ordered best-first BaB.

    ``lp_cache`` optionally shares a leaf-LP cache across runs on the same
    verification problem (see :class:`~repro.bounds.cache.LpCache`).
    """

    name = "alpha-beta-CROWN"

    def __init__(self, heuristic: str = "deepsplit",
                 attack_config: Optional[AttackConfig] = None,
                 alpha_config: Optional[AlphaCrownConfig] = None,
                 frontier_size: int = 1,
                 lp_cache: Optional[LpCache] = None,
                 incremental: bool = True) -> None:
        require(frontier_size >= 1, "frontier_size must be positive")
        self.heuristic_name = heuristic
        self.attack_config = attack_config or AttackConfig(steps=25, restarts=3)
        self.alpha_config = alpha_config or AlphaCrownConfig(iterations=6)
        self.frontier_size = frontier_size
        self.lp_cache = lp_cache
        self.incremental = incremental

    def verify(self, network: Network, spec: Specification,
               budget: Optional[Budget] = None) -> VerificationResult:
        """Attack, then α-CROWN root bound, then best-first engine BaB."""
        return self.start_run(network, spec, budget).run_to_completion()

    def start_run(self, network: Network, spec: Specification,
                  budget: Optional[Budget] = None) -> VerifierRun:
        """Run the attack and root-bound stages; return a resumable BaB run.

        The cheap pre-BaB stages (PGD attack, α-CROWN root bound) execute
        here, so an instance they settle comes back as a
        :class:`~repro.verifiers.result.CompletedRun`; otherwise the
        returned run is preemptible at frontier-round boundaries like the
        other engine-backed verifiers.
        """
        budget = make_budget(budget)
        heuristic = make_heuristic(self.heuristic_name)
        lp_cache = self.lp_cache if self.lp_cache is not None else LpCache()

        # Stage 1: adversarial attack (cheap falsification).
        attack = pgd_attack(network, spec, self.attack_config)
        budget.charge_node()  # the attack costs roughly one bound computation
        if attack.is_counterexample:
            return CompletedRun(self._finish(
                DriverVerdict(VerificationStatus.FALSIFIED,
                              counterexample=attack.best_input,
                              bound=attack.best_margin),
                budget, lp_cache, tree_size=1))

        # Stage 2: α-CROWN bound on the root problem.
        appver = ApproximateVerifier(network, spec, "alpha-crown",
                                     alpha_config=self.alpha_config)
        root_outcome = appver.evaluate()
        root_cost = 2 + 3 * self.alpha_config.iterations
        budget.charge_node(root_cost)
        verdict = root_verdict(root_outcome)
        if verdict is not None:
            return CompletedRun(self._finish(verdict, budget, lp_cache,
                                             tree_size=budget.nodes))

        # Stage 3: best-first BaB ordered by the bound (most violated first)
        # on the shared frontier engine, using the cheaper DeepPoly back-end
        # for sub-problems.
        sub_appver = ApproximateVerifier(network, spec, "deeppoly",
                                         incremental=self.incremental)
        source = HeapFrontierSource(
            BaBNode(SplitAssignment.empty(), 0, root_outcome),
            appver=sub_appver, heuristic=heuristic, spec=spec, budget=budget,
            lp_cache=lp_cache,
            lp_fingerprint=shared_cache_fingerprint(self.lp_cache,
                                                    sub_appver.lowered, spec),
            probe=False)
        driver = FrontierDriver(sub_appver, self.frontier_size)
        return EngineRun(driver.start(source, budget),
                         lambda verdict: self._finish(
                             verdict, budget, lp_cache, tree_size=budget.nodes,
                             lp_leaves=source.statistics.leaves_lp_resolved,
                             appver=sub_appver))

    # -- helpers ---------------------------------------------------------------
    def _finish(self, verdict: DriverVerdict, budget: Budget, lp_cache: LpCache,
                tree_size: int, lp_leaves: int = 0,
                appver: Optional[ApproximateVerifier] = None) -> VerificationResult:
        return VerificationResult(
            status=verdict.status,
            verifier=self.name,
            elapsed_seconds=budget.elapsed_seconds,
            nodes_explored=budget.nodes,
            tree_size=tree_size,
            counterexample=verdict.counterexample,
            bound=verdict.bound,
            extras={"heuristic": self.heuristic_name,
                    "alpha_iterations": self.alpha_config.iterations,
                    "frontier_size": self.frontier_size,
                    "incremental": self.incremental,
                    "lp_leaves_resolved": lp_leaves,
                    "lp_cache": lp_cache.stats.as_dict(),
                    "timings": (appver.timings.as_dict() if appver is not None
                                else {})},
        )
