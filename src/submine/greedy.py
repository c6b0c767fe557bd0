"""Budgeted greedy maximization of conditional gains, plus an exhaustive oracle.

The naive greedy runs exactly k rounds (no early stop on negative gains) and
breaks ties by lowest item index.  The lazy variant keeps stale upper bounds
in a heap and must select the identical sequence; it only saves marginal-gain
evaluations.  Brute force enumerates every subset up to the budget and is the
ground truth for small instances.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable

import numpy as np

from .kernels import EMPTY_SET, IndexSet
from .objectives import (
    Family,
    MarginalState,
    SubmodularObjective,
    commit,
    evaluate,
    marginal_gain,
    marginal_state,
)

# Subset-enumeration guard for brute_force_opt.
MAX_BRUTE_FORCE_SUBSETS = 10_000_000


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selection run.

    gains holds the per-round marginal gains in pick order; objective_value is
    their sum, i.e. the conditional gain of the selected set given the
    conditioning set.  evaluations counts objective/marginal evaluations.
    """

    selected: IndexSet
    gains: tuple[float, ...]
    objective_value: float
    budget: int
    evaluations: int = 0


def _prep(
    objective: SubmodularObjective,
    candidates: IndexSet | Iterable[int],
    k: int,
    conditioning: IndexSet | MarginalState | None,
    allow_conditioned: bool = False,
):
    cand = candidates if isinstance(candidates, IndexSet) else IndexSet.of(candidates)
    state = None
    if isinstance(conditioning, MarginalState):
        if conditioning.objective is not objective:
            raise ValueError("conditioning state belongs to another objective")
        state = conditioning
        conditioning = IndexSet(tuple(state.selected))
    cond = conditioning if conditioning is not None else EMPTY_SET
    if int(k) != k or k < 0:
        raise ValueError("budget k must be a non-negative integer")
    cand.check_bounds(objective.n)
    cond.check_bounds(objective.n)
    if not allow_conditioned and cand.intersects(cond):
        raise ValueError("candidates overlap conditioning set")
    if state is None:
        state = _conditioned_state(objective, cond)
    return cand.sorted().as_array(), cond, state


def _conditioned_state(objective: SubmodularObjective, cond: IndexSet) -> MarginalState:
    """A fresh state with the items of cond committed in order."""
    state = marginal_state(objective)
    for q in cond:
        commit(state, q)
    return state


def _greedy(state: MarginalState, order: np.ndarray, cond: IndexSet, k: int) -> SelectionResult:
    """The greedy loop, continuing from `state`, whose selection is `cond`.

    Each fresh pick is committed into `state` in place.
    """
    fresh = ~np.isin(order, cond.as_array())
    left = np.ones(len(order), dtype=bool)
    picks: list[int] = []
    gains: list[float] = []
    evals = 0
    for _ in range(min(k, len(order))):
        round_gains = np.where(left, 0.0, -np.inf)
        rows = np.flatnonzero(left & fresh)
        round_gains[rows] = state.gains(order[rows])
        evals += len(rows)
        p = int(np.argmax(round_gains))  # the first maximum: lowest index wins
        picks.append(int(order[p]))
        gains.append(float(round_gains[p]))
        left[p] = False
        if fresh[p]:
            commit(state, picks[-1])
    return SelectionResult(IndexSet.of(picks), tuple(gains), float(sum(gains)), k, evals)


def greedy_max(
    objective: SubmodularObjective,
    candidates: IndexSet | Iterable[int],
    k: int,
    conditioning: IndexSet | MarginalState | None = None,
    *,
    allow_conditioned_candidates: bool = False,
) -> SelectionResult:
    """Greedy argmax of the conditional gain under a cardinality budget.

    conditioning is the set to condition on, or a MarginalState of this
    objective whose selection is that set: the run then continues from the
    state and commits its picks into it, instead of re-committing the set.
    With allow_conditioned_candidates items already in the conditioning set
    may appear in the pool; re-selecting one contributes exactly zero gain
    (set semantics) and leaves the state untouched.
    """
    order, cond, state = _prep(
        objective, candidates, int(k), conditioning, allow_conditioned_candidates
    )
    return _greedy(state, order, cond, int(k))


def lazy_greedy_max(
    objective: SubmodularObjective,
    candidates: IndexSet | Iterable[int],
    k: int,
    conditioning: IndexSet | None = None,
) -> SelectionResult:
    """Heap-accelerated greedy; identical picks and gains to greedy_max.

    The stale-bound argument needs diminishing returns: facility-location and
    graph-cut raise ValueError on a negative kernel entry among those their
    gains read (ground x pool and pool x pool, the pool taken with the
    conditioning set); log-determinant needs a positive-definite kernel.
    """
    order, cond, state = _prep(objective, candidates, int(k), conditioning)
    family = objective.family
    if family is not Family.LOG_DET:
        cols = np.concatenate([order, cond.as_array()])
        rows = objective.ground.as_array() if family is Family.FACILITY_LOCATION else cols
        if np.any(objective.kernel.matrix[np.ix_(rows, cols)] < 0.0):
            raise ValueError(f"lazy greedy needs a non-negative kernel for {family.value}")
    heap = [(-float(g), int(v), 0) for g, v in zip(state.gains(order), order)]
    evals = len(heap)
    heapq.heapify(heap)
    picks: list[int] = []
    gains: list[float] = []
    for rnd in range(min(int(k), len(heap))):
        while True:
            neg, v, stamp = heapq.heappop(heap)
            if stamp == rnd:
                break
            evals += 1
            heapq.heappush(heap, (-marginal_gain(state, v), v, rnd))
        picks.append(v)
        gains.append(-neg)
        commit(state, v)
    return SelectionResult(
        IndexSet.of(picks), tuple(gains), float(sum(gains)), int(k), evals
    )


def brute_force_opt(
    objective: SubmodularObjective,
    candidates: IndexSet | Iterable[int],
    k: int,
    conditioning: IndexSet | None = None,
) -> SelectionResult:
    """Exhaustive search over all subsets of size <= k.

    Ties keep the first subset in enumeration order (sizes ascending, each
    size in lexicographic order over sorted candidate indices).
    """
    order, cond, state = _prep(objective, candidates, int(k), conditioning)
    kmax = min(int(k), len(order))
    total = sum(comb(len(order), j) for j in range(kmax + 1))
    if total > MAX_BRUTE_FORCE_SUBSETS:
        raise ValueError(f"search space too large: {total} subsets to enumerate")
    base = evaluate(objective, cond) if len(cond) else 0.0
    best_set: tuple[int, ...] = ()
    best_val = 0.0
    evals = 1
    for size in range(1, kmax + 1):
        for combo in itertools.combinations(order, size):
            val = evaluate(objective, cond.union(IndexSet(combo))) - base
            evals += 1
            if val > best_val:
                best_set, best_val = combo, val
    # Telescope the winner for per-step gains.
    gains: list[float] = []
    for v in best_set:
        gains.append(marginal_gain(state, v))
        commit(state, v)
    return SelectionResult(
        IndexSet(best_set), tuple(gains), float(best_val), int(k), evals
    )
