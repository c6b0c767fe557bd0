"""Budgeted greedy maximization of conditional gains.

Greedy runs exactly k rounds (no early stop on negative gains) and breaks ties
by lowest item index.  greedy_max and lazy_greedy_max share one loop, which may
prune rounds with stale upper bounds (Minoux 1978; Leskovec et al., KDD 2007)
without changing a pick or a gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .kernels import EMPTY_SET, IndexSet, nonnegative
from .objectives import (
    Family,
    MarginalState,
    SubmodularObjective,
    commit,
    marginal_gain,  # noqa: F401 -- no caller here; perfbench's tracer wraps greedy.marginal_gain
    marginal_state,
)

# Rows a pruned round scores per call after the first round.
PRUNE_CHUNK = 16


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selection run.

    gains: the per-round marginal gains in pick order; objective_value: their
    sum, the conditional gain of the selection given the conditioning set;
    evaluations: rows scored by MarginalState.gains.
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
    if state is None:  # room for every pick; a handed-in state keeps its own
        state = _conditioned_state(objective, cond, min(k, len(cand)))
    return cand.sorted().as_array(), cond, state


def _conditioned_state(
    objective: SubmodularObjective, cond: IndexSet, commits: int = 0
) -> MarginalState:
    """A fresh state with the items of cond committed in order, and room for
    `commits` more commits."""
    state = marginal_state(objective, len(cond) + commits)
    for q in cond:
        commit(state, q)
    return state


def _greedy(state: MarginalState, order: np.ndarray, k: int, prune: bool) -> SelectionResult:
    """The greedy loop from `state`, whose selection is the conditioning set:
    fresh picks are committed into it, in the room the state was made with,
    and picks already selected gain 0 unscored.  The live fresh rows are one
    array, made once and kept across rounds; a pick leaves it.  An unpruned
    round, and the first round, which has no bounds, scores every live row
    with one gather and one gains call, and the gain state bounds the kernel
    entries that call reads.  prune (sound under diminishing returns) takes
    a row's last gain as a bound on its next: each later round re-ranks the
    last round's order with one stable sort, which is linear when only a
    short scored prefix moved, and scores rows PRUNE_CHUNK a call by
    descending bound until every unscored bound is below the best gain, so
    no unscored row can win or tie.  Rows start in index order, and rows of
    equal bound keep the order they had the round before; that order can
    move a chunk boundary, never a pick."""
    fresh = ~np.isin(order, state.selected)  # live and not in the selection
    rows = np.flatnonzero(fresh)
    # Per row: its gain this round, else its last gain; picked rows -inf.
    round_gains = np.where(fresh, -np.inf, 0.0)
    picks: list[int] = []
    gains: list[float] = []
    evals = 0
    for _ in range(min(k, len(order))):
        if prune and picks:
            rows = rows[np.argsort(-round_gains[rows], kind="stable")]
            start, best = 0, -np.inf
            while start < len(rows) and round_gains[rows[start]] >= best:
                chunk = rows[start : start + PRUNE_CHUNK]
                round_gains[chunk] = g = state.gains(order[chunk])
                evals += len(chunk)
                start += PRUNE_CHUNK
                best = max(best, g.max())
        else:
            round_gains[rows] = state.gains(order[rows])
            evals += len(rows)
        p = int(round_gains.argmax())  # the first maximum: lowest index wins
        picks.append(int(order[p]))
        gains.append(float(round_gains[p]))
        round_gains[p] = -np.inf
        if fresh[p]:
            fresh[p] = False
            rows = rows[rows != p]
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
    state and commits its picks into it, instead of re-committing the set;
    a commit past the room the state was made with regrows log-det's factor.
    With allow_conditioned_candidates items already in the conditioning set
    may appear in the pool; re-selecting one contributes exactly zero gain
    (set semantics) and leaves the state untouched.

    Only facility location prunes: its gains cost O(|ground|) a row, graph
    cut's and log-det's O(1).  Its gains only fall once a commit has set each
    ground item's best, or from the start on a non-negative ground x pool block.
    """
    order, _, state = _prep(
        objective, candidates, int(k), conditioning, allow_conditioned_candidates
    )
    prune = objective.family is Family.FACILITY_LOCATION and (
        len(state.selected) > 0
        or nonnegative(objective.kernel.matrix, objective.ground.as_array(), order))
    return _greedy(state, order, int(k), prune)


def lazy_greedy_max(
    objective: SubmodularObjective,
    candidates: IndexSet | Iterable[int],
    k: int,
    conditioning: IndexSet | None = None,
) -> SelectionResult:
    """Pruned greedy; identical picks and gains to greedy_max.

    Bounds need diminishing returns: facility location and graph cut raise
    ValueError on a negative kernel entry their gains read (ground x pool,
    pool x pool; the pool with the conditioning set).  Log-det, whose gains
    cost O(1), runs full rounds, so a kernel that is not PD raises.
    """
    order, cond, state = _prep(objective, candidates, int(k), conditioning)
    family = objective.family
    if family is not Family.LOG_DET:
        cols = np.concatenate([order, cond.as_array()])
        rows = objective.ground.as_array() if family is Family.FACILITY_LOCATION else cols
        if not nonnegative(objective.kernel.matrix, rows, cols):
            raise ValueError(f"lazy greedy needs a non-negative kernel for {family.value}")
    return _greedy(state, order, int(k), prune=family is not Family.LOG_DET)

