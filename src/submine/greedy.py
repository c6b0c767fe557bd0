"""Budgeted greedy maximization of conditional gains.

Greedy runs exactly k rounds (no early stop on negative gains) and breaks ties
by lowest item index.  One loop serves every family, and prunes facility
location's rounds with stale upper bounds (Minoux 1978; Leskovec et al., KDD
2007) where that changes no pick or gain; lazy_greedy_max is greedy_max.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .kernels import EMPTY_SET, IndexSet
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
    if isinstance(conditioning, MarginalState) and conditioning.objective is not objective:
        raise ValueError("conditioning state belongs to another objective")
    if isinstance(k, bool) or int(k) != k or k < 0:
        raise ValueError("budget k must be a non-negative integer")
    cand = IndexSet.of(candidates)
    cand.check_bounds(objective.n)
    state = conditioning
    if not isinstance(state, MarginalState):  # room for every pick
        cond = EMPTY_SET if state is None else state
        state = _conditioned_state(objective, cond, min(int(k), len(cand)))
    order = cand.sorted().as_array()
    if not allow_conditioned and state._picked[order].any():
        raise ValueError("candidates overlap conditioning set")
    return order, state


def _conditioned_state(
    objective: SubmodularObjective, cond: IndexSet, commits: int = 0
) -> MarginalState:
    """A fresh state with the items of cond committed in order, and room for
    `commits` more commits."""
    state = marginal_state(objective, len(cond) + commits)
    for q in cond:
        commit(state, q)
    return state


def _greedy(state: MarginalState, order: np.ndarray, k: int) -> SelectionResult:
    """The greedy loop from `state`, whose selection is the conditioning set:
    fresh picks are committed into it, and picks already selected gain 0
    unscored.  The live fresh rows are one array, kept across rounds.

    Facility location prunes a round once every live row's last gain was
    scored while the state held a commit: from then on a gain is
    sum(max(s - best, 0)) and `best` only rises, so in floating point a
    row's last gain bounds its next, for any kernel sign.  A pruned round
    scores rows PRUNE_CHUNK a call by descending bound, in a stable sort of
    the last round's order, until every unscored bound is below the best
    gain, so no unscored row can win or tie.  Graph cut's and log-det's
    gains cost O(1) a row, so one numpy call a round scores them fastest.
    README's greedy bullet gives the whole rule."""
    fresh = ~state._picked[order]  # live and not in the selection
    rows = np.flatnonzero(fresh)
    # Per row: its gain this round, else its last gain; picked rows -inf.
    round_gains = np.where(fresh, -np.inf, 0.0)
    family_prunes = state.objective.family is Family.FACILITY_LOCATION
    bounded = False  # every live row's last gain is a bound on its next
    picks: list[int] = []
    gains: list[float] = []
    evals = 0
    for _ in range(min(k, len(order))):
        if bounded:
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
            bounded = family_prunes and len(state.selected) > 0
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
    a commit past the state's room regrows log-det's factor.  With
    allow_conditioned_candidates items already in the conditioning set may
    appear in the pool; re-selecting one contributes exactly zero gain (set
    semantics) and leaves the state untouched.  Facility location prunes
    rounds with stale bounds where they are sound (see `_greedy`).
    """
    order, state = _prep(objective, candidates, k, conditioning, allow_conditioned_candidates)
    return _greedy(state, order, int(k))


def lazy_greedy_max(
    objective: SubmodularObjective,
    candidates: IndexSet | Iterable[int],
    k: int,
    conditioning: IndexSet | None = None,
) -> SelectionResult:
    """Lazy greedy (Minoux 1978), kept as an entry point: it is greedy_max,
    whose one loop already prunes where stale bounds are sound, and returns
    greedy_max's selection, gains and evaluations."""
    return greedy_max(objective, candidates, k, conditioning)
