"""Budgeted greedy maximization of conditional gains.

Greedy runs exactly k rounds (no early stop on negative gains) and breaks ties
by lowest item index.  There is one loop and one pruning rule: facility
location prunes rounds with stale upper bounds (Minoux 1978; Leskovec et al.,
KDD 2007) once its gains can only fall, without changing a pick or a gain,
and the other families run full rounds.  lazy_greedy_max is greedy_max.
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
    return cand.sorted().as_array(), state


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
    fresh picks are committed into it, in the room the state was made with,
    and picks already selected gain 0 unscored.  The live fresh rows are one
    array, made once and kept across rounds; a pick leaves it.  A full round
    scores every live row with one gather and one gains call, and the gain
    state bounds the kernel entries that call reads.

    Facility location prunes a round once every live row's last gain was
    scored while the state held a commit: from then on each gain is
    sum(max(s - best, 0)) and `best` only rises, so in floating point a
    row's last gain bounds its next, for any kernel sign.  From an empty
    state rounds 1 and 2 are full and pruning starts at round 3.  A pruned
    round re-ranks the last round's order with one stable sort, which is
    linear when only a short scored prefix moved, and scores rows
    PRUNE_CHUNK a call by descending bound until every unscored bound is
    below the best gain, so no unscored row can win or tie.  Rows start in
    index order, and rows of equal bound keep the order they had the round
    before; that order can move a chunk boundary, never a pick.  Graph
    cut's and log-det's gains cost O(1) a row, so they always run full
    rounds, which one numpy call scores faster than pruned ones."""
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
    a commit past the room the state was made with regrows log-det's factor.
    With allow_conditioned_candidates items already in the conditioning set
    may appear in the pool; re-selecting one contributes exactly zero gain
    (set semantics) and leaves the state untouched.

    Facility location prunes rounds with stale bounds once its gains can
    only fall, from the first round scored under a commit on; graph cut and
    log-det run full rounds (see `_greedy`).
    """
    order, state = _prep(objective, candidates, int(k), conditioning, allow_conditioned_candidates)
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
