"""Unknown-item mining pipeline: filter, match knowns, pick background, pick unknowns.

The pipeline runs four stages over one scene:

  1. filter      drop items whose objectness falls below tau_e
  2. match       assign kept items to labeled prototypes (Hungarian), giving K
  3. background  greedily maximize the gain conditioned on K, budget tau_b * |pool|
  4. unknown     greedily maximize the gain conditioned on K u B, budget k

Stages 3 and 4 share one submodular objective whose kernel spans the kept
items only, so its size follows |kept|, not the scene.  They also share one
gain state: the knowns are committed once, stage 3 advances the state, and
stage 4 continues from where stage 3 left it.  A sweep over k or tau_b
builds the kernel and commits the knowns once, and runs stages 3-4 per
value on a copy of that state.  A ValueError in any stage aborts the run
as a StageError naming that stage, raised by `_stage`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np
from scipy.optimize import linear_sum_assignment

from .greedy import SelectionResult, _conditioned_state, greedy_max
from .kernels import (
    EmbeddingSet,
    IndexSet,
    SimilarityKernel,
    TRANSFORMS,
    UNKNOWN_LABEL,
    _unit_rows,
    check_budget,
    check_number,
    cosine_kernel,
)
from .objectives import DEFAULT_LOGDET_EPSILON, Family, MarginalState, SubmodularObjective

class StageError(RuntimeError):
    """Pipeline failure, tagged with the stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Raise a ValueError from the block as StageError(name); let others through."""
    try:
        yield
    except ValueError as e:
        raise StageError(name, str(e)) from None


@dataclass(frozen=True)
class DiscoveryConfig:
    """Knobs for the mining pipeline.

    transform picks the kernel range mapping; None resolves to clip-at-zero
    for facility-location and graph-cut (keeps them monotone) and raw-cosine
    for log-determinant (which regularizes via epsilon instead).  With
    exclude_background_from_pool off, stage 4 literally draws from the whole
    post-match pool: already-conditioned background items compete with zero
    gain and can only win when every fresh candidate has negative gain.
    Greedy ranks items by the definitional gain f(A u Q) - f(Q), so nu must
    be 1; the field stays so the resolved config echoes it.  Every number
    passes `kernels.check_number`, and k must be whole, though it may be a
    float such as 1e12: a k above the pool mines the whole pool.
    exclude_background_from_pool must be a bool.
    """

    tau_e: float = 0.2
    tau_b: float = 0.3
    k: int = 10
    family: Family = Family.GRAPH_CUT
    lam: float = 0.5
    nu: float = 1.0
    epsilon: float = DEFAULT_LOGDET_EPSILON
    transform: str | None = None
    exclude_background_from_pool: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family.parse(self.family))
        for name, hi in (("tau_e", 1), ("tau_b", 1), ("k", math.inf), ("lam", math.inf),
                         ("epsilon", math.inf)):
            check_number(name, getattr(self, name), 0, hi)
        if int(self.k) != self.k:
            raise ValueError(f"k must be a whole number, got {self.k!r}")
        if not isinstance(exclude := self.exclude_background_from_pool, bool):
            raise TypeError(f"exclude_background_from_pool must be true or false, got {exclude!r}")
        if self.transform is not None and self.transform not in TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}")
        if check_number("nu", self.nu) != 1.0:
            raise ValueError(
                "nu must be 1: mining ranks items by the definitional gain; "
                "nu applies to the loss and the closed-form gains only"
            )

    @property
    def resolved_transform(self) -> str:
        if self.transform is not None:
            return self.transform
        return "raw-cosine" if self.family is Family.LOG_DET else "clip-at-zero"


@dataclass(frozen=True)
class DiscoveryResult:
    """Selections from one pipeline run plus the traces that produced them.

    Every index set and trace holds scene indices.  kernel is the kept x kept
    kernel the selection stages ran on: its row i is scene item kept[i].
    """

    kept: IndexSet
    known: IndexSet
    background: IndexSet
    unknown: IndexSet
    pool: IndexSet  # candidates stage 4 drew from
    background_trace: SelectionResult
    unknown_trace: SelectionResult
    config: DiscoveryConfig
    kernel: SimilarityKernel

    def to_json_dict(self, metrics: dict | None = None) -> dict:
        return {
            "kept": list(self.kept),
            "known": list(self.known),
            "background": list(self.background),
            "unknown": list(self.unknown),
            "gains": {
                "background": list(self.background_trace.gains),
                "unknown": list(self.unknown_trace.gains),
            },
            "metrics": dict(metrics) if metrics else {},
        }


def filter_by_objectness(embeddings: EmbeddingSet, tau_e: float) -> IndexSet:
    """Indices of items with objectness >= tau_e (inclusive), ascending."""
    if embeddings.objectness is None:
        raise ValueError("objectness scores required")
    return IndexSet.of(np.flatnonzero(embeddings.objectness >= tau_e))


def hungarian_assign(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost assignment pairs (row, col), sorted by row.

    Rectangular matrices are fine; min(n_rows, n_cols) pairs come back.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError(f"cost matrix must be 2-d and non-empty, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite values")
    rows, cols = linear_sum_assignment(cost)
    return sorted((int(r), int(c)) for r, c in zip(rows, cols))


def match_knowns(
    embeddings: EmbeddingSet, kept: IndexSet, prototypes: EmbeddingSet
) -> IndexSet:
    """Kept items matched one-to-one to prototypes by cosine distance.

    Returns one scene index per prototype, ordered by prototype row.
    """
    if prototypes.n > len(kept):
        raise ValueError(
            f"more prototypes ({prototypes.n}) than kept items ({len(kept)})"
        )
    kept_arr = kept.as_array()
    unit_items = _unit_rows(embeddings.data[kept_arr], ids=kept_arr)[0]
    unit_protos = _unit_rows(prototypes.data, "prototype row")[0]
    cost = 1.0 - unit_items @ unit_protos.T
    pairs = hungarian_assign(cost)
    by_proto = sorted(pairs, key=lambda rc: rc[1])
    return IndexSet.of(int(kept_arr[r]) for r, _ in by_proto)


def select_background(
    objective: SubmodularObjective,
    pool: IndexSet,
    conditioning: IndexSet | MarginalState,
    tau_b: float,
) -> SelectionResult:
    """Greedy background pick conditioned on the knowns K, budget floor(tau_b * |pool|).

    conditioning is K as a set, or a MarginalState whose selection is K,
    which is advanced in place to K then B.
    """
    return greedy_max(objective, pool, _background_budget(tau_b, pool), conditioning)


def _background_budget(tau_b: float, pool: IndexSet) -> int:
    return math.floor(tau_b * len(pool))  # stage 3's budget, which _select also sizes its state by


def select_unknowns(
    objective: SubmodularObjective,
    pool: IndexSet,
    conditioning: IndexSet | MarginalState,
    k: int,
) -> SelectionResult:
    """Greedy unknown pick conditioned on the knowns and background K u B, budget k.

    conditioning is K u B as a set, or the MarginalState stage 3 advanced,
    whose selection is K then B; the pick continues from it in place.
    """
    # Pool items already conditioned on score zero and leave the state as is.
    return greedy_max(objective, pool, k, conditioning, allow_conditioned_candidates=True)


def known_prototypes(embeddings: EmbeddingSet) -> EmbeddingSet:
    """The labeled known items themselves, as an instance-level prototype set."""
    if embeddings.labels is None:
        raise ValueError("labels required to derive prototypes")
    idx = np.flatnonzero(embeddings.labels > UNKNOWN_LABEL)
    if len(idx) == 0:
        raise ValueError("no labeled known items")
    return EmbeddingSet(embeddings.data[idx], labels=embeddings.labels[idx])


@dataclass(frozen=True)
class _Prepared:
    """What stages 3 and 4 start from: the kept items, the knowns, and a state
    of the kept-only objective with the knowns committed and no room for more.
    It is never advanced; each selection runs on a copy with its own room."""

    kept: IndexSet
    known_k: IndexSet  # the knowns as kept positions, in prototype order
    state: MarginalState


def _prepare(
    embeddings: EmbeddingSet, prototypes: EmbeddingSet, config: DiscoveryConfig
) -> _Prepared:
    """Stages 1-2, the kept-only kernel and objective, and K committed.

    A kernel above kernels.MAX_KERNEL_BYTES raises ValueError, not
    StageError: the input is too large for the run, before anything is
    allocated for it.
    """
    with _stage("filter"):
        kept = filter_by_objectness(embeddings, config.tau_e)
        if len(kept) == 0:
            raise ValueError("empty set after filtering")
    nbytes = 8 * len(kept) ** 2  # float64 entries
    check_budget(nbytes, f"{len(kept)} kept items need a {nbytes:,}-byte kernel")
    with _stage("match"):
        known = match_knowns(embeddings, kept, prototypes)
    with _stage("background"):
        kernel = cosine_kernel(
            EmbeddingSet(embeddings.data[kept.as_array()]),
            transform=config.resolved_transform,
            epsilon=config.epsilon,
        )
        objective = SubmodularObjective(
            family=config.family,
            kernel=kernel,
            ground=IndexSet.of(range(len(kept))),
            lam=config.lam,
            epsilon=config.epsilon,
        )
        known_k = IndexSet.of(_kept_positions(kept, known))
        state = _conditioned_state(objective, known_k)
    return _Prepared(kept, known_k, state)


def _select(prepared: _Prepared, config: DiscoveryConfig) -> DiscoveryResult:
    """Stages 3 and 4 on a copy of the prepared state: stage 4 continues
    from the state stage 3 left.  The copy has room for every commit both
    stages can make, floor(tau_b * |pool|) and then at most min(k, |stage-4
    pool|), so its factor is allocated once and no commit regrows it."""
    objective = prepared.state.objective
    pool_v = objective.ground.minus(prepared.known_k)
    budget = _background_budget(config.tau_b, pool_v)
    pool_u_size = len(pool_v) - budget if config.exclude_background_from_pool else len(pool_v)
    state = prepared.state.copy(budget + min(int(config.k), pool_u_size))
    with _stage("background"):
        bg = select_background(objective, pool_v, state, config.tau_b)
    pool_u = pool_v.minus(bg.selected) if config.exclude_background_from_pool else pool_v
    with _stage("unknown"):
        un = select_unknowns(objective, pool_u, state, config.k)
    kept_arr = prepared.kept.as_array()

    def to_scene(s: IndexSet) -> IndexSet:
        return IndexSet.of(kept_arr[s.as_array()])

    bg = replace(bg, selected=to_scene(bg.selected))
    un = replace(un, selected=to_scene(un.selected))
    return DiscoveryResult(
        kept=prepared.kept,
        known=to_scene(prepared.known_k),
        background=bg.selected,
        unknown=un.selected,
        pool=to_scene(pool_u),
        background_trace=bg,
        unknown_trace=un,
        config=config,
        kernel=objective.kernel,
    )


def run_discovery(
    embeddings: EmbeddingSet,
    prototypes: EmbeddingSet,
    config: DiscoveryConfig = DiscoveryConfig(),
) -> DiscoveryResult:
    """Full pipeline; raises StageError naming the failing stage.

    Stages 3 and 4 run on a kernel over the kept rows only, indexed by kept
    position; sets are translated to positions on the way in and back to
    scene indices on the way out.  kept is ascending, so the map is monotone
    and greedy's lowest-index tie-break picks the same items either way.
    """
    return _select(_prepare(embeddings, prototypes, config), config)


def _run_each(
    embeddings: EmbeddingSet,
    prototypes: EmbeddingSet,
    configs: Iterable[DiscoveryConfig],
) -> Iterator[DiscoveryResult]:
    """run_discovery for each config in turn.

    Stages 1-2, the kernel and the committed knowns are built once for a run
    of configs that differ only in tau_b, k and exclude_background_from_pool.
    """
    # One entry: the latest preparation, keyed by its config with the fields
    # stages 3-4 read set to fixed values.
    last: dict = {}
    for config in configs:
        key = replace(config, tau_b=0.0, k=0, exclude_background_from_pool=True)
        if key not in last:
            last = {key: _prepare(embeddings, prototypes, config)}
        yield _select(last[key], config)


def _kept_positions(kept: IndexSet, items: IndexSet) -> np.ndarray:
    """Positions within the ascending kept set of scene indices drawn from it."""
    return np.searchsorted(kept.as_array(), items.as_array())


def _mean_block(result: DiscoveryResult, a: IndexSet, b: IndexSet) -> float:
    if len(a) == 0 or len(b) == 0:
        return 0.0
    rows = _kept_positions(result.kept, a)
    cols = _kept_positions(result.kept, b)
    return float(result.kernel.matrix[np.ix_(rows, cols)].mean())


def coverage_metrics(result: DiscoveryResult, truth: np.ndarray) -> dict:
    """Quality stats for a run against ground-truth labels.

    purity: fraction of mined unknowns that are truly unknown (label 0).
    coverage: fraction of the true unknowns among kept items that got mined.
    unknown_prevalence_in_pool: share of true unknowns in the stage-4 pool,
    i.e. the expected purity of a uniform random pick.
    """
    truth = np.asarray(truth)
    if truth.ndim != 1 or len(truth) <= max(result.kept):
        raise ValueError("truth labels do not cover the kept items")

    def unknowns(s: IndexSet) -> int:
        return int(np.count_nonzero(truth[s.as_array()] == UNKNOWN_LABEL))

    mined = unknowns(result.unknown)
    purity = mined / len(result.unknown) if len(result.unknown) else 0.0
    kept_unknown = unknowns(result.kept)
    coverage = mined / kept_unknown if kept_unknown else 0.0
    prevalence = unknowns(result.pool) / len(result.pool) if len(result.pool) else 0.0
    return {
        "purity": purity,
        "coverage": coverage,
        "unknown_prevalence_in_pool": prevalence,
        "mean_sim_unknown_to_known": _mean_block(result, result.unknown, result.known),
        "mean_sim_unknown_to_background": _mean_block(
            result, result.unknown, result.background
        ),
        "mean_sim_background_to_known": _mean_block(result, result.background, result.known),
        "mean_sim_pool_to_known": _mean_block(result, result.pool, result.known),
    }
