"""Submodular set functions over a similarity kernel and their conditional gains.

Three families are implemented, all parameterized by a shared kernel and a
fixed ground set of items the function sums over:

  facility-location  f(A) = sum_i max_{j in A} s_ij             (f(empty) = 0)
  graph-cut          f(A) = sum_i sum_{j in A} s_ij - lam * sum_{a,b in A} s_ab
  log-determinant    f(A) = log det(S_A + eps I)

The conditional gain of A given a disjoint set Q is f(A | Q) = f(A u Q) - f(Q).
Each family also has a closed form for the gain with a strength knob nu that
reduces to the exact definitional value at nu = 1.  Incremental selection goes
through one mutable state per family: it scores a whole array of candidates in
one numpy call and updates its caches in place on each commit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .kernels import EMPTY_SET, IndexSet, SimilarityKernel


class Family(enum.Enum):
    FACILITY_LOCATION = "facility-location"
    GRAPH_CUT = "graph-cut"
    LOG_DET = "log-determinant"

    @classmethod
    def parse(cls, name: str) -> "Family":
        aliases = {
            "fl": cls.FACILITY_LOCATION,
            "flcg": cls.FACILITY_LOCATION,
            "facility-location": cls.FACILITY_LOCATION,
            "gc": cls.GRAPH_CUT,
            "gccg": cls.GRAPH_CUT,
            "graph-cut": cls.GRAPH_CUT,
            "logdet": cls.LOG_DET,
            "logdetcg": cls.LOG_DET,
            "log-determinant": cls.LOG_DET,
        }
        key = name.strip().lower()
        if key not in aliases:
            raise ValueError(f"unknown objective family {name!r}")
        return aliases[key]


# Default diagonal shift for log-det objectives when none is given.
DEFAULT_LOGDET_EPSILON = 1e-4


@dataclass(frozen=True)
class SubmodularObjective:
    """A set function of one family bound to a kernel and a ground set.

    lam is the graph-cut redundancy weight, nu the conditional-gain strength,
    epsilon the log-det diagonal shift (defaults to the kernel's epsilon, or
    1e-4 for log-det when neither is set).
    """

    family: Family
    kernel: SimilarityKernel
    ground: IndexSet
    lam: float = 0.5
    nu: float = 1.0
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            object.__setattr__(self, "family", Family.parse(str(self.family)))
        self.ground.check_bounds(self.kernel.n)
        if self.lam < 0.0:
            raise ValueError("lam must be non-negative")
        if self.nu < 0.0:
            raise ValueError("nu must be non-negative")
        if self.epsilon is None:
            eps = self.kernel.epsilon
            if eps == 0.0 and self.family is Family.LOG_DET:
                eps = DEFAULT_LOGDET_EPSILON
            object.__setattr__(self, "epsilon", eps)
        elif self.epsilon < 0.0:
            raise ValueError("epsilon must be non-negative")

    @property
    def n(self) -> int:
        return self.kernel.n


def _as_indexset(a: IndexSet | Iterable[int]) -> IndexSet:
    return a if isinstance(a, IndexSet) else IndexSet.of(a)


def _logdet_psd(m: np.ndarray, eps: float) -> float:
    """log det of (m + eps I) via Cholesky; raises on non-PD input."""
    if m.shape[0] == 0:
        return 0.0
    shifted = m + eps * np.eye(m.shape[0])
    try:
        chol = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        raise _pd_error(eps) from None
    return float(2.0 * np.sum(np.log(np.diag(chol))))


def evaluate(objective: SubmodularObjective, a: IndexSet | Iterable[int]) -> float:
    """f(A) for the objective's family."""
    a = _as_indexset(a)
    a.check_bounds(objective.n)
    s = objective.kernel.matrix
    g = objective.ground.as_array()
    aa = a.as_array()
    if objective.family is Family.FACILITY_LOCATION:
        if len(a) == 0 or len(g) == 0:
            return 0.0
        return float(s[np.ix_(g, aa)].max(axis=1).sum())
    if objective.family is Family.GRAPH_CUT:
        if len(a) == 0:
            return 0.0
        cover = float(s[np.ix_(g, aa)].sum()) if len(g) else 0.0
        redun = float(s[np.ix_(aa, aa)].sum())
        return cover - objective.lam * redun
    return _logdet_psd(s[np.ix_(aa, aa)], objective.epsilon)


def total_information(objective: SubmodularObjective, sets: Sequence[IndexSet]) -> float:
    """Sum of f over a list of sets."""
    return float(sum(evaluate(objective, a) for a in sets))


def conditional_gain(
    objective: SubmodularObjective,
    a: IndexSet | Iterable[int],
    q: IndexSet | Iterable[int],
) -> float:
    """Definitional gain f(A u Q) - f(Q); A and Q must be disjoint."""
    a = _as_indexset(a)
    q = _as_indexset(q)
    if a.intersects(q):
        raise ValueError("conditioning sets overlap")
    return evaluate(objective, q.union(a)) - evaluate(objective, q)


def conditional_gain_closed(
    objective: SubmodularObjective,
    a: IndexSet | Iterable[int],
    q: IndexSet | Iterable[int],
) -> float:
    """Closed-form gain with strength nu; equals the definitional gain at nu=1.

    For an empty Q every family returns f(A): the nu-weighted coupling term
    vanishes with nothing to condition on.
    """
    a = _as_indexset(a)
    q = _as_indexset(q)
    if a.intersects(q):
        raise ValueError("conditioning sets overlap")
    if len(q) == 0:
        return evaluate(objective, a)
    s = objective.kernel.matrix
    a.check_bounds(objective.n)
    q.check_bounds(objective.n)
    aa, qq = a.as_array(), q.as_array()
    nu = objective.nu
    if objective.family is Family.GRAPH_CUT:
        coupling = float(s[np.ix_(aa, qq)].sum())
        return evaluate(objective, a) - 2.0 * objective.lam * nu * coupling
    if objective.family is Family.FACILITY_LOCATION:
        g = objective.ground.as_array()
        if len(g) == 0 or len(a) == 0:
            return 0.0
        best_a = s[np.ix_(g, aa)].max(axis=1)
        best_q = s[np.ix_(g, qq)].max(axis=1)
        return float(np.maximum(best_a - nu * best_q, 0.0).sum())
    # log-determinant: Schur complement of the conditioning block.
    eps = objective.epsilon
    if len(a) == 0:
        return 0.0
    s_q = s[np.ix_(qq, qq)] + eps * np.eye(len(q))
    try:
        chol_q = np.linalg.cholesky(s_q)
    except np.linalg.LinAlgError:
        raise ValueError("singular conditioning submatrix") from None
    cross = s[np.ix_(aa, qq)]
    w = solve_triangular(chol_q, cross.T, lower=True)
    schur = s[np.ix_(aa, aa)] + eps * np.eye(len(a)) - nu * nu * (w.T @ w)
    return _logdet_psd(schur, 0.0)


# ---------------------------------------------------------------------------
# Incremental marginal gains: one mutable state per family.  Per-family caches:
#   facility-location: item x ground block, best similarity per ground item
#   graph-cut: fixed column sums plus running cross sums to the selection
#   log-determinant: Cholesky rows and residual variance of every item
#     (Chen, Zhang & Zhou, NeurIPS 2018)


def _pd_error(eps: float) -> ValueError:
    if eps == 0.0:
        return ValueError("singular kernel submatrix")
    return ValueError("kernel submatrix not positive definite")


class MarginalState:
    """Selection so far, its value f(selected), and the caches behind `gains`.

    `gains(items)` returns the marginal gains of an index array of unselected
    items in one call; `commit(v)` adds an unselected item in place.
    """

    def __init__(self, objective: SubmodularObjective):
        self.objective = objective
        self.selected: list[int] = []
        self.value = 0.0
        self._s = objective.kernel.matrix


class _FacilityLocationState(MarginalState):
    def __init__(self, objective):
        super().__init__(objective)
        self._g = objective.ground.as_array()
        # Row v is kernel column v over the ground set, contiguous.
        self._block = np.ascontiguousarray(self._s[self._g, :].T)
        self._best: np.ndarray | None = None

    def gains(self, items) -> np.ndarray:
        block = np.take(self._block, items, axis=0)
        if self._best is not None:
            np.maximum(np.subtract(block, self._best, out=block), 0.0, out=block)
        return block.sum(axis=1)

    def commit(self, v: int) -> None:
        col = self._s[self._g, v]
        self._best = col if self._best is None else np.maximum(self._best, col)
        self.value = float(self._best.sum())


class _GraphCutState(MarginalState):
    def __init__(self, objective):
        super().__init__(objective)
        self._colsum = self._s[objective.ground.as_array(), :].sum(axis=0)
        self._cross = np.zeros(objective.n)

    def gains(self, items) -> np.ndarray:
        lam = self.objective.lam
        return self._colsum[items] - lam * (2.0 * self._cross[items] + self._s[items, items])

    def commit(self, v: int) -> None:
        self.value += float(self.gains(v))
        self._cross += self._s[:, v]


class _LogDetState(MarginalState):
    def __init__(self, objective):
        super().__init__(objective)
        self._factor = np.zeros((0, objective.n))
        self._resid = np.diagonal(self._s) + objective.epsilon

    def gains(self, items) -> np.ndarray:
        resid = self._resid[items]
        if np.any(resid <= 0.0):
            raise _pd_error(self.objective.epsilon)
        return np.log(resid)

    def commit(self, v: int) -> None:
        gain = float(self.gains(v))
        e = (self._s[:, v] - self._factor[:, v] @ self._factor) / math.sqrt(self._resid[v])
        self._resid -= e * e
        self._factor = np.vstack([self._factor, e])
        self.value += gain


_STATES = {
    Family.FACILITY_LOCATION: _FacilityLocationState,
    Family.GRAPH_CUT: _GraphCutState,
    Family.LOG_DET: _LogDetState,
}


def marginal_state(objective: SubmodularObjective) -> MarginalState:
    """Fresh state for the empty selection."""
    return _STATES[objective.family](objective)


def _check_new(state: MarginalState, v: int) -> int:
    v = int(v)
    if v < 0 or v >= state.objective.n:
        raise ValueError(f"index {v} out of range for {state.objective.n} items")
    if v in state.selected:
        raise ValueError("element already selected")
    return v


def marginal_gain(state: MarginalState, v: int) -> float:
    """f(selected u {v}) - f(selected), read-only."""
    return float(state.gains([_check_new(state, v)])[0])


def commit(state: MarginalState, v: int) -> MarginalState:
    """Add v to the selection in place and return the same state."""
    v = _check_new(state, v)
    state.commit(v)
    state.selected.append(v)
    return state
