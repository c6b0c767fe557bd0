"""Submodular set functions over a similarity kernel and their conditional gains.

Three families are implemented, all parameterized by a shared kernel and a
fixed ground set of items the function sums over:

  facility-location  f(A) = sum_i max_{j in A} s_ij             (f(empty) = 0)
  graph-cut          f(A) = sum_i sum_{j in A} s_ij - lam * sum_{a,b in A} s_ab
  log-determinant    f(A) = log det(S_A + eps I)

The conditional gain of A given a disjoint set Q is f(A | Q) = f(A u Q) - f(Q).
Each family also has a closed form for the gain with a strength knob nu that
reduces to the exact definitional value at nu = 1 (Iyer et al., IEEE Trans.
Inf. Theory 2022; Kothawade et al., PRISM, AAAI 2022):

  facility-location  sum_i max(max_{j in A} s_ij - nu max_{j in Q} s_ij, 0)
  graph-cut          f(A) - 2 lam nu sum_{a in A, b in Q} s_ab
  log-determinant    log det(S_A + eps I - nu^2 S_AQ (S_Q + eps I)^-1 S_QA)

Each formula exists once, in `_scg`, read through a block reader with a
leading probe axis and an explicit diagonal shift.  `evaluate` (Q empty) and
`conditional_gain_closed` pass the shift eps.  The training losses in
losses.py are the same formulas.  Their self term is f(K_c) over ground
T - K_c (facility location) or T - U (graph cut), and with shift lam
(log-det); their cross term is f(K_c | U) over ground T with shift 0.

Incremental selection goes through one mutable state per family: it scores a
whole array of candidates in one numpy call and updates its caches in place
on each commit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

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


def _pd_message(eps: float) -> str:
    if eps == 0.0:
        return "singular kernel submatrix"
    return "kernel submatrix not positive definite"


def _cholesky(m: np.ndarray, err: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError(err) from None


def _best(block: Callable, a: np.ndarray, b: np.ndarray):
    """Per probe and row of a: the argmax over b and its value.  The block
    is dropped once reduced, so one block per term is alive at a time."""
    blk = block(a, b)
    j = blk.argmax(axis=2)
    rows = blk.reshape(-1, len(b))
    return j, rows[np.arange(len(rows)), j.ravel()].reshape(j.shape)


def _scg(
    family: Family, block: Callable, probes: int, sets: Sequence[np.ndarray],
    grounds: Sequence[np.ndarray], q: np.ndarray, weights: Sequence[float], *,
    lam: float, nu: float, shift: float, errors: tuple[str, str], adj=None, sig=None,
) -> np.ndarray:
    """sum_c weights[c] * f(sets[c] | q), one value per probe: each family's
    closed-form conditional gain with strength nu, or f(sets[c]) when q is
    empty.  The one copy of each formula, for the objectives and the losses.

    `block(rows, cols)` reads a kernel block with a leading axis of
    `probes`, or of 1 where no probe changes the block.
    Facility location and graph cut sum over rows grounds[c]; with q
    non-empty every class shares grounds[0], and the q-side work (facility
    location's argmax, log-det's factor of q's block) runs once.  Log-det
    adds `shift` to the diagonals of the blocks of sets[c] and q, and raises
    ValueError(errors[0]) when q's block is not positive definite,
    ValueError(errors[1]) when a gain's block is not.

    `adj`, when given, takes the adjoint of the first probe's value as
    `adj.block(rows, cols, v)` and `adj.pairs(rows, cols, v)`.  `sig`, when
    given, takes facility location's argmax and hinge rows, shape (probes,
    |rows|), in a fixed order.
    """
    total = np.zeros(probes)
    if len(q) and family is Family.FACILITY_LOCATION:
        jq, best_q = _best(block, grounds[0], q)
        if sig is not None:
            sig(jq)
    elif len(q) and family is Family.LOG_DET:
        c = block(q, q)
        if shift:
            c = c + shift * np.eye(len(q))
        _cholesky(c, errors[0])
    for a, g, w in zip(sets, grounds, weights):
        if len(a) == 0:
            continue
        if family is Family.FACILITY_LOCATION:
            if len(g) == 0:
                continue
            j, best = _best(block, g, a)
            if sig is not None:
                sig(j)
            if len(q) == 0:
                total += w * best.sum(axis=1)
                if adj is not None:
                    adj.pairs(g, a[j[0]], w)
                continue
            margin = best - nu * best_q
            active = margin > 0.0
            # Summing the active margins alone keeps one summation order for
            # a batch of probes and a single evaluation.
            total += w * np.array([m[k].sum() for m, k in zip(margin, active)])
            if sig is not None:
                sig(active)
            if adj is not None:
                act = active[0]
                g_act = g[act]
                adj.pairs(g_act, a[j[0][act]], w)
                adj.pairs(g_act, q[jq[0][act]], -w * nu)
        elif family is Family.GRAPH_CUT:
            value = block(g, a).sum(axis=(1, 2)) - lam * block(a, a).sum(axis=(1, 2))
            if len(q):
                value = value - 2.0 * lam * nu * block(a, q).sum(axis=(1, 2))
            total += w * value
            if adj is not None:
                adj.block(g, a, w)
                adj.block(a, a, -w * lam)
                if len(q):
                    adj.block(a, q, -2.0 * w * lam * nu)
        else:
            # log det of the Schur complement of q's block.
            m = block(a, a)
            if shift:
                m = m + shift * np.eye(len(a))
            if len(q):
                b = block(a, q)
                x = np.linalg.solve(c, np.swapaxes(b, 1, 2))  # C^-1 B^T per probe
                m = m - nu * nu * (b @ x)
            chol = _cholesky(m, errors[1])
            total += w * (2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1))
            if adj is not None:
                minv = np.linalg.inv(m[0])
                adj.block(a, a, w * minv)
                if len(q):
                    p = x[0].T  # B C^-1
                    adj.block(a, q, -2.0 * w * nu * nu * (minv @ p))
                    adj.block(q, q, w * nu * nu * (p.T @ minv @ p))
    return total


def evaluate(objective: SubmodularObjective, a: IndexSet | Iterable[int]) -> float:
    """f(A) for the objective's family."""
    return conditional_gain_closed(objective, a, EMPTY_SET)


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
    a.check_bounds(objective.n)
    q.check_bounds(objective.n)
    s, eps = objective.kernel.matrix, objective.epsilon
    value = _scg(
        objective.family, lambda rows, cols: s[np.ix_(rows, cols)][None], 1,
        [a.as_array()], [objective.ground.as_array()], q.as_array(), [1.0],
        lam=objective.lam, nu=objective.nu, shift=eps,
        errors=("singular conditioning submatrix", _pd_message(eps)),
    )
    return float(value[0])


# ---------------------------------------------------------------------------
# Incremental marginal gains: one mutable state per family.  Per-family caches:
#   facility-location: item x ground block, best similarity per ground item
#   graph-cut: fixed column sums plus running cross sums to the selection
#   log-determinant: Cholesky rows and residual variance of every item
#     (Chen, Zhang & Zhou, NeurIPS 2018)


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
            raise ValueError(_pd_message(self.objective.epsilon))
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
