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

Each formula exists once, in `_scg`, with an explicit diagonal shift.  It
reads the kernel through one reader, `_Kernel`, with a leading probe axis,
which takes the block reductions too: facility location's argmax and max per
row, graph cut's block sums, log-det's log residuals of a probed item.
`evaluate` (Q empty) and `conditional_gain_closed` read the base kernel, a
batch of one, with the shift eps.  The training losses in losses.py are the
same formulas.  Their self term is f(K_c) over ground T - K_c (facility
location) or T - U (graph cut), and with shift lam (log-det); their cross
term is f(K_c | U) over ground T with shift 0.

Incremental selection goes through one mutable state per family: it scores a
whole array of candidates in one numpy call and updates its caches in place
on each commit.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .kernels import EMPTY_SET, IndexSet, SimilarityKernel, check_number, row_blocks


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
        if self.epsilon is None:
            eps = self.kernel.epsilon
            if eps == 0.0 and self.family is Family.LOG_DET:
                eps = DEFAULT_LOGDET_EPSILON
            object.__setattr__(self, "epsilon", eps)
        for name in ("lam", "nu", "epsilon"):
            check_number(name, getattr(self, name), 0)

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


class _Kernel:
    """Kernel columns as a batch of probes sees them, with a leading probe
    axis, and the reductions `_scg` takes of their blocks.

    `s` is n x m with s[a, pos[b]] the entry of items a and b: the
    objectives read an n x n kernel with pos the identity, the losses the
    cosine kernel's columns C = (union of the K_c) + U.  Without `rows` it
    is the base kernel, a batch of one.  Otherwise probe p sees it with row
    and column `i` replaced by `rows[p]`, an n-long kernel row with
    rows[p, i] = 1 like s[i, pos[i]], and sets are sorted.  `block` reads
    the base kernel alone; `best`, `total` and `logdet` answer from the base
    block and row and column i, with no block per probe.

    With `i` an array the batch is stacked: probe p moves row i[p] alone,
    given at the kernel's columns, rows[p, pos[b]].  Each i[p] lies outside
    the columns, so no column moves, and in the sets i[0] lies in, so a set
    holds every row of the batch or none.  `total` reads such a batch;
    `best` and `logdet` read one only where it moves nothing they read.

    A loss's reader knows its batch domain `t`, the sorted rows T that every
    facility-location read lies in.  Per column set b (a class or U) it
    reads the base block's maxima over T once, a plain reader the first
    maximum and a batch the first two, and every read of b takes its rows
    from that one.  The objectives' reader has no T and reads rows a in any
    order, each time.  What a batch reads of the base point alone, those
    maxima and each set's map from items to positions, is made on first use
    and kept in tables that the base reader shares with every batch it
    makes: an audit makes each once, and the base point's hinge rows too
    (`hinge`).  An entry is keyed by the ids of the arguments it was made
    for and holds them, so no other object can take a key while the tables
    live.
    """

    def __init__(self, s: np.ndarray, pos: np.ndarray, t: np.ndarray | None = None,
                 i: int | np.ndarray = -1, rows: np.ndarray | None = None,
                 tables: dict | None = None):
        self.s, self.pos, self.t, self.i, self.rows = s, pos, t, i, rows
        self._tables = {} if tables is None else tables
        # The row whose sets stand for the batch's: i, or a stacked batch's first.
        self._first = int(i[0]) if isinstance(i, np.ndarray) else i
        # Per probe of a batch: whether every argmax row and hinge row it
        # took equals the base point's (see `best` and `hinge`).
        self.same = None if rows is None else np.ones(len(rows), dtype=bool)

    def probes(self, i: int | np.ndarray, rows: np.ndarray) -> "_Kernel":
        return _Kernel(self.s, self.pos, self.t, i, rows, self._tables)

    @property
    def size(self) -> int:
        return 1 if self.rows is None else len(self.rows)

    def _table(self, make, *args):
        """make(*args), made once for the tables' life."""
        key = (make.__name__, *map(id, args))
        if key not in self._tables:
            self._tables[key] = (args, make(*args))
        return self._tables[key][1]

    def _positions(self, a: np.ndarray) -> np.ndarray:
        """Each item's index in a, or -1."""
        where = np.full(len(self.pos), -1, dtype=np.intp)
        where[a] = np.arange(len(a))
        return where

    def _maxima(self, a: np.ndarray, b: np.ndarray, top: int):
        """Per row of a, the base block's first argmax over b and its value,
        and with top 2 then the first argmax with that column masked and its
        value, shape (top, |a|).  Argmax and max are per row, so any rows'
        arrays are those of a read of those rows alone.  Fancy indexing
        holds about twice its result as scratch, so the block is read in row
        blocks of a third of the block budget.  Rows that are a sorted run
        of consecutive items are read as a slice, which holds none."""
        cols = self.pos[b]
        run = bool((np.diff(a) == 1).all())
        j = np.empty((top, len(a)), dtype=np.intp)
        v = np.empty((top, len(a)))
        for r in row_blocks(len(a), 3 * len(b)):
            rows = a[r]
            if run:
                blk = np.take(self.s[rows[0] : rows[-1] + 1], cols, axis=1)
            else:
                blk = self.s[rows[:, None], cols]
            at = np.arange(len(rows))
            for k in range(top):
                if k:
                    blk[at, j[k - 1, r]] = -np.inf
                j[k, r] = blk.argmax(axis=1)
                v[k, r] = blk[at, j[k, r]]
            del blk  # before the next block is read
        return j, v

    def _read(self, a: np.ndarray, b: np.ndarray, top: int):
        """`_maxima(a, b, top)` for rows a in T, from the one read over T
        that the tables keep per column set b: that read itself when a is
        T, else a copy of a's rows."""
        j, v = self._table(self._maxima, self.t, b, top)
        if len(a) == len(self.t):
            return j, v
        at = self.t.searchsorted(a)
        return j[:, at], v[:, at]

    def _where(self, a: np.ndarray) -> int:
        """Position of i in a, or -1; for a stacked batch, of its first row."""
        return int(self._table(self._positions, a)[self._first]) if len(a) else -1

    def _moved(self, a: np.ndarray, b: np.ndarray):
        """Positions of i in a and in b, -1 where absent, or None when no
        probe changes the block at rows a, columns b."""
        if self.rows is None:
            return None
        pa, pb = self._where(a), self._where(b)
        return None if pa < 0 and pb < 0 else (pa, pb)

    def block(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The base block at rows a and columns b, shape (1, |a|, |b|)."""
        return self.s[a[:, None], self.pos[b]][None]

    def best(self, a: np.ndarray, b: np.ndarray):
        """Per row of a: the first argmax over b and its value, shape
        (1, |a|), arrays the caller may change.  For a batch, no argmax but
        the value per probe and row, shape (probes, |a|), or (1, |a|) where
        no probe moves the block; `same` then drops each probe whose argmax
        rows differ from the base point's."""
        if self.rows is not None:
            return None, self._probe_best(a, b)
        if self.t is None:
            return self._maxima(a, b, 1)
        j, v = self._read(a, b, 1)
        return (j.copy(), v.copy()) if len(a) == len(self.t) else (j, v)

    def hinge(self, active: np.ndarray, a: np.ndarray, b: np.ndarray, q: np.ndarray,
              nu: float) -> None:
        """For a batch, drops from `same` each probe whose hinge rows
        `active`, where the max over b less nu times the max over q is
        positive per row of a, differ from the base point's."""
        if self.rows is not None:
            self.same &= (active == self._table(self._hinges, a, b, q, nu)).all(axis=1)

    def _hinges(self, a: np.ndarray, b: np.ndarray, q: np.ndarray, nu: float) -> np.ndarray:
        """The base point's hinge rows, made from the tables as a plain
        evaluation makes them from its reads."""
        return self._read(a, b, 2)[1][0] - self._read(a, q, 2)[1][0] * nu > 0.0

    def _probe_best(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        (j1, j2), (v1, v2) = self._table(self._read, a, b, 2)
        moved = self._moved(a, b)
        if moved is None:
            return v1[None].copy()
        pa, pb = moved
        p = len(self.rows)
        if pb >= 0:
            # The first maximum without column i is the second one in rows
            # where i is the first.  Each probe's column i wins above it,
            # and on a tie when it comes first, as argmax breaks ties.
            second = j1 == pb
            j0 = np.where(second, j2, j1)
            v0 = np.where(second, v2, v1)
            v = np.take(self.rows, a, axis=1)
            wins = v >= np.where(j0 > pb, v0, np.nextafter(v0, np.inf))
            np.copyto(v, v0, where=~wins)
            # A row's argmax, pb where column i wins and j0 where it loses,
            # is the base point's j1 where column i wins in the rows where j1
            # is pb and loses in the others.  (With b = {i} alone it wins in
            # every row.  Row i, whose entry (i, i) is 1 before and after,
            # passes, and its own argmax is compared below.)
            np.equal(wins, second, out=wins)
            self.same &= wins.all(axis=1)
        else:
            v = np.repeat(v1[None], p, axis=0)
        if pa >= 0:
            r = np.take(self.rows, b, axis=1)
            j = r.argmax(axis=1)
            v[:, pa] = r[np.arange(p), j]
            self.same &= j == j1[pa]
        return v

    def total(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per probe: the block sum; for a batch, less the base block's, which
        every probe shares: the changes of row i and column i add up to that
        difference, and the entry they share is 1 before and after."""
        moved = self._moved(a, b)
        if moved is None:
            return self.block(a, b).sum(axis=(1, 2)) if self.rows is None else np.zeros(1)
        pa, pb = moved
        value = np.zeros(len(self.rows))
        if pa >= 0:
            if isinstance(self.i, np.ndarray):  # stacked: row i[p] at C's columns
                row = np.take(self.rows, self.pos[b], axis=1)
                row -= self.s[self.i[:, None], self.pos[b]]
            else:
                row = np.take(self.rows, b, axis=1)
                row -= self.s[self.i, self.pos[b]]
            value += row.sum(axis=1)
        if pb >= 0:
            col = np.take(self.rows, a, axis=1)
            col -= self.s[a, self.pos[self.i]]
            value += col.sum(axis=1)
        return value

    def logdet(self, a, q, nu, shift, error) -> np.ndarray:
        """Per probe of a batch: log det of the block of a + q (a x q entries
        times nu, diagonal shifted) less the same without i, which every
        probe shares: the log of i's residual, or 0 when i is in neither
        set.  A residual <= 0 raises ValueError(error)."""
        in_a = self._where(a) >= 0
        if not in_a and self._where(q) < 0:
            return np.zeros(len(self.rows))
        b = np.concatenate([a[a != self.i], q[q != self.i]])
        on_a = np.arange(len(b)) < len(a) - in_a
        blk = self.s[b[:, None], self.pos[b]] + shift * np.eye(len(b))
        blk *= np.where(on_a[:, None] == on_a, 1.0, nu)
        v = np.take(self.rows, b, axis=1) * np.where(on_a == in_a, 1.0, nu)
        x = np.linalg.solve(_cholesky(blk, error), v.T)
        resid = self.rows[:, self.i] + shift - (x * x).sum(axis=0)
        if np.any(resid <= 0.0):
            raise ValueError(error)
        return np.log(resid)


def _scg(
    family: Family, reader: _Kernel, sets: Sequence[np.ndarray],
    grounds: Sequence[np.ndarray], q: np.ndarray, weights: Sequence[float], *,
    lam: float, nu: float, shift: float, errors: tuple[str, str], adj=None,
) -> np.ndarray:
    """sum_c weights[c] * f(sets[c] | q), one value per probe: each family's
    closed-form conditional gain with strength nu, or f(sets[c]) when q is
    empty.  The one copy of each formula, for the objectives and the losses.

    `reader` reads the kernel with a leading axis of `reader.size` probes,
    or of 1 where no probe changes what is read (see `_Kernel`): facility
    location takes its blocks' argmax and max over columns (`best`), graph
    cut their sums (`total`, which may leave out a constant every probe
    shares), log-det the blocks themselves (`block`), or for a batch of
    probes, i's log residual in each block (`logdet`, the same way).
    Facility location and graph cut sum over rows grounds[c]; with q
    non-empty every class shares grounds[0].  The q-side work runs once per
    batch: facility location's argmax, log-det's factor of q's block, or for
    a batch of probes i's log residual in q's block, which every class's
    gain subtracts.  Log-det adds `shift` to the diagonals of the blocks of
    sets[c] and q, and raises ValueError(errors[0]) when q's block is not
    positive definite, ValueError(errors[1]) when a gain's block is not.

    `adj`, when given, takes the adjoint of the first probe's value as
    `adj.block(rows, cols, v)` and `adj.pairs(rows, cols, v)`.  A batch
    compares each probe's facility-location argmax rows (`_Kernel.best`)
    and hinge rows (`_Kernel.hinge`) with the base point's itself and keeps
    the verdict in `reader.same`.
    """
    total = np.zeros(reader.size)
    if len(q) and family is Family.FACILITY_LOCATION:
        jq, best_q = reader.best(grounds[0], q)
        # Only the adjoint, of the first probe, reads argmax rows again.
        jq = jq[0] if adj is not None else None
        best_q *= nu
    elif family is Family.LOG_DET and reader.rows is not None:
        log_c = reader.logdet(q, q[:0], nu, shift, errors[0])
    elif len(q) and family is Family.LOG_DET:
        c = reader.block(q, q)
        if shift:
            c = c + shift * np.eye(len(q))
        _cholesky(c, errors[0])
    for a, g, w in zip(sets, grounds, weights):
        if len(a) == 0:
            continue
        if family is Family.FACILITY_LOCATION:
            if len(g) == 0:
                continue
            j, best = reader.best(g, a)
            j = j[0] if adj is not None else None
            if len(q):
                # The margins, in place: best has a probe axis wherever
                # best_q has one, as the losses' q lies in g, and a probe
                # moves a column of q only for an item of q.
                best -= best_q
                active = best > 0.0
                reader.hinge(active, g, a, q, nu)
                # The hinge as a masked sum, for a batch and a single evaluation.
                np.maximum(best, 0.0, out=best)
            total += w * best.sum(axis=1)
            del best  # before the next class's rows are read
            if adj is None:
                continue
            if len(q) == 0:
                adj.pairs(g, a[j], w)
            else:
                act = active[0]
                g_act = g[act]
                adj.pairs(g_act, a[j[act]], w)
                adj.pairs(g_act, q[jq[act]], -w * nu)
        elif family is Family.GRAPH_CUT:
            value = reader.total(g, a) - lam * reader.total(a, a)
            if len(q):
                value = value - 2.0 * lam * nu * reader.total(a, q)
            total += w * value
            if adj is not None:
                adj.block(g, a, w)
                adj.block(a, a, -w * lam)
                if len(q):
                    adj.block(a, q, -2.0 * w * lam * nu)
        elif reader.rows is not None:
            total += w * (reader.logdet(a, q, nu, shift, errors[1]) - log_c)
        else:
            # log det of the Schur complement of q's block.
            m = reader.block(a, a)
            if shift:
                m = m + shift * np.eye(len(a))
            if len(q):
                b = reader.block(a, q)
                x = np.linalg.solve(c, np.swapaxes(b, 1, 2))  # C^-1 B^T per probe
                m = m - nu * nu * (b @ x)
            chol = _cholesky(m, errors[1])
            total += w * (2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1))
            if adj is not None:
                try:
                    minv = np.linalg.inv(m[0])
                except np.linalg.LinAlgError:  # Cholesky took m, but LU met a zero pivot
                    raise ValueError(errors[1]) from None
                adj.block(a, a, w * minv)
                if len(q):
                    p = x[0].T  # B C^-1
                    adj.block(a, q, -2.0 * w * nu * nu * (minv @ p))
                    adj.block(q, q, w * nu * nu * (p.T @ minv @ p))
    return total


def evaluate(objective: SubmodularObjective, a: IndexSet | Iterable[int]) -> float:
    """f(A) for the objective's family."""
    return conditional_gain_closed(objective, a, EMPTY_SET)


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
    eps = objective.epsilon
    value = _scg(
        objective.family, _Kernel(objective.kernel.matrix, np.arange(objective.n)),
        [a.as_array()], [objective.ground.as_array()], q.as_array(), [1.0],
        lam=objective.lam, nu=objective.nu, shift=eps,
        errors=("singular conditioning submatrix", _pd_message(eps)),
    )
    return float(value[0])


# ---------------------------------------------------------------------------
# Incremental marginal gains: one mutable state per family, whose one commit
# updates the caches with `_add`.  A kernel equals its transpose bit for bit
# (see kernels.py), so a commit of v reads kernel row v, which is contiguous,
# as column v.  Per-family caches:
#   facility-location: item x ground block, best similarity per ground item;
#     on a ground of every item in order the block is the kernel itself, else
#     the kernel's ground columns, an n x |ground| gather
#   graph-cut: fixed column sums plus running cross sums to the selection
#   log-determinant: Cholesky rows and residual variance of every item
#     (Chen, Zhang & Zhou, NeurIPS 2018); the rows fill one buffer, sized
#     where the state is made (`marginal_state` or `copy`) for the commits
#     it will take, which doubles only when a commit finds it full
# Beside the kernel, each state holds O(n) entries, log-det one n-long row
# per row of room, and facility location its block when it is a gather.


class MarginalState:
    """Selection so far and the caches behind `gains`.

    `gains(items)` returns the marginal gains of an index array of unselected
    items in one call.  `commit(v)` is the one commit: it refuses an item out
    of range or already selected (a mask beside `selected` answers in O(1)),
    updates the caches in place, and appends v to `selected`.  A state is
    made with room for `commits` commits, which then grow no cache; only
    log-det's factor grows with the selection.
    """

    def __init__(self, objective: SubmodularObjective, commits: int = 0):
        self.objective = objective
        self.selected: list[int] = []
        self._picked = np.zeros(objective.n, dtype=bool)
        self._s = objective.kernel.matrix
        g = objective.ground.as_array()
        # Whether the ground set is every item in order: it then sums whole columns.
        self._whole = len(g) == len(self._s) and np.array_equal(g, np.arange(len(g)))

    def copy(self, commits: int = 0) -> "MarginalState":
        """An independent state with the same selection and room for
        `commits` more commits: it shares the kernel and the caches no
        commit changes, and copies the ones commits update, log-det's
        factor into a buffer of its committed rows and that room."""
        new = copy.copy(self)
        new.selected = list(self.selected)
        new._picked = self._picked.copy()
        return new

    def commit(self, v: int) -> None:
        v = _check_new(self, v)
        self._add(v)
        self.selected.append(v)
        self._picked[v] = True


class _FacilityLocationState(MarginalState):
    def __init__(self, objective, commits=0):
        super().__init__(objective)
        # Row v is kernel row v, which is column v, over the ground set.
        if self._whole:
            self._block = self._s
        else:
            self._block = np.take(self._s, objective.ground.as_array(), axis=1)
        self._best: np.ndarray | None = None

    def gains(self, items) -> np.ndarray:
        pieces = row_blocks(len(items), self._block.shape[1])
        if len(pieces) > 1:  # each row's gain is the same, bit for bit, in any piece
            return np.concatenate([self.gains(items[r]) for r in pieces])
        block = np.take(self._block, items, axis=0)
        if self._best is not None:
            np.maximum(np.subtract(block, self._best, out=block), 0.0, out=block)
        return block.sum(axis=1)

    def _add(self, v: int) -> None:
        col = self._block[v]
        self._best = col if self._best is None else np.maximum(self._best, col)


class _GraphCutState(MarginalState):
    def __init__(self, objective, commits=0):
        super().__init__(objective)
        s = self._s if self._whole else self._s[objective.ground.as_array(), :]
        self._colsum = s.sum(axis=0)
        self._cross = np.zeros(objective.n)

    def gains(self, items) -> np.ndarray:
        lam = self.objective.lam
        return self._colsum[items] - lam * (2.0 * self._cross[items] + self._s[items, items])

    def copy(self, commits=0):
        new = super().copy()
        new._cross = self._cross.copy()
        return new

    def _add(self, v: int) -> None:
        self._cross += self._s[v]


class _LogDetState(MarginalState):
    """Log-det gains from the Cholesky rows of the selection and the residual
    variance of every item.  Row r of `_factor` is the row of the r-th
    commit, and rows past the selection are room for later commits: the
    buffer is sized once where the state is made, for the commits it will
    take, and a commit that finds it full doubles it (to FIRST_ROWS at
    least).  Each row is computed from a view of the rows before it, so the
    rows are the same bit for bit whatever the buffer's length."""

    # Fewest rows a commit that finds the buffer full grows it to.
    FIRST_ROWS = 16

    def __init__(self, objective, commits=0):
        super().__init__(objective)
        self._factor = np.empty((commits, objective.n))
        self._resid = np.diagonal(self._s) + objective.epsilon

    def _resized(self, rows: int) -> np.ndarray:
        """A buffer of `rows` rows that starts with the committed ones."""
        k = len(self.selected)
        factor = np.empty((rows, self.objective.n))
        factor[:k] = self._factor[:k]
        return factor

    def copy(self, commits=0):
        new = super().copy()
        new._factor = self._resized(len(self.selected) + commits)
        new._resid = self._resid.copy()
        return new

    def gains(self, items) -> np.ndarray:
        resid = self._resid[items]
        if np.any(resid <= 0.0):
            raise ValueError(_pd_message(self.objective.epsilon))
        return np.log(resid)

    def _add(self, v: int) -> None:
        if self._resid[v] <= 0.0:
            raise ValueError(_pd_message(self.objective.epsilon))
        k = len(self.selected)
        f = self._factor[:k]
        e = (self._s[v] - f[:, v] @ f) / math.sqrt(self._resid[v])
        self._resid -= e * e
        if k == len(self._factor):
            self._factor = self._resized(max(2 * k, self.FIRST_ROWS))
        self._factor[k] = e


_STATES = {
    Family.FACILITY_LOCATION: _FacilityLocationState,
    Family.GRAPH_CUT: _GraphCutState,
    Family.LOG_DET: _LogDetState,
}


def marginal_state(objective: SubmodularObjective, commits: int = 0) -> MarginalState:
    """Fresh state for the empty selection, with room for `commits` commits;
    its gains are definitional."""
    if objective.nu != 1.0:
        raise ValueError(f"nu must be 1 for definitional gains, got {objective.nu}")
    return _STATES[objective.family](objective, commits)


def _check_new(state: MarginalState, v: int) -> int:
    v = int(v)
    if v < 0 or v >= state.objective.n:
        raise ValueError(f"index {v} out of range for {state.objective.n} items")
    if state._picked[v]:
        raise ValueError("element already selected")
    return v


def marginal_gain(state: MarginalState, v: int) -> float:
    """f(selected u {v}) - f(selected), read-only."""
    return float(state.gains([_check_new(state, v)])[0])


def commit(state: MarginalState, v: int) -> MarginalState:
    """`state.commit(v)`, returning the same state."""
    state.commit(v)
    return state
