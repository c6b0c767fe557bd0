"""Set-based training losses over cosine similarities, with analytic gradients.

The loss couples two terms over a batch domain T of item embeddings:

  total = self - eta * cross

Both terms are the objectives' closed-form gains (objectives._scg), summed
over the classes.  The self term is f(K_c) / |K_c|: facility location over
ground T - K_c, graph cut over ground T - U, and log-det with diagonal shift
lam.  The cross term is the conditional gain f(K_c | U) / |T| against the
mined unknowns U, over ground T with no diagonal shift.  Incremental-learning
replay uses the identical cross term with U replaced by the previous-task
exemplar buffer, so `mode` is carried on the config purely as provenance.

Similarities are raw cosines of the embedding rows (signed, no clipping).
Every term reads kernel entries s_ab with b in C, the union of the classes
and U, so the kernel is built over those columns only: n x |C| entries, not
n x n.  Gradients accumulate an adjoint G = dL/ds of the same shape and
apply the cosine chain rule row-wise with W = G + G^T:

  dL/de_a = ((W @ U)_a - (sum_b W_ab s_ab) u_a) / ||e_a||

with U the row-normalized embeddings.  W is never formed: W @ U is
G @ U[C] with G^T @ U added into rows C, and the row sums of W * s are
those of G * s with its column sums added into rows C.  Diagonal entries
are constants (s_aa = 1) and cancel inside that expression, so adjoints may
safely land on the diagonal.  Facility-location terms carry argmax/hinge
structure; the finite-difference checker detects probes that cross such a
boundary, whose argmax rows or hinge rows differ from the base point's,
and reports them instead of flagging errors.

A loss evaluation holds three large arrays at once: the n x d unit rows,
the n x |C| kernel and its adjoint G.  `_assemble` uses up the kernel: once
the terms have filled G, G * s is formed in the kernel's buffer, its row and
column sums are taken, and the kernel is dropped before the n x d gradient
is allocated.  The gradient's row term goes in row blocks, and facility
location reads its blocks of the kernel in row blocks, each a slice of
rows where T is a run of consecutive items, so the rest is block-sized
scratch.  The base reader knows T, and reads the argmax and max per row
over T once per class and once for U (`_Kernel.best`): the self term takes
copies of its rows T - K_c from that read and the cross term a copy of all
of it, so the evaluation holds two |T|-long arrays per column set.  The
finite-difference audit builds its own base kernel for its probes to read.

Every term reads the kernel through the objectives' one reader, `_Kernel`,
with a leading probe axis, and returns one value per probe.  A plain loss
evaluation is a batch of one, and only there are adjoints accumulated.  The
finite-difference audit uses that a probe on coordinate (i, j) moves row i
of the unit embeddings alone, so only row and column i of the kernel: it
builds the n-long kernel rows of the probes of one row with one matrix
product and evaluates them as one batch over the base kernel.  Two kinds of
row make no batch of their own.  A row no term reads (log-det reads blocks
over C, the others rows of T) moves nothing: its coordinates share the
difference of two probes that move nothing, made once.  Graph cut's rows in
T - C move only its row term, at C's columns, so runs of them are stacked
into batches |C| wide, one row i per probe.  Each probe's total is the one
its row's own batch gives, so the report's bytes do not depend on the
batching.  No block is built per probe: facility location's argmax and max
per row, graph cut's block sums and log-det's log-determinants are answered
from the base block and each probe's row and column i.  A log-det probe
reads i's residual given the rest of each class's block, and when i is in
U, its residual in U's block once per batch, which every class's gain
subtracts.  Graph cut's and log-det's probe values leave out a constant
every probe shares, so the audit's difference quotient is built from the
changed entries alone.

What depends on the base point alone is made once per audit, not per
batch.  The audit's base reader keeps per-audit tables, made on first use
and shared with every batch's reader: each set's map from items to
positions, which finds i in a set, and per facility-location column set,
one read over T of each row's first argmax and first argmax with that
column masked, with their values, of which the self term keeps its rows
T - K_c once per class.  The maximum without column i is then the first of
them, or the second where i is the first.  Graph cut reads base row and
column i alone.  A batch's reader owns the tie verdict: it marks the probes
whose argmax rows differ from the base point's as it takes them, and those
whose hinge rows do, against base hinges it makes from the same tables as
a plain evaluation makes them.  The loop keeps each coordinate's difference
of totals and whether it is tie-adjacent; the quotients and error maxima
are taken after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .kernels import SEED_MAX, EmbeddingSet, IndexSet, check_number, cosine_columns, row_blocks
from .objectives import Family, _Kernel, _scg

FD_STEP = 1e-4
FD_EXHAUSTIVE_LIMIT = 5000  # probe every coordinate up to this many
FD_SAMPLE = 200  # else probe a seeded sample of this many coordinates


@dataclass(frozen=True)
class LossConfig:
    family: Family = Family.FACILITY_LOCATION
    eta: float = 1.0
    lam: float = 0.5
    nu: float = 1.0
    mode: str = "owod"

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            object.__setattr__(self, "family", Family.parse(str(self.family)))
        if self.mode not in ("owod", "iod"):
            raise ValueError(f"unknown mode {self.mode!r}")
        check_number("eta", self.eta)
        check_number("lam", self.lam, 0)
        check_number("nu", self.nu, 0)


@dataclass(frozen=True)
class LossReport:
    l_self: float
    l_cross: float
    l_total: float
    grad: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.grad, dtype=np.float64)
        g.flags.writeable = False
        object.__setattr__(self, "grad", g)


class _Adjoint:
    """dL/ds over the base kernel's entries, n x |C| like it.  One term's
    adjoints land scaled by `weight`, that term's weight in the total."""

    def __init__(self, g: np.ndarray, kern: _Kernel, weight: float):
        self.g, self.pos, self.weight = g, kern.pos, weight

    def block(self, a: np.ndarray, b: np.ndarray, v) -> None:
        """Add v, a scalar or |a| x |b|, to the block at rows a, columns b."""
        self.g[a[:, None], self.pos[b]] += self.weight * v

    def pairs(self, a: np.ndarray, b: np.ndarray, v: float) -> None:
        """Add v at the distinct entries (a[k], b[k])."""
        self.g[a, self.pos[b]] += self.weight * v


def _zero_norm(row: np.ndarray, js: np.ndarray, h: float) -> bool:
    """Whether a +h or -h probe of `row` on an entry js leaves it with zero
    norm.  A norm is the root of a sum of squares, so it is zero just where
    every square is: each other entry's and the moved one's."""
    moved = row[js]
    others = np.count_nonzero(row * row) - (moved * moved != 0)
    up = moved + h
    down = up - 2.0 * h
    return bool(((others == 0) & ((up * up == 0) | (down * down == 0))).any())


def _probe_rows(data: np.ndarray, unit: np.ndarray, i: int, js: np.ndarray, h: float):
    """Kernel rows i of the probes (i, js) + h, then of (i, js) - h, none of
    which has zero norm (`_zero_norm`).

    The -h probe is taken from the +h one, (x + h) - 2h, as a probe moved up
    and then back down would be."""
    c = len(js)
    up = data[i, js] + h
    probes = np.repeat(data[i][None], 2 * c, axis=0)
    probes[np.arange(2 * c), np.tile(js, 2)] = np.concatenate([up, up - 2.0 * h])
    norms = np.linalg.norm(probes, axis=1)
    probes /= norms[:, None]
    rows = probes @ unit.T
    np.clip(rows, -1.0, 1.0, out=rows)
    rows[:, i] = 1.0
    return rows


def _validate_sets(
    n: int, classes: Sequence[IndexSet], t: IndexSet, u: IndexSet | None
) -> None:
    t.check_bounds(n)
    if len(t) == 0:
        raise ValueError("empty batch domain")
    if not classes:
        raise ValueError("no class sets given")
    seen: set[int] = set()
    for i, kc in enumerate(classes):
        if len(kc) == 0:
            raise ValueError(f"empty class set {i}")
        kc.check_bounds(n)
        for idx in kc:
            if idx not in t:
                raise ValueError(f"class set {i} not contained in batch domain")
            if idx in seen:
                raise ValueError("class sets overlap")
            seen.add(idx)
    if u is not None:
        u.check_bounds(n)
        if len(u) == 0:
            raise ValueError("empty conditioning set")
        for idx in u:
            if idx in seen:
                raise ValueError("class set overlaps conditioning set")
            if idx not in t:
                raise ValueError("conditioning set not contained in batch domain")


def _sorted(s: IndexSet) -> np.ndarray:
    return np.sort(s.as_array())


class _Sets(NamedTuple):
    """Sorted index arrays of one loss: the classes, U, T, each class's
    ground set in the self term, the kernel columns C, the union of the
    classes and U, and the items whose kernel rows a term reads."""

    classes: list[np.ndarray]
    u: np.ndarray
    t: np.ndarray
    grounds: list[np.ndarray]
    cols: np.ndarray
    read: np.ndarray


def _index_sets(
    classes: Sequence[IndexSet], u: IndexSet | None, t: IndexSet, family: Family
) -> _Sets:
    t_arr = _sorted(t)
    u_arr = t_arr[:0] if u is None else _sorted(u)
    kcs = [_sorted(kc) for kc in classes]
    # Facility location's self term sums over T without the class, graph
    # cut's over T without U; log-det reads no ground set.
    if family is Family.FACILITY_LOCATION:
        keep = np.ones(len(t_arr), dtype=bool)
        grounds = []
        for kc in kcs:
            at = t_arr.searchsorted(kc)  # each class lies inside T
            keep[at] = False
            grounds.append(t_arr[keep])
            keep[at] = True
    elif family is Family.GRAPH_CUT:
        grounds = [np.setdiff1d(t_arr, u_arr, assume_unique=True)] * len(kcs)
    else:
        grounds = [t_arr] * len(kcs)
    cols = np.sort(np.concatenate(kcs + [u_arr]))
    # Log-det reads blocks over C alone; the others read rows of their
    # grounds and of C, all inside T.
    read = cols if family is Family.LOG_DET else t_arr
    return _Sets(kcs, u_arr, t_arr, grounds, cols, read)


def _self_part(kern: _Kernel, sets: _Sets, cfg: LossConfig, adj=None):
    """Per-class self terms f(K_c) / |K_c|, one sum per probe; log-det's
    diagonal shift is lam.  Adjoints go into adj when given."""
    return _scg(
        cfg.family, kern, sets.classes, sets.grounds, sets.u[:0],
        [1.0 / len(kc) for kc in sets.classes], lam=cfg.lam, nu=cfg.nu, shift=cfg.lam,
        errors=("", "class kernel not positive definite"), adj=adj,
    )


def _cross_part(kern: _Kernel, sets: _Sets, cfg: LossConfig, adj=None):
    """Per-class conditional gains f(K_c | U) / |T| over ground T with no
    diagonal shift, one sum per probe.  Adjoints go into adj when given."""
    k = len(sets.classes)
    return _scg(
        cfg.family, kern, sets.classes, [sets.t] * k, sets.u,
        [1.0 / len(sets.t)] * k, lam=cfg.lam, nu=cfg.nu, shift=0.0,
        errors=("singular unknown-set kernel", "cross term not positive definite"),
        adj=adj,
    )


def _parts(kern: _Kernel, sets: _Sets, cfg: LossConfig, g=None):
    """Self, cross and total loss per probe of `kern`; the total's adjoints
    accumulate into g when given.  For a batch of probes, graph cut's values
    leave out the base sums the probes share (see `_Kernel.total`)."""
    adj_self = adj_cross = None
    if g is not None:
        adj_self, adj_cross = _Adjoint(g, kern, 1.0), _Adjoint(g, kern, -cfg.eta)
    l_self = _self_part(kern, sets, cfg, adj_self)
    l_cross = _cross_part(kern, sets, cfg, adj_cross)
    return l_self, l_cross, l_self - cfg.eta * l_cross


def _base(data: np.ndarray, sets: _Sets):
    """The base kernel over the columns of `sets`, which reads rows inside
    T, and the unit rows and norms of `data`."""
    s, unit, norms = cosine_columns(data, sets.cols)
    # An item outside C maps past the last column, so reading it raises.
    pos = np.full(len(s), len(sets.cols), dtype=np.intp)
    pos[sets.cols] = np.arange(len(sets.cols))
    return _Kernel(s, pos, sets.t), unit, norms


def loss_self(
    embeddings: EmbeddingSet,
    classes: Sequence[IndexSet],
    t: IndexSet,
    config: LossConfig = LossConfig(),
) -> float:
    """Per-class self information, normalized by class size, summed over classes."""
    _validate_sets(embeddings.n, classes, t, None)
    sets = _index_sets(classes, None, t, config.family)
    return float(_self_part(_base(embeddings.data, sets)[0], sets, config)[0])


def loss_cross(
    embeddings: EmbeddingSet,
    classes: Sequence[IndexSet],
    u: IndexSet,
    t: IndexSet,
    config: LossConfig = LossConfig(),
) -> float:
    """Per-class conditional gain against U, normalized by 1/|T|."""
    _validate_sets(embeddings.n, classes, t, u)
    sets = _index_sets(classes, u, t, config.family)
    return float(_cross_part(_base(embeddings.data, sets)[0], sets, config)[0])


def _assemble(data: np.ndarray, sets: _Sets, cfg: LossConfig):
    """Loss parts and gradient at `data`.  The gradient folds W = g + g^T
    without forming it, and uses up the kernel (see the module docstring)."""
    kern, unit, norms = _base(data, sets)
    cols = sets.cols
    g = np.zeros_like(kern.s)
    l_self, l_cross, l_total = _parts(kern, sets, cfg, g)
    gs = kern.s
    del kern  # gs is now the kernel's one reference
    gs *= g
    row = gs.sum(axis=1)
    row[cols] += gs.sum(axis=0)
    del gs
    # The |C| x d products come first, so they rather than the gradient,
    # which outlives the call, reuse the kernel's freed buffer: a loop of
    # calls then touches fewer fresh pages.
    cross = g.T @ unit
    grad = g @ unit[cols]
    grad[cols] += cross
    for r in row_blocks(len(grad), grad.shape[1]):
        grad[r] -= row[r, None] * unit[r]
    grad /= norms[:, None]
    return float(l_self[0]), float(l_cross[0]), float(l_total[0]), grad


def loss_total(
    embeddings: EmbeddingSet,
    classes: Sequence[IndexSet],
    u: IndexSet,
    t: IndexSet,
    config: LossConfig = LossConfig(),
) -> LossReport:
    """Combined loss self - eta * cross with its analytic gradient."""
    _validate_sets(embeddings.n, classes, t, u)
    sets = _index_sets(classes, u, t, config.family)
    l_self, l_cross, l_tot, grad = _assemble(embeddings.data, sets, config)
    return LossReport(l_self, l_cross, l_tot, grad)


def _differences(data: np.ndarray, sets: _Sets, cfg: LossConfig, flat: np.ndarray, h: float):
    """Per coordinate of `flat`, sorted: the total of its +h probe less that
    of its -h probe, and whether neither probe is tie-adjacent.

    The probes of one row are one batch over the base kernel, save where
    they move nothing a term reads, or only graph cut's row term:
    - A row outside `sets.read` makes no kernel rows.  Its coordinates take
      the difference of two probes that move nothing, made once per audit
      by a batch of two: 0.0, or NaN where the total every such probe sees
      is not finite, as when the loss overflows.
    - A graph-cut row in T - C moves only `_Kernel.total`'s row term, at C's
      columns.  Runs of such rows go in stacked batches of those columns,
      holding no more entries than the row batch, n wide, of the row with
      the most coordinates.  Each row's kernel rows still come from its own
      product, since a product's entries round by its row count.
    Either way each probe's total is the one its row's own batch gives.
    Every row's probe norms are checked, without the product, and the
    batches run in row order, a stack before a zero norm is raised, so an
    audit raises the error the first failing row's batch raises."""
    # Only a row with fewer than two non-zero squares can lose its norm to a
    # probe, and each such row's squares add up to their largest.
    squares = data * data
    lean = squares.sum(axis=1) == squares.max(axis=1)
    del squares
    kern, unit, _ = _base(data, sets)
    n, d = data.shape
    diff = np.empty(len(flat))
    ok = np.empty(len(flat), dtype=bool)
    read = np.zeros(n, dtype=bool)
    read[sets.read] = True
    row_only = np.zeros(n, dtype=bool)
    if cfg.family is Family.GRAPH_CUT:
        row_only[sets.read] = True
        row_only[sets.cols] = False

    def run(batch: _Kernel, lo: int, hi: int) -> None:
        """Evaluates a batch of the +h probes of flat[lo:hi], then their -h probes."""
        c = hi - lo
        _, _, tot = _parts(batch, sets, cfg)
        np.subtract(tot[:c], tot[c:], out=diff[lo:hi])
        np.logical_and(batch.same[:c], batch.same[c:], out=ok[lo:hi])

    stack: list[tuple[int, int, int, np.ndarray]] = []  # (i, lo, hi, kernel rows at C)

    def flush() -> None:
        """Evaluates the stack as one batch: every +h probe, then every -h probe."""
        if stack:
            owners = np.concatenate([np.full(hi - lo, i) for i, lo, hi, _ in stack])
            ups = [r[: hi - lo] for _, lo, hi, r in stack]
            downs = [r[hi - lo :] for _, lo, hi, r in stack]
            run(kern.probes(np.tile(owners, 2), np.concatenate(ups + downs)), stack[0][1], stack[-1][2])
            stack.clear()

    # `flat` is sorted, so each row's coordinates start where the row does.
    rows, starts = np.unique(flat // d, return_index=True)
    ends = np.append(starts[1:], len(flat))
    budget = 2 * n * max((ends - starts).tolist(), default=0)
    shared = -1  # a coordinate holding the difference of probes that move nothing
    for i, lo, hi in zip(rows.tolist(), starts.tolist(), ends.tolist()):
        js = flat[lo:hi] % d
        zero = lean[i] and _zero_norm(data[i], js, h)
        # A stack's rows are consecutive, so it spans coordinates stack[0].lo to hi.
        if stack and (zero or not row_only[i] or 2 * (hi - stack[0][1]) * len(sets.cols) > budget):
            flush()
        if zero:
            raise ValueError(f"zero-norm row {i}")
        if not read[i]:
            if shared < 0:
                shared = lo
                run(kern.probes(np.array([i, i]), kern.s[[i, i]]), lo, lo + 1)
            diff[lo:hi], ok[lo:hi] = diff[shared], ok[shared]
        elif row_only[i]:
            stack.append((i, lo, hi, np.take(_probe_rows(data, unit, i, js, h), sets.cols, axis=1)))
        else:
            run(kern.probes(i, _probe_rows(data, unit, i, js, h)), lo, hi)
    flush()
    return diff, ok


def finite_difference_check(
    embeddings: EmbeddingSet,
    classes: Sequence[IndexSet],
    u: IndexSet,
    t: IndexSet,
    config: LossConfig = LossConfig(),
    h: float = FD_STEP,
    seed: int = 0,
    perturb: float = 0.0,
) -> dict:
    """Central-difference audit of the analytic gradient.

    Probes every coordinate when n*d <= FD_EXHAUSTIVE_LIMIT, otherwise a
    seeded random subset of FD_SAMPLE coordinates.  A probe whose
    argmax/hinge structure differs from the base point is tie-adjacent: it
    is counted and excluded from the error maxima rather than reported as a
    failure.  When every probe is tie-adjacent (checked == 0) nothing was
    measured, and both error maxima are NaN, so `max_rel_err < tol` is False
    for every tolerance.  They are NaN too when a checked coordinate's
    difference quotient or gradient entry is not finite, as when the loss
    overflows.  `perturb` is a test hook added to one gradient entry before
    comparison.

    The +h and -h probes of the coordinates of one row are evaluated as one
    batch: only that row and column of the base kernel change, so one matrix
    product gives every probe's kernel row, and no family builds a block per
    probe (see `objectives._Kernel`): a log-det probe reads one residual
    per class, and when i is in U one more per batch.  A row no term reads,
    outside C for log-det and outside T for the others, makes no batch, and
    graph cut stacks its rows in T - C, which move its row term alone, into
    shared batches (`_differences`); every probe's total, and so the report,
    is the one its row's own batch gives.  What the batches read of the base
    point alone is made once, in the base reader's tables, and the error
    maxima are taken once, over every coordinate's totals.  `h` must be
    finite and positive and `seed` an integer in [0, 2**64 - 1], or
    ValueError is raised.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"finite-difference step must be finite and positive, got {h!r}")
    check_number("seed", seed, 0, SEED_MAX, integer=True)
    _validate_sets(embeddings.n, classes, t, u)
    data = embeddings.data
    n, d = data.shape
    sets = _index_sets(classes, u, t, config.family)
    _, _, base_total, grad = _assemble(data, sets, config)
    if perturb != 0.0:
        grad[0, 0] += perturb
    if n * d <= FD_EXHAUSTIVE_LIMIT:
        flat = np.arange(n * d)
    else:
        rng = np.random.default_rng(seed)
        flat = np.sort(rng.choice(n * d, size=min(FD_SAMPLE, n * d), replace=False))
    diff, ok = _differences(data, sets, config, flat, h)
    fd = diff[ok]
    del diff
    fd /= 2.0 * h
    a = np.take(grad, flat[ok])
    checked = len(fd)
    max_abs = max_rel = math.nan
    if checked and np.isfinite(fd).all() and np.isfinite(a).all():
        # |a - fd| / max(|a|, |fd|, 1e-4), in place.
        err = np.abs(a - fd)
        np.maximum(np.abs(a, out=a), np.abs(fd, out=fd), out=a)
        max_abs = float(err.max())
        err /= np.maximum(a, 1e-4, out=a)
        max_rel = float(err.max())
    return {
        "l_total": base_total,
        "h": h,
        "checked": checked,
        "tie_adjacent": len(flat) - checked,
        "max_abs_err": max_abs,
        "max_rel_err": max_rel,
    }
