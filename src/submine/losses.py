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

Similarities are raw cosines of the embedding rows (signed, no clipping),
read at columns C, the union of the classes and U only, so the kernel s
and its adjoint G = dL/ds are n x |C|.  With U the row-normalized
embeddings and W = G + G^T, the cosine chain rule gives, row by row,

  dL/de_a = ((W @ U)_a - (sum_b W_ab s_ab) u_a) / ||e_a||

W is never formed: W @ U is G @ U[C] with G^T @ U added into rows C, and
the row sums of W * s are those of G * s with its column sums added into
rows C.  Diagonal entries (s_aa = 1) cancel, so adjoints may land there.

The contract: a loss evaluation holds three large arrays at once, the
n x d unit rows, the kernel and G, plus block-sized scratch; the kernel's
buffer is used up before the n x d gradient is allocated.  A kernel and G
above `kernels.MAX_KERNEL_BYTES` are refused before either is built.  The
finite-difference audit reports a probe whose argmax rows or hinges differ
from the base point's as tie-adjacent instead of checking it.  How the
terms read the kernel (two 1-D takes per block, graph cut's row vectors
per column set, the audit's stacked batches) is set out in README's loss
and `gradcheck` sections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .kernels import (
    SEED_MAX, EmbeddingSet, IndexSet, check_budget, check_number, cosine_columns, row_blocks,
)
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
        object.__setattr__(self, "family", Family.parse(self.family))
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
    """dL/ds over the base kernel's entries, n x |C| like it.  Adjoints land
    scaled by `weight`, the weight in the total of the term being run.

    Graph cut's adds are scalars over rows a of a whole column set b, a
    class or U, so every column of b takes the same adds in the same order.
    They go into one n-long row vector per column set, keyed by its items
    and kept across the terms, and `write` puts each vector into g's
    columns once.  The sets are disjoint and graph cut makes no other add,
    so those columns hold nothing else."""

    def __init__(self, g: np.ndarray, pos: np.ndarray, weight: float):
        self.g, self.pos, self.weight = g, pos, weight
        self.columns = {}  # b's bytes: (b, row vector)

    def block(self, a: np.ndarray, b: np.ndarray, v: np.ndarray) -> None:
        """Add v, |a| x |b|, to the block at rows a, columns b."""
        self.g[a[:, None], self.pos[b]] += self.weight * v

    def rows(self, a: np.ndarray, b: np.ndarray, v: float) -> None:
        """Add v at rows a of every column of b, into b's row vector."""
        key = b.tobytes()
        if key not in self.columns:
            self.columns[key] = (b, np.zeros(len(self.g)))
        self.columns[key][1][a] += self.weight * v

    def pairs(self, a: np.ndarray, b: np.ndarray, v: float) -> None:
        """Add v at the distinct entries (a[k], b[k])."""
        self.g[a, self.pos[b]] += self.weight * v

    def write(self) -> None:
        """Put each column set's row vector into g's columns."""
        for b, vec in self.columns.values():
            self.g[:, self.pos[b]] = vec[:, None]


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
    probes = data[i][None].repeat(2 * c, axis=0)
    probes[np.arange(2 * c), np.concatenate([js, js])] = np.concatenate([up, up - 2.0 * h])
    # The norms as np.linalg.norm takes them, without its wrapper.
    probes /= np.sqrt(np.add.reduce(probes * probes, axis=1))[:, None]
    rows = probes @ unit.T
    rows.clip(-1.0, 1.0, out=rows)
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
    go into g when given, which holds zeros: log-det's and facility
    location's accumulate, and graph cut's are written per column set.  For
    a batch of probes, graph cut's values leave out the base sums the
    probes share (see `_Kernel.total`)."""
    if g is None:
        l_self, l_cross = _self_part(kern, sets, cfg), _cross_part(kern, sets, cfg)
    else:
        adj = _Adjoint(g, kern.pos, 1.0)
        l_self = _self_part(kern, sets, cfg, adj)
        adj.weight = -cfg.eta
        l_cross = _cross_part(kern, sets, cfg, adj)
        adj.write()
    return l_self, l_cross, l_self - cfg.eta * l_cross


def _base(data: np.ndarray, sets: _Sets):
    """The base kernel over the columns of `sets`, which reads rows inside
    T, and the unit rows and norms of `data`."""
    n, c = len(data), len(sets.cols)
    nbytes = 2 * 8 * n * c  # float64 kernel and adjoint
    check_budget(
        nbytes, f"K and U hold {c} items, so the {n} x {c} kernel and its adjoint need {nbytes:,} bytes"
    )
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
    """Per-class self information, normalized by class size, summed over
    classes, over ground t - K_c for facility location and all of t for
    graph cut.  loss_total's self term sums graph cut over T - U, so for
    graph cut loss_self(e, classes, t.minus(u)), not loss_self(e, classes,
    t), is its l_self; for the other families t itself is."""
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
    """Per-class conditional gain against U, normalized by 1/|T|: loss_total's
    l_cross on the same t, for every family (see loss_self for l_self)."""
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

    The probes of one row are one batch over the base kernel.  A row
    outside `sets.read` moves nothing a term reads: its coordinates share
    the difference of two such probes, made once (0.0, or NaN where that
    total is not finite).  A graph-cut row in T - C moves only the row term,
    so runs of them go in stacked batches of C's columns, no larger than
    the largest one-row batch; each row's kernel rows still come from its
    own product, since a product's entries round by its row count.  Every
    probe's total is the one its row's own batch gives.  Batches run in row
    order, a stack before a zero norm is raised, so an audit raises the
    error the first failing row's batch raises.  README's `gradcheck`
    section gives the plan."""
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
            owners = np.repeat([i for i, *_ in stack] * 2, [hi - lo for _, lo, hi, _ in stack] * 2)
            ups = [r[: hi - lo] for _, lo, hi, r in stack]
            downs = [r[hi - lo :] for _, lo, hi, r in stack]
            run(kern.probes(owners, np.concatenate(ups + downs)), stack[0][1], stack[-1][2])
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
            stack.append((i, lo, hi, _probe_rows(data, unit, i, js, h).take(sets.cols, axis=1)))
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
    comparison.  `h` must be finite and positive and `seed` an integer in
    [0, 2**64 - 1], or ValueError is raised.

    The probes of each row are evaluated in batches over the base kernel
    (`_differences`), with no block per probe; the report is the one a
    batch per row gives.  README's `gradcheck` section sets out the reads.
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
