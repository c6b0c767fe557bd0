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
boundary by comparing structure signatures and reports them instead of
flagging errors.

Every term reads the kernel through `_Kernel.block`, which stacks each block
on a leading probe axis, and returns one value per probe.  A plain loss
evaluation is a batch of one, and only there are adjoints accumulated.  The
finite-difference audit uses that a probe on coordinate (i, j) moves row i of
the unit embeddings alone, so only row and column i of the kernel: it builds
the n-long kernel rows of several probes of one row with one matrix product
and evaluates them as one batch over the base kernel.  The batch size
follows from n, d, |C| and the blocks the family's terms read: a batch's
scratch stays within one base kernel plus one gradient, n (|C| + d)
entries, or 48 KB when that is more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .kernels import EmbeddingSet, IndexSet, cosine_columns
from .objectives import Family, _scg

FD_STEP = 1e-4
FD_EXHAUSTIVE_LIMIT = 5000  # probe every coordinate up to this many


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
        if self.lam < 0.0 or self.nu < 0.0:
            raise ValueError("lam and nu must be non-negative")


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


class _Kernel:
    """The cosine kernel's columns C = (union of the K_c) + U, as a batch of
    probes sees them.

    `s` is n x |C| with s[a, pos[b]] the cosine of rows a and b: every term
    reads columns in C only.  Without `rows` it is the base kernel, a batch
    of one.  Otherwise probe p sees it with row and column `i` replaced by
    `rows[p]`, an n-long kernel row.
    """

    def __init__(self, s: np.ndarray, pos: np.ndarray, i: int = -1, rows: np.ndarray | None = None):
        self.s, self.pos, self.i, self.rows = s, pos, i, rows

    def probes(self, i: int, rows: np.ndarray) -> "_Kernel":
        return _Kernel(self.s, self.pos, i, rows)

    @property
    def size(self) -> int:
        return 1 if self.rows is None else len(self.rows)

    def block(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The block at sorted rows a and columns b in C, shape
        (probes, |a|, |b|), or (1, |a|, |b|) when no probe changes it."""
        blk = self.s[a[:, None], self.pos[b]][None]
        if self.rows is None:
            return blk
        pa, pb = _position(a, self.i), _position(b, self.i)
        if pa < 0 and pb < 0:
            return blk
        out = np.repeat(blk, len(self.rows), axis=0)
        if pa >= 0:
            out[:, pa, :] = self.rows[:, b]
        if pb >= 0:
            out[:, :, pb] = self.rows[:, a]
        return out


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


def _position(arr: np.ndarray, i: int) -> int:
    """Index of i in the sorted array arr, or -1."""
    k = int(arr.searchsorted(i))
    return k if k < len(arr) and arr[k] == i else -1


def _probe_rows(data: np.ndarray, unit: np.ndarray, i: int, js: np.ndarray, h: float):
    """Kernel rows i of the probes (i, js) + h, then of (i, js) - h.

    The -h probe is taken from the +h one, (x + h) - 2h, as a probe moved up
    and then back down would be."""
    c = len(js)
    up = data[i, js] + h
    probes = np.repeat(data[i][None], 2 * c, axis=0)
    probes[np.arange(2 * c), np.tile(js, 2)] = np.concatenate([up, up - 2.0 * h])
    norms = np.linalg.norm(probes, axis=1)
    if not norms.all():
        raise ValueError(f"zero-norm row {i}")
    rows = np.clip((probes / norms[:, None]) @ unit.T, -1.0, 1.0)
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
    ground set in the self term, and the kernel columns C, the union of the
    classes and U."""

    classes: list[np.ndarray]
    u: np.ndarray
    t: np.ndarray
    grounds: list[np.ndarray]
    cols: np.ndarray


def _index_sets(
    classes: Sequence[IndexSet], u: IndexSet | None, t: IndexSet, family: Family
) -> _Sets:
    t_arr = _sorted(t)
    u_arr = t_arr[:0] if u is None else _sorted(u)
    kcs = [_sorted(kc) for kc in classes]
    # Facility location's self term sums over T without the class, graph
    # cut's over T without U; log-det reads no ground set.
    if family is Family.FACILITY_LOCATION:
        grounds = [np.setdiff1d(t_arr, kc, assume_unique=True) for kc in kcs]
    elif family is Family.GRAPH_CUT:
        grounds = [np.setdiff1d(t_arr, u_arr, assume_unique=True)] * len(kcs)
    else:
        grounds = [t_arr] * len(kcs)
    cols = np.sort(np.concatenate(kcs + [u_arr]))
    return _Sets(kcs, u_arr, t_arr, grounds, cols)


def _self_part(kern: _Kernel, sets: _Sets, cfg: LossConfig, adj=None, sig=None):
    """Per-class self terms f(K_c) / |K_c|, one sum per probe; log-det's
    diagonal shift is lam.  Adjoints go into adj, and facility location's
    argmax rows into sig, when given."""
    return _scg(
        cfg.family, kern.block, kern.size, sets.classes, sets.grounds, sets.u[:0],
        [1.0 / len(kc) for kc in sets.classes], lam=cfg.lam, nu=cfg.nu, shift=cfg.lam,
        errors=("", "class kernel not positive definite"), adj=adj, sig=sig,
    )


def _cross_part(kern: _Kernel, sets: _Sets, cfg: LossConfig, adj=None, sig=None):
    """Per-class conditional gains f(K_c | U) / |T| over ground T with no
    diagonal shift, one sum per probe.  Adjoints go into adj, and facility
    location's argmax and hinge rows into sig, when given."""
    k = len(sets.classes)
    return _scg(
        cfg.family, kern.block, kern.size, sets.classes, [sets.t] * k, sets.u,
        [1.0 / len(sets.t)] * k, lam=cfg.lam, nu=cfg.nu, shift=0.0,
        errors=("singular unknown-set kernel", "cross term not positive definite"),
        adj=adj, sig=sig,
    )


def _parts(kern: _Kernel, sets: _Sets, cfg: LossConfig, g=None, sig=None):
    """Self, cross and total loss per probe of `kern`; the total's adjoints
    accumulate into g when given."""
    adj_self = adj_cross = None
    if g is not None:
        adj_self, adj_cross = _Adjoint(g, kern, 1.0), _Adjoint(g, kern, -cfg.eta)
    l_self = _self_part(kern, sets, cfg, adj_self, sig)
    l_cross = _cross_part(kern, sets, cfg, adj_cross, sig)
    return l_self, l_cross, l_self - cfg.eta * l_cross


def _base(data: np.ndarray, sets: _Sets):
    """The base kernel over the columns of `sets`, and the unit rows and
    norms of `data`."""
    s, unit, norms = cosine_columns(data, sets.cols)
    # An item outside C maps past the last column, so reading it raises.
    pos = np.full(len(s), len(sets.cols), dtype=np.intp)
    pos[sets.cols] = np.arange(len(sets.cols))
    return _Kernel(s, pos), unit, norms


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


def _assemble(data: np.ndarray, sets: _Sets, cfg: LossConfig, sig: Callable | None = None):
    """Loss parts and gradient at `data`, and the kernel and unit rows they
    used.  The gradient folds W = g + g^T without forming it (see the module
    docstring)."""
    kern, unit, norms = _base(data, sets)
    cols = sets.cols
    g = np.zeros_like(kern.s)
    l_self, l_cross, l_total = _parts(kern, sets, cfg, g, sig)
    grad = g @ unit[cols]
    grad[cols] += g.T @ unit
    g *= kern.s
    row = g.sum(axis=1)
    row[cols] += g.sum(axis=0)
    grad -= row[:, None] * unit
    grad /= norms[:, None]
    return float(l_self[0]), float(l_cross[0]), float(l_total[0]), grad, kern, unit


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
    l_self, l_cross, l_tot, grad, _, _ = _assemble(embeddings.data, sets, config)
    return LossReport(l_self, l_cross, l_tot, grad)


def grad_loss(
    embeddings: EmbeddingSet,
    classes: Sequence[IndexSet],
    u: IndexSet,
    t: IndexSet,
    config: LossConfig = LossConfig(),
) -> np.ndarray:
    """Gradient of the total loss with respect to every embedding row."""
    return loss_total(embeddings, classes, u, t, config).grad


class _SameSignature:
    """Compares each term's signature rows with the base point's as they come."""

    def __init__(self, base: list[np.ndarray], size: int):
        self._base = iter(base)
        self.same = np.ones(size, dtype=bool)

    def __call__(self, sig: np.ndarray) -> None:
        self.same &= (sig == next(self._base)).all(axis=1)


def _coords_per_batch(n: int, d: int, sets: _Sets, family: Family) -> int:
    """Coordinates whose +h and -h probes may share one batch.

    A probe holds its kernel row and its embedding row twice (moved and
    normalized), and while a term reads it, that term's largest scratch:

      facility location: a |T| x max(|K_c|, |U|) block and about eight
        |T|-long argmax, value, margin and mask rows;
      graph cut: a |T| x max |K_c| block, summed to one value per probe;
      log-det: about six max(|K_c|, |U|)^2 blocks, solves and factors.

    A batch's scratch is capped at one base kernel plus one gradient,
    n (|C| + d) entries, but never below 6144 entries (48 KB), so small
    inputs still batch most of a row.
    """
    t = len(sets.t)
    k = max(len(sets.u), max(len(kc) for kc in sets.classes))
    if family is Family.FACILITY_LOCATION:
        term = t * k + 8 * t
    elif family is Family.GRAPH_CUT:
        term = t * max(len(kc) for kc in sets.classes)
    else:
        term = 6 * k * k
    budget = max(n * (len(sets.cols) + d), 6144)
    return max(1, budget // (2 * (n + 2 * d + term)))


def finite_difference_check(
    embeddings: EmbeddingSet,
    classes: Sequence[IndexSet],
    u: IndexSet,
    t: IndexSet,
    config: LossConfig = LossConfig(),
    h: float = FD_STEP,
    seed: int = 0,
    max_coords: int = 200,
    perturb: float = 0.0,
) -> dict:
    """Central-difference audit of the analytic gradient.

    Probes every coordinate when n*d <= 5000, otherwise a seeded random
    subset of max_coords coordinates.  A probe whose argmax/hinge structure
    differs from the base point is tie-adjacent: it is counted and excluded
    from the error maxima rather than reported as a failure.  When every probe
    is tie-adjacent (checked == 0) nothing was measured, and both error
    maxima are NaN, so `max_rel_err < tol` is False for every tolerance.
    `perturb` is a test hook added to one gradient entry before comparison.

    The +h and -h probes of several coordinates of one row are evaluated as
    one batch: only that row and column of the base kernel change, so one
    matrix product gives every probe's kernel row.  A batch takes as many
    coordinates as fit in n (|C| + d) entries of scratch (48 KB at least),
    counting each probe's embedding row, kernel row and the scratch of the
    blocks its family's terms read; a row's coordinates are split into as
    few, and as even, batches as that allows.
    `h` must be finite and positive, or ValueError is raised.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"finite-difference step must be finite and positive, got {h!r}")
    _validate_sets(embeddings.n, classes, t, u)
    data = embeddings.data
    n, d = data.shape
    sets = _index_sets(classes, u, t, config.family)
    base_sig: list[np.ndarray] = []
    _, _, base_total, grad, kern, unit = _assemble(data, sets, config, base_sig.append)
    if perturb != 0.0:
        grad[0, 0] += perturb
    if n * d <= FD_EXHAUSTIVE_LIMIT:
        flat = np.arange(n * d)
    else:
        rng = np.random.default_rng(seed)
        flat = np.sort(rng.choice(n * d, size=min(max_coords, n * d), replace=False))
    per_batch = _coords_per_batch(n, d, sets, config.family)
    max_abs = 0.0
    max_rel = 0.0
    checked = 0
    ties = 0
    # `flat` is sorted, so each row's coordinates start where the row does.
    rows, starts = np.unique(flat // d, return_index=True)
    for i, row in zip(rows.tolist(), np.split(flat, starts[1:])):
        # As few batches as per_batch allows, of even size.
        batches = -(-len(row) // per_batch)
        size = -(-len(row) // batches)
        for start in range(0, len(row), size):
            js = row[start : start + size] % d
            c = len(js)
            probes = kern.probes(i, _probe_rows(data, unit, i, js, h))
            same = _SameSignature(base_sig, 2 * c)
            _, _, tot = _parts(probes, sets, config, sig=same)
            ok = same.same[:c] & same.same[c:]
            ties += c - int(ok.sum())
            if not ok.any():
                continue
            fd = (tot[:c] - tot[c:])[ok] / (2.0 * h)
            a = grad[i, js[ok]]
            abs_err = np.abs(a - fd)
            rel_err = abs_err / np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-4)
            max_abs = max(max_abs, float(abs_err.max()))
            max_rel = max(max_rel, float(rel_err.max()))
            checked += len(fd)
    if checked == 0:
        max_abs = max_rel = float("nan")
    return {
        "l_total": base_total,
        "h": h,
        "checked": checked,
        "tie_adjacent": ties,
        "max_abs_err": max_abs,
        "max_rel_err": max_rel,
    }
