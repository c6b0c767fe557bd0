"""Set-based training losses over cosine similarities, with analytic gradients.

The loss couples two terms over a batch domain T of item embeddings:

  total = self - eta * cross

The self term scores each known-class set on its own (normalized per class by
1/|K_c|); the cross term scores each class against a conditioning set U of
mined unknowns (normalized by 1/|T|).  Incremental-learning replay uses the
identical cross term with U replaced by the previous-task exemplar buffer, so
`mode` is carried on the config purely as provenance.

Similarities are raw cosines of the embedding rows (signed, no clipping).
Gradients are assembled by accumulating an adjoint matrix G over kernel
entries, folding W = G + G^T, and applying the cosine chain rule row-wise:

  dL/de_a = ((W @ U)_a - (sum_b W_ab s_ab) u_a) / ||e_a||

with U the row-normalized embeddings.  Diagonal entries are constants
(s_aa = 1) and cancel inside that expression, so adjoints may safely land on
the diagonal.  Facility-location terms carry argmax/hinge structure; the
finite-difference checker detects probes that cross such a boundary by
comparing structure signatures and reports them instead of flagging errors.

Every term reads the kernel through `_Kernel.block`, which stacks each block
on a leading probe axis, and returns one value per probe.  A plain loss
evaluation is a batch of one, and only there are adjoints accumulated.  The
finite-difference audit uses that a probe on coordinate (i, j) moves row i of
the unit embeddings alone, so only row and column i of the kernel: it builds
the kernel rows of several probes of one row with one matrix product and
evaluates them as one batch over the base kernel.  The batch size follows
from n, d and the largest block a term reads: a batch's scratch stays within
two n x n matrices, or 32 KB when that is more, while the base gradient
evaluation allocates about six.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .kernels import EmbeddingSet, IndexSet
from .objectives import Family

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


def _cosine_parts(data: np.ndarray):
    norms = np.linalg.norm(data, axis=1)
    for i, nrm in enumerate(norms):
        if nrm == 0.0:
            raise ValueError(f"zero-norm row {i}")
    unit = data / norms[:, None]
    s = unit @ unit.T
    s = np.clip((s + s.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(s, 1.0)
    return s, unit, norms


class _Kernel:
    """The cosine kernel as a batch of probes sees it.

    Without `rows` it is the base kernel `s`, a batch of one.  Otherwise
    probe b sees `s` with row and column `i` replaced by `rows[b]`.
    """

    def __init__(self, s: np.ndarray, i: int = -1, rows: np.ndarray | None = None):
        self.s, self.i, self.rows = s, i, rows

    @property
    def size(self) -> int:
        return 1 if self.rows is None else len(self.rows)

    def block(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The block at sorted rows a and columns b, shape (probes, |a|, |b|),
        or (1, |a|, |b|) when no probe changes it."""
        blk = self.s[a[:, None], b][None]
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


def _position(arr: np.ndarray, i: int) -> int:
    """Index of i in the sorted array arr, or -1."""
    k = int(np.searchsorted(arr, i))
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


def _sorted(s: IndexSet) -> np.ndarray:
    return np.sort(s.as_array())


def _cholesky(m: np.ndarray, err: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError(err) from None


def _logdet(m: np.ndarray, err: str) -> np.ndarray:
    """log det of each stacked matrix; ValueError(err) if one is not PD."""
    chol = _cholesky(m, err)
    return 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)


def _best(kern: _Kernel, a: np.ndarray, b: np.ndarray):
    """Per probe and row of a: the argmax over b and its value.  The block
    is dropped once reduced, so one block per term is alive at a time."""
    blk = kern.block(a, b)
    j = blk.argmax(axis=2)
    rows = blk.reshape(-1, len(b))
    return j, rows[np.arange(len(rows)), j.ravel()].reshape(j.shape)


class _Sets(NamedTuple):
    """Sorted index arrays of one loss: the classes, U, T, the self domain
    and, for facility location, the self domain without each class."""

    classes: list[np.ndarray]
    u: np.ndarray
    t: np.ndarray
    t_self: np.ndarray
    outside: list[np.ndarray]


def _index_sets(
    classes: Sequence[IndexSet], u: IndexSet | None, t: IndexSet, family: Family
) -> _Sets:
    t_arr = _sorted(t)
    u_arr = t_arr[:0] if u is None else _sorted(u)
    # Graph-cut self sums over the batch without the unknowns; the other
    # families use the full batch domain (log-det ignores it entirely).
    if family is Family.GRAPH_CUT:
        t_self = np.setdiff1d(t_arr, u_arr, assume_unique=True)
    else:
        t_self = t_arr
    kcs = [_sorted(kc) for kc in classes]
    outside = []
    if family is Family.FACILITY_LOCATION:
        outside = [np.setdiff1d(t_self, kc, assume_unique=True) for kc in kcs]
    return _Sets(kcs, u_arr, t_arr, t_self, outside)


def _self_part(kern: _Kernel, sets: _Sets, cfg: LossConfig, gbar=None, sig=None):
    """Per-class self terms, one sum per probe; adjoints into gbar when given.

    Facility location hands each class's argmax rows, shape (probes, m), to
    `sig` when given.
    """
    total = np.zeros(kern.size)
    t_arr = sets.t_self
    for k, kc_arr in enumerate(sets.classes):
        coef = 1.0 / len(kc_arr)
        if cfg.family is Family.FACILITY_LOCATION:
            rows = sets.outside[k]
            if len(rows) == 0:
                continue
            j, best = _best(kern, rows, kc_arr)
            total += coef * best.sum(axis=1)
            if sig is not None:
                sig(j)
            if gbar is not None:
                np.add.at(gbar, (rows, kc_arr[j[0]]), coef)
        elif cfg.family is Family.GRAPH_CUT:
            cover = kern.block(t_arr, kc_arr).sum(axis=(1, 2))
            redun = kern.block(kc_arr, kc_arr).sum(axis=(1, 2))
            total += coef * (cover - cfg.lam * redun)
            if gbar is not None:
                gbar[np.ix_(t_arr, kc_arr)] += coef
                gbar[np.ix_(kc_arr, kc_arr)] += -coef * cfg.lam
        else:
            m = kern.block(kc_arr, kc_arr) + cfg.lam * np.eye(len(kc_arr))
            total += coef * _logdet(m, "class kernel not positive definite")
            if gbar is not None:
                minv = np.linalg.inv(m[0])
                gbar[np.ix_(kc_arr, kc_arr)] += coef * minv
    return total


def _cross_part(kern: _Kernel, sets: _Sets, cfg: LossConfig, gbar=None, sig=None):
    """Per-class conditional terms against U, one sum per probe; adjoints into
    gbar when given.  Facility location hands each class's argmax and hinge
    rows to `sig` when given."""
    total = np.zeros(kern.size)
    t_arr, u_arr = sets.t, sets.u
    coef = 1.0 / len(t_arr)
    nu = cfg.nu
    if cfg.family is Family.FACILITY_LOCATION:
        ju, best_u = _best(kern, t_arr, u_arr)
        if sig is not None:
            sig(ju)
    elif cfg.family is Family.LOG_DET:
        c = kern.block(u_arr, u_arr)
        _cholesky(c, "singular unknown-set kernel")
    for kc_arr in sets.classes:
        if cfg.family is Family.FACILITY_LOCATION:
            jk, best_k = _best(kern, t_arr, kc_arr)
            margin = best_k - nu * best_u
            active = margin > 0.0
            # Summing the active margins alone keeps the summation order of
            # a single evaluation, so the values are bit-for-bit the same.
            total += coef * np.array([m[a].sum() for m, a in zip(margin, active)])
            if sig is not None:
                sig(jk)
                sig(active)
            if gbar is not None:
                t_act, act = t_arr[active[0]], active[0]
                np.add.at(gbar, (t_act, kc_arr[jk[0][act]]), coef)
                np.add.at(gbar, (t_act, u_arr[ju[0][act]]), -coef * nu)
        elif cfg.family is Family.GRAPH_CUT:
            cover = kern.block(t_arr, kc_arr).sum(axis=(1, 2))
            redun = kern.block(kc_arr, kc_arr).sum(axis=(1, 2))
            coupling = kern.block(kc_arr, u_arr).sum(axis=(1, 2))
            total += coef * (cover - cfg.lam * redun - 2.0 * cfg.lam * nu * coupling)
            if gbar is not None:
                gbar[np.ix_(t_arr, kc_arr)] += coef
                gbar[np.ix_(kc_arr, kc_arr)] += -coef * cfg.lam
                gbar[np.ix_(kc_arr, u_arr)] += -2.0 * coef * cfg.lam * nu
        else:
            a = kern.block(kc_arr, kc_arr)
            b = kern.block(kc_arr, u_arr)
            x = np.linalg.solve(c, np.swapaxes(b, 1, 2))  # C^-1 B^T per probe
            m = a - nu * nu * (b @ x)
            total += coef * _logdet(m, "cross term not positive definite")
            if gbar is not None:
                minv = np.linalg.inv(m[0])
                p = x[0].T  # B C^-1
                gbar[np.ix_(kc_arr, kc_arr)] += coef * minv
                gbar[np.ix_(kc_arr, u_arr)] += -2.0 * coef * nu * nu * (minv @ p)
                gbar[np.ix_(u_arr, u_arr)] += coef * nu * nu * (p.T @ minv @ p)
    return total


def _parts(kern: _Kernel, sets: _Sets, cfg: LossConfig, g_self=None, g_cross=None, sig=None):
    """Self, cross and total loss per probe of `kern`."""
    l_self = _self_part(kern, sets, cfg, g_self, sig)
    l_cross = _cross_part(kern, sets, cfg, g_cross, sig)
    return l_self, l_cross, l_self - cfg.eta * l_cross


def loss_self(
    embeddings: EmbeddingSet,
    classes: Sequence[IndexSet],
    t: IndexSet,
    config: LossConfig = LossConfig(),
) -> float:
    """Per-class self information, normalized by class size, summed over classes."""
    _validate_sets(embeddings.n, classes, t, None)
    s, _, _ = _cosine_parts(embeddings.data)
    sets = _index_sets(classes, None, t, config.family)
    return float(_self_part(_Kernel(s), sets, config)[0])


def loss_cross(
    embeddings: EmbeddingSet,
    classes: Sequence[IndexSet],
    u: IndexSet,
    t: IndexSet,
    config: LossConfig = LossConfig(),
) -> float:
    """Per-class conditional gain against U, normalized by 1/|T|."""
    _validate_sets(embeddings.n, classes, t, u)
    s, _, _ = _cosine_parts(embeddings.data)
    sets = _index_sets(classes, u, t, config.family)
    return float(_cross_part(_Kernel(s), sets, config)[0])


def _assemble(data: np.ndarray, sets: _Sets, cfg: LossConfig, sig: Callable | None = None):
    """Loss parts and gradient at `data`, and the kernel and unit rows they used."""
    s, unit, norms = _cosine_parts(data)
    n = data.shape[0]
    g_self = np.zeros((n, n))
    g_cross = np.zeros((n, n))
    l_self, l_cross, l_total = _parts(_Kernel(s), sets, cfg, g_self, g_cross, sig)
    gbar = g_self - cfg.eta * g_cross
    w = gbar + gbar.T
    row = (w * s).sum(axis=1)
    grad = (w @ unit - row[:, None] * unit) / norms[:, None]
    return float(l_self[0]), float(l_cross[0]), float(l_total[0]), grad, s, unit


def loss_total(
    embeddings: EmbeddingSet,
    classes: Sequence[IndexSet],
    u: IndexSet,
    t: IndexSet,
    config: LossConfig = LossConfig(),
) -> LossReport:
    """Combined loss self - eta * cross with its analytic gradient."""
    _validate_sets(embeddings.n, classes, t, u)
    for idx in u:
        if idx not in t:
            raise ValueError("conditioning set not contained in batch domain")
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


def _coords_per_batch(n: int, d: int, sets: _Sets) -> int:
    """Coordinates whose +h and -h probes share one batch.

    A probe holds its kernel row, its embedding row twice (moved and
    normalized) and, while a term reads it, one block of at most
    |T| x max(|K_c|, |U|) entries with about five |T|-long reductions of it.
    A batch's scratch is capped at two n x n matrices, a third of what the
    base gradient evaluation allocates, but never below 4096 entries (32 KB),
    so small inputs still batch most of a row.
    """
    t = len(sets.t)
    block = t * max(len(sets.u), max(len(kc) for kc in sets.classes))
    return max(1, max(2 * n * n, 4096) // (2 * (n + 2 * d + block + 5 * t)))


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
    coordinates as fit in two n x n matrices of scratch (32 KB at least),
    counting each probe's embedding row, kernel row and largest term block.
    `h` must be finite and positive, or ValueError is raised.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"finite-difference step must be finite and positive, got {h!r}")
    _validate_sets(embeddings.n, classes, t, u)
    for idx in u:
        if idx not in t:
            raise ValueError("conditioning set not contained in batch domain")
    data = embeddings.data
    n, d = data.shape
    sets = _index_sets(classes, u, t, config.family)
    base_sig: list[np.ndarray] = []
    _, _, base_total, grad, s, unit = _assemble(data, sets, config, base_sig.append)
    if perturb != 0.0:
        grad[0, 0] += perturb
    if n * d <= FD_EXHAUSTIVE_LIMIT:
        flat = np.arange(n * d)
    else:
        rng = np.random.default_rng(seed)
        flat = np.sort(rng.choice(n * d, size=min(max_coords, n * d), replace=False))
    per_batch = _coords_per_batch(n, d, sets)
    max_abs = 0.0
    max_rel = 0.0
    checked = 0
    ties = 0
    # `flat` is sorted, so each row's coordinates start where the row does.
    rows, starts = np.unique(flat // d, return_index=True)
    for i, row in zip(rows.tolist(), np.split(flat, starts[1:])):
        for start in range(0, len(row), per_batch):
            js = row[start : start + per_batch] % d
            c = len(js)
            kern = _Kernel(s, i, _probe_rows(data, unit, i, js, h))
            same = _SameSignature(base_sig, 2 * c)
            _, _, tot = _parts(kern, sets, config, sig=same)
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
