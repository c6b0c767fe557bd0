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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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


def _logdet_chol(m: np.ndarray, err: str):
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError(err) from None
    return float(2.0 * np.sum(np.log(np.diag(chol)))), chol


def _self_part(s, classes, t_arr, cfg: LossConfig, gbar, sig):
    """Per-class self terms; accumulates adjoints into gbar when given."""
    total = 0.0
    for kc in classes:
        kc_arr = np.sort(kc.as_array())
        coef = 1.0 / len(kc_arr)
        if cfg.family is Family.FACILITY_LOCATION:
            rows = np.setdiff1d(t_arr, kc_arr)
            if len(rows) == 0:
                continue
            sub = s[np.ix_(rows, kc_arr)]
            j = sub.argmax(axis=1)
            total += coef * float(sub[np.arange(len(rows)), j].sum())
            if sig is not None:
                sig.extend(int(x) for x in j)
            if gbar is not None:
                np.add.at(gbar, (rows, kc_arr[j]), coef)
        elif cfg.family is Family.GRAPH_CUT:
            cover = float(s[np.ix_(t_arr, kc_arr)].sum())
            redun = float(s[np.ix_(kc_arr, kc_arr)].sum())
            total += coef * (cover - cfg.lam * redun)
            if gbar is not None:
                gbar[np.ix_(t_arr, kc_arr)] += coef
                gbar[np.ix_(kc_arr, kc_arr)] += -coef * cfg.lam
        else:
            m = s[np.ix_(kc_arr, kc_arr)] + cfg.lam * np.eye(len(kc_arr))
            val, _ = _logdet_chol(m, "class kernel not positive definite")
            total += coef * val
            if gbar is not None:
                minv = np.linalg.inv(m)
                gbar[np.ix_(kc_arr, kc_arr)] += coef * minv
    return total


def _cross_part(s, classes, u_arr, t_arr, cfg: LossConfig, gbar, sig):
    """Per-class conditional terms against U; adjoints into gbar when given."""
    total = 0.0
    coef = 1.0 / len(t_arr)
    nu = cfg.nu
    for kc in classes:
        kc_arr = np.sort(kc.as_array())
        if cfg.family is Family.FACILITY_LOCATION:
            subk = s[np.ix_(t_arr, kc_arr)]
            subu = s[np.ix_(t_arr, u_arr)]
            jk = subk.argmax(axis=1)
            ju = subu.argmax(axis=1)
            rows = np.arange(len(t_arr))
            margin = subk[rows, jk] - nu * subu[rows, ju]
            active = margin > 0.0
            total += coef * float(margin[active].sum())
            if sig is not None:
                sig.extend(int(x) for x in jk)
                sig.extend(int(x) for x in ju)
                sig.extend(int(x) for x in active)
            if gbar is not None:
                np.add.at(gbar, (t_arr[active], kc_arr[jk[active]]), coef)
                np.add.at(gbar, (t_arr[active], u_arr[ju[active]]), -coef * nu)
        elif cfg.family is Family.GRAPH_CUT:
            cover = float(s[np.ix_(t_arr, kc_arr)].sum())
            redun = float(s[np.ix_(kc_arr, kc_arr)].sum())
            coupling = float(s[np.ix_(kc_arr, u_arr)].sum())
            total += coef * (cover - cfg.lam * redun - 2.0 * cfg.lam * nu * coupling)
            if gbar is not None:
                gbar[np.ix_(t_arr, kc_arr)] += coef
                gbar[np.ix_(kc_arr, kc_arr)] += -coef * cfg.lam
                gbar[np.ix_(kc_arr, u_arr)] += -2.0 * coef * cfg.lam * nu
        else:
            a = s[np.ix_(kc_arr, kc_arr)]
            b = s[np.ix_(kc_arr, u_arr)]
            c = s[np.ix_(u_arr, u_arr)]
            try:
                c_fac = cho_factor(c, lower=True)
            except np.linalg.LinAlgError:
                raise ValueError("singular unknown-set kernel") from None
            x = cho_solve(c_fac, b.T)  # C^-1 B^T, shape (|U|, |Kc|)
            m = a - nu * nu * (b @ x)
            val, _ = _logdet_chol(m, "cross term not positive definite")
            total += coef * val
            if gbar is not None:
                minv = np.linalg.inv(m)
                p = x.T  # B C^-1
                gbar[np.ix_(kc_arr, kc_arr)] += coef * minv
                gbar[np.ix_(kc_arr, u_arr)] += -2.0 * coef * nu * nu * (minv @ p)
                gbar[np.ix_(u_arr, u_arr)] += coef * nu * nu * (p.T @ minv @ p)
    return total


def _self_domain(family: Family, t: IndexSet, u: IndexSet) -> IndexSet:
    # Graph-cut self sums over the batch without the unknowns; the other
    # families use the full batch domain (log-det ignores it entirely).
    return t.minus(u) if family is Family.GRAPH_CUT else t


def loss_self(
    embeddings: EmbeddingSet,
    classes: Sequence[IndexSet],
    t: IndexSet,
    config: LossConfig = LossConfig(),
) -> float:
    """Per-class self information, normalized by class size, summed over classes."""
    _validate_sets(embeddings.n, classes, t, None)
    s, _, _ = _cosine_parts(embeddings.data)
    return _self_part(s, classes, np.sort(t.as_array()), config, None, None)


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
    return _cross_part(
        s, classes, np.sort(u.as_array()), np.sort(t.as_array()), config, None, None
    )


def _assemble(
    data: np.ndarray,
    classes: Sequence[IndexSet],
    u: IndexSet,
    t: IndexSet,
    cfg: LossConfig,
    want_grad: bool,
    want_sig: bool,
):
    s, unit, norms = _cosine_parts(data)
    n = data.shape[0]
    t_arr = np.sort(t.as_array())
    u_arr = np.sort(u.as_array())
    ts_arr = np.sort(_self_domain(cfg.family, t, u).as_array())
    sig: list[int] | None = [] if want_sig else None
    g_self = np.zeros((n, n)) if want_grad else None
    g_cross = np.zeros((n, n)) if want_grad else None
    l_self = _self_part(s, classes, ts_arr, cfg, g_self, sig)
    l_cross = _cross_part(s, classes, u_arr, t_arr, cfg, g_cross, sig)
    l_total = l_self - cfg.eta * l_cross
    grad = None
    if want_grad:
        gbar = g_self - cfg.eta * g_cross
        w = gbar + gbar.T
        row = (w * s).sum(axis=1)
        grad = (w @ unit - row[:, None] * unit) / norms[:, None]
    return l_self, l_cross, l_total, grad, tuple(sig) if sig is not None else ()


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
    l_self, l_cross, l_tot, grad, _ = _assemble(
        embeddings.data, classes, u, t, config, True, False
    )
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
    """
    _validate_sets(embeddings.n, classes, t, u)
    for idx in u:
        if idx not in t:
            raise ValueError("conditioning set not contained in batch domain")
    data = embeddings.data
    n, d = data.shape
    _, _, base_total, grad, base_sig = _assemble(
        data, classes, u, t, config, True, True
    )
    grad = np.array(grad)
    if perturb != 0.0:
        grad[0, 0] += perturb
    if n * d <= FD_EXHAUSTIVE_LIMIT:
        coords = [(i, j) for i in range(n) for j in range(d)]
    else:
        rng = np.random.default_rng(seed)
        flat = rng.choice(n * d, size=min(max_coords, n * d), replace=False)
        coords = [(int(f) // d, int(f) % d) for f in np.sort(flat)]
    max_abs = 0.0
    max_rel = 0.0
    checked = 0
    ties = 0
    for i, j in coords:
        probe = np.array(data)
        probe[i, j] += h
        _, _, up, _, sig_up = _assemble(probe, classes, u, t, config, False, True)
        probe[i, j] -= 2.0 * h
        _, _, dn, _, sig_dn = _assemble(probe, classes, u, t, config, False, True)
        if sig_up != base_sig or sig_dn != base_sig:
            ties += 1
            continue
        fd = (up - dn) / (2.0 * h)
        a = float(grad[i, j])
        abs_err = abs(a - fd)
        rel_err = abs_err / max(abs(a), abs(fd), 1e-4)
        max_abs = max(max_abs, abs_err)
        max_rel = max(max_rel, rel_err)
        checked += 1
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
