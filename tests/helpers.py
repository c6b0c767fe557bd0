"""Reference implementations the test suite checks the library against.

Everything here is deliberately naive: plain Python loops, itertools
enumeration, and numpy.linalg calls.  None of it shares code with the
vectorized or incremental paths under audit, except where a reference
pins an order of operations bit for bit: `whole_array_loss_reference`
shares the loss terms and checks only how the gradient is assembled,
`separate_reads_loss_reference` shares each term and checks only that the
terms' one read of facility location's maxima gives what two reads give,
and `row_batch_audit_reference` shares the audit's batches and checks only
which rows it batches and how.
"""

import csv
import itertools
import math
from math import comb
from pathlib import Path

import numpy as np

from submine import (
    EmbeddingSet,
    Family,
    IndexSet,
    SubmodularObjective,
    cosine_kernel,
    evaluate,
    filter_by_objectness,
    greedy_max,
    loss_total,
    match_knowns,
)
import submine.losses
import submine.objectives
from submine.greedy import SelectionResult, _prep
from submine.kernels import cosine_columns
from submine.losses import FD_EXHAUSTIVE_LIMIT
from submine.objectives import commit, marginal_gain, marginal_state

# Subset-enumeration guard for brute_force_opt.
MAX_BRUTE_FORCE_SUBSETS = 10_000_000


def fl_loops(s, members, ground):
    """Coverage value: for every ground item, its best similarity into A."""
    if not members:
        return 0.0
    total = 0.0
    for i in ground:
        total += max(s[i][j] for j in members)
    return total


def gc_loops(s, members, ground, lam):
    """Relevance minus lam-weighted redundancy, both as double sums."""
    if not members:
        return 0.0
    cover = sum(s[i][j] for i in ground for j in members)
    redundancy = sum(s[a][b] for a in members for b in members)
    return cover - lam * redundancy


def logdet_loops(s, members, eps):
    """Stabilized log-volume of the selected submatrix via slogdet."""
    if not members:
        return 0.0
    sub = np.array([[s[a][b] for b in members] for a in members])
    sign, value = np.linalg.slogdet(sub + eps * np.eye(len(members)))
    assert sign > 0.0, "reference logdet needs a positive determinant"
    return float(value)


def value_loops(objective, members):
    """Dispatch to the loop evaluator matching the objective's family."""
    members = list(members)
    ground = list(objective.ground)
    s = objective.kernel.matrix
    if objective.family is Family.FACILITY_LOCATION:
        return fl_loops(s, members, ground)
    if objective.family is Family.GRAPH_CUT:
        return gc_loops(s, members, ground, objective.lam)
    return logdet_loops(s, members, objective.epsilon)


def full_round_greedy(objective, candidates, k, conditioning=()):
    """Greedy without bound pruning: every round scores each live candidate
    outside the conditioning set through MarginalState.gains, in one call,
    gives each live conditioned one gain 0, and takes the first maximum in
    index order.  Returns (picks, gains)."""
    state = marginal_state(objective)
    for q in conditioning:
        commit(state, q)
    live = sorted(set(candidates))
    picks, gains = [], []
    for _ in range(min(k, len(live))):
        fresh = [v for v in live if v not in state.selected]
        scored = dict(zip(fresh, state.gains(np.array(fresh, dtype=int))))
        best = None
        for v in live:
            if best is None or scored.get(v, 0.0) > scored.get(best, 0.0):
                best = v
        picks.append(best)
        gains.append(float(scored.get(best, 0.0)))
        live.remove(best)
        if best in scored:
            commit(state, best)
    return tuple(picks), tuple(gains)


def brute_force_opt(objective, candidates, k, conditioning=None):
    """Exhaustive search over all subsets of size <= k, the oracle greedy is
    checked against; it takes the arguments `greedy_max` takes and returns
    a SelectionResult whose `evaluations` counts the sets valued.

    Ties keep the first subset in enumeration order (sizes ascending, each
    size in lexicographic order over sorted candidate indices).
    """
    order, cond, state = _prep(objective, candidates, int(k), conditioning)
    kmax = min(int(k), len(order))
    total = sum(comb(len(order), j) for j in range(kmax + 1))
    if total > MAX_BRUTE_FORCE_SUBSETS:
        raise ValueError(f"search space too large: {total} subsets to enumerate")
    base = evaluate(objective, cond) if len(cond) else 0.0
    best_set: tuple[int, ...] = ()
    best_val = 0.0
    evals = 1
    for size in range(1, kmax + 1):
        for combo in itertools.combinations(order, size):
            val = evaluate(objective, cond.union(IndexSet(combo))) - base
            evals += 1
            if val > best_val:
                best_set, best_val = combo, val
    # Telescope the winner for per-step gains.
    gains: list[float] = []
    for v in best_set:
        gains.append(marginal_gain(state, v))
        commit(state, v)
    return SelectionResult(
        IndexSet(best_set), tuple(gains), float(best_val), int(k), evals
    )


def cosine(a, b):
    """Cosine similarity of two non-zero vectors: a dot product over two norms."""
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def cosine_kernel_matrix_reference(data, transform, gram=None):
    """The cosine kernel's matrix by the three-step formula, each step a new
    array: the Gram product G of the unit rows (or `gram(unit)`), then
    clip((G + G.T) / 2, -1, 1) transformed, then the diagonal set to 1."""
    unit = data / np.linalg.norm(data, axis=1)[:, None]
    g = unit @ unit.T if gram is None else gram(unit)
    g = np.clip((g + g.T) / 2.0, -1.0, 1.0)
    if transform == "clip-at-zero":
        g = np.maximum(g, 0.0)
    elif transform == "affine-shift":
        g = (g + 1.0) / 2.0
    np.fill_diagonal(g, 1.0)  # each transform maps 1 to 1
    return g


def mirrored(m):
    """Whether the square float64 array m equals its transpose bit for bit,
    signed zeros included."""
    return np.array_equal(m.view(np.uint64), m.T.view(np.uint64))


def fl_gains_dense(s, ground, selected, items):
    """Facility-location marginal gains of `items` given `selected`, each a
    plain sum over the ground set of the hinge against the best so far."""
    gains = []
    for v in items:
        total = 0.0
        for i in ground:
            if selected:
                total += max(s[i][v] - max(s[i][j] for j in selected), 0.0)
            else:
                total += s[i][v]
        gains.append(total)
    return np.array(gains)


def random_embeddings(rng, n, d):
    return EmbeddingSet(rng.normal(size=(n, d)))


def random_objective(
    rng,
    family,
    n=8,
    d=None,
    transform="raw-cosine",
    lam=0.5,
    nu=1.0,
    epsilon=None,
    ground=None,
):
    """A fresh objective over a random cosine kernel."""
    if d is None:
        d = n + 3
    kernel = cosine_kernel(random_embeddings(rng, n, d), transform=transform)
    if ground is None:
        ground = IndexSet.of(range(n))
    return SubmodularObjective(
        family=family, kernel=kernel, ground=ground, lam=lam, nu=nu, epsilon=epsilon
    )


def random_subset(rng, n, low=0, high=None):
    """Uniform random subset with size in [low, high], insertion order random."""
    if high is None:
        high = n
    size = int(rng.integers(low, high + 1))
    return IndexSet.of(int(i) for i in rng.permutation(n)[:size])


def nested_triple(rng, n):
    """Sets A subset-of B plus an element v outside B, for curvature checks."""
    perm = [int(i) for i in rng.permutation(n)]
    b_size = int(rng.integers(1, n))
    a_size = int(rng.integers(0, b_size + 1))
    b = IndexSet.of(perm[:b_size])
    a = IndexSet.of(perm[:a_size])
    v = perm[b_size]
    return a, b, v


def full_scene_discovery(scene, prototypes, config):
    """The mining pipeline's selection stages over a full n x n scene kernel.

    Everything stays in scene indices: the objective's ground set is the kept
    items and no index is remapped.  It reuses greedy_max, so it checks the
    kept-only kernel and its index translation, not greedy itself.  Returns
    (kernel, background trace, unknown trace, stage-4 pool).
    """
    kept = filter_by_objectness(scene, config.tau_e)
    known = match_knowns(scene, kept, prototypes)
    kernel = cosine_kernel(
        scene, transform=config.resolved_transform, epsilon=config.epsilon
    )
    objective = SubmodularObjective(
        config.family,
        kernel,
        kept,
        lam=config.lam,
        nu=config.nu,
        epsilon=config.epsilon,
    )
    bg, un, pool_u = recommit_stages(objective, kept.minus(known), known, config)
    return kernel, bg, un, pool_u


def recommit_stages(objective, pool_v, known, config):
    """Stages 3 and 4 as two independent greedy_max runs from fresh states.

    Stage 4 rebuilds its state by re-committing K u B, which the pipeline
    instead carries over from stage 3.  Returns (background trace, unknown
    trace, stage-4 pool).
    """
    bg = greedy_max(
        objective, pool_v, math.floor(config.tau_b * len(pool_v)), conditioning=known
    )
    pool_u = pool_v.minus(bg.selected) if config.exclude_background_from_pool else pool_v
    cond = known.union(bg.selected)
    un = greedy_max(
        objective,
        pool_u,
        config.k,
        conditioning=cond,
        allow_conditioned_candidates=pool_u.intersects(cond),
    )
    return bg, un, pool_u


class VStackLogDetState:
    """Log-det gains with the factor regrown by np.vstack on every commit.

    The same incremental Cholesky rows (Chen, Zhang & Zhou, NeurIPS 2018) as
    the library's state, whose factor instead grows in place.
    """

    def __init__(self, objective):
        self.s = objective.kernel.matrix
        self.factor = np.zeros((0, objective.n))
        self.resid = np.diagonal(self.s) + objective.epsilon

    def gains(self, items):
        return np.log(self.resid[items])

    def commit(self, v):
        e = (self.s[:, v] - self.factor[:, v] @ self.factor) / math.sqrt(self.resid[v])
        self.resid -= e * e
        self.factor = np.vstack([self.factor, e])


def cholesky_longdouble(m):
    """Lower Cholesky factor of m in np.longdouble, column by column;
    raises AssertionError on a pivot that is not positive."""
    m = np.asarray(m, dtype=np.longdouble)
    chol = np.zeros_like(m)
    for j in range(len(m)):
        pivot = m[j, j] - chol[j, :j] @ chol[j, :j]
        assert pivot > 0.0, "reference Cholesky needs a positive definite matrix"
        chol[j, j] = np.sqrt(pivot)
        chol[j + 1 :, j] = (m[j + 1 :, j] - chol[j + 1 :, :j] @ chol[j, :j]) / chol[j, j]
    return chol


def solve_lower_longdouble(chol, b):
    """chol^-1 b by forward substitution in np.longdouble."""
    x = np.array(b, dtype=np.longdouble)
    for j in range(len(chol)):
        x[j] = (x[j] - chol[j, :j] @ x[:j]) / chol[j, j]
    return x


def logdet_longdouble(m):
    """log det of a positive definite m, in np.longdouble."""
    return 2.0 * np.log(np.diagonal(cholesky_longdouble(m))).sum()


def dense_loss_reference(data, classes, u, t, config, longdouble=False):
    """The loss and its gradient over the full n x n cosine kernel.

    Every term reads its blocks of the symmetrized n x n kernel, adjoints
    accumulate into two n x n matrices, and the gradient folds W = G + G^T
    explicitly.  Log-det terms factor and solve with the same formulas as
    the library (Cholesky, then a solve against the unknown-set kernel), and
    the facility-location hinge is summed with inactive margins as zeros, as
    the library sums it, so a probe's value rounds close enough for the
    1/(2h) difference quotient.  Graph-cut sums accumulate in np.longdouble
    (at least 80 bits on x86-64 and aarch64 Linux) and its values stay in
    it: the library builds graph cut's quotients from the changed kernel
    entries alone, which a float64 difference of two full sums would not
    match to its own rounding.
    With `longdouble`, log-det values are evaluated in np.longdouble from
    the embeddings on (unit rows, their products, Cholesky factors and
    solves), close to exact; the gradient is computed as without it.
    With u None only the self term is evaluated and l_cross is 0.  Returns
    (l_self, l_cross, l_total, grad, signature), where the signature lists
    every facility-location argmax and hinge mask.
    """
    data = np.asarray(data, dtype=np.float64)
    n = len(data)
    norms = np.linalg.norm(data, axis=1)
    if not norms.all():
        raise ValueError("zero-norm row")
    unit = data / norms[:, None]
    s = unit @ unit.T
    s = np.clip((s + s.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(s, 1.0)
    fam, lam, nu, eta = config.family, config.lam, config.nu, config.eta
    t_arr = np.sort(t.as_array())
    u_arr = np.sort(u.as_array()) if u is not None else t_arr[:0]
    kcs = [np.sort(kc.as_array()) for kc in classes]
    t_self = np.setdiff1d(t_arr, u_arr) if fam is Family.GRAPH_CUT else t_arr
    sig = []
    g_self = np.zeros((n, n))
    g_cross = np.zeros((n, n))

    def logdet(m):
        return 2.0 * np.log(np.diagonal(np.linalg.cholesky(m))).sum()

    if longdouble:
        unit_ld = data.astype(np.longdouble)
        unit_ld /= np.sqrt((unit_ld * unit_ld).sum(axis=1))[:, None]
        s_ld = unit_ld @ unit_ld.T
        np.fill_diagonal(s_ld, 1.0)

    l_self = 0.0
    for kc in kcs:
        coef = 1.0 / len(kc)
        if fam is Family.FACILITY_LOCATION:
            rows = np.setdiff1d(t_self, kc)
            if len(rows) == 0:
                continue
            blk = s[np.ix_(rows, kc)]
            j = blk.argmax(axis=1)
            sig.append(j)
            l_self += coef * blk[np.arange(len(rows)), j].sum()
            g_self[rows, kc[j]] += coef
        elif fam is Family.GRAPH_CUT:
            cover = s[np.ix_(t_self, kc)].sum(dtype=np.longdouble)
            redun = s[np.ix_(kc, kc)].sum(dtype=np.longdouble)
            l_self += coef * (cover - lam * redun)
            g_self[np.ix_(t_self, kc)] += coef
            g_self[np.ix_(kc, kc)] -= coef * lam
        else:
            m = s[np.ix_(kc, kc)] + lam * np.eye(len(kc))
            if longdouble:
                l_self += coef * logdet_longdouble(s_ld[np.ix_(kc, kc)] + lam * np.eye(len(kc)))
            else:
                l_self += coef * logdet(m)
            g_self[np.ix_(kc, kc)] += coef * np.linalg.inv(m)

    l_cross = 0.0
    if u is not None:
        coef = 1.0 / len(t_arr)
        if fam is Family.FACILITY_LOCATION:
            blk_u = s[np.ix_(t_arr, u_arr)]
            ju = blk_u.argmax(axis=1)
            best_u = blk_u[np.arange(len(t_arr)), ju]
            sig.append(ju)
        c = s[np.ix_(u_arr, u_arr)]
        for kc in kcs:
            if fam is Family.FACILITY_LOCATION:
                blk_k = s[np.ix_(t_arr, kc)]
                jk = blk_k.argmax(axis=1)
                margin = blk_k[np.arange(len(t_arr)), jk] - nu * best_u
                active = margin > 0.0
                sig += [jk, active]
                l_cross += coef * np.maximum(margin, 0.0).sum()
                g_cross[t_arr[active], kc[jk[active]]] += coef
                g_cross[t_arr[active], u_arr[ju[active]]] -= coef * nu
            elif fam is Family.GRAPH_CUT:
                cover = s[np.ix_(t_arr, kc)].sum(dtype=np.longdouble)
                redun = s[np.ix_(kc, kc)].sum(dtype=np.longdouble)
                coupling = s[np.ix_(kc, u_arr)].sum(dtype=np.longdouble)
                l_cross += coef * (cover - lam * redun - 2.0 * lam * nu * coupling)
                g_cross[np.ix_(t_arr, kc)] += coef
                g_cross[np.ix_(kc, kc)] -= coef * lam
                g_cross[np.ix_(kc, u_arr)] -= 2.0 * coef * lam * nu
            else:
                a = s[np.ix_(kc, kc)]
                b = s[np.ix_(kc, u_arr)]
                x = np.linalg.solve(c, b.T)
                p = x.T
                m = a - nu * nu * (b @ x)
                if longdouble:
                    y = solve_lower_longdouble(
                        cholesky_longdouble(s_ld[np.ix_(u_arr, u_arr)]), s_ld[np.ix_(u_arr, kc)]
                    )
                    l_cross += coef * logdet_longdouble(s_ld[np.ix_(kc, kc)] - nu * nu * (y.T @ y))
                else:
                    l_cross += coef * logdet(m)
                minv = np.linalg.inv(m)
                g_cross[np.ix_(kc, kc)] += coef * minv
                g_cross[np.ix_(kc, u_arr)] -= 2.0 * coef * nu * nu * (minv @ p)
                g_cross[np.ix_(u_arr, u_arr)] += coef * nu * nu * (p.T @ minv @ p)

    gbar = g_self - eta * g_cross
    w = gbar + gbar.T
    row = (w * s).sum(axis=1)
    grad = (w @ unit - row[:, None] * unit) / norms[:, None]
    return l_self, l_cross, l_self - eta * l_cross, grad, sig


class _WholeReadKernel(submine.objectives._Kernel):
    """The base kernel reader with facility location's argmax and max taken
    in one fancy-indexed read of the whole block, however many rows it has."""

    def best(self, a, b):
        if self.rows is not None:
            return super().best(a, b)
        blk = self.s[a[:, None], self.pos[b]]
        j = blk.argmax(axis=1)
        return j[None], blk[np.arange(len(a)), j][None]


def _whole_array_assembly(embeddings, classes, u, t, config, parts):
    """(l_self, l_cross, l_total, grad) of `parts(s, pos, sets, g)`, which
    returns the three loss parts and fills the adjoint g, assembled from
    whole arrays: the kernel stays alive while the gradient is formed, g * s
    is formed in the adjoint's buffer, and the row term is one n x d
    temporary."""
    sets = submine.losses._index_sets(classes, u, t, config.family)
    cols = sets.cols
    s, unit, norms = cosine_columns(embeddings.data, cols)
    pos = np.full(len(s), len(cols), dtype=np.intp)
    pos[cols] = np.arange(len(cols))
    g = np.zeros_like(s)
    l_self, l_cross, l_total = parts(s, pos, sets, g)
    grad = g @ unit[cols]
    grad[cols] += g.T @ unit
    g *= s
    row = g.sum(axis=1)
    row[cols] += g.sum(axis=0)
    grad -= row[:, None] * unit
    grad /= norms[:, None]
    return float(l_self[0]), float(l_cross[0]), float(l_total[0]), grad


def whole_array_loss_reference(embeddings, classes, u, t, config):
    """`loss_total`'s (l_self, l_cross, l_total, grad) assembled from whole
    arrays, with the kernel read in one call per block.  The loss terms are
    the library's own, so this checks the assembly's order of operations,
    bit for bit."""
    return _whole_array_assembly(
        embeddings, classes, u, t, config,
        lambda s, pos, sets, g: submine.losses._parts(_WholeReadKernel(s, pos), sets, config, g),
    )


def separate_reads_loss_reference(embeddings, classes, u, t, config):
    """`loss_total`'s (l_self, l_cross, l_total, grad) with the self and the
    cross term each reading its own facility-location maxima, the self term
    over T - K_c and the cross term over T, through a base reader that holds
    nothing between them, and every self adjoint added before any cross
    adjoint, assembled as `whole_array_loss_reference` assembles."""

    def parts(s, pos, sets, g):
        kern = submine.objectives._Kernel(s, pos)
        adjoint = submine.losses._Adjoint
        l_self = submine.losses._self_part(kern, sets, config, adjoint(g, kern, 1.0))
        l_cross = submine.losses._cross_part(kern, sets, config, adjoint(g, kern, -config.eta))
        return l_self, l_cross, l_self - config.eta * l_cross

    return _whole_array_assembly(embeddings, classes, u, t, config, parts)


def finite_difference_reference(
    embeddings, classes, u, t, config, h=1e-4, seed=0, max_coords=200, perturb=0.0,
    longdouble=False,
):
    """The gradient audit as one dense loss evaluation per probe.

    Each probe copies the embeddings, moves one coordinate and rebuilds the
    whole n x n kernel and loss through `dense_loss_reference`, so it shares
    no loss or kernel code with the batched audit; the difference of two
    probes' values is taken before rounding to float64.  The analytic gradient
    under audit is the one `loss_total` returns.  Besides the audit's report it
    returns the probed coordinates under "coords", and the difference
    quotients of the checked ones, unrounded, under "quotients".
    `longdouble` goes to `dense_loss_reference`.
    """

    def point(data):
        _, _, total, _, sig = dense_loss_reference(data, classes, u, t, config, longdouble)
        return total, sig

    def same(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    data = embeddings.data
    n, d = data.shape
    base_total, base_sig = point(data)
    grad = np.array(loss_total(embeddings, classes, u, t, config).grad)
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
    quotients = []
    for i, j in coords:
        probe = np.array(data)
        probe[i, j] += h
        up, sig_up = point(probe)
        probe[i, j] -= 2.0 * h
        dn, sig_dn = point(probe)
        if not (same(sig_up, base_sig) and same(sig_dn, base_sig)):
            ties += 1
            continue
        quotients.append((up - dn) / (2.0 * h))
        fd = float(quotients[-1])
        a = float(grad[i, j])
        abs_err = abs(a - fd)
        rel_err = abs_err / max(abs(a), abs(fd), 1e-4)
        max_abs = max(max_abs, abs_err)
        max_rel = max(max_rel, rel_err)
        checked += 1
    if checked == 0:
        max_abs = max_rel = float("nan")
    return {
        "l_total": float(base_total),
        "h": h,
        "checked": checked,
        "tie_adjacent": ties,
        "max_abs_err": max_abs,
        "max_rel_err": max_rel,
        "coords": coords,
        "quotients": quotients,
    }


def _checked_probe_rows(data, unit, i, js, h):
    """Kernel rows i of the probes (i, js) + h, then of (i, js) - h, as one
    product; ValueError when a probe's norm is zero."""
    c = len(js)
    up = data[i, js] + h
    probes = np.repeat(data[i][None], 2 * c, axis=0)
    probes[np.arange(2 * c), np.tile(js, 2)] = np.concatenate([up, up - 2.0 * h])
    norms = np.linalg.norm(probes, axis=1)
    if not norms.all():
        raise ValueError(f"zero-norm row {i}")
    probes /= norms[:, None]
    rows = probes @ unit.T
    np.clip(rows, -1.0, 1.0, out=rows)
    rows[:, i] = 1.0
    return rows


def row_batch_audit_reference(embeddings, classes, u, t, config, h=1e-4, seed=0, perturb=0.0):
    """`finite_difference_check` with one `_parts` batch for every probed
    row, whatever the row: each row's probes get their kernel rows from one
    product, which checks their norms, and are evaluated over the base
    kernel, rows that no term reads and graph cut's row-only rows included.
    The batches are the library's own, so this checks which rows the audit
    batches and how, and its zero-norm check, bit for bit."""
    losses = submine.losses
    data = embeddings.data
    n, d = data.shape
    losses._validate_sets(n, classes, t, u)
    sets = losses._index_sets(classes, u, t, config.family)
    _, _, base_total, grad = losses._assemble(data, sets, config)
    kern, unit, _ = losses._base(data, sets)
    if perturb != 0.0:
        grad[0, 0] += perturb
    if n * d <= FD_EXHAUSTIVE_LIMIT:
        flat = np.arange(n * d)
    else:
        rng = np.random.default_rng(seed)
        flat = np.sort(rng.choice(n * d, size=min(losses.FD_SAMPLE, n * d), replace=False))
    diff = np.empty(len(flat))
    ok = np.empty(len(flat), dtype=bool)
    rows, starts = np.unique(flat // d, return_index=True)
    ends = np.append(starts[1:], len(flat))
    for i, lo, hi in zip(rows.tolist(), starts.tolist(), ends.tolist()):
        c = hi - lo
        probes = kern.probes(i, _checked_probe_rows(data, unit, i, flat[lo:hi] % d, h))
        _, _, tot = losses._parts(probes, sets, config)
        np.subtract(tot[:c], tot[c:], out=diff[lo:hi])
        np.logical_and(probes.same[:c], probes.same[c:], out=ok[lo:hi])
    fd = diff[ok] / (2.0 * h)
    a = np.take(grad, flat[ok])
    checked = len(fd)
    max_abs = max_rel = math.nan
    if checked and np.isfinite(fd).all() and np.isfinite(a).all():
        err = np.abs(a - fd)
        max_abs = float(err.max())
        max_rel = float((err / np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-4)).max())
    return {
        "l_total": base_total,
        "h": h,
        "checked": checked,
        "tie_adjacent": len(flat) - checked,
        "max_abs_err": max_abs,
        "max_rel_err": max_rel,
    }


# ---------------------------------------------------------------------------
# CSV: the csv-module reader and writers the codec in kernels.py replaced,
# kept as they were so the codec can be checked byte for byte against them.


def _fmt(x) -> str:
    return repr(float(x))


def write_embeddings_csv_reference(embeddings, path, header_comment=None):
    """One csv.writer row per item, each float formatted on its own."""
    path = Path(path)
    cols = [f"f{j}" for j in range(embeddings.d)]
    if embeddings.labels is not None:
        cols.append("label")
    if embeddings.objectness is not None:
        cols.append("objectness")
    with path.open("w", newline="") as fh:
        if header_comment is not None:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for i in range(embeddings.n):
            row = [_fmt(v) for v in embeddings.data[i]]
            if embeddings.labels is not None:
                row.append(str(int(embeddings.labels[i])))
            if embeddings.objectness is not None:
                row.append(_fmt(embeddings.objectness[i]))
            writer.writerow(row)


def read_embeddings_csv_reference(path):
    """float() on every cell, int() on every label, row by row."""
    path = Path(path)
    with path.open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    header = [c.strip() for c in rows[0]]
    d = sum(1 for c in header if c.startswith("f") and c[1:].isdigit())
    expected = [f"f{j}" for j in range(d)]
    if d == 0 or header[:d] != expected:
        raise ValueError(f"{path}: malformed header {header!r}")
    extras = header[d:]
    has_label = "label" in extras
    has_obj = "objectness" in extras
    if extras != [c for c in ("label", "objectness") if (c == "label" and has_label) or (c == "objectness" and has_obj)]:
        raise ValueError(f"{path}: malformed header {header!r}")
    data, labels, objectness = [], [], []
    for r in rows[1:]:
        if len(r) != len(header):
            raise ValueError(f"{path}: row has {len(r)} fields, expected {len(header)}")
        vals = [float(x) for x in r]
        data.append(vals[:d])
        pos = d
        if has_label:
            labels.append(int(vals[pos]))
            pos += 1
        if has_obj:
            objectness.append(vals[pos])
    return EmbeddingSet(
        np.asarray(data),
        labels=np.asarray(labels) if has_label else None,
        objectness=np.asarray(objectness) if has_obj else None,
    )


def roles_csv_reference(path, scene, result, comment):
    """The roles CSV of `submine select`: one row per kept item, by index."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["index"] + [f"f{j}" for j in range(scene.d)] + ["truth", "role"]
        )
        for i in sorted(result.kept):
            if i in result.known:
                role = "known"
            elif i in result.background:
                role = "background"
            elif i in result.unknown:
                role = "unknown"
            else:
                role = "rest"
            truth = str(int(scene.labels[i])) if scene.labels is not None else ""
            writer.writerow(
                [str(i)] + [_fmt(v) for v in scene.data[i]] + [truth, role]
            )
