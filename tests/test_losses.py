"""Representation losses: values, gradients, and the difference audit."""

import math
import tracemalloc

import numpy as np
import pytest

import submine.kernels
import submine.losses
import submine.objectives
from helpers import dense_loss_reference, finite_difference_reference, logdet_longdouble
from submine import (
    EmbeddingSet,
    Family,
    IndexSet,
    LossConfig,
    SubmodularObjective,
    conditional_gain,
    conditional_gain_closed,
    cosine_kernel,
    evaluate,
    finite_difference_check,
    loss_cross,
    loss_self,
    loss_total,
)
from submine.kernels import cosine_columns
from submine.losses import FD_EXHAUSTIVE_LIMIT

FAMILIES = ["fl", "gc", "logdet"]

# Two unit-norm points with cosine 0.2; small enough to work by hand.
TWO_POINTS = EmbeddingSet([[1.0, 0.0], [0.2, math.sqrt(0.96)]])
K0 = [IndexSet.of([0])]
U1 = IndexSet.of([1])
T01 = IndexSet.of([0, 1])


def _instance(rng, n=10, d=30, n_classes=2, class_size=3, u_size=3):
    """Random batch with disjoint class sets and a conditioning set."""
    e = EmbeddingSet(rng.normal(size=(n, d)))
    perm = [int(i) for i in rng.permutation(n)]
    classes = [
        IndexSet.of(perm[i * class_size : (i + 1) * class_size])
        for i in range(n_classes)
    ]
    start = n_classes * class_size
    u = IndexSet.of(perm[start : start + u_size])
    return e, classes, u, IndexSet.of(range(n))


# ---------------------------------------------------------------------------
# hand-worked two-point values


def test_two_point_cross_values():
    fl = loss_cross(TWO_POINTS, K0, U1, T01, LossConfig(family="fl"))
    assert fl == pytest.approx(0.4, abs=1e-12)
    gc = loss_cross(TWO_POINTS, K0, U1, T01, LossConfig(family="gc", lam=1.0))
    assert gc == pytest.approx(-0.1, abs=1e-12)
    ld = loss_cross(TWO_POINTS, K0, U1, T01, LossConfig(family="logdet"))
    assert ld == pytest.approx(0.5 * math.log(0.96), abs=1e-12)


def test_two_point_self_values():
    fl = loss_self(TWO_POINTS, K0, T01, LossConfig(family="fl"))
    assert fl == pytest.approx(0.2, abs=1e-12)
    gc = loss_self(TWO_POINTS, K0, T01, LossConfig(family="gc", lam=1.0))
    assert gc == pytest.approx(0.2, abs=1e-12)
    both = loss_self(
        TWO_POINTS, [T01], T01, LossConfig(family="logdet", lam=0.5)
    )
    assert both == pytest.approx(0.5 * math.log(2.21), abs=1e-12)


def test_hinge_deactivates_under_strong_conditioning():
    # With nu = 10 every margin goes negative, so the hinge zeroes the term.
    cfg = LossConfig(family="fl", nu=10.0)
    assert loss_cross(TWO_POINTS, K0, U1, T01, cfg) == 0.0


# ---------------------------------------------------------------------------
# structural identities


def test_total_is_self_minus_eta_cross():
    rng = np.random.default_rng(21)
    for fam in FAMILIES:
        for eta in (0.0, 0.7, 1.5):
            e, classes, u, t = _instance(rng)
            cfg = LossConfig(family=fam, eta=eta)
            report = loss_total(e, classes, u, t, cfg)
            assert report.l_total == report.l_self - eta * report.l_cross
            if eta == 0.0:
                assert report.l_total == report.l_self


def test_parts_match_standalone_functions():
    rng = np.random.default_rng(22)
    for fam in FAMILIES:
        e, classes, u, t = _instance(rng)
        cfg = LossConfig(family=fam)
        report = loss_total(e, classes, u, t, cfg)
        # The self sum runs over the batch without the unknowns for the cut
        # family and over the full batch otherwise.
        self_domain = t.minus(u) if cfg.family is Family.GRAPH_CUT else t
        assert report.l_self == pytest.approx(
            loss_self(e, classes, self_domain, cfg), abs=1e-12
        )
        assert report.l_cross == pytest.approx(
            loss_cross(e, classes, u, t, cfg), abs=1e-12
        )
        assert np.array_equal(report.grad, loss_total(e, classes, u, t, cfg).grad)


def test_per_row_scale_invariance():
    rng = np.random.default_rng(23)
    for fam in FAMILIES:
        e, classes, u, t = _instance(rng)
        cfg = LossConfig(family=fam, eta=0.8)
        base = loss_total(e, classes, u, t, cfg)
        scales = rng.uniform(0.2, 5.0, size=e.n)
        scaled = loss_total(
            EmbeddingSet(e.data * scales[:, None]), classes, u, t, cfg
        )
        assert scaled.l_self == pytest.approx(base.l_self, abs=1e-9)
        assert scaled.l_cross == pytest.approx(base.l_cross, abs=1e-9)
        assert scaled.l_total == pytest.approx(base.l_total, abs=1e-9)


def test_cross_equals_mean_conditional_gain_at_unit_strength():
    # At nu=1 each per-class cross term is the set-function gain of the class
    # given the conditioning set, scaled by 1/|T|.  At any strength, each
    # class's terms are the objectives' closed forms: the cross term over
    # ground T with no diagonal shift, the self term over the family's self
    # ground (T without the class, T without U, or T) with shift lam.
    rng = np.random.default_rng(24)
    for name, fam in (
        ("fl", Family.FACILITY_LOCATION),
        ("gc", Family.GRAPH_CUT),
        ("logdet", Family.LOG_DET),
    ):
        for _ in range(20):
            e, classes, u, t = _instance(rng)
            cfg = LossConfig(family=name, lam=0.5, nu=1.0)
            kernel = cosine_kernel(e)
            obj = SubmodularObjective(
                fam, kernel, ground=t, lam=0.5, epsilon=0.0
            )
            want = sum(conditional_gain(obj, kc, u) for kc in classes) / len(t)
            got = loss_cross(e, classes, u, t, cfg)
            assert got == pytest.approx(want, abs=1e-9)
            for nu in (0.5, 1.0):
                cfg = LossConfig(family=name, lam=0.5, nu=nu)
                cross = SubmodularObjective(
                    fam, kernel, ground=t, lam=0.5, nu=nu, epsilon=0.0
                )
                for kc in classes:
                    report = loss_total(e, [kc], u, t, cfg)
                    want = conditional_gain_closed(cross, kc, u) / len(t)
                    assert report.l_cross == pytest.approx(want, abs=1e-12)
                    ground = {
                        Family.FACILITY_LOCATION: t.minus(kc),
                        Family.GRAPH_CUT: t.minus(u),
                        Family.LOG_DET: t,
                    }[fam]
                    own = SubmodularObjective(
                        fam, kernel, ground=ground, lam=0.5, epsilon=0.5
                    )
                    want = evaluate(own, kc) / len(kc)
                    assert report.l_self == pytest.approx(want, abs=1e-12)


def test_iod_mode_is_same_math():
    rng = np.random.default_rng(25)
    e, classes, u, t = _instance(rng)
    for fam in FAMILIES:
        owod = loss_total(e, classes, u, t, LossConfig(family=fam, mode="owod"))
        iod = loss_total(e, classes, u, t, LossConfig(family=fam, mode="iod"))
        assert iod.l_total == owod.l_total
        assert np.array_equal(iod.grad, owod.grad)
    with pytest.raises(ValueError, match="unknown mode 'replay'"):
        LossConfig(mode="replay")


# ---------------------------------------------------------------------------
# the kernel over the columns the terms read, against the dense n x n one


def _column_instance(rng, n, n_classes, class_size, u_size, t_extra, d=12):
    """Random batch whose domain T holds the classes, U and t_extra more rows;
    the remaining n - |T| rows lie outside T and outside every set."""
    e = EmbeddingSet(rng.normal(size=(n, d)))
    perm = [int(i) for i in rng.permutation(n)]
    classes = [
        IndexSet.of(perm[i * class_size : (i + 1) * class_size])
        for i in range(n_classes)
    ]
    start = n_classes * class_size
    u = IndexSet.of(perm[start : start + u_size])
    return e, classes, u, IndexSet.of(perm[: start + u_size + t_extra])


COLUMN_CASES = {
    # n, classes, class size, |U|, rows of T outside C
    "T is every row": (12, 2, 3, 3, 3),
    "T a strict subset, rows outside T and C": (20, 2, 3, 3, 4),
    "a single class": (14, 1, 4, 3, 3),
    "C close to n": (12, 3, 3, 2, 1),
}


@pytest.mark.parametrize("case", sorted(COLUMN_CASES))
def test_column_kernel_matches_dense_reference(case):
    n, n_classes, class_size, u_size, t_extra = COLUMN_CASES[case]
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        e, classes, u, t = _column_instance(
            rng, n, n_classes, class_size, u_size, t_extra
        )
        for fam in FAMILIES:
            for eta in (0.0, 0.7, 1.5):
                for nu in (0.5, 1.0):
                    cfg = LossConfig(family=fam, eta=eta, nu=nu)
                    l_self, l_cross, l_total, grad, _ = dense_loss_reference(
                        e.data, classes, u, t, cfg
                    )
                    report = loss_total(e, classes, u, t, cfg)
                    for got, want in (
                        (report.l_self, l_self),
                        (report.l_cross, l_cross),
                        (report.l_total, l_total),
                        (loss_cross(e, classes, u, t, cfg), l_cross),
                    ):
                        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
                    tol = 1e-12 * np.abs(grad).max()
                    assert np.abs(report.grad - grad).max() <= tol
                    assert np.array_equal(loss_total(e, classes, u, t, cfg).grad, report.grad)
            # The self term alone over T, with no conditioning set.
            cfg = LossConfig(family=fam)
            want = dense_loss_reference(e.data, classes, None, t, cfg)[0]
            got = loss_self(e, classes, t, cfg)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        # Rows outside T and C read no kernel entry, so their gradient is 0.
        report = loss_total(e, classes, u, t, LossConfig(family="gc"))
        outside = [i for i in range(n) if i not in t]
        assert not report.grad[outside].any()


# ---------------------------------------------------------------------------
# gradients


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    for fam in FAMILIES:
        worst = 0.0
        for _ in range(10):
            e, classes, u, t = _instance(rng)
            cfg = LossConfig(family=fam, eta=0.7)
            result = finite_difference_check(e, classes, u, t, cfg)
            assert result["checked"] > 0
            worst = max(worst, result["max_rel_err"])
        assert worst < 1e-5


def test_finite_difference_check_reports_shape():
    rng = np.random.default_rng(32)
    e, classes, u, t = _instance(rng)
    cfg = LossConfig(family="gc")
    result = finite_difference_check(e, classes, u, t, cfg)
    assert set(result) == {
        "l_total",
        "h",
        "checked",
        "tie_adjacent",
        "max_abs_err",
        "max_rel_err",
    }
    assert result["h"] == 1e-4
    report = loss_total(e, classes, u, t, cfg)
    assert result["l_total"] == report.l_total


def test_finite_difference_catches_corrupted_gradient():
    rng = np.random.default_rng(33)
    e, classes, u, t = _instance(rng)
    cfg = LossConfig(family="fl")
    bad = finite_difference_check(e, classes, u, t, cfg, perturb=1e-3)
    assert bad["max_rel_err"] > 1e-4


def test_finite_difference_check_that_checks_nothing_is_nan():
    # Identical rows tie every argmax, so every probe is tie-adjacent.
    e = EmbeddingSet(np.ones((6, 3)))
    classes = [IndexSet.of([0, 1]), IndexSet.of([2, 3])]
    u, t = IndexSet.of([4, 5]), IndexSet.of(range(6))
    result = finite_difference_check(e, classes, u, t, LossConfig(family="fl"))
    assert result["checked"] == 0 and result["tie_adjacent"] == 18
    assert math.isnan(result["max_rel_err"]) and math.isnan(result["max_abs_err"])
    assert not result["max_rel_err"] < 1e-5


@pytest.mark.parametrize("family", ["fl", "gc"])
def test_an_audit_of_a_loss_that_is_not_finite_reports_nan(family):
    # eta and nu this large overflow the loss and the gradient; a NaN or
    # infinite error drops out of no maximum, so nothing passes.
    e, classes, u, t = _instance(np.random.default_rng(0), n=120, d=12)
    with np.errstate(all="ignore"):
        result = finite_difference_check(e, classes, u, t, LossConfig(family=family, eta=1e300, nu=1e30))
    assert result["checked"] > 0 and not math.isfinite(result["l_total"])
    assert math.isnan(result["max_rel_err"]) and math.isnan(result["max_abs_err"])
    assert not result["max_rel_err"] < 1e-5


def _assert_same_audit(got, want, tol=1e-9):
    """Counts agree exactly, the base loss to 1e-12 relative (the reference
    evaluates the dense kernel), the error maxima to tol unless it is None."""
    for key in ("checked", "tie_adjacent", "h"):
        assert got[key] == want[key], key
    assert got["l_total"] == pytest.approx(want["l_total"], rel=1e-12, abs=1e-15)
    for key in ("max_abs_err", "max_rel_err") if tol is not None else ():
        if math.isnan(want[key]):
            assert math.isnan(got[key]), key
        else:
            assert abs(got[key] - want[key]) <= tol, key


def _spy_quotients(monkeypatch):
    """Collects the audit's difference quotients, one per probed coordinate
    in probe order, from the probe batches' totals."""
    quotients = []
    parts = submine.losses._parts

    def spy(kern, sets, cfg, g=None, sig=None):
        out = parts(kern, sets, cfg, g, sig)
        if kern.rows is not None:
            c = len(kern.rows) // 2
            quotients.extend((out[2][:c] - out[2][c:]) / (2.0 * submine.losses.FD_STEP))
        return out

    monkeypatch.setattr(submine.losses, "_parts", spy)
    return quotients


def test_batched_audit_matches_reference_loop(monkeypatch):
    # Log-det quotients are held to accuracy instead: at 1e-9 on max_rel_err
    # they would only check that the audit rounds like the float64 loop, and
    # against exact quotients no float64 audit meets 1e-9.  Each instance's
    # audit must be as close to the np.longdouble reference's quotients as
    # the float64 loop's are.
    rng = np.random.default_rng(41)
    quotients = _spy_quotients(monkeypatch)
    for fam in FAMILIES:
        for eta in (0.5, 1.0, 1.5):
            for nu in (0.5, 1.0):
                e, classes, u, t = _instance(rng, d=12)
                cfg = LossConfig(family=fam, eta=eta, nu=nu)
                quotients.clear()
                got = finite_difference_check(e, classes, u, t, cfg)
                want = finite_difference_reference(e, classes, u, t, cfg)
                if fam != "logdet":
                    _assert_same_audit(got, want)
                    continue
                _assert_same_audit(got, want, tol=None)
                exact = finite_difference_reference(e, classes, u, t, cfg, longdouble=True)
                q = np.array(exact["quotients"])
                assert len(quotients) == len(q) == got["checked"]
                audit_err = np.abs(np.array(quotients, dtype=np.longdouble) - q).max()
                loop_err = np.abs(np.array(want["quotients"], dtype=np.longdouble) - q).max()
                assert audit_err <= loop_err, (eta, nu, audit_err, loop_err)


def test_batched_audit_matches_reference_on_ties():
    cfg = LossConfig(family="fl")
    # Identical rows tie every argmax: every probe is tie-adjacent.
    e = EmbeddingSet(np.ones((6, 3)))
    classes = [IndexSet.of([0, 1]), IndexSet.of([2, 3])]
    u, t = IndexSet.of([4, 5]), IndexSet.of(range(6))
    _assert_same_audit(
        finite_difference_check(e, classes, u, t, cfg),
        finite_difference_reference(e, classes, u, t, cfg),
    )
    # Two identical class members tie the argmax into their class, so probes
    # on them are tie-adjacent and probes on the other rows are checked.
    data = np.random.default_rng(7).normal(size=(10, 6))
    data[1] = data[0]
    e = EmbeddingSet(data)
    classes = [IndexSet.of([0, 1, 2]), IndexSet.of([3, 4])]
    u, t = IndexSet.of([6, 7, 8]), IndexSet.of(range(10))
    got = finite_difference_check(e, classes, u, t, cfg)
    assert got["checked"] > 0 and got["tie_adjacent"] > 0
    _assert_same_audit(got, finite_difference_reference(e, classes, u, t, cfg))


def test_sampled_audit_probes_the_reference_coordinates(monkeypatch):
    rng = np.random.default_rng(43)
    e, classes, u, t = _instance(rng, n=60, d=100)
    assert e.n * e.d > FD_EXHAUSTIVE_LIMIT
    probed = []
    probe_rows = submine.losses._probe_rows

    def spy(data, unit, i, js, h):
        probed.extend((i, int(j)) for j in js)
        return probe_rows(data, unit, i, js, h)

    monkeypatch.setattr(submine.losses, "_probe_rows", spy)
    monkeypatch.setattr(submine.losses, "FD_SAMPLE", 40)
    for fam in FAMILIES:
        probed.clear()
        cfg = LossConfig(family=fam, eta=0.8)
        got = finite_difference_check(e, classes, u, t, cfg, seed=5)
        want = finite_difference_reference(e, classes, u, t, cfg, seed=5, max_coords=40)
        assert got["checked"] + got["tie_adjacent"] == 40
        assert len(set(probed)) == 40 and probed == want["coords"]
        # At n = 60 the probes' (probes x d)(d x n) kernel rows and the
        # reference's full Gram matrix round an ulp or two apart; the 1/(2h)
        # quotient over the 1e-4 floor turns that into a few 1e-9.
        _assert_same_audit(got, want, tol=1e-8)
    monkeypatch.setattr(submine.losses, "FD_SAMPLE", 0)
    empty = finite_difference_check(e, classes, u, t, LossConfig())
    assert empty["checked"] == empty["tie_adjacent"] == 0
    assert math.isnan(empty["max_rel_err"])


def _replaced_blocks(kern, i, rows, a, b):
    """Each probe's block at rows a, columns b of the base kernel, with row
    and column i replaced by the probe's kernel row."""
    out = np.repeat(kern.block(a, b), len(rows), axis=0)
    out[:, a == i, :] = rows[:, None, b]
    out[:, :, b == i] = rows[:, a, None]
    return out


def test_probe_reductions_match_dense_replaced_blocks():
    # Kernel entries and probe rows are quarters, so maxima tie often: also
    # between a probe's new column i and the best value without it, with i
    # before and after that value's column, and between a row's first and
    # second maxima with i the first of them.  Every sum is exact in floats.
    rng = np.random.default_rng(47)
    n = 12
    cols = np.arange(0, n, 2)
    s = rng.integers(-4, 5, size=(n, len(cols))) / 4.0
    s[cols, np.arange(len(cols))] = 1.0
    pos = np.full(n, len(cols))
    pos[cols] = np.arange(len(cols))
    kc, u = cols[:3], cols[3:]
    # Rows whose maximum over K_c (over U) ties kc[0] with kc[2] (u[0] with u[1]).
    s[[1, 5, 9], pos[kc[0]]] = s[[1, 5, 9], pos[kc[2]]] = 1.0
    s[[3, 7, 11], pos[u[0]]] = s[[3, 7, 11], pos[u[1]]] = 1.0
    kern = submine.losses._Kernel(s, pos)
    t = np.arange(n)
    ties = {"before": 0, "after": 0, "i first of two maxima": 0}
    for i in (kc[0], kc[1], kc[2], u[0], u[2], 1, 7):  # in K_c, in U, outside C
        rows = rng.integers(-4, 5, size=(6, n)) / 4.0
        rows[:, i] = 1.0
        # (u, kc) is moved by no probe of an i outside C.
        for a, b in ((t, kc), (np.setdiff1d(t, kc), kc), (t, u), (u, kc)):
            probes = kern.probes(int(i), rows)
            j, v = probes.best(a, b)
            blocks = _replaced_blocks(kern, i, rows, a, b)
            dense_j = blocks.argmax(axis=2)
            dense_v = np.take_along_axis(blocks, dense_j[..., None], axis=2)[..., 0]
            # A batch returns no argmax rows; `same` tells which probes keep the base point's.
            base_j = kern.best(a, b)[0]
            assert j is None and v.flags.c_contiguous
            assert np.array_equal(probes.same, (dense_j == base_j).all(axis=1))
            assert np.array_equal(np.broadcast_to(v, dense_v.shape), dense_v)
            base = kern.block(a, b)[0]
            want = [math.fsum((blk - base).ravel()) for blk in blocks]
            assert np.array_equal(np.broadcast_to(probes.total(a, b), len(rows)), want)
            if i in b:
                pb = int(np.searchsorted(b, i))
                without = np.delete(base, pb, axis=1)
                first = without.argmax(axis=1)
                first += first >= pb
                tie = rows[:, a] == without.max(axis=1)
                ties["before"] += int((tie & (pb < first)).sum())
                ties["after"] += int((tie & (pb > first)).sum())
                two = (base.argmax(axis=1) == pb) & (without.max(axis=1) == base[:, pb])
                ties["i first of two maxima"] += int(two.sum())
    assert min(ties.values()) > 0, ties

    # Log-det over a cosine kernel, whose blocks are positive definite: each
    # probe's value less the first one's against the same difference of
    # longdouble log-dets of the dense replaced blocks, J's over K_c + q
    # with its K_c x q entries times nu, less C's over q.
    data = rng.normal(size=(n, 8))
    s, unit, _ = cosine_columns(data, cols)
    kern = submine.losses._Kernel(s, pos)
    for i in (kc[0], kc[2], u[0], u[2], 1):  # in K_c, in U, outside C
        rows = submine.losses._probe_rows(data, unit, int(i), np.arange(8), 0.3)
        probes = kern.probes(int(i), rows)
        for q in (u[:0], u):
            b = np.concatenate([kc, q])
            on_kc = np.isin(b, kc)
            for nu in (0.0, 0.5, 1.0):
                for shift in (0.0, 0.5):
                    weight = np.where(on_kc[:, None] == on_kc, 1.0, nu)
                    dense = [
                        logdet_longdouble(blk * weight + shift * np.eye(len(b)))
                        - logdet_longdouble(c + shift * np.eye(len(q)))
                        for blk, c in zip(
                            _replaced_blocks(kern, i, rows, b, b),
                            _replaced_blocks(kern, i, rows, q, q),
                        )
                    ]
                    got = probes.logdet(kc, q, nu, shift, "J")
                    if len(q):
                        got = got - probes.logdet(q, q[:0], nu, shift, "C")
                    assert got.shape == (len(rows),)
                    want = np.array(dense) - dense[0]
                    assert np.abs((got - got[0]) - want).max() <= 1e-12, (i, len(q), nu, shift)


def test_loss_peaks_at_unit_rows_kernel_and_adjoint():
    # loss_total holds the n x d unit rows, the n x |C| kernel and its
    # adjoint at once.  The kernel is used up before the gradient takes its
    # place, and the row term and facility location's reads go in row
    # blocks, so the rest is scratch of about two blocks.
    e, classes, u, t = _instance(
        np.random.default_rng(59), n=512, d=128, n_classes=8, class_size=16, u_size=64
    )
    entries = e.n * e.d + 2 * e.n * (8 * 16 + 64)
    bound = 8 * entries + 2 * 8 * submine.kernels._BLOCK
    for fam in FAMILIES:
        cfg = LossConfig(family=fam)
        loss_total(e, classes, u, t, cfg)  # one-time allocations
        tracemalloc.start()
        try:
            loss_total(e, classes, u, t, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (fam, peak, bound)


def _audit_instance():
    return _instance(np.random.default_rng(53), n=100, d=40, class_size=20, u_size=10)


def test_audit_memory_stays_proportional_to_kernel_and_gradient():
    # A probe's scratch is O(|T| + |K_c|) for facility location and graph
    # cut, and O(|K_c| + |U|) for log-det, not a block, so a whole row of
    # probes per batch keeps the audit's peak within a multiple of the base
    # kernel plus the gradient, n (|C| + d) entries: 6.93 of them for
    # facility location, whose batches keep no argmax rows, at most.
    e, classes, u, t = _audit_instance()
    entries = e.n * (2 * 20 + 10 + e.d)
    for fam in FAMILIES:
        cfg = LossConfig(family=fam)
        finite_difference_check(e, classes, u, t, cfg)  # one-time allocations
        tracemalloc.start()
        try:
            finite_difference_check(e, classes, u, t, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 8 * entries, (fam, peak / (8 * entries))


def test_audit_takes_one_batch_per_probed_row(monkeypatch):
    e, classes, u, t = _audit_instance()
    calls = []
    probe_rows = submine.losses._probe_rows

    def spy(data, unit, i, js, h):
        calls.append(i)
        return probe_rows(data, unit, i, js, h)

    monkeypatch.setattr(submine.losses, "_probe_rows", spy)
    for fam in FAMILIES:
        calls.clear()
        result = finite_difference_check(e, classes, u, t, LossConfig(family=fam))
        assert result["checked"] + result["tie_adjacent"] == e.n * e.d
        assert calls == list(range(e.n)), fam


@pytest.mark.parametrize("h", [0.0, -1e-4, math.nan, math.inf])
def test_finite_difference_step_must_be_finite_and_positive(h):
    e, classes, u, t = _instance(np.random.default_rng(35))
    with pytest.raises(ValueError, match="finite and positive"):
        finite_difference_check(e, classes, u, t, LossConfig(family="gc"), h=h)


def test_audit_reports_errors_its_probes_hit():
    # Each base point is valid; the -h probe on one coordinate is not.
    t = IndexSet.of(range(4))
    zero = EmbeddingSet([[1e-4, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="zero-norm row 0"):
        finite_difference_check(
            zero, [IndexSet.of([1])], IndexSet.of([2]), t, LossConfig(family="fl")
        )
    # The probe makes row 1 equal to row 0, or row 3 equal to row 2.
    near = EmbeddingSet(
        [[1.0, 0.0, 0.0], [1.0, 1e-4, 0.0], [0.0, 0.0, 1.0], [0.0, 1e-4, 1.0]]
    )
    cfg = LossConfig(family="logdet", lam=0.0)
    with pytest.raises(ValueError, match="class kernel not positive definite"):
        finite_difference_check(near, [IndexSet.of([0, 1])], IndexSet.of([2]), t, cfg)
    with pytest.raises(ValueError, match="singular unknown-set kernel"):
        finite_difference_check(near, [IndexSet.of([0])], IndexSet.of([2, 3]), t, cfg)


def test_gradient_is_read_only():
    rng = np.random.default_rng(34)
    e, classes, u, t = _instance(rng)
    report = loss_total(e, classes, u, t, LossConfig(family="gc"))
    assert report.grad.shape == (e.n, e.d)
    with pytest.raises(ValueError):
        report.grad[0, 0] = 1.0


# ---------------------------------------------------------------------------
# validation


def test_set_validation_errors():
    e = EmbeddingSet(np.eye(4))
    t = IndexSet.of(range(4))
    cfg = LossConfig(family="gc")
    with pytest.raises(ValueError, match="empty batch domain"):
        loss_self(e, [IndexSet.of([0])], IndexSet.of([]), cfg)
    with pytest.raises(ValueError, match="no class sets given"):
        loss_self(e, [], t, cfg)
    with pytest.raises(ValueError, match="empty class set 0"):
        loss_self(e, [IndexSet.of([])], t, cfg)
    with pytest.raises(ValueError, match="class set 0 not contained"):
        loss_self(e, [IndexSet.of([0])], IndexSet.of([1, 2]), cfg)
    with pytest.raises(ValueError, match="class sets overlap"):
        loss_cross(e, [IndexSet.of([0]), IndexSet.of([0])], IndexSet.of([1]), t, cfg)
    with pytest.raises(ValueError, match="empty conditioning set"):
        loss_cross(e, [IndexSet.of([0])], IndexSet.of([]), t, cfg)
    with pytest.raises(ValueError, match="overlaps conditioning"):
        loss_cross(e, [IndexSet.of([0])], IndexSet.of([0]), t, cfg)
    # Every entry point rejects a conditioning set outside the batch domain.
    for call in (
        lambda: loss_total(e, [IndexSet.of([0])], IndexSet.of([3]), IndexSet.of([0, 1]), cfg),
        lambda: loss_cross(e, [IndexSet.of([0])], IndexSet.of([3]), IndexSet.of([0, 1]), cfg),
        lambda: finite_difference_check(
            e, [IndexSet.of([0])], IndexSet.of([3]), IndexSet.of([0, 1]), cfg
        ),
    ):
        with pytest.raises(ValueError, match="conditioning set not contained"):
            call()


def test_zero_norm_row_outside_the_sets_still_errors():
    rng = np.random.default_rng(36)
    data = rng.normal(size=(8, 4))
    data[6] = 0.0
    e = EmbeddingSet(data)
    classes, u, t = [IndexSet.of([0, 1])], IndexSet.of([2]), IndexSet.of(range(4))
    for call in (
        lambda: loss_total(e, classes, u, t, LossConfig()),
        lambda: loss_self(e, classes, t, LossConfig()),
        lambda: loss_cross(e, classes, u, t, LossConfig()),
    ):
        with pytest.raises(ValueError, match=r"^zero-norm row 6$"):
            call()


def test_logdet_singular_inputs_error():
    dup = EmbeddingSet([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cfg = LossConfig(family="logdet", lam=0.0)
    with pytest.raises(ValueError, match="singular unknown-set kernel"):
        loss_cross(dup, [IndexSet.of([2])], IndexSet.of([0, 1]), IndexSet.of(range(3)), cfg)
    with pytest.raises(ValueError, match="class kernel not positive definite"):
        loss_self(dup, [IndexSet.of([0, 1])], IndexSet.of(range(3)), cfg)


def test_config_validation():
    with pytest.raises(ValueError, match="^lam must be a finite number >= 0, got -0.1$"):
        LossConfig(lam=-0.1)
    with pytest.raises(ValueError, match="^nu must be a finite number >= 0, got -1.0$"):
        LossConfig(nu=-1.0)
    cfg = LossConfig(family="gccg")
    assert cfg.family is Family.GRAPH_CUT
