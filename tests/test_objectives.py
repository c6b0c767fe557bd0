"""Set-function families, conditional gains, and incremental marginals.

Every vectorized value is checked against the loop evaluators in helpers.py,
and the closed-form conditional gains are checked against their definition.
"""

import math
import tracemalloc

import numpy as np
import pytest

from submine import (
    EMPTY_SET,
    Family,
    IndexSet,
    SimilarityKernel,
    SubmodularObjective,
    commit,
    conditional_gain,
    conditional_gain_closed,
    evaluate,
    marginal_gain,
    marginal_state,
)
from submine.objectives import DEFAULT_LOGDET_EPSILON, _LogDetState
from helpers import (
    VStackLogDetState,
    fl_gains_dense,
    fl_loops,
    mirrored,
    random_objective,
    random_subset,
    value_loops,
)

FAMILY_SETUPS = [
    (Family.FACILITY_LOCATION, "raw-cosine", None),
    (Family.FACILITY_LOCATION, "clip-at-zero", None),
    (Family.GRAPH_CUT, "clip-at-zero", None),
    (Family.GRAPH_CUT, "affine-shift", None),
    (Family.LOG_DET, "raw-cosine", 1e-4),
]


def test_family_parse_aliases(toy_kernel):
    assert Family.parse("fl") is Family.FACILITY_LOCATION
    assert Family.parse("flcg") is Family.FACILITY_LOCATION
    assert Family.parse("facility-location") is Family.FACILITY_LOCATION
    assert Family.parse("gc") is Family.GRAPH_CUT
    assert Family.parse("gccg") is Family.GRAPH_CUT
    assert Family.parse("graph-cut") is Family.GRAPH_CUT
    assert Family.parse("logdet") is Family.LOG_DET
    assert Family.parse("logdetcg") is Family.LOG_DET
    assert Family.parse("log-determinant") is Family.LOG_DET
    with pytest.raises(ValueError, match="unknown objective family 'qp'"):
        Family.parse("qp")
    # An objective parses a family given as a string.
    ground = IndexSet.of(range(3))
    assert SubmodularObjective(" GCCG ", toy_kernel, ground).family is Family.GRAPH_CUT
    with pytest.raises(ValueError, match="unknown objective family 'qp'"):
        SubmodularObjective("qp", toy_kernel, ground)


def test_toy_values(toy_objective):
    fl = toy_objective("fl")
    gc = toy_objective("gc", lam=0.5)
    ld = toy_objective("logdet", epsilon=0.0)
    assert evaluate(fl, EMPTY_SET) == 0.0
    assert evaluate(fl, [0]) == pytest.approx(1.7, abs=1e-12)
    assert evaluate(gc, [0]) == pytest.approx(1.2, abs=1e-12)
    assert evaluate(ld, [0, 1]) == pytest.approx(math.log(0.75), abs=1e-12)
    # Conditional gains of {0} given {1}, worked by hand.
    assert conditional_gain_closed(gc, [0], [1]) == pytest.approx(0.7, abs=1e-12)
    assert conditional_gain_closed(fl, [0], [1]) == pytest.approx(0.5, abs=1e-12)
    assert conditional_gain_closed(ld, [0], [1]) == pytest.approx(
        math.log(0.75), abs=1e-12
    )


def test_evaluate_matches_loop_reference():
    rng = np.random.default_rng(101)
    for family, transform, eps in FAMILY_SETUPS:
        for _ in range(40):
            n = int(rng.integers(2, 10))
            obj = random_objective(
                rng, family, n=n, transform=transform, epsilon=eps, lam=0.7
            )
            a = random_subset(rng, n)
            assert evaluate(obj, a) == pytest.approx(value_loops(obj, a), abs=1e-9)


def test_evaluate_respects_ground_set():
    rng = np.random.default_rng(5)
    ground = IndexSet.of([0, 2, 4])
    obj = random_objective(rng, Family.FACILITY_LOCATION, n=6, ground=ground)
    a = IndexSet.of([1, 5])
    assert evaluate(obj, a) == pytest.approx(
        fl_loops(obj.kernel.matrix, [1, 5], [0, 2, 4]), abs=1e-12
    )


def test_conditional_gain_requires_disjoint_sets(toy_objective):
    gc = toy_objective("gc")
    with pytest.raises(ValueError, match="overlap"):
        conditional_gain(gc, [0, 1], [1])
    with pytest.raises(ValueError, match="overlap"):
        conditional_gain_closed(gc, [0, 1], [1])


def test_closed_gain_equals_definitional_at_unit_strength():
    rng = np.random.default_rng(202)
    for family, transform, eps in FAMILY_SETUPS:
        for _ in range(60):
            n = int(rng.integers(2, 10))
            obj = random_objective(
                rng, family, n=n, transform=transform, epsilon=eps, lam=0.4, nu=1.0
            )
            perm = [int(i) for i in rng.permutation(n)]
            cut = int(rng.integers(1, n + 1))
            a = IndexSet.of(perm[:cut])
            q = IndexSet.of(perm[cut : cut + int(rng.integers(0, n - cut + 1))])
            closed = conditional_gain_closed(obj, a, q)
            definitional = conditional_gain(obj, a, q)
            assert closed == pytest.approx(definitional, abs=1e-9)


def test_closed_gain_empty_conditioning_returns_value():
    rng = np.random.default_rng(303)
    for family, transform, eps in FAMILY_SETUPS:
        obj = random_objective(rng, family, n=6, transform=transform, epsilon=eps)
        a = IndexSet.of([1, 4])
        assert conditional_gain_closed(obj, a, EMPTY_SET) == evaluate(obj, a)


def test_closed_gain_strength_weakens_coupling(toy_objective):
    # nu scales only the coupling to the conditioning set, so nu=0 ignores Q.
    gc = toy_objective("gc", nu=0.0)
    assert conditional_gain_closed(gc, [0], [1]) == evaluate(gc, [0])
    fl_half = toy_objective("fl", nu=0.5)
    # max(col0 - 0.5*col1, 0) summed: 0.75 + 0 + 0 = 0.75
    assert conditional_gain_closed(fl_half, [0], [1]) == pytest.approx(0.75, abs=1e-12)


def test_logdet_epsilon_resolution(toy_kernel):
    ground = IndexSet.of(range(3))
    implicit = SubmodularObjective(Family.LOG_DET, toy_kernel, ground)
    assert implicit.epsilon == DEFAULT_LOGDET_EPSILON
    explicit = SubmodularObjective(Family.LOG_DET, toy_kernel, ground, epsilon=0.01)
    assert explicit.epsilon == 0.01
    gc = SubmodularObjective(Family.GRAPH_CUT, toy_kernel, ground)
    assert gc.epsilon == 0.0


@pytest.mark.parametrize("key", ["lam", "nu", "epsilon"])
@pytest.mark.parametrize("value", [-0.5, math.nan, math.inf, -math.inf, True, False])
def test_objective_refuses_a_negative_non_finite_or_bool_weight(toy_kernel, key, value):
    with pytest.raises(ValueError, match=f"^{key} must be a "):
        SubmodularObjective(Family.LOG_DET, toy_kernel, IndexSet.of(range(3)), **{key: value})
    with pytest.raises(TypeError, match=f"^{key} must be a number, not str$"):
        SubmodularObjective(Family.LOG_DET, toy_kernel, IndexSet.of(range(3)), **{key: "a"})


def test_logdet_singular_submatrix_errors():
    dup = np.array([[1.0, 1.0], [1.0, 1.0]])
    kern = SimilarityKernel(dup)
    ground = IndexSet.of(range(2))
    ld = SubmodularObjective(Family.LOG_DET, kern, ground, epsilon=0.0)
    with pytest.raises(ValueError, match="singular kernel submatrix"):
        evaluate(ld, [0, 1])
    # The epsilon shift heals exact duplicates.
    healed = SubmodularObjective(Family.LOG_DET, kern, ground, epsilon=1e-4)
    assert math.isfinite(evaluate(healed, [0, 1]))


# ---------------------------------------------------------------------------
# incremental marginal gains


def test_marginal_gain_matches_value_difference():
    rng = np.random.default_rng(404)
    for family, transform, eps in FAMILY_SETUPS:
        for _ in range(25):
            n = int(rng.integers(3, 9))
            obj = random_objective(
                rng, family, n=n, transform=transform, epsilon=eps, lam=0.6
            )
            state = marginal_state(obj)
            selected: list[int] = []
            total = 0.0
            for v in rng.permutation(n)[: n - 1]:
                v = int(v)
                gain = marginal_gain(state, v)
                want = evaluate(obj, selected + [v]) - evaluate(obj, selected)
                assert gain == pytest.approx(want, abs=1e-9)
                state = commit(state, v)
                selected.append(v)
                total += gain
                assert state.selected == selected
                assert total == pytest.approx(evaluate(obj, state.selected), abs=1e-9)


def test_marginal_gain_is_pure(toy_objective):
    fl = toy_objective("fl")
    state = marginal_state(fl)
    first = marginal_gain(state, 1)
    second = marginal_gain(state, 1)
    assert first == second == pytest.approx(1.9, abs=1e-12)
    assert tuple(state.selected) == ()


def test_commit_rejects_reselection(toy_objective):
    gc = toy_objective("gc")
    state = commit(marginal_state(gc), 0)
    with pytest.raises(ValueError, match="already selected"):
        marginal_gain(state, 0)
    with pytest.raises(ValueError, match="already selected"):
        commit(state, 0)


def test_toy_marginal_chain(toy_objective):
    fl = toy_objective("fl")
    state = marginal_state(fl)
    assert marginal_gain(state, 1) == pytest.approx(1.9, abs=1e-12)
    state = commit(state, 1)
    assert marginal_gain(state, 2) == pytest.approx(0.6, abs=1e-12)
    state = commit(state, 2)
    assert evaluate(fl, state.selected) == pytest.approx(2.5, abs=1e-12)


@pytest.mark.parametrize("family,transform,eps", FAMILY_SETUPS)
def test_state_copy_leaves_the_original_untouched(family, transform, eps):
    rng = np.random.default_rng(505)
    obj = random_objective(rng, family, n=12, transform=transform, epsilon=eps, lam=0.6)
    state = marginal_state(obj)
    for v in (3, 7, 1):
        commit(state, v)
    items = np.array([i for i in range(12) if i not in (3, 7, 1)])
    gains = state.gains(items)
    twin = state.copy()
    assert np.array_equal(twin.gains(items), gains)
    for v in (0, 5, 9):
        commit(twin, v)
    assert np.array_equal(state.gains(items), gains)
    assert state.selected == [3, 7, 1]
    assert twin.selected == [3, 7, 1, 0, 5, 9]
    # The original still commits as if no copy had been taken.
    fresh = marginal_state(obj)
    for v in (3, 7, 1, 0):
        commit(fresh, v)
    commit(state, 0)
    rest = np.array([i for i in range(12) if i not in (3, 7, 1, 0)])
    assert np.array_equal(state.gains(rest), fresh.gains(rest))
    assert state.selected == fresh.selected


@pytest.mark.parametrize("family,transform,eps", FAMILY_SETUPS)
def test_copy_refuses_its_selection_and_leaves_the_original_free(family, transform, eps):
    rng = np.random.default_rng(507)
    obj = random_objective(rng, family, n=12, transform=transform, epsilon=eps, lam=0.6)
    state = marginal_state(obj)
    for v in (3, 7):
        commit(state, v)
    twin = state.copy()
    # What was selected before the copy stays selected in it.
    for v in (3, 7):
        with pytest.raises(ValueError, match="^element already selected$"):
            commit(twin, v)
    commit(twin, 5)
    with pytest.raises(ValueError, match="^element already selected$"):
        marginal_gain(twin, 5)
    # The copy's commit of 5 leaves the original free to commit it.
    commit(state, 5)
    assert state.selected == twin.selected == [3, 7, 5]
    with pytest.raises(ValueError, match="^element already selected$"):
        commit(state, 5)
    # The range is checked first, as before.
    with pytest.raises(ValueError, match="out of range"):
        commit(twin, 12)
    with pytest.raises(ValueError, match="out of range"):
        commit(twin, -1)


def test_logdet_factor_growth_matches_vstack_bit_for_bit():
    rng = np.random.default_rng(606)
    n = 80
    obj = random_objective(rng, Family.LOG_DET, n=n, epsilon=1e-2)
    state = marginal_state(obj)  # no room: the first commit grows the buffer
    first_rows = _LogDetState.FIRST_ROWS
    assert len(state._factor) == 0
    ref = VStackLogDetState(obj)
    # Past two doublings of the first grown buffer.
    order = [int(v) for v in rng.permutation(n)[: 2 * first_rows + 3]]
    for r, v in enumerate(order):
        commit(state, v)
        ref.commit(v)
        rest = np.array(order[r + 1:], dtype=np.intp)
        assert np.array_equal(state.gains(rest), ref.gains(rest))
    assert len(state._factor) == 4 * first_rows


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


@pytest.mark.parametrize("family,transform,eps", FAMILY_SETUPS)
def test_a_bare_commit_is_the_module_commit(family, transform, eps):
    rng = np.random.default_rng(506)
    obj = random_objective(rng, family, n=8, transform=transform, epsilon=eps, lam=0.6)
    bare, module = marginal_state(obj), marginal_state(obj)
    for v in (1, 6):
        bare.commit(v)
        commit(module, v)
    assert bare.selected == module.selected == [1, 6]
    rest = np.array([0, 2, 3, 4, 5, 7])
    gains = bare.gains(rest)
    assert np.array_equal(_bits(gains), _bits(module.gains(rest)))
    want = [evaluate(obj, [1, 6, v]) - evaluate(obj, [1, 6]) for v in rest]
    assert np.allclose(gains, want, rtol=0.0, atol=1e-9)
    with pytest.raises(ValueError, match="already selected"):
        bare.commit(6)
    with pytest.raises(ValueError, match="out of range"):
        bare.commit(8)
    # A refused commit leaves the selection and the caches as they were.
    assert bare.selected == [1, 6]
    assert np.array_equal(_bits(bare.gains(rest)), _bits(gains))


def test_logdet_reserve_sizes_the_factor_once_with_vstack_rows():
    rng = np.random.default_rng(607)
    n = 60
    obj = random_objective(rng, Family.LOG_DET, n=n, epsilon=1e-2)
    order = [int(v) for v in rng.permutation(n)[:41]]
    state = marginal_state(obj, 40)  # past FIRST_ROWS: the buffer is sized once
    buf = state._factor
    assert len(buf) == 40
    ref = VStackLogDetState(obj)
    for r, v in enumerate(order):
        commit(state, v)
        ref.commit(v)
        if r < 40:
            assert state._factor is buf
        assert np.array_equal(_bits(state._factor[: r + 1]), _bits(ref.factor))
        rest = np.array(order[r + 1:], dtype=np.intp)
        assert np.array_equal(_bits(state.gains(rest)), _bits(ref.gains(rest)))
    # The 41st commit found the reserved rows full and doubled them.
    assert len(state._factor) == 80


@pytest.mark.parametrize("family", [Family.FACILITY_LOCATION, Family.GRAPH_CUT])
def test_reserve_changes_nothing_for_facility_location_and_graph_cut(family):
    rng = np.random.default_rng(608)
    obj = random_objective(rng, family, n=20, transform="clip-at-zero")
    # Room for commits allocates nothing, however large.
    fresh = marginal_state(obj)
    roomy = marginal_state(obj, 10**12)
    assert vars(roomy).keys() == vars(fresh).keys()
    assert all(
        np.array_equal(_bits(v), _bits(getattr(fresh, k))) if isinstance(v, np.ndarray)
        else v == getattr(fresh, k) for k, v in vars(roomy).items()
    )
    state = commit(roomy, 4)
    twin = state.copy(10**12)
    assert vars(twin).keys() == vars(state).keys()
    # The copy shares every cache no commit changes; the selection and its mask are its own.
    assert all(
        getattr(twin, k) is v for k, v in vars(state).items()
        if k not in ("selected", "_picked", "_cross")
    )
    assert twin.selected == state.selected == [4]
    assert np.array_equal(twin._picked, state._picked) and twin._picked is not state._picked


def test_logdet_copy_holds_the_committed_rows_only():
    rng = np.random.default_rng(609)
    n = 50
    obj = random_objective(rng, Family.LOG_DET, n=n, epsilon=1e-2)
    order = [int(v) for v in rng.permutation(n)[:36]]
    state = marginal_state(obj)
    for v in order[:20]:  # past FIRST_ROWS: the buffer doubled to 32 rows
        commit(state, v)
    twin = state.copy()
    assert len(state._factor) == 32 and len(twin._factor) == len(twin.selected) == 20
    for mine in (twin._factor, twin._resid):
        for theirs in (state._factor, state._resid):
            assert not np.shares_memory(mine, theirs)
    assert np.array_equal(_bits(twin._factor), _bits(state._factor[:20]))
    twin = state.copy(len(order) - 20)  # the committed rows and room for the rest
    assert len(twin._factor) == len(order) and len(twin.selected) == 20
    assert not np.shares_memory(twin._factor, state._factor)
    assert np.array_equal(_bits(twin._factor[:20]), _bits(state._factor[:20]))
    # Both continue alike, bit for bit, and alike with a vstack telescope.
    ref = VStackLogDetState(obj)
    for v in order[:20]:
        ref.commit(v)
    for r, v in enumerate(order[20:], start=20):
        rest = np.array(order[r:], dtype=np.intp)
        assert np.array_equal(_bits(twin.gains(rest)), _bits(state.gains(rest)))
        assert np.array_equal(_bits(twin.gains(rest)), _bits(ref.gains(rest)))
        commit(state, v)
        commit(twin, v)
        ref.commit(v)
    assert np.array_equal(_bits(twin._factor), _bits(ref.factor))
    assert np.array_equal(_bits(state._factor[: len(order)]), _bits(ref.factor))


def _fl_kernels(rng, n):
    """A cosine kernel over n items, and the public kernel of a copy whose
    entry (0, 1) is 1e-13 off its mirror image, with that copy."""
    kern = random_objective(rng, Family.FACILITY_LOCATION, n=n, d=5).kernel
    m = kern.matrix.copy()
    m[0, 1] += 1e-13
    return kern, SimilarityKernel(m), m


def test_facility_location_state_reads_the_kernel_on_the_whole_ground():
    rng = np.random.default_rng(707)
    n = 30
    kern, lopsided, m = _fl_kernels(rng, n)
    # The public constructor stores the average, which equals its transpose.
    assert np.array_equal(_bits(lopsided.matrix), _bits((m + m.T) / 2.0))
    assert mirrored(lopsided.matrix)
    cases = [
        (kern, IndexSet.of(range(n)), True),
        (kern, IndexSet.of(range(0, n, 2)), False),  # a proper subset
        (kern, IndexSet.of(reversed(range(n))), False),  # every item, out of order
        (lopsided, IndexSet.of(range(n)), True),
        (lopsided, IndexSet.of(range(1, n, 3)), False),
    ]
    for kernel, ground, shared in cases:
        obj = SubmodularObjective(Family.FACILITY_LOCATION, kernel, ground)
        state = marginal_state(obj)
        assert np.shares_memory(state._block, kernel.matrix) == shared
        if not shared:  # row v of the gather is column v over the ground, bit for bit
            want = kernel.matrix[ground.as_array(), :].T
            assert np.array_equal(_bits(state._block), _bits(want))
        s = kernel.matrix.tolist()
        selected = []
        for v in (4, 17, 9):
            rest = np.array([i for i in range(n) if i not in selected])
            want = fl_gains_dense(s, list(ground), selected, rest)
            assert np.allclose(state.gains(rest), want, rtol=0.0, atol=1e-9)
            commit(state, v)
            selected.append(v)
            assert evaluate(obj, state.selected) == pytest.approx(
                fl_loops(s, selected, list(ground)), abs=1e-9
            )


def test_graph_cut_column_sums_on_the_whole_ground_are_the_gathered_sums():
    rng = np.random.default_rng(708)
    obj = random_objective(rng, Family.GRAPH_CUT, n=40, transform="clip-at-zero")
    s = obj.kernel.matrix
    want = s[obj.ground.as_array(), :].sum(axis=0)
    assert np.array_equal(marginal_state(obj)._colsum.view(np.uint64), want.view(np.uint64))


def test_building_the_gain_states_adds_little_to_the_kernel():
    rng = np.random.default_rng(709)
    obj = random_objective(rng, Family.FACILITY_LOCATION, n=1000, d=16, transform="clip-at-zero")
    nbytes = obj.kernel.matrix.nbytes
    for family in (Family.FACILITY_LOCATION, Family.GRAPH_CUT):
        fam = SubmodularObjective(family, obj.kernel, obj.ground)
        marginal_state(fam)
        tracemalloc.start()
        try:
            marginal_state(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * nbytes
