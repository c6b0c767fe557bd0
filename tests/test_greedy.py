"""Greedy maximization against its loop references, and the exhaustive reference."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from submine import (
    Family,
    IndexSet,
    SimilarityKernel,
    SubmodularObjective,
    conditional_gain_closed,
    evaluate,
    greedy_max,
    marginal_state,
)
from submine import greedy, kernels
from submine.objectives import commit
from helpers import brute_force_opt, full_round_greedy, pruned_greedy_reference, random_objective


def reference_run(obj, pool, k, cond=()):
    """(picks, gains, evaluations) of the loop references: facility
    location's pruned rounds, and full rounds for the other families."""
    if obj.family is Family.FACILITY_LOCATION:
        return pruned_greedy_reference(obj, pool, k, cond, greedy.PRUNE_CHUNK)
    live = len(set(pool))
    return (*full_round_greedy(obj, pool, k, cond), sum(live - r for r in range(min(k, live))))


SETUPS = [
    (Family.FACILITY_LOCATION, "clip-at-zero", None),
    (Family.GRAPH_CUT, "clip-at-zero", None),
    (Family.LOG_DET, "raw-cosine", 1e-4),
    (Family.FACILITY_LOCATION, "raw-cosine", None),
    (Family.GRAPH_CUT, "raw-cosine", None),
]


def test_toy_greedy_run(toy_objective):
    fl = toy_objective("fl")
    result = greedy_max(fl, IndexSet.of(range(3)), 2)
    assert tuple(result.selected) == (1, 2)
    assert result.gains == pytest.approx((1.9, 0.6), abs=1e-12)
    assert result.objective_value == pytest.approx(2.5, abs=1e-12)
    assert result.budget == 2
    assert result.evaluations == 5


def test_toy_brute_force_keeps_first_optimum(toy_objective):
    # {0,2} and {1,2} tie at 2.5; lexicographic enumeration sees {0,2} first.
    fl = toy_objective("fl")
    result = brute_force_opt(fl, IndexSet.of(range(3)), 2)
    assert tuple(result.selected) == (0, 2)
    assert result.objective_value == pytest.approx(2.5, abs=1e-12)
    assert sum(result.gains) == pytest.approx(result.objective_value, abs=1e-12)


def test_greedy_meets_constant_factor_bound():
    rng = np.random.default_rng(909)
    bound = 1.0 - 1.0 / np.e
    for _ in range(50):
        n = int(rng.integers(5, 11))
        k = int(rng.integers(1, 4))
        obj = random_objective(
            rng, Family.FACILITY_LOCATION, n=n, transform="clip-at-zero"
        )
        greedy = greedy_max(obj, IndexSet.of(range(n)), k)
        best = brute_force_opt(obj, IndexSet.of(range(n)), k)
        assert greedy.objective_value >= bound * best.objective_value - 1e-9
        assert best.objective_value >= greedy.objective_value - 1e-9


def test_greedy_is_bit_identical_to_the_loop_references():
    rng = np.random.default_rng(808)
    for family, transform, eps in SETUPS:
        for _ in range(30):
            n = int(rng.integers(4, 12))
            k = int(rng.integers(1, n + 1))
            obj = random_objective(
                rng, family, n=n, transform=transform, epsilon=eps, lam=0.5
            )
            got = greedy_max(obj, IndexSet.of(range(n)), k)
            # Exact float equality with the loop references.
            assert (tuple(got.selected), got.gains, got.evaluations) == reference_run(
                obj, range(n), k)


def assert_signed_run_is_reference(obj, pool, k):
    assert obj.kernel.matrix.min() < 0.0
    got = greedy_max(obj, pool, k)
    assert (tuple(got.selected), got.gains, got.evaluations) == reference_run(obj, pool, k)


def test_greedy_matches_the_loop_references_on_signed_kernels():
    # Raw cosines break diminishing returns from the empty set.
    rng = np.random.default_rng(808)
    for family in (Family.FACILITY_LOCATION, Family.GRAPH_CUT):
        obj = random_objective(rng, family, n=12, transform="raw-cosine")
        assert_signed_run_is_reference(obj, IndexSet.of(range(12)), 4)
    ld = random_objective(rng, Family.LOG_DET, n=12, transform="raw-cosine", epsilon=1e-4)
    assert_signed_run_is_reference(ld, IndexSet.of(range(12)), 4)


def test_greedy_matches_the_loop_references_where_gains_read_a_negative_entry():
    # s[2, 3] < 0 is read by graph cut's cross sums over the pool {2, 3}
    # and never by facility location over the ground {0, 1}.
    s = np.array(
        [
            [1.0, 0.5, 0.2, 0.3],
            [0.5, 1.0, 0.4, 0.1],
            [0.2, 0.4, 1.0, -0.3],
            [0.3, 0.1, -0.3, 1.0],
        ]
    )
    kernel = SimilarityKernel(s)
    for family in (Family.FACILITY_LOCATION, Family.GRAPH_CUT):
        obj = SubmodularObjective(family, kernel, IndexSet.of([0, 1]))
        assert_signed_run_is_reference(obj, IndexSet.of([2, 3]), 2)


def test_greedy_raises_where_full_rounds_do_on_non_pd_logdet_kernels():
    # A unit Gram matrix in 8-d plus symmetric noise: past rank 8 its
    # residuals can turn non-positive, on rows a pruned round would not score.
    rng = np.random.default_rng(404)
    n, raised = 40, 0
    for _ in range(200):
        x = rng.normal(size=(n, 8))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        noise = rng.uniform(-0.1, 0.1, size=(n, n))
        obj = SubmodularObjective(
            Family.LOG_DET, SimilarityKernel(x @ x.T + (noise + noise.T) / 2.0),
            IndexSet.of(range(n)), epsilon=1e-4,
        )
        k = int(rng.integers(2, 20))
        try:
            want = full_round_greedy(obj, range(n), k)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError, match="not positive definite"):
                greedy_max(obj, IndexSet.of(range(n)), k)
            continue
        got = greedy_max(obj, IndexSet.of(range(n)), k)
        assert (tuple(got.selected), got.gains) == want
    assert 0 < raised < 200


def test_greedy_prunes_facility_location_rounds_only():
    # Facility location prunes with stale bounds, scoring the rows the loop
    # reference scores; graph cut keeps full rounds, every live row a round.
    rng = np.random.default_rng(33)
    n, k = 40, 10
    full_rounds = sum(n - r for r in range(k))
    obj = random_objective(rng, Family.FACILITY_LOCATION, n=n, transform="clip-at-zero")
    got = greedy_max(obj, IndexSet.of(range(n)), k)
    want = pruned_greedy_reference(obj, range(n), k)
    assert (tuple(got.selected), got.gains, got.evaluations) == want
    assert got.evaluations < full_rounds
    gc = random_objective(rng, Family.GRAPH_CUT, n=n, transform="clip-at-zero")
    got = greedy_max(gc, IndexSet.of(range(n)), k)
    assert (tuple(got.selected), got.gains) == full_round_greedy(gc, range(n), k)
    assert got.evaluations == full_rounds


def test_facility_location_prunes_signed_kernels_from_the_third_round():
    # From an empty state the first round is scored without a commit, where
    # a raw-cosine gain is a plain sum that a negative entry can make grow;
    # the second round's gains are scored under one, so they bound later ones.
    rng = np.random.default_rng(38)
    n, k = 40, 8
    obj = random_objective(rng, Family.FACILITY_LOCATION, n=n, transform="raw-cosine")
    assert obj.kernel.matrix.min() < 0.0
    state = marginal_state(obj)
    calls, gains = [], state.gains
    state.gains = lambda items: (calls.append(len(items)), gains(items))[1]
    result = greedy_max(obj, IndexSet.of(range(n)), k, conditioning=state)
    assert calls[:2] == [n, n - 1]
    assert max(calls[2:]) <= greedy.PRUNE_CHUNK
    assert result.evaluations == sum(calls) < sum(n - r for r in range(k))
    want = full_round_greedy(obj, range(n), k)
    assert (tuple(result.selected), result.gains) == want


@pytest.mark.parametrize("conditioning", [(), (5, 6)])
def test_pruned_first_round_in_chunks_matches_full_rounds(monkeypatch, conditioning):
    # A facility-location run scores its first round in one call, which a
    # budget of three kernel rows splits into pieces of three rows.
    rng = np.random.default_rng(34)
    n, k = 40, 8
    obj = random_objective(rng, Family.FACILITY_LOCATION, n=n, transform="clip-at-zero")
    pool = [i for i in range(n) if i not in conditioning]
    reference = full_round_greedy(obj, pool, k, conditioning)  # one call a round

    def run():
        state = marginal_state(obj)
        for q in conditioning:
            commit(state, q)
        calls, gains = [], state.gains
        state.gains = lambda items: (calls.append(len(items)), gains(items))[1]
        return greedy_max(obj, IndexSet.of(pool), k, conditioning=state), calls

    whole, whole_calls = run()
    monkeypatch.setattr(kernels, "_BLOCK", 3 * n)
    chunked, calls = run()
    first = -(-len(pool) // 3)  # pieces of the first round
    assert whole_calls[0] == calls[0] == len(pool)
    assert sum(calls[1 : 1 + first]) == len(pool) and max(calls[1 : 1 + first]) == 3
    assert [c for c in calls if c > 3] == [c for c in whole_calls if c > 3]
    assert (tuple(chunked.selected), chunked.gains) == reference
    assert (chunked.selected, chunked.gains) == (whole.selected, whole.gains)
    assert chunked.evaluations == whole.evaluations


def test_a_block_narrower_than_the_ground_scores_single_rows_whole(monkeypatch):
    # Below one kernel row a block, every round is cut into single rows,
    # which are scored as they are, not cut again.
    rng = np.random.default_rng(39)
    n, k = 30, 6
    obj = random_objective(rng, Family.FACILITY_LOCATION, n=n, transform="clip-at-zero")
    pool = IndexSet.of(range(n))
    whole = greedy_max(obj, pool, k)
    monkeypatch.setattr(kernels, "_BLOCK", n - 1)
    narrow = greedy_max(obj, pool, k)
    assert (narrow.selected, narrow.gains, narrow.evaluations) == (
        whole.selected, whole.gains, whole.evaluations)


@pytest.mark.parametrize("chunk", [1, 2, 16])
@pytest.mark.parametrize("conditioned", [0, 3])
def test_pruned_greedy_scores_rows_by_bound_then_index(chunk, conditioned):
    # Gaussian rows under affine-shift give non-negative kernels whose bounds
    # do not tie, so the ranking kept across rounds scores the rows a fresh
    # sort by descending bound, lowest index first, does.
    rng = np.random.default_rng(37 + chunk + conditioned)
    for _ in range(10):
        n = int(rng.integers(20, 60))
        obj = random_objective(rng, Family.FACILITY_LOCATION, n=n, d=6, transform="affine-shift")
        cond = [int(i) for i in rng.permutation(n)[:conditioned]]
        pool = IndexSet.of(i for i in range(n) if i not in cond)
        k = int(rng.integers(1, len(pool) + 1))
        want = pruned_greedy_reference(obj, pool, k, cond, chunk)
        with mock.patch.object(greedy, "PRUNE_CHUNK", chunk):
            result = greedy_max(obj, pool, k, IndexSet.of(cond))
        assert (tuple(result.selected), result.gains, result.evaluations) == want


def test_an_unpruned_facility_location_round_reads_the_kernel_in_blocks():
    # With nothing conditioned greedy's first two rounds are full, each
    # scoring every one of the 1,000 rows.
    rng = np.random.default_rng(36)
    obj = random_objective(rng, Family.FACILITY_LOCATION, n=1000, d=16, transform="raw-cosine")
    assert obj.kernel.matrix.min() < 0.0
    pool = IndexSet.of(range(1000))
    greedy_max(obj, pool, 2)
    tracemalloc.start()
    try:
        result = greedy_max(obj, pool, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.evaluations == 1000 + 999
    assert peak <= 0.1 * obj.kernel.matrix.nbytes


def test_greedy_reads_the_kernel_without_a_block_copy():
    # Greedy reads no |pool| x |ground| copy of the kernel, on facility
    # location (pruned rounds) or graph cut (full rounds).
    rng = np.random.default_rng(35)
    obj = random_objective(rng, Family.FACILITY_LOCATION, n=1000, d=16, transform="clip-at-zero")
    nbytes = obj.kernel.matrix.nbytes
    pool = IndexSet.of(range(1000))
    gc = SubmodularObjective(Family.GRAPH_CUT, obj.kernel, obj.ground)
    for objective in (obj, gc):
        greedy_max(objective, pool, 2)
        tracemalloc.start()
        try:
            greedy_max(objective, pool, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * nbytes


def test_tie_break_prefers_lowest_index():
    flat = SimilarityKernel(np.full((4, 4), 1.0))
    obj = SubmodularObjective(Family.FACILITY_LOCATION, flat, IndexSet.of(range(4)))
    result = greedy_max(obj, IndexSet.of([3, 1, 2, 0]), 3)
    assert tuple(result.selected) == (0, 1, 2)
    assert (tuple(result.selected), result.gains) == full_round_greedy(obj, [3, 1, 2, 0], 3)


def test_greedy_fills_budget_despite_negative_gains(toy_objective):
    # With a big redundancy penalty every later gain is negative, yet the
    # budget must still be exhausted rather than stopping early.
    gc = toy_objective("gc", lam=2.0)
    result = greedy_max(gc, IndexSet.of(range(3)), 3)
    assert len(result.selected) == 3
    assert result.gains[-1] < 0.0


def test_budget_is_clamped_to_pool_size(toy_objective):
    fl = toy_objective("fl")
    result = greedy_max(fl, IndexSet.of([0, 2]), 5)
    assert len(result.selected) == 2
    assert result.budget == 5


def test_zero_budget(toy_objective):
    fl = toy_objective("fl")
    result = greedy_max(fl, IndexSet.of(range(3)), 0)
    assert tuple(result.selected) == ()
    assert result.gains == ()
    assert result.objective_value == 0.0
    with pytest.raises(ValueError, match="non-negative"):
        greedy_max(fl, IndexSet.of(range(3)), -1)


def test_conditioning_changes_gains(toy_objective):
    fl = toy_objective("fl")
    plain = greedy_max(fl, IndexSet.of([0, 2]), 1)
    conditioned = greedy_max(fl, IndexSet.of([0, 2]), 1, conditioning=IndexSet.of([1]))
    # Gains are conditional: f(A u Q) - f(Q), so conditioning shrinks them.
    assert conditioned.objective_value < plain.objective_value
    want = evaluate(fl, [1, conditioned.selected.indices[0]]) - evaluate(fl, [1])
    assert conditioned.objective_value == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "pool, k, cond, message",
    [
        ([0, 2], -1, None, "budget k must be a non-negative integer"),
        ([0, 2], 1.5, None, "budget k must be a non-negative integer"),
        ([0, 2], True, None, "budget k must be a non-negative integer"),
        ([0, 3], 1, None, "index 3 out of range for 3 items"),
        ([0, 2], 1, [1, 3], "index 3 out of range for 3 items"),
        ([0, 2], 1, "other objective's state", "conditioning state belongs to another objective"),
        ([0, 1], 1, [1], "candidates overlap conditioning set"),
        ([0, 1], 1, "state", "candidates overlap conditioning set"),
    ],
    ids=["negative-k", "fractional-k", "bool-k", "candidate-out-of-range", "set-out-of-range",
         "other-objective-state", "overlap-set", "overlap-state"],
)
def test_greedy_refusals_name_their_fault(toy_objective, pool, k, cond, message):
    fl = toy_objective("fl")
    if cond == "state":  # a state whose selection is {1}
        cond = marginal_state(fl)
        cond.commit(1)
    elif cond == "other objective's state":
        cond = marginal_state(toy_objective("fl"))
    elif cond is not None:
        cond = IndexSet.of(cond)
    with pytest.raises(ValueError, match=f"^{message}$"):
        greedy_max(fl, IndexSet.of(pool), k, cond)


def test_allow_conditioned_candidates_gives_zero_gain(toy_objective):
    # Conditioned on item 1, every fresh gain is negative (graph cut under
    # lam=2, log-det with no shift), so the first round's one gains call
    # scores rows 0 and 2 and the unscored conditioned row 1, at gain exactly
    # 0, wins; later rounds take the fresh rows.
    pool = IndexSet.of([2, 1, 0])
    for obj in (toy_objective("gc", lam=2.0), toy_objective("logdet", epsilon=0.0)):
        state = marginal_state(obj)
        commit(state, 1)
        assert (state.gains(np.array([0, 2])) < 0.0).all()
        result = greedy_max(obj, pool, 3, IndexSet.of([1]), allow_conditioned_candidates=True)
        assert (tuple(result.selected), result.gains) == full_round_greedy(obj, pool, 3, [1])
        assert result.selected.indices[0] == 1 and result.gains[0] == 0.0
        assert all(g < 0.0 for g in result.gains[1:])
        assert result.evaluations == 2 + 2 + 1
        # Conditioned through the state itself, the run is the same.
        through = greedy_max(obj, pool, 3, state, allow_conditioned_candidates=True)
        assert (through.selected, through.gains, through.evaluations) == (
            result.selected, result.gains, result.evaluations)
        assert state.selected == [1, *result.selected.indices[1:]]


def test_brute_force_matches_exhaustive_loop(toy_objective):
    gc = toy_objective("gc", lam=0.3)
    best_val = 0.0
    best_set = ()
    for size in (1, 2):
        for combo in itertools.combinations(range(3), size):
            val = evaluate(gc, combo)
            if val > best_val:
                best_val, best_set = val, combo
    result = brute_force_opt(gc, IndexSet.of(range(3)), 2)
    assert tuple(result.selected) == best_set
    assert result.objective_value == pytest.approx(best_val, abs=1e-12)


def test_brute_force_guard_rejects_huge_search():
    rng = np.random.default_rng(1)
    obj = random_objective(rng, Family.FACILITY_LOCATION, n=40, transform="clip-at-zero")
    with pytest.raises(ValueError, match="search space too large"):
        brute_force_opt(obj, IndexSet.of(range(40)), 40)


@pytest.mark.parametrize("family, transform, eps", SETUPS)
def test_gain_engines_refuse_nu_other_than_one(family, transform, eps):
    # The engines' gains are definitional, which the closed form with
    # strength nu matches at nu = 1 only.
    pool, cond = IndexSet.of(range(3, 9)), IndexSet.of([0, 1, 2])
    for nu in (0.5, 1.0):
        obj = random_objective(np.random.default_rng(3), family, n=9, transform=transform,
                               nu=nu, epsilon=eps)
        selectors = (greedy_max, brute_force_opt)
        runs = [lambda: marginal_state(obj)] + [lambda f=f: f(obj, pool, 3, cond) for f in selectors]
        for run in runs:
            if nu == 1.0:
                run()
            else:
                with pytest.raises(ValueError, match="^nu must be 1"):
                    run()
    got = greedy_max(obj, pool, 3, cond)
    closed = conditional_gain_closed(obj, got.selected, cond)
    assert got.objective_value == pytest.approx(closed, abs=1e-9)

