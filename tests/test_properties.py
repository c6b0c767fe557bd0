"""Property-based checks of the gain engine, lazy greedy and the closed-form
gains on small instances.

Embeddings are small integers, so tied kernel entries and duplicate rows are
common; instances also reach d = 1, empty pools, k = 0 and k > |pool|.  Every
per-pick gain is compared with the loop reference in helpers.py, and every
closed-form gain at nu = 1 with the definitional one.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from submine import (
    EmbeddingSet,
    Family,
    IndexSet,
    SubmodularObjective,
    conditional_gain,
    conditional_gain_closed,
    cosine_kernel,
    greedy_max,
    lazy_greedy_max,
)
from helpers import value_loops

PROPERTY_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)

# Transforms that keep each family well defined: log-det needs a
# positive-definite kernel, which clipping at zero can break.
TRANSFORMS = {
    Family.FACILITY_LOCATION: ("raw-cosine", "clip-at-zero", "affine-shift"),
    Family.GRAPH_CUT: ("raw-cosine", "clip-at-zero", "affine-shift"),
    Family.LOG_DET: ("raw-cosine", "affine-shift"),
}
# Submodular settings, where lazy greedy must match naive greedy bit for bit.
LAZY_TRANSFORMS = {
    Family.FACILITY_LOCATION: ("clip-at-zero",),
    Family.GRAPH_CUT: ("clip-at-zero",),
    Family.LOG_DET: ("raw-cosine",),
}


def make_objective(rows, family, transform, ground, lam):
    data = np.array(rows, dtype=float)
    data[~data.any(axis=1), 0] = 1.0  # cosine needs non-zero rows
    kernel = cosine_kernel(EmbeddingSet(data), transform=transform)
    return SubmodularObjective(
        family, kernel, IndexSet.of(ground), lam=lam, epsilon=1e-4
    )


@st.composite
def instances(draw, transforms):
    """(objective, pool, conditioning, k); pool and conditioning may overlap."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 3))
    cell = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n))
    family = draw(st.sampled_from(sorted(transforms, key=lambda f: f.value)))
    transform = draw(st.sampled_from(transforms[family]))
    subset = st.lists(st.integers(0, n - 1), unique=True, max_size=n)
    ground = draw(subset)
    pool = draw(subset)
    cond = draw(subset)
    k = draw(st.integers(0, n + 2))
    lam = draw(st.sampled_from((0.0, 0.5, 2.0)))
    objective = make_objective(rows, family, transform, ground, lam)
    return objective, IndexSet.of(pool), IndexSet.of(cond), k


def edge_case(rows, family, transform, pool, cond, k):
    objective = make_objective(rows, family, transform, range(len(rows)), 0.5)
    return objective, IndexSet.of(pool), IndexSet.of(cond), k


EDGE_CASES = [
    # d = 1 with duplicate and opposite rows, conditioning inside the pool.
    edge_case([[1], [1], [-2], [2]], Family.LOG_DET, "raw-cosine", [0, 1, 2, 3], [1], 3),
    edge_case([[1, 0], [0, 1]], Family.GRAPH_CUT, "clip-at-zero", [], [0], 2),  # empty pool
    edge_case([[1, 2], [2, 1]], Family.FACILITY_LOCATION, "raw-cosine", [0, 1], [], 0),  # k = 0
    # k > |pool| with tied rows.
    edge_case([[1, 1], [1, 1], [1, 0]], Family.FACILITY_LOCATION, "clip-at-zero", [0, 1, 2], [], 5),
]


def _with_edge_cases(test):
    for case in EDGE_CASES:
        test = example(case)(test)
    return test


@PROPERTY_SETTINGS
@given(instances(TRANSFORMS))
@_with_edge_cases
def test_engine_gains_equal_growth_of_loop_reference(case):
    objective, pool, cond, k = case
    result = greedy_max(objective, pool, k, cond, allow_conditioned_candidates=True)
    assert len(result.selected) == min(k, len(pool))
    members = list(cond)
    prev = value_loops(objective, members)
    for v, gain in zip(result.selected, result.gains):
        if v in cond:
            assert gain == 0.0
            continue
        members.append(v)
        cur = value_loops(objective, members)
        assert abs(gain - (cur - prev)) <= 1e-9
        prev = cur


@PROPERTY_SETTINGS
@given(instances(LAZY_TRANSFORMS))
@_with_edge_cases
def test_lazy_greedy_is_bitwise_naive_greedy(case):
    objective, pool, cond, k = case
    cond = cond.minus(pool)  # lazy greedy takes no conditioned candidates
    naive = greedy_max(objective, pool, k, cond)
    lazy = lazy_greedy_max(objective, pool, k, cond)
    assert tuple(lazy.selected) == tuple(naive.selected)
    assert lazy.gains == naive.gains


@PROPERTY_SETTINGS
@given(instances(TRANSFORMS))
@_with_edge_cases
def test_closed_gain_is_definitional_gain_at_unit_strength(case):
    objective, pool, cond, _ = case
    a = pool.minus(cond)
    closed = conditional_gain_closed(objective, a, cond)
    assert abs(closed - conditional_gain(objective, a, cond)) <= 1e-9
