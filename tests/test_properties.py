"""Property-based checks of the gain engine, greedy with and without bound
pruning, the closed-form gains and the losses on small instances.

Embeddings are small integers, so tied kernel entries and duplicate rows are
common; instances also reach d = 1, empty pools, k = 0 and k > |pool|.  Every
per-pick gain is compared with the loop reference in helpers.py, every pick
and gain of a pruned run with the full-round loop there, and every
closed-form gain at nu = 1 with the definitional one.  The losses read
cosines only, so rescaling embedding rows leaves them unchanged, and their
value and gradient are bit for bit those of a whole-array assembly.  The
command line, given any JSON config value, exits with a documented code,
writes one error line when it fails, and echoes only sound config values.
"""

import contextlib
import dataclasses
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from submine import (
    DiscoveryConfig,
    EmbeddingSet,
    Family,
    IndexSet,
    LossConfig,
    SceneSpec,
    SimilarityKernel,
    SubmodularObjective,
    conditional_gain,
    conditional_gain_closed,
    cosine_kernel,
    greedy_max,
    lazy_greedy_max,
    loss_total,
)
from submine import greedy
from submine.cli import main
from submine.kernels import write_text
from helpers import full_round_greedy, value_loops, whole_array_loss_reference

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


@st.composite
def pruning_cases(draw, transforms, signed):
    """(objective, pool, conditioning, k, chunk) with up to 24 items, so that
    pruned rounds span several chunks of `chunk` rows.  Half the kernels are
    quantized: entries on a small grid (negative ones only when signed) tie
    many gains; a log-det diagonal of n keeps the matrix positive definite."""
    n = draw(st.integers(1, 24))
    family = draw(st.sampled_from(sorted(transforms, key=lambda f: f.value)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ground = IndexSet.of(int(i) for i in np.flatnonzero(rng.random(n) < 0.7))
    lam = draw(st.sampled_from((0.0, 0.5, 2.0)))
    if draw(st.booleans()):
        grid = (-0.5, 0.0, 0.5, 1.0) if signed else (0.0, 0.5, 1.0)
        m = np.triu(rng.choice(grid, size=(n, n)))
        m = m + np.triu(m, 1).T
        if family is Family.LOG_DET:
            np.fill_diagonal(m, float(n))
        objective = SubmodularObjective(family, SimilarityKernel(m), ground, lam=lam, epsilon=1e-4)
    else:
        rows = rng.integers(-2, 3, size=(n, draw(st.integers(1, 3))))
        transform = draw(st.sampled_from(transforms[family]))
        objective = make_objective(rows, family, transform, ground, lam)
    pool = IndexSet.of(int(i) for i in rng.permutation(n)[: draw(st.integers(0, n))])
    cond = IndexSet.of(int(i) for i in rng.permutation(n)[: draw(st.integers(0, n))])
    if not draw(st.booleans()):
        cond = IndexSet.of([])
    k = draw(st.integers(0, n + 2))
    chunk = draw(st.sampled_from((1, 2, greedy.PRUNE_CHUNK)))
    return objective, pool, cond, k, chunk


@PROPERTY_SETTINGS
@given(pruning_cases(TRANSFORMS, signed=True))
def test_greedy_max_is_bitwise_full_round_greedy(case):
    # Conditioned candidates are allowed, and facility location prunes even
    # on signed kernels once the conditioning set is committed.
    objective, pool, cond, k, chunk = case
    with mock.patch.object(greedy, "PRUNE_CHUNK", chunk):
        result = greedy_max(objective, pool, k, cond, allow_conditioned_candidates=True)
    assert (tuple(result.selected), result.gains) == full_round_greedy(objective, pool, k, cond)


@PROPERTY_SETTINGS
@given(pruning_cases(LAZY_TRANSFORMS, signed=False))
def test_lazy_greedy_is_bitwise_full_round_greedy(case):
    objective, pool, cond, k, chunk = case
    cond = cond.minus(pool)
    with mock.patch.object(greedy, "PRUNE_CHUNK", chunk):
        result = lazy_greedy_max(objective, pool, k, cond)
    assert (tuple(result.selected), result.gains) == full_round_greedy(objective, pool, k, cond)


@PROPERTY_SETTINGS
@given(instances(TRANSFORMS))
@_with_edge_cases
def test_closed_gain_is_definitional_gain_at_unit_strength(case):
    objective, pool, cond, _ = case
    a = pool.minus(cond)
    closed = conditional_gain_closed(objective, a, cond)
    assert abs(closed - conditional_gain(objective, a, cond)) <= 1e-9


@st.composite
def scaled_batches(draw):
    """(embeddings, classes, u, t, config, scales) with Gaussian rows, so no
    argmax or hinge sits on a tie, and class plus unknown sets no larger than
    d, so log-det's cross term is well defined."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6, 10))
    d = draw(st.integers(4, 6))
    n_classes = draw(st.integers(1, 2))
    size = draw(st.integers(1, 2))
    perm = [int(i) for i in rng.permutation(n)]
    classes = [IndexSet.of(perm[c * size : (c + 1) * size]) for c in range(n_classes)]
    start = n_classes * size
    u = IndexSet.of(perm[start : start + draw(st.integers(1, 2))])
    # T holds every class and U, and perhaps not every other row.
    t = IndexSet.of(perm[: draw(st.integers(start + len(u), n))])
    family = draw(st.sampled_from(sorted(Family, key=lambda f: f.value)))
    config = LossConfig(family=family, eta=0.8, nu=draw(st.sampled_from((0.5, 1.0))))
    scales = np.array(draw(st.lists(st.floats(0.125, 8.0), min_size=n, max_size=n)))
    return EmbeddingSet(rng.normal(size=(n, d))), classes, u, t, config, scales


@PROPERTY_SETTINGS
@given(scaled_batches())
def test_loss_is_invariant_to_row_scale(case):
    embeddings, classes, u, t, config, scales = case
    base = loss_total(embeddings, classes, u, t, config)
    scaled = loss_total(
        EmbeddingSet(embeddings.data * scales[:, None]), classes, u, t, config
    )
    for part in ("l_self", "l_cross", "l_total"):
        assert abs(getattr(scaled, part) - getattr(base, part)) <= 1e-9, part
    # Each gradient row scales by 1 / scale.
    worst = np.abs(scaled.grad * scales[:, None] - base.grad).max()
    assert worst <= 1e-9 * max(1.0, np.abs(base.grad).max())


def _assembly_batch(seed, n, d, n_classes, size, n_u, n_t):
    """Gaussian rows, classes of `size` and U of n_u at random positions, and
    T the first n_t of a permutation, which holds the classes and U."""
    rng = np.random.default_rng(seed)
    perm = [int(i) for i in rng.permutation(n)]
    classes = [IndexSet.of(perm[c * size : (c + 1) * size]) for c in range(n_classes)]
    start = n_classes * size
    u = IndexSet.of(perm[start : start + n_u])
    return EmbeddingSet(rng.normal(size=(n, d))), classes, u, IndexSet.of(perm[:n_t])


@st.composite
def assembly_shapes(draw):
    """Arguments of `_assembly_batch` with |K_c| + |U| <= d, so log-det's
    cross term is well defined, and |C| on either side of d."""
    d = draw(st.integers(2, 72))
    n_classes = draw(st.integers(1, 4))
    size = draw(st.integers(1, min(24, d - 1)))
    n_u = draw(st.integers(1, min(24, d - size)))
    n = draw(st.integers(n_classes * size + n_u, 320))
    n_t = draw(st.integers(n_classes * size + n_u, n))
    return draw(st.integers(0, 2**32 - 1)), n, d, n_classes, size, n_u, n_t


@pytest.mark.parametrize("family", ["fl", "gc", "logdet"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(assembly_shapes())
# |C| = 14 below d; |C| = 16 above d.
@example((5, 40, 32, 2, 4, 6, 40))
@example((6, 60, 8, 3, 4, 4, 52))
# |C| = 84 above d, and several row blocks: the n x d row term (20,480
# entries) and facility location's reads of T x U and T x K_c, each over a
# third of the 16,384-entry block budget.
@example((7, 320, 64, 3, 20, 24, 320))
def test_loss_matches_the_whole_array_assembly_bit_for_bit(family, shape):
    embeddings, classes, u, t = _assembly_batch(*shape)
    config = LossConfig(family=family, eta=0.8)
    got = loss_total(embeddings, classes, u, t, config)
    l_self, l_cross, l_total, grad = whole_array_loss_reference(embeddings, classes, u, t, config)
    assert (got.l_self, got.l_cross, got.l_total) == (l_self, l_cross, l_total)
    assert got.grad.tobytes() == grad.tobytes()


# Any JSON value a config file can hold: small and huge ints, floats from
# tiny to infinite and NaN, strings, lists, null and bools.  Counts stay
# small, so no drawn scene allocates more than a few MB.
CONFIG_VALUES = st.one_of(
    st.integers(-3, 300),
    st.sampled_from([10**30, -(10**30), 1e300, -1e300]),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
    st.none(),
    st.booleans(),
)
# Per command: its config class, its arguments, its --out file and the file
# whose first line echoes the resolved config, if any.
CLI_COMMANDS = {
    "generate": (SceneSpec, ["generate"], "out.csv", "out.csv"),
    "select": (DiscoveryConfig, ["select", "{scene}"], "out.json", "out.roles.csv"),
    "cases": (LossConfig, ["loss", "--cases", "1"], "out.csv", "out.csv"),
    "loss": (LossConfig, ["loss", "{scene}", "--sets", "{sets}"], "out.json", None),
    "gradcheck": (LossConfig, ["gradcheck", "{scene}", "--sets", "{sets}"], "out.json", None),
    "sweep": (DiscoveryConfig, ["sweep", "{scene}", "--sweep", "{sweep}"], "out.csv", "out.csv"),
    "sweep-loss": (LossConfig, ["sweep", "{scene}", "--sweep", "{sweep}"], "out.csv", "out.csv"),
}
# A sweep's parameter and its one value; the drawn config is the sweep
# file's `config` object, which the CSV's comment echoes under "config".
SWEEPS = {"sweep": ("tau_b", 0.3), "sweep-loss": ("eta", 1.0)}
WORDS = {"family", "transform", "mode"}


@st.composite
def cli_configs(draw):
    command = draw(st.sampled_from(sorted(CLI_COMMANDS)))
    keys = [f.name for f in dataclasses.fields(CLI_COMMANDS[command][0])]
    return command, draw(st.dictionaries(st.sampled_from(keys), CONFIG_VALUES, max_size=3))


def _echoed_value_is_sound(key, value) -> bool:
    """A bool only for exclude_background_from_pool, a string (or, for
    transform, null) only for a word-valued key, else finite numbers."""
    if key == "exclude_background_from_pool":
        return isinstance(value, bool)
    if key in WORDS:
        return isinstance(value, str) or (key == "transform" and value is None)
    if isinstance(value, list):
        return all(_echoed_value_is_sound(key, v) for v in value)
    return type(value) in (int, float) and math.isfinite(value)


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A 120-item scene, its --sets file and a directory for outputs."""
    root = tmp_path_factory.mktemp("cli-property")
    (root / "scene.json").write_text(json.dumps({"n_total": 120, "n_known": 6, "n_unknown": 25}))
    (root / "sets.json").write_text(json.dumps({"K": [[0, 1, 2]], "U": [10, 11]}))
    argv = ["generate", "--config", str(root / "scene.json"), "--out", str(root / "scene.csv")]
    assert main(argv + ["--quiet"]) == 0
    return root


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cli_configs())
@example(("cases", {"eta": True}))
@example(("select", {"exclude_background_from_pool": "false"}))
@example(("generate", {"cluster_stddev": True}))
@example(("gradcheck", {"lam": False}))
@example(("sweep", {"tau_b": math.nan}))
@example(("sweep-loss", {"eta": "a"}))
def test_cli_exits_with_a_known_code_and_echoes_only_sound_config_values(cli_inputs, case):
    command, config = case
    root = cli_inputs
    _, args, out, echo = CLI_COMMANDS[command]
    for stale in root.glob("out*"):
        stale.unlink()
    sweep = command in SWEEPS
    if sweep:
        parameter, value = SWEEPS[command]
        spec = {"parameter": parameter, "values": [value], "config": config}
        write_text(root / "sweep.json", json.dumps(spec))
    # Over the old bytes: truncating first waits on ext4's flush (see write_text).
    write_text(root / "cfg.json", json.dumps({} if sweep else config))
    paths = {"scene": root / "scene.csv", "sets": root / "sets.json", "sweep": root / "sweep.json"}
    argv = [a.format(**paths) for a in args]
    argv += ["--config", str(root / "cfg.json"), "--out", str(root / out), "--quiet"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    if code != 0:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    elif echo:
        first = (root / echo).read_text().splitlines()[0]
        assert first.startswith("# ")
        echoed = json.loads(first[2:], parse_constant=_reject_constant)
        if sweep:
            echoed = echoed["config"]
        assert all(_echoed_value_is_sound(k, v) for k, v in echoed.items()), echoed
