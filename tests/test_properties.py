"""Property-based checks of the gain engine, greedy with and without bound
pruning, the closed-form gains and the losses on small instances.

Embeddings are small integers, so tied kernel entries and duplicate rows are
common; instances also reach d = 1, empty pools, k = 0 and k > |pool|.  Every
per-pick gain is compared with the loop reference in helpers.py, every pick
and gain of a pruned run with the full-round loop there, and every
closed-form gain at nu = 1 with the definitional one.  The losses read
cosines only, so rescaling embedding rows leaves them unchanged, and their
value and gradient are bit for bit those of a whole-array assembly, and
the gradient audit's report, or its error, is bit for bit that of one batch
per probed row.  The command line, given any JSON config value, exits with
a documented code, writes one error line when it fails, and echoes only
sound config values.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
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
    finite_difference_check,
    greedy_max,
    loss_total,
)
from submine import greedy
from submine.cli import main
from submine.kernels import write_text
from submine.losses import FD_EXHAUSTIVE_LIMIT, FD_STEP
from helpers import (
    full_round_greedy,
    row_batch_audit_reference,
    separate_reads_loss_reference,
    value_loops,
    whole_array_loss_reference,
)

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
@given(instances(TRANSFORMS))
@_with_edge_cases
def test_lazy_greedy_is_bitwise_naive_greedy(case):
    objective, pool, cond, k = case
    cond = cond.minus(pool)  # by default greedy takes no conditioned candidates
    result = greedy_max(objective, pool, k, cond)
    assert (tuple(result.selected), result.gains) == full_round_greedy(objective, pool, k, cond)


@st.composite
def pruning_cases(draw):
    """(objective, pool, conditioning, k, chunk) with up to 24 items, so that
    pruned rounds span several chunks of `chunk` rows.  Half the kernels are
    quantized: entries on a small signed grid tie many gains; a log-det
    diagonal of n keeps the matrix positive definite."""
    n = draw(st.integers(1, 24))
    family = draw(st.sampled_from(sorted(TRANSFORMS, key=lambda f: f.value)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ground = IndexSet.of(int(i) for i in np.flatnonzero(rng.random(n) < 0.7))
    lam = draw(st.sampled_from((0.0, 0.5, 2.0)))
    if draw(st.booleans()):
        m = np.triu(rng.choice((-0.5, 0.0, 0.5, 1.0), size=(n, n)))
        m = m + np.triu(m, 1).T
        if family is Family.LOG_DET:
            np.fill_diagonal(m, float(n))
        objective = SubmodularObjective(family, SimilarityKernel(m), ground, lam=lam, epsilon=1e-4)
    else:
        rows = rng.integers(-2, 3, size=(n, draw(st.integers(1, 3))))
        transform = draw(st.sampled_from(TRANSFORMS[family]))
        objective = make_objective(rows, family, transform, ground, lam)
    pool = IndexSet.of(int(i) for i in rng.permutation(n)[: draw(st.integers(0, n))])
    cond = IndexSet.of(int(i) for i in rng.permutation(n)[: draw(st.integers(0, n))])
    if not draw(st.booleans()):
        cond = IndexSet.of([])
    k = draw(st.integers(0, n + 2))
    chunk = draw(st.sampled_from((1, 2, greedy.PRUNE_CHUNK)))
    return objective, pool, cond, k, chunk


@PROPERTY_SETTINGS
@given(pruning_cases(), st.booleans())
def test_greedy_max_is_bitwise_full_round_greedy(case, allow_conditioned):
    # Facility location prunes even on signed kernels once a round was
    # scored under a commit.  Without conditioned candidates, the
    # conditioning set drops the pool's items.
    objective, pool, cond, k, chunk = case
    if not allow_conditioned:
        cond = cond.minus(pool)
    with mock.patch.object(greedy, "PRUNE_CHUNK", chunk):
        result = greedy_max(
            objective, pool, k, cond, allow_conditioned_candidates=allow_conditioned)
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


# (lam, nu): lam = 0 makes graph cut's redundancy adjoints adds of -0.0,
# nu = 0 its coupling adjoints.
KNOBS = [(0.5, 1.0), (0.0, 1.0), (0.5, 0.5), (0.5, 0.0), (0.0, 0.5)]


@pytest.mark.parametrize("family", ["fl", "gc", "logdet"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(shape=assembly_shapes(), knobs=st.sampled_from(KNOBS))
# |C| = 14 below d; |C| = 16 above d.
@example(shape=(5, 40, 32, 2, 4, 6, 40), knobs=(0.5, 1.0))
@example(shape=(6, 60, 8, 3, 4, 4, 52), knobs=(0.5, 1.0))
# |C| = 84 above d, and several row blocks: the n x d row term (20,480
# entries) and facility location's reads of T x U and T x K_c, each over a
# third of the 16,384-entry block budget.
@example(shape=(7, 320, 64, 3, 20, 24, 320), knobs=(0.5, 1.0))
@example(shape=(5, 40, 32, 2, 4, 6, 40), knobs=(0.0, 1.0))
@example(shape=(6, 60, 8, 3, 4, 4, 52), knobs=(0.5, 0.0))
@example(shape=(7, 320, 64, 3, 20, 24, 320), knobs=(0.5, 0.5))
# Four classes interleaved with U by position, and T holding 40 of 90 rows.
# Classes of three make weights of 1/3, so the order of the self and cross
# adjoint adds shows in the bits.
@example(shape=(8, 90, 16, 4, 3, 5, 40), knobs=(0.0, 0.5))
@example(shape=(8, 90, 16, 4, 3, 5, 40), knobs=(0.5, 0.5))
def test_loss_matches_the_whole_array_assembly_bit_for_bit(family, shape, knobs):
    embeddings, classes, u, t = _assembly_batch(*shape)
    lam, nu = knobs
    config = LossConfig(family=family, eta=0.8, lam=lam, nu=nu)
    got = loss_total(embeddings, classes, u, t, config)
    l_self, l_cross, l_total, grad = whole_array_loss_reference(embeddings, classes, u, t, config)
    assert (got.l_self, got.l_cross, got.l_total) == (l_self, l_cross, l_total)
    assert got.grad.tobytes() == grad.tobytes()


@st.composite
def fl_layouts(draw):
    """(embeddings, classes, u, t, config) of facility location, with each
    item's role drawn on its own: outside T, in T alone, in U, or in one of
    up to four classes.  Classes so interleave with each other and with U,
    T has holes, and a class may be a single item; in about half the draws
    T is C.  Half the draws have small-integer rows, whose maxima tie."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 1, 40))
    t_is_c = draw(st.booleans())
    # -1: outside T; 0: in T - C; 1: in U; 2 + c: in class c.
    roles = draw(st.lists(st.sampled_from([-1] + [0] * (not t_is_c) + list(range(1, k + 2))),
                          min_size=n, max_size=n))
    for role, item in enumerate(draw(st.permutations(range(n)))[: k + 1], start=1):
        roles[item] = role  # U and every class hold at least one item
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    if draw(st.booleans()):
        data = rng.integers(-2, 3, size=(n, d)).astype(float)
        data[~data.any(axis=1), 0] = 1.0
    else:
        data = rng.normal(size=(n, d))
    roles = np.array(roles)
    classes = [IndexSet.of(np.flatnonzero(roles == 2 + c).tolist()) for c in range(k)]
    config = LossConfig(family="fl", eta=draw(st.sampled_from([0.5, 1.0])),
                        nu=draw(st.sampled_from([0.5, 1.0])))
    return (EmbeddingSet(data), classes, IndexSet.of(np.flatnonzero(roles == 1).tolist()),
            IndexSet.of(np.flatnonzero(roles >= 0).tolist()), config)


@PROPERTY_SETTINGS
@given(fl_layouts())
# Interleaved classes, U between them and T with holes; a singleton class.
@example((EmbeddingSet(np.arange(1.0, 19.0).reshape(9, 2) % 5 - 2),
          [IndexSet.of([1, 4]), IndexSet.of([2, 6]), IndexSet.of([8])], IndexSet.of([3, 7]),
          IndexSet.of([1, 2, 3, 4, 6, 7, 8]), LossConfig(family="fl", nu=0.5)))
def test_fl_loss_with_one_read_per_class_is_bitwise_two_reads(case):
    # A plain evaluation reads each class's maxima over T once, for both
    # terms; reading them per term must give the same bits.
    embeddings, classes, u, t, config = case
    got = loss_total(embeddings, classes, u, t, config)
    l_self, l_cross, l_total, grad = separate_reads_loss_reference(embeddings, classes, u, t, config)
    assert (got.l_self, got.l_cross, got.l_total) == (l_self, l_cross, l_total)
    assert got.grad.tobytes() == grad.tobytes()


@st.composite
def audit_batches(draw, family):
    """(embeddings, classes, u, t, config, seed) of the family with
    small-integer rows, so argmax, hinge and kernel-entry ties are common
    and log-det blocks are often singular.  A quarter of the draws have n·d
    above the exhaustive limit, so the audit samples its coordinates; T is
    a strict subset of the items in about half.  One row may be ±h along
    one axis and zero, or too small to square, elsewhere, so a probe there
    has zero norm."""
    sampled = draw(st.integers(0, 3)) == 0
    n_classes = draw(st.integers(1, 2))
    size = draw(st.integers(1, 3))
    n_u = draw(st.integers(1, 3))
    need = n_classes * size + n_u
    if sampled:
        d = draw(st.integers(60, 90))
        n = draw(st.integers(FD_EXHAUSTIVE_LIMIT // d + 1, 90))
    else:
        d = draw(st.integers(1, 8))
        n = draw(st.integers(need, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.integers(-2, 3, size=(n, d)).astype(float)
    data[~data.any(axis=1), 0] = 1.0
    perm = [int(i) for i in rng.permutation(n)]
    classes = [IndexSet.of(perm[c * size : (c + 1) * size]) for c in range(n_classes)]
    u = IndexSet.of(perm[n_classes * size : need])
    n_t = draw(st.integers(need, n - 1)) if need < n and draw(st.booleans()) else n
    if draw(st.integers(0, 9)) == 5:
        row = draw(st.integers(0, n - 1))
        data[row] = 0.0
        # Perhaps with an entry whose square underflows to 0.
        data[row, draw(st.integers(0, d - 1))] = draw(st.sampled_from((0.0, 1e-170)))
        data[row, draw(st.integers(0, d - 1))] = draw(st.sampled_from((FD_STEP, -FD_STEP)))
    config = LossConfig(
        family=family,
        eta=draw(st.sampled_from((-0.5, 0.5, 1.0, 2.0))),
        lam=draw(st.sampled_from((0.0, 0.5))),
        nu=draw(st.sampled_from((0.0, 0.5, 1.0))),
    )
    seed = draw(st.integers(0, 2**64 - 1))
    return EmbeddingSet(data), classes, u, IndexSet.of(perm[:n_t]), config, seed


def _report_or_error(audit, *args):
    """The audit's report with each value as its repr, or its error."""
    try:
        return {key: repr(value) for key, value in audit(*args).items()}
    except (ValueError, RuntimeWarning) as e:
        return f"{type(e).__name__}: {e}"


@pytest.mark.parametrize("family", ["fl", "gc", "logdet"])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_audit_report_is_bitwise_the_one_batch_per_row_loop(family, data):
    embeddings, classes, u, t, config, seed = data.draw(audit_batches(family))
    args = (embeddings, classes, u, t, config, FD_STEP, seed)
    assert _report_or_error(finite_difference_check, *args) == _report_or_error(
        row_batch_audit_reference, *args
    )


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
        return
    # Strict JSON: a bare NaN or Infinity token in an output fails to parse.
    for path in root.glob("out*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)
    if echo:
        first = (root / echo).read_text().splitlines()[0]
        assert first.startswith("# ")
        echoed = json.loads(first[2:], parse_constant=_reject_constant)
        if sweep:
            echoed = echoed["config"]
        assert all(_echoed_value_is_sound(k, v) for k, v in echoed.items()), echoed


# Bytes a mutation writes: a digit, which often leaves the file valid, a
# byte a CSV or JSON parser reads, or any byte, a third of the time each.
MUTATION_BYTES = st.one_of(
    st.sampled_from(list(b"0123456789")),
    st.sampled_from(list(b'.-+eE,#"\n\r []{}:nN')),
    st.integers(0, 255),
)
MUTATED_COMMANDS = {"scene": ("select", "loss", "gradcheck"), "sets": ("loss", "gradcheck")}


@st.composite
def byte_mutations(draw):
    """A command, the input it reads that is mutated (the scene CSV or the
    --sets file), and up to three edits of that file's bytes: each replaces,
    inserts or deletes one byte at a drawn position."""
    target = draw(st.sampled_from(sorted(MUTATED_COMMANDS)))
    command = draw(st.sampled_from(MUTATED_COMMANDS[target]))
    edit = st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 2**16), MUTATION_BYTES)
    return command, target, draw(st.lists(edit, min_size=1, max_size=3))


def _mutated(data: bytes, edits) -> bytes:
    b = bytearray(data)
    for kind, at, value in edits:
        at %= len(b) + 1
        if kind == "insert":
            b.insert(at, value)
        elif at < len(b):
            if kind == "replace":
                b[at] = value
            else:
                del b[at]
    return bytes(b)


def _write_bytes(path, data: bytes) -> None:
    """data over the old bytes of path, cut to length, as `write_text` writes text."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        fh.truncate()


@pytest.fixture(scope="module")
def mutation_inputs(tmp_path_factory):
    """A 30-item scene and a --sets file, as bytes, and a directory for runs."""
    root = tmp_path_factory.mktemp("cli-mutation")
    (root / "scene.json").write_text(json.dumps({"n_total": 30, "n_known": 4, "n_unknown": 8}))
    argv = ["generate", "--config", str(root / "scene.json"), "--out", str(root / "clean.csv")]
    assert main(argv + ["--quiet"]) == 0
    # Classes interleave with U, and T has holes.
    sets = json.dumps({"K": [[0, 1, 2], [5, 7]], "U": [3, 4, 10], "T": list(range(13)) + [15, 17, 19]})
    return root, {"scene": (root / "clean.csv").read_bytes(), "sets": sets.encode()}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(byte_mutations())
@example(("loss", "sets", [("replace", 8, ord("N"))]))
@example(("select", "scene", [("insert", 0, 0xFF)]))
@example(("gradcheck", "scene", [("replace", 40, ord("\r"))]))
def test_cli_on_mutated_input_bytes_exits_with_a_known_code(mutation_inputs, case):
    command, target, edits = case
    root, clean = mutation_inputs
    for name in ("scene", "sets"):
        _write_bytes(root / f"{name}.in", _mutated(clean[name], edits) if name == target else clean[name])
    for stale in root.glob("out*"):
        stale.unlink()
    argv = [command, str(root / "scene.in"), "--out", str(root / "out.json"), "--quiet"]
    if command != "select":
        argv += ["--sets", str(root / "sets.in")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    if code != 0:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        return
    # Strict JSON: a bare NaN or Infinity token in an output fails to parse.
    for path in root.glob("out*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)
