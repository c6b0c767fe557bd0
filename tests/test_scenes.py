"""Synthetic scene generation: layout, determinism, stream independence."""

import math
import re
import warnings

import numpy as np
import pytest

from submine import (
    BACKGROUND_LABEL,
    UNKNOWN_LABEL,
    SceneSpec,
    gen_scene,
    gen_separation_cases,
)
from submine.kernels import MAX_KERNEL_BYTES
from helpers import cosine


def test_default_scene_composition():
    spec = SceneSpec()
    scene = gen_scene(spec)
    assert (scene.n, scene.d) == (500, 2)
    labels = scene.labels
    assert int((labels == 1).sum()) == 10
    assert int((labels == UNKNOWN_LABEL).sum()) == 60
    assert int((labels == BACKGROUND_LABEL).sum()) == 430
    assert spec.n_classes == 1
    assert spec.n_background == 430
    # Blocks are laid out knowns, then unknowns, then background.
    assert labels[:10].tolist() == [1] * 10
    assert labels[10:70].tolist() == [0] * 60
    assert labels[70:].tolist() == [-1] * 430


def test_objectness_bands_per_role():
    spec = SceneSpec()
    scene = gen_scene(spec)
    obj = scene.objectness
    lab = scene.labels
    for role, (lo, hi) in (
        (1, spec.objectness_known),
        (UNKNOWN_LABEL, spec.objectness_unknown),
        (BACKGROUND_LABEL, spec.objectness_background),
    ):
        vals = obj[lab == role]
        assert vals.min() >= lo and vals.max() <= hi


def test_scene_is_deterministic():
    a = gen_scene(SceneSpec(seed=5))
    b = gen_scene(SceneSpec(seed=5))
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.objectness, b.objectness)
    c = gen_scene(SceneSpec(seed=6))
    assert not np.array_equal(a.data, c.data)


def test_seeds_above_two_to_the_63_draw_their_own_scenes():
    # A seed is one u64 key word: seeds that differ in the low bit only draw
    # different scenes, and the largest seed draws without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b, top = (gen_scene(SceneSpec(seed=s)) for s in (2**63, 2**63 + 1, 2**64 - 1))
    assert not np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, top.data)


@pytest.mark.parametrize(
    "key, value",
    [("seed", 2.5), ("seed", 2**64), ("seed", -1), ("seed", math.nan), ("d", 0), ("d", 2.0),
     ("n_total", 500.5), ("n_known", 10.0), ("n_known", 0), ("n_known", True), ("n_unknown", -1),
     ("n_unknown", math.inf)],
)
def test_scene_spec_refuses_a_seed_or_count_that_is_not_an_integer_in_range(key, value):
    want = f"^{key} must be an integer.*, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=want):
        SceneSpec(**{key: value})
    # Not a number at all: a TypeError, which the CLI names by its key.
    with pytest.raises(TypeError, match="must be an integer, not str"):
        SceneSpec(**{key: "a"})


@pytest.mark.parametrize(
    "key, value, error, want",
    [
        ("cluster_stddev", True, ValueError, "cluster_stddev must be a number, not a bool"),
        ("background_stddev", math.nan, ValueError, "background_stddev must be a finite number >= 0"),
        ("cluster_means", 5, TypeError, "cluster_means must be a list, not int"),
        ("cluster_means", ((6.5, 0.0), (2.05, math.inf)), ValueError,
         r"cluster_means\[1\]\[1\] must be a finite number"),
        ("cluster_means", ((6.5, "0"), (2.05, 5.64)), TypeError,
         r"cluster_means\[0\]\[1\] must be a number, not str"),
        ("background_mean", (True, 0.0), ValueError, r"background_mean\[0\] must be a number, not a bool"),
        ("objectness_known", (0.5, math.nan), ValueError,
         r"objectness_known\[1\] must be a finite number in \[0, 1\]"),
        ("objectness_unknown", (0.2, 0.4, 0.6), ValueError, "objectness_unknown must be a band"),
        ("objectness_background", None, TypeError, "objectness_background must be a list, not NoneType"),
    ],
)
def test_scene_spec_names_the_key_of_a_refused_mean_stddev_or_band(key, value, error, want):
    with pytest.raises(error, match=f"^{want}"):
        SceneSpec(**{key: value})


def test_scene_spec_refuses_embeddings_above_the_byte_budget():
    # Only specs are built here: a refused scene allocates nothing, and the
    # largest one accepted is never drawn.
    def spec(n_total, d):
        return SceneSpec(n_total=n_total, d=d, cluster_means=((0.0,) * d,) * 2,
                         background_mean=(0.0,) * d)

    top = MAX_KERNEL_BYTES // 8
    assert spec(top, 1).n_total == top
    for n_total, d in ((top + 1, 1), (top // 2 + 1, 2), (10**15, 2)):
        nbytes = 8 * n_total * d
        want = (f"^n_total x d = {n_total} x {d} embeddings need {nbytes:,} bytes, "
                f"above the {MAX_KERNEL_BYTES:,}-byte budget$")
        with pytest.raises(ValueError, match=want):
            spec(n_total, d)


@pytest.mark.parametrize("seed", [-1, 2**64, 2.5])
def test_separation_cases_refuse_a_seed_outside_u64(seed):
    want = rf"^seed must be an integer in \[0, {2**64 - 1}\], got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=want):
        gen_separation_cases(seed=seed)


def test_background_knobs_do_not_move_cluster_draws():
    base = gen_scene(SceneSpec())
    moved = gen_scene(SceneSpec(background_mean=(9.0, 9.0), background_stddev=0.1))
    # Knowns and unknowns come from their own streams, so they are bitwise
    # unchanged when only the background is reconfigured.
    assert np.array_equal(base.data[:70], moved.data[:70])
    assert np.array_equal(base.objectness[:70], moved.objectness[:70])
    assert not np.array_equal(base.data[70:], moved.data[70:])


def test_adding_a_known_class_keeps_other_streams():
    base = gen_scene(SceneSpec())
    spec3 = SceneSpec(cluster_means=((6.5, 0.0), (-6.0, 2.0), (2.05, 5.64)))
    wider = gen_scene(spec3)
    assert spec3.n_classes == 2
    assert wider.labels[:10].tolist() == [1] * 5 + [2] * 5
    # Unknown and background blocks sit at the same offsets and reuse their
    # dedicated streams, so the extra class cannot perturb them.
    assert np.array_equal(base.data[10:], wider.data[10:])
    assert np.array_equal(base.objectness[10:], wider.objectness[10:])


def test_scene_spec_validation():
    with pytest.raises(ValueError, match="seed"):
        SceneSpec(seed=-1)
    with pytest.raises(ValueError, match="at least one known center"):
        SceneSpec(cluster_means=((1.0, 2.0),))
    with pytest.raises(ValueError, match="does not match d=2"):
        SceneSpec(cluster_means=((1.0, 2.0, 3.0), (0.0, 0.0)))
    with pytest.raises(ValueError, match="does not match d=2"):
        SceneSpec(background_mean=(0.0,))
    with pytest.raises(ValueError, match="n_total smaller"):
        SceneSpec(n_total=50, n_known=40, n_unknown=40)
    with pytest.raises(ValueError, match=r"^objectness_known must be a band \[lo, hi\]"):
        SceneSpec(objectness_known=(0.9, 0.2))
    with pytest.raises(ValueError, match="stddev"):
        SceneSpec(cluster_stddev=-1.0)


def test_higher_dimensional_scene():
    spec = SceneSpec(
        d=5,
        cluster_means=((1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 0.0)),
        background_mean=(0.0,) * 5,
        n_total=40,
        n_known=4,
        n_unknown=8,
    )
    scene = gen_scene(spec)
    assert (scene.n, scene.d) == (40, 5)
    assert spec.n_background == 28


# ---------------------------------------------------------------------------
# separation cases


def test_separation_case_geometry():
    cases = gen_separation_cases()
    assert len(cases) == 3
    angles = [math.degrees(c.angle) for c in cases]
    assert angles == pytest.approx([25.0, 65.0, 105.0], abs=1e-9)
    for case in cases:
        assert case.embeddings.d == 128
        assert case.embeddings.n == 110
        assert tuple(case.known) == tuple(range(10))
        assert tuple(case.unknown) == tuple(range(10, 110))
        assert len(case.all_items) == 110
        assert case.embeddings.labels[:10].tolist() == [1] * 10
        assert case.embeddings.labels[10:].tolist() == [0] * 100


def test_separation_shares_noise_across_cases():
    cases = gen_separation_cases(seed=3)
    # The known cluster is identical bit for bit; the unknown cluster reuses
    # one noise draw around a center that moves along the circle.
    assert np.array_equal(cases[0].embeddings.data[:10], cases[2].embeddings.data[:10])
    radius = 6.0
    deviations = []
    for case in cases:
        center = np.zeros(128)
        center[0] = radius * math.cos(case.angle)
        center[1] = radius * math.sin(case.angle)
        deviations.append(case.embeddings.data[10:] - center)
    assert np.allclose(deviations[0], deviations[1], atol=1e-12)
    assert np.allclose(deviations[0], deviations[2], atol=1e-12)


def test_separation_cases_grow_apart():
    cases = gen_separation_cases()
    sims = []
    for case in cases:
        data = case.embeddings.data
        vals = [
            cosine(data[i], data[j]) for i in case.known for j in list(case.unknown)[:20]
        ]
        sims.append(float(np.mean(vals)))
    assert sims[0] > sims[1] > sims[2]


def test_separation_cases_deterministic_and_seeded():
    a = gen_separation_cases(seed=9)
    b = gen_separation_cases(seed=9)
    c = gen_separation_cases(seed=10)
    assert np.array_equal(a[1].embeddings.data, b[1].embeddings.data)
    assert not np.array_equal(a[1].embeddings.data, c[1].embeddings.data)


def test_separation_validation():
    with pytest.raises(ValueError, match="at least one case"):
        gen_separation_cases(n_cases=0)
    with pytest.raises(ValueError, match="inside"):
        gen_separation_cases(n_cases=10)
