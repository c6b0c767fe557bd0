"""Embedding containers, index sets, cosine kernels, and CSV interchange."""

import math

import numpy as np
import pytest

from submine import (
    EMPTY_SET,
    BACKGROUND_LABEL,
    UNKNOWN_LABEL,
    EmbeddingSet,
    IndexSet,
    SimilarityKernel,
    TRANSFORMS,
    apply_transform,
    cosine,
    cosine_kernel,
    read_embeddings_csv,
    row_normalize,
    write_embeddings_csv,
)
from submine.kernels import cosine_columns
from conftest import TOY_MATRIX
from helpers import random_embeddings


# ---------------------------------------------------------------------------
# EmbeddingSet


def test_embedding_set_shape_and_metadata():
    e = EmbeddingSet(
        [[1.0, 0.0], [0.0, 2.0]],
        labels=[1, UNKNOWN_LABEL],
        objectness=[0.5, 1.0],
    )
    assert (e.n, e.d) == (2, 2)
    assert e.data.dtype == np.float64
    assert e.labels.tolist() == [1, 0]
    assert e.objectness.tolist() == [0.5, 1.0]
    assert BACKGROUND_LABEL == -1


def test_embedding_set_copies_input_and_is_read_only():
    raw = np.ones((3, 2))
    e = EmbeddingSet(raw)
    raw[0, 0] = 99.0
    assert e.data[0, 0] == 1.0
    with pytest.raises(ValueError):
        e.data[0, 0] = 5.0


def test_embedding_set_validation():
    with pytest.raises(ValueError, match="2-d"):
        EmbeddingSet(np.ones(4))
    with pytest.raises(ValueError, match="non-finite"):
        EmbeddingSet([[1.0, np.nan]])
    with pytest.raises(ValueError, match="labels length"):
        EmbeddingSet(np.ones((2, 2)), labels=[1])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        EmbeddingSet(np.ones((1, 2)), objectness=[1.5])


# ---------------------------------------------------------------------------
# IndexSet


def test_index_set_preserves_insertion_order():
    s = IndexSet.of([4, 1, 3])
    assert tuple(s) == (4, 1, 3)
    assert len(s) == 3
    assert 3 in s and 0 not in s
    assert s.as_array().tolist() == [4, 1, 3]
    assert tuple(s.sorted()) == (1, 3, 4)


def test_index_set_rejects_duplicates_and_negatives():
    with pytest.raises(ValueError, match="duplicate"):
        IndexSet.of([1, 2, 1])
    with pytest.raises(ValueError, match="non-negative"):
        IndexSet.of([-1])


def test_index_set_algebra():
    a = IndexSet.of([2, 0])
    b = IndexSet.of([0, 5])
    assert tuple(a.union(b)) == (2, 0, 5)
    assert tuple(a.minus(b)) == (2,)
    assert a.intersects(b)
    assert not a.intersects(IndexSet.of([7]))
    assert len(EMPTY_SET) == 0
    assert tuple(EMPTY_SET.union(a)) == (2, 0)


def test_index_set_bounds_check():
    IndexSet.of([0, 2]).check_bounds(3)
    with pytest.raises(ValueError, match="index 3 out of range for 3 items"):
        IndexSet.of([3]).check_bounds(3)


# ---------------------------------------------------------------------------
# normalization, cosine, transforms


def test_row_normalize_unit_norms():
    rng = np.random.default_rng(7)
    e = random_embeddings(rng, 6, 4)
    unit = row_normalize(e)
    assert np.allclose(np.linalg.norm(unit.data, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="zero-norm row 1"):
        row_normalize(EmbeddingSet([[1.0, 0.0], [0.0, 0.0]]))
    # Several zero rows: the first one is named.
    with pytest.raises(ValueError, match=r"^zero-norm row 1$"):
        row_normalize(EmbeddingSet([[1.0, 0.0], [0.0, 0.0], [2.0, 1.0], [0.0, 0.0]]))


def test_cosine_columns_are_kernel_columns():
    rng = np.random.default_rng(12)
    e = random_embeddings(rng, 9, 4)
    cols = np.array([1, 4, 5, 8])
    s, unit, norms = cosine_columns(e.data, cols)
    assert s.shape == (9, 4)
    assert np.abs(s - cosine_kernel(e).matrix[:, cols]).max() <= 1e-15
    assert np.array_equal(s[cols, np.arange(4)], np.ones(4))
    assert np.array_equal(unit, row_normalize(e).data)
    assert np.array_equal(norms, np.linalg.norm(e.data, axis=1))
    # Zero rows outside the columns still raise, naming the first.
    data = np.array(e.data)
    data[[6, 2]] = 0.0
    with pytest.raises(ValueError, match=r"^zero-norm row 2$"):
        cosine_columns(data, cols)


def test_cosine_matches_manual_formula():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        want = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert cosine(a, b) == pytest.approx(want, abs=1e-12)
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError, match="zero-norm"):
        cosine([0.0, 0.0], [1.0, 0.0])


def test_apply_transform_endpoints():
    pts = np.array([-1.0, -0.25, 0.0, 0.5, 1.0])
    assert np.array_equal(apply_transform(pts, "raw-cosine"), pts)
    assert apply_transform(pts, "clip-at-zero").tolist() == [0.0, 0.0, 0.0, 0.5, 1.0]
    assert apply_transform(pts, "affine-shift").tolist() == [0.0, 0.375, 0.5, 0.75, 1.0]
    with pytest.raises(ValueError, match="unknown transform 'square'"):
        apply_transform(pts, "square")


def test_cosine_kernel_matches_pairwise_cosine():
    rng = np.random.default_rng(3)
    e = random_embeddings(rng, 7, 5)
    for transform in TRANSFORMS:
        kern = cosine_kernel(e, transform=transform)
        assert kern.transform == transform
        assert np.array_equal(kern.matrix, kern.matrix.T)
        for i in range(e.n):
            assert kern.matrix[i, i] == apply_transform(1.0, transform)
            for j in range(e.n):
                raw = cosine(e.data[i], e.data[j])
                want = float(apply_transform(np.array(raw), transform))
                assert kern.matrix[i, j] == pytest.approx(want, abs=1e-12)


def test_similarity_kernel_validation():
    with pytest.raises(ValueError, match="square"):
        SimilarityKernel(np.ones((2, 3)))
    lopsided = np.array([[1.0, 0.2], [0.4, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        SimilarityKernel(lopsided)
    with pytest.raises(ValueError):
        SimilarityKernel(np.array([[1.0, -0.5], [-0.5, 1.0]]), transform="clip-at-zero")
    with pytest.raises(ValueError):
        SimilarityKernel(np.eye(2), epsilon=-1.0)
    kern = SimilarityKernel(TOY_MATRIX, epsilon=1e-4)
    assert kern.n == 3 and kern.epsilon == 1e-4


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(19)
    e = EmbeddingSet(
        rng.normal(size=(5, 3)),
        labels=rng.integers(-1, 3, size=5),
        objectness=rng.uniform(size=5),
    )
    path = tmp_path / "items.csv"
    write_embeddings_csv(e, path, header_comment="unit-test scene")
    text = path.read_text()
    assert text.startswith("# unit-test scene\n")
    assert text.splitlines()[1] == "f0,f1,f2,label,objectness"
    back = read_embeddings_csv(path)
    assert np.array_equal(back.data, e.data)
    assert np.array_equal(back.labels, e.labels)
    assert np.array_equal(back.objectness, e.objectness)


def test_csv_round_trip_without_metadata(tmp_path):
    e = EmbeddingSet([[math.pi, -1.5]])
    path = tmp_path / "bare.csv"
    write_embeddings_csv(e, path)
    back = read_embeddings_csv(path)
    assert back.labels is None and back.objectness is None
    assert np.array_equal(back.data, e.data)


def test_csv_read_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# only a comment\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_embeddings_csv(empty)
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("x0,x1\n1.0,2.0\n")
    with pytest.raises(ValueError, match="malformed header"):
        read_embeddings_csv(bad_header)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("f0,f1\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="expected 2"):
        read_embeddings_csv(ragged)
    with pytest.raises(OSError):
        read_embeddings_csv(tmp_path / "missing.csv")
