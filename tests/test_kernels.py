"""Embedding containers, index sets, cosine kernels, and CSV interchange."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submine import (
    EMPTY_SET,
    BACKGROUND_LABEL,
    UNKNOWN_LABEL,
    EmbeddingSet,
    IndexSet,
    SimilarityKernel,
    TRANSFORMS,
    apply_transform,
    cosine_kernel,
    read_embeddings_csv,
    write_embeddings_csv,
)
from submine.kernels import _symmetrize, check_number, cosine_columns, write_text
from conftest import TOY_MATRIX
from helpers import (
    cosine,
    cosine_kernel_matrix_reference,
    mirrored,
    random_embeddings,
    read_embeddings_csv_reference,
    write_embeddings_csv_reference,
)


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
    with pytest.raises(ValueError, match="index 5 out of range for 3 items"):
        IndexSet.of([0, 5, 2, 7]).check_bounds(3)  # the first index out of range


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64, np.int8, np.uint16])
def test_index_set_of_an_integer_array_is_the_set_of_its_list(dtype):
    items = [7, 0, 3, 12]
    want = IndexSet.of(items)
    strided = np.repeat(np.array(items, dtype=dtype), 2)[::2]
    for s in (IndexSet.of(np.array(items, dtype=dtype)), IndexSet.of(strided)):
        assert s == want and hash(s) == hash(want)
        assert all(type(i) is int for i in s.indices)
        assert 3 in s and 4 not in s
    scalars = IndexSet.of(dtype(i) for i in items)  # numpy integer scalars of this width
    assert scalars == want and all(type(i) is int for i in scalars.indices)
    assert IndexSet.of(np.array([], dtype=dtype)) == EMPTY_SET


def test_derived_index_sets_equal_their_checked_construction():
    a = IndexSet.of([9, 2, 5, 0, 7])
    b = IndexSet.of([5, 11, 0, 3])
    derived = {
        a.minus(b): (9, 2, 7),
        a.union(b): (9, 2, 5, 0, 7, 11, 3),
        b.union(a): (5, 11, 0, 3, 9, 2, 7),
        a.sorted(): (0, 2, 5, 7, 9),
        EMPTY_SET.union(EMPTY_SET): (),
        a.minus(a): (),
    }
    for s, indices in derived.items():
        checked = IndexSet(indices)
        assert s == checked and hash(s) == hash(checked)
        assert s.indices == indices and set(indices) == {i for i in range(12) if i in s}
        assert s.as_array().tolist() == list(indices)


def test_index_set_arrays_keep_the_checks():
    with pytest.raises(ValueError, match="^indices must be non-negative$"):
        IndexSet.of(np.array([2, -1, 4]))
    with pytest.raises(ValueError, match="^duplicate indices in set$"):
        IndexSet.of(np.array([2, 1, 2], dtype=np.int32))
    with pytest.raises(ValueError, match="^index 3 out of range for 3 items$"):
        IndexSet.of(np.array([0, 3, 1], dtype=np.uint64)).check_bounds(3)


@pytest.mark.parametrize(
    "items, bad",
    [
        ((1.9, 2.2), "1.9"),
        ((1.0, 1.5), "1.0"),
        ((0, np.float64(2.0)), "2.0"),
        ((True, 2), "True"),
        ((1, np.bool_(False)), "False"),
        (np.array([0.0, 1.0]), "0.0"),
        (np.array([False, True]), "False"),
        (("3",), "'3'"),
    ],
)
def test_index_set_refuses_non_integer_indices(items, bad):
    # A float used to be truncated (1.9 -> 1), and (1.0, 1.5) read as a duplicate.
    with pytest.raises(TypeError, match=f"^indices must be integers, got .*{bad}"):
        IndexSet.of(items)


# ---------------------------------------------------------------------------
# unit rows, transforms, cosine kernels


def test_cosine_columns_are_kernel_columns():
    rng = np.random.default_rng(12)
    e = random_embeddings(rng, 9, 4)
    cols = np.array([1, 4, 5, 8])
    s, unit, norms = cosine_columns(e.data, cols)
    assert s.shape == (9, 4)
    assert np.abs(s - cosine_kernel(e).matrix[:, cols]).max() <= 1e-15
    assert np.array_equal(s[cols, np.arange(4)], np.ones(4))
    assert np.allclose(np.linalg.norm(unit, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(unit, e.data / np.linalg.norm(e.data, axis=1)[:, None])
    assert np.array_equal(norms, np.linalg.norm(e.data, axis=1))
    # Zero rows outside the columns still raise, naming the first.
    data = np.array(e.data)
    data[[6, 2]] = 0.0
    with pytest.raises(ValueError, match=r"^zero-norm row 2$"):
        cosine_columns(data, cols)


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


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("transform", TRANSFORMS)
def test_cosine_kernel_is_the_three_step_formula(transform):
    # 300 rows span several of `_symmetrize`'s row blocks; d = 130 takes
    # numpy's product through more than one BLAS block.  The axes have
    # cosines of -0.0 and 0.0.
    rng = np.random.default_rng(11)
    axes = EmbeddingSet([[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [1.0, 1.0]])
    for e in [random_embeddings(rng, n, d) for n, d in [(1, 3), (7, 5), (300, 130)]] + [axes]:
        kern = cosine_kernel(e, transform=transform)
        assert np.array_equal(_bits(kern.matrix), _bits(cosine_kernel_matrix_reference(e.data, transform)))
        # Nothing checks symmetry after `_symmetrize`: the clip, the
        # transform and the diagonal pin must keep every mirror pair's bits.
        assert mirrored(kern.matrix)
        assert not kern.matrix.flags.writeable and kern.matrix.flags.c_contiguous


def test_symmetrize_averages_a_gram_product_that_is_not_symmetric():
    # A general matrix product of the unit rows with a copy of their
    # transpose, not numpy's symmetric rank-k update, rounds entries (i, j)
    # and (j, i) apart; the in-place average is (G + G.T) / 2 bit for bit.
    rng = np.random.default_rng(12)
    data = rng.normal(size=(300, 130))
    unit = data / np.linalg.norm(data, axis=1)[:, None]
    g = unit @ unit.T.copy()
    assert not mirrored(g)
    m = g.copy()
    _symmetrize(m)
    assert np.array_equal(_bits(m), _bits((g + g.T) / 2.0)) and mirrored(m)
    # The same Gram product through the rest of the formula.
    for transform in TRANSFORMS:
        m = g.copy()
        _symmetrize(m)
        np.clip(m, -1.0, 1.0, out=m)
        apply_transform(m, transform, in_place=True)
        np.fill_diagonal(m, 1.0)
        want = cosine_kernel_matrix_reference(data, transform, gram=lambda u: u @ u.T.copy())
        assert np.array_equal(_bits(m), _bits(want))


def test_mirrored_compares_bits():
    m = np.eye(3)
    assert mirrored(m) and mirrored(np.zeros((0, 0)))
    m[0, 2] = -0.0  # equal to 0.0, but not bit for bit
    assert not mirrored(m)
    m[2, 0] = -0.0
    assert mirrored(m)
    # `_symmetrize` leaves a mirrored matrix as it is, -0.0 pairs included,
    # and makes -0.0 against 0.0, equal but a bit apart, +0.0 at both.
    before = m.copy()
    _symmetrize(m)
    assert np.array_equal(_bits(m), _bits(before))
    m[2, 0] = 0.0
    _symmetrize(m)
    assert _bits(m)[0, 2] == _bits(m)[2, 0] == _bits(np.array(0.0))


def test_kernel_checks_read_every_row_block():
    # The checks read the matrix in row blocks; a fault in the last one,
    # at and past the tolerance, is seen with the constructor's messages.
    rng = np.random.default_rng(13)
    base = cosine_kernel(random_embeddings(rng, 300, 4)).matrix.copy()
    for delta, ok in [(1e-13, True), (3e-12, False)]:
        m = base.copy()
        m[299, 298] += delta
        if ok:  # stored as the average with its mirror image; the caller's array is kept
            kern = SimilarityKernel(m)
            assert np.array_equal(_bits(kern.matrix), _bits((m + m.T) / 2.0))
            assert mirrored(kern.matrix) and m[299, 298] != m[298, 299]
        else:
            with pytest.raises(ValueError, match="kernel matrix is not symmetric"):
                SimilarityKernel(m)
    for bad in (np.nan, np.inf, -np.inf):
        m = base.copy()
        m[299, 299] = bad
        with pytest.raises(ValueError, match="kernel matrix contains non-finite values"):
            SimilarityKernel(m)
    with pytest.raises(ValueError, match=r"transformed kernel entries must lie in \[0, 1\]"):
        SimilarityKernel(base, transform="affine-shift")
    with pytest.raises(ValueError, match="unknown transform 'square'"):
        cosine_kernel(random_embeddings(rng, 3, 2), transform="square")
    with pytest.raises(ValueError, match="unknown transform 'square'"):
        SimilarityKernel(np.eye(2), transform="square")


def test_public_kernel_copies_and_leaves_the_caller_array_alone():
    m = np.asfortranarray(TOY_MATRIX)
    kern = SimilarityKernel(m)
    assert not np.shares_memory(kern.matrix, m) and m.flags.writeable
    assert kern.matrix.flags.c_contiguous and not kern.matrix.flags.writeable
    assert np.array_equal(kern.matrix, TOY_MATRIX)


def _peak(f):
    f()  # numpy's first-call set-up is not the call's
    tracemalloc.start()
    try:
        result = f()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_build_peaks_near_the_kernel_bytes():
    e = random_embeddings(np.random.default_rng(14), 1000, 16)
    for transform in TRANSFORMS:
        kern, peak = _peak(lambda: cosine_kernel(e, transform=transform))
        assert peak <= 1.5 * kern.matrix.nbytes
    _, peak = _peak(lambda: SimilarityKernel(kern.matrix, transform="affine-shift"))
    assert peak <= 1.1 * kern.matrix.nbytes


def test_similarity_kernel_validation():
    with pytest.raises(ValueError, match="square"):
        SimilarityKernel(np.ones((2, 3)))
    lopsided = np.array([[1.0, 0.2], [0.4, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        SimilarityKernel(lopsided)
    # Symmetry is checked last, so another fault's message comes first.
    with pytest.raises(ValueError, match="non-finite"):
        SimilarityKernel(np.array([[np.nan, 0.2], [0.4, 1.0]]))
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        SimilarityKernel(np.array([[1.0, -0.2], [0.4, 1.0]]), transform="clip-at-zero")
    with pytest.raises(ValueError, match="unknown transform"):
        SimilarityKernel(lopsided, transform="square")
    with pytest.raises(ValueError, match="^epsilon must be a "):
        SimilarityKernel(lopsided, epsilon=-1.0)
    with pytest.raises(ValueError):
        SimilarityKernel(np.array([[1.0, -0.5], [-0.5, 1.0]]), transform="clip-at-zero")
    for eps in (-1.0, math.nan, math.inf, True):
        with pytest.raises(ValueError, match="^epsilon must be a "):
            SimilarityKernel(np.eye(2), epsilon=eps)
    kern = SimilarityKernel(TOY_MATRIX, epsilon=1e-4)
    assert kern.n == 3 and kern.epsilon == 1e-4


@pytest.mark.parametrize(
    "value, lo, hi, integer",
    [(3, 0, math.inf, True), (2**64 - 1, 0, 2**64 - 1, True), (0.5, 0, 1, False), (1, 0, 1, False),
     (-1e300, -math.inf, math.inf, False), (np.float64(0.25), 0, 1, False), (10**30, 0, math.inf, False)],
)
def test_check_number_returns_a_number_in_range_as_it_is(value, lo, hi, integer):
    assert check_number("key", value, lo, hi, integer) is value


@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("value", ["a", "1", [1], None, {}, 1j])
def test_check_number_refuses_a_non_number_with_type_error(value, integer):
    kind = "an integer" if integer else "a number"
    with pytest.raises(TypeError, match=f"^key must be {kind}, not {type(value).__name__}$"):
        check_number("key", value, integer=integer)


@pytest.mark.parametrize(
    "value, lo, hi, integer, want",
    [
        (True, 0, 1, False, "a number, not a bool"),
        (False, 0, math.inf, True, "an integer, not a bool"),
        (math.nan, -math.inf, math.inf, False, "a finite number"),
        (math.inf, 0, math.inf, False, "a finite number >= 0"),
        (-math.inf, -math.inf, math.inf, False, "a finite number"),
        (1.5, 0, 1, False, "a finite number in [0, 1]"),
        (-0.1, 0, math.inf, False, "a finite number >= 0"),
        (10**400, 0, math.inf, False, "a finite number >= 0"),
        (2.0, 0, math.inf, True, "an integer >= 0"),
        (2**64, 0, 2**64 - 1, True, f"an integer in [0, {2**64 - 1}]"),
        (math.nan, 1, math.inf, True, "an integer >= 1"),
    ],
)
def test_check_number_refuses_a_bool_non_finite_or_out_of_range_value(value, lo, hi, integer, want):
    with pytest.raises(ValueError) as info:
        check_number("key", value, lo, hi, integer)
    assert str(info.value) == f"key must be {want}, got {value!r}"


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


def test_write_text_keeps_links_and_mode_of_a_longer_file(tmp_path):
    # Written over the old bytes, the file keeps its inode, so a hard link
    # sees the new text, a symlink still points at it and its mode stays.
    target = tmp_path / "target.txt"
    target.write_bytes(b"old bytes, more of them than the new text holds\n")
    target.chmod(0o640)
    os.link(target, tmp_path / "hard.txt")
    (tmp_path / "sym.txt").symlink_to(target)
    write_text(tmp_path / "sym.txt", "new\r\ntext\n")
    assert (tmp_path / "sym.txt").is_symlink()
    assert (tmp_path / "hard.txt").read_bytes() == b"new\r\ntext\n"
    assert target.stat().st_mode & 0o777 == 0o640


def test_csv_read_errors(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("x0,x1\n1.0,2.0\n")
    with pytest.raises(ValueError, match="malformed header"):
        read_embeddings_csv(bad_header)
    with pytest.raises(OSError):
        read_embeddings_csv(tmp_path / "missing.csv")


HEADER = "f0,f1,label,objectness\n"


@pytest.mark.parametrize(
    "text,message",
    [
        # float() reads the first two; numpy's float parser does not.
        (HEADER + "1.0,2.0,1,0.5\n3.0,1_0,1,0.5\n", "f1 cell '1_0' in data row 2 is not a number"),
        (HEADER + "1.0,\u0661,1,0.5\n", "f1 cell '\u0661' in data row 1 is not a number"),
        (HEADER + "1.0,2.0,, 0.5\n", "label cell '' in data row 1 is not a number"),
        (HEADER + '1.0,2.0,1,0.5\n"1.0", \t,1,0.5\n', "f1 cell '' in data row 2 is not a number"),
        (HEADER + "1.0,2.0,1,0.5\n   \n3.0,4.0,1,0.5\n", "row has 1 fields, expected 4"),
        (HEADER + "1.0,2.0,1,0.5\n3.0,4.0,1\n", "row has 3 fields, expected 4"),
        (HEADER + "1.0,2.0,1\n3.0,4.0,1\n", "row has 3 fields, expected 4"),
        (HEADER + "1.0,2.0,1,0.5,7\n", "row has 5 fields, expected 4"),
        ("# a comment\n" + HEADER + "\n  # indented\n", "no data rows"),
        ("# only a comment\n\n", "no data rows"),
        ("", "no data rows"),
    ],
    ids=["underscore", "arabic-digit", "empty-cell", "blank-cell", "whitespace-line",
         "ragged-row", "every-row-short", "long-row", "header-only", "comment-only", "empty"],
)
def test_csv_reader_names_each_fault(tmp_path, text, message):
    path = tmp_path / "scene.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_embeddings_csv(path)
    assert str(err.value) == f"{path}: {message}"


def test_csv_reader_reads_lf_crlf_and_cr_line_ends_alike(tmp_path):
    text = '# c\nf0,f1\n\n1.5,"-0.0"\n  # note, with a comma\n" 2e3\t",3\n'
    reads = []
    for end in ("\n", "\r\n", "\r"):
        path = tmp_path / "scene.csv"
        path.write_bytes(text.replace("\n", end).encode())
        reads.append(read_embeddings_csv(path).data)
    assert reads[0].tolist() == [[1.5, -0.0], [2000.0, 3.0]]
    assert all(_same_arrays(r, reads[0]) for r in reads)


def test_csv_read_peak_is_a_small_multiple_of_the_arrays(tmp_path):
    # A 2000 x 4 scene, the size of the mine-kernel benchmark scene.
    rng = np.random.default_rng(21)
    scene = EmbeddingSet(
        rng.normal(size=(2000, 2)),
        labels=rng.integers(-1, 5, size=2000),
        objectness=rng.uniform(size=2000),
    )
    path = tmp_path / "scene.csv"
    write_embeddings_csv(scene, path, header_comment="seeded scene")
    read_embeddings_csv(path)  # numpy's first-call set-up is not the reader's
    tracemalloc.start()
    try:
        back = read_embeddings_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = back.data.nbytes + back.labels.nbytes + back.objectness.nbytes
    assert peak <= 2.5 * arrays


# ---------------------------------------------------------------------------
# CSV codec against the csv-module reference in helpers.py

CSV_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# Signed zeros, subnormals, extremes and integer-valued floats next to
# whatever hypothesis draws.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
               -1e-300, 1e300, -1e300, 1.7976931348623157e308, 1.0, -3.0,
               2.0**53, 1e16, 123456789.0, 0.1]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
UNIT_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0]), st.floats(0.0, 1.0)
)
LAYOUTS = [(False, False), (True, False), (False, True), (True, True)]


@st.composite
def embedding_sets(draw, has_label, has_obj, label_bound=2**63):
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 4))
    rows = st.lists(FLOATS, min_size=d, max_size=d)
    data = draw(st.lists(rows, min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(-label_bound, label_bound - 1), min_size=n, max_size=n))
    obj = draw(st.lists(UNIT_FLOATS, min_size=n, max_size=n))
    return EmbeddingSet(
        np.array(data),
        labels=labels if has_label else None,
        objectness=obj if has_obj else None,
    )


def _same_arrays(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and np.array_equal(a, b) and np.array_equal(
        np.signbit(a), np.signbit(b)
    )


@pytest.mark.parametrize("comment", [None, "unit-test scene"])
@pytest.mark.parametrize("has_label,has_obj", LAYOUTS)
def test_csv_writer_is_byte_equal_to_reference(tmp_path_factory, has_label, has_obj, comment):
    @CSV_SETTINGS
    @given(embedding_sets(has_label, has_obj))
    def check(scene):
        tmp = tmp_path_factory.mktemp("csv")
        write_embeddings_csv(scene, tmp / "new.csv", header_comment=comment)
        write_embeddings_csv_reference(scene, tmp / "ref.csv", header_comment=comment)
        new = (tmp / "new.csv").read_bytes()
        assert new == (tmp / "ref.csv").read_bytes()
        assert b"np." not in new

    check()


# Cells float() reads and numpy's float parser does not, and cells neither reads.
BAD_TOKENS = ["1_0", "\u0661", "\u0661.5", " ", "abc", "1e", "0x1p3", "1.0.0", "--1"]


@st.composite
def decorated_csv(draw, has_label, has_obj, bad_token=False):
    """A scene's CSV text with quoted and padded cells, CRLF or LF line
    ends, and comment and blank lines between rows.  With bad_token, one
    drawn cell holds a BAD_TOKENS entry instead, and the text comes with
    the message that names it."""
    scene = draw(embedding_sets(has_label, has_obj, label_bound=2**53))
    header = [f"f{j}" for j in range(scene.d)]
    header += ["label"] * has_label + ["objectness"] * has_obj
    body = [[repr(float(v)) for v in row] for row in scene.data]
    for i, row in enumerate(body):
        if has_label:
            row.append(str(int(scene.labels[i])))
        if has_obj:
            row.append(repr(float(scene.objectness[i])))
    if bad_token:
        i, j = draw(st.integers(0, scene.n - 1)), draw(st.integers(0, len(header) - 1))
        body[i][j] = draw(st.sampled_from(BAD_TOKENS))
        message = f"{header[j]} cell {body[i][j].strip()!r} in data row {i + 1} is not a number"
    cell = st.sampled_from(["{}", " {} ", '"{}"', '" {}\t"', "\t{}"])
    lines = []
    for row in [header] + body:
        lines.append(",".join(draw(cell).format(c) for c in row))
        lines.extend(draw(st.lists(st.sampled_from(["# note, with a comma", "  # indented", ""]), max_size=2)))
    if draw(st.booleans()):
        lines.insert(0, "# leading comment")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + end
    return (text, message) if bad_token else text


@pytest.mark.parametrize("has_label,has_obj", LAYOUTS)
def test_csv_reader_matches_reference_on_decorated_files(tmp_path_factory, has_label, has_obj):
    @CSV_SETTINGS
    @given(decorated_csv(has_label, has_obj))
    def check(text):
        path = tmp_path_factory.mktemp("csv") / "scene.csv"
        path.write_bytes(text.encode())
        new, ref = read_embeddings_csv(path), read_embeddings_csv_reference(path)
        assert _same_arrays(new.data, ref.data)
        assert _same_arrays(new.labels, ref.labels)
        assert _same_arrays(new.objectness, ref.objectness)

    check()


@pytest.mark.parametrize("has_label,has_obj", LAYOUTS)
def test_csv_reader_names_a_bad_cell_in_decorated_files(tmp_path_factory, has_label, has_obj):
    @CSV_SETTINGS
    @given(decorated_csv(has_label, has_obj, bad_token=True))
    def check(case):
        text, message = case
        path = tmp_path_factory.mktemp("csv") / "scene.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as err:
            read_embeddings_csv(path)
        assert str(err.value) == f"{path}: {message}"

    check()


def test_csv_reader_truncates_labels_as_the_reference_does(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        "f0,label\n1.0,1.9\n1.0,-0.5\n1.0,-2.5\n1.0,1e3\n1.0,-9223372036854775808\n"
    )
    new, ref = read_embeddings_csv(path), read_embeddings_csv_reference(path)
    assert new.labels.tolist() == ref.labels.tolist() == [1, 0, -2, 1000, -(2**63)]


@pytest.mark.parametrize(
    "cell", ["1e30", "-1e30", "nan", "inf", "-inf", "9223372036854775808"]
)
def test_csv_reader_rejects_labels_outside_int64(tmp_path, cell):
    path = tmp_path / "huge.csv"
    path.write_text(f"f0,label\n1.0,1\n1.0,{cell}\n")
    with pytest.raises(ValueError, match=r"huge\.csv: label .* in data row 2"):
        read_embeddings_csv(path)
