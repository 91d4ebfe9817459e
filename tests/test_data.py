"""Dataset generation, labeling, CSV round trips, and the in-place writer."""

import os
import stat

import numpy as np
import pytest

from reupsim.data import (CircleSpec, DEFAULT_BOUNDARY, TEST_SIZE, TRAIN_SIZE, Dataset,
                          canonical_split, generate, generate_splits, load, rewrite, save)
from reupsim.seeding import derive_seed


def test_default_boundary_splits_the_box_evenly():
    # radius sqrt(2/pi) makes the circle cover half the area of [-1, 1]^2
    ds = generate(4000, seed=1)
    assert abs(ds.y.mean() - 0.5) < 0.05


def test_classify_is_strict_inside():
    spec = CircleSpec()
    on_boundary = np.array([[spec.radius, 0.0]])
    assert spec.classify(on_boundary)[0] == 0
    assert spec.classify(np.array([[0.0, 0.0]]))[0] == 1
    assert spec.classify(np.array([[1.0, 1.0]]))[0] == 0


def test_generate_is_deterministic():
    a = generate(50, seed=9)
    b = generate(50, seed=9)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    c = generate(50, seed=10)
    assert not np.array_equal(a.x, c.x)


def test_labels_must_match_the_boundary():
    ds = generate(10, seed=0)
    bad = ds.y.copy()
    bad[3] = 1 - bad[3]
    with pytest.raises(ValueError, match="point 3"):
        Dataset(ds.x, bad)


def test_subset_keeps_alignment():
    ds = generate(20, seed=2)
    idx = np.array([5, 1, 17])
    sub = ds.subset(idx)
    assert len(sub) == 3
    np.testing.assert_array_equal(sub.x, ds.x[idx])
    np.testing.assert_array_equal(sub.y, ds.y[idx])


def test_subset_skips_the_label_check(monkeypatch):
    """A subset of a checked dataset is what the checked constructor would
    build from the same points, without classifying them again."""
    ds = generate(20, seed=2, spec=CircleSpec(center=(0.1, -0.05), radius=0.7))
    idx = np.array([5, 1, 17, 1])
    checked = Dataset(ds.x[idx], ds.y[idx], ds.boundary, ds.seed)

    def refuse(self, x):
        raise AssertionError("subset classified its points")

    monkeypatch.setattr(CircleSpec, "classify", refuse)
    sub = ds.subset(idx)
    for field in ("x", "y"):
        got, want = getattr(sub, field), getattr(checked, field)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert (sub.boundary, sub.seed) == (checked.boundary, checked.seed) == (ds.boundary, 2)
    assert type(sub) is Dataset


def test_generate_splits_are_independent_and_stable():
    train, test = generate_splits(0)
    assert len(train) == 250
    assert len(test) == 1000
    train2, test2 = generate_splits(0)
    np.testing.assert_array_equal(train.x, train2.x)
    np.testing.assert_array_equal(test.x, test2.x)
    # train and test come from different derived seeds
    assert not np.array_equal(train.x, test.x[:250])
    other_train, _ = generate_splits(1)
    assert not np.array_equal(train.x, other_train.x)


def test_split_sizes_are_adjustable():
    train, test = generate_splits(0, train_size=500)
    assert len(train) == 500
    assert len(test) == TEST_SIZE
    # the test draw does not depend on the train size
    _, test_default = generate_splits(0)
    np.testing.assert_array_equal(test.x, test_default.x)


def test_the_canonical_splits_are_one_rule():
    """Each split's default size and seed context, on any boundary;
    generate_splits draws from them."""
    for split, size in (("train", TRAIN_SIZE), ("test", TEST_SIZE)):
        ds, want = canonical_split(3, split), generate(size, seed=derive_seed(3, f"data/{split}"))
        assert (len(ds), ds.seed) == (size, want.seed)
        np.testing.assert_array_equal(ds.x, want.x)
    moved = CircleSpec(center=(0.1, 0.0), radius=0.5)
    ds = canonical_split(3, "test", 7, moved)
    assert (len(ds), ds.boundary, ds.seed) == (7, moved, derive_seed(3, "data/test"))
    np.testing.assert_array_equal(ds.x, generate(7, moved, derive_seed(3, "data/test")).x)
    with pytest.raises(KeyError):
        canonical_split(3, "validation")
    for got, split in zip(generate_splits(3), ("train", "test")):
        np.testing.assert_array_equal(got.x, canonical_split(3, split).x)


def test_csv_round_trip_is_exact(tmp_path):
    ds = generate(40, CircleSpec(center=(0.1, -0.05), radius=0.6), seed=13)
    path = tmp_path / "points.csv"
    save(ds, path)
    back = load(path)
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.y, ds.y)
    assert back.boundary == ds.boundary
    assert back.seed == ds.seed


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1,wrong\n0.1,0.2,1\n")
    with pytest.raises(ValueError, match="expected header"):
        load(path)
    path.write_text("x0,x1,label\n0.1,oops,1\n")
    with pytest.raises(ValueError, match="x1"):
        load(path)
    path.write_text("x0,x1,label\nnan,0.2,0\n")
    with pytest.raises(ValueError, match="bad.csv:2: field 'x0' is not finite: 'nan'"):
        load(path)
    # a label is 0 or 1, however many digits it has
    for label in ("2", "9" * 400):
        path.write_text(f"x0,x1,label\n0.1,0.2,{label}\n")
        with pytest.raises(ValueError, match="bad.csv:2: field 'label' is not 0 or 1"):
            load(path)
    path.write_text("# boundary center=0.0,0.0 radius=inf domain=-1.0,1.0,-1.0,1.0 seed=0\n"
                    "x0,x1,label\n0.1,0.2,1\n")
    with pytest.raises(ValueError, match="bad.csv:1: boundary line has a value that is not"):
        load(path)
    path.write_text("x0,x1,label\n")
    with pytest.raises(ValueError, match="no data rows"):
        load(path)


def test_a_csv_that_is_not_utf8_is_an_error_naming_the_file(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"x0,x1,label\n0.1,0.2,\xff\n")
    with pytest.raises(ValueError) as err:
        load(path)
    assert str(err.value) == (f"{path}: not UTF-8 text ('utf-8' codec can't decode byte 0xff "
                              "in position 20: invalid start byte)")


def test_load_without_boundary_line_uses_the_default(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("x0,x1,label\n0.0,0.0,1\n0.9,0.9,0\n")
    ds = load(path)
    assert ds.boundary == DEFAULT_BOUNDARY
    assert len(ds) == 2


LONG, SHORT = "a,b\n" * 300 + "tail\r\n", "x\ny\r\n"


def written_by_open(path, text, newline):
    """The bytes open(path, "w", newline=newline) leaves after writing text."""
    with open(path, "w", newline=newline) as fh:
        fh.write(text)
    return path.read_bytes()


@pytest.mark.parametrize("newline", [None, ""])
def test_a_rewrite_leaves_the_bytes_open_w_leaves(tmp_path, newline):
    """A long write then a short one: the short file, no stale tail, and the
    line endings open(path, "w", newline=newline) writes."""
    path = tmp_path / "out" / "nested" / "file.txt"
    for text in (LONG, SHORT, LONG):
        with rewrite(path, newline=newline) as fh:
            fh.write(text)
        assert path.read_bytes() == written_by_open(tmp_path / "ref.txt", text, newline)
    with rewrite(path, newline=newline):
        pass
    assert path.read_bytes() == b""


def test_a_body_that_raises_leaves_what_it_wrote(tmp_path):
    path = tmp_path / "file.txt"
    path.write_text(LONG)
    with pytest.raises(RuntimeError, match="midway"):
        with rewrite(path) as fh:
            fh.write("ab")
            raise RuntimeError("midway")
    assert path.read_bytes() == b"ab"


def test_a_rewrite_keeps_the_file_its_mode_and_its_links(tmp_path):
    """The same inode, mode 600 kept; a symlinked output writes its target and
    stays a link; a hard link sees the new bytes."""
    target, link, hard = tmp_path / "target.txt", tmp_path / "link.txt", tmp_path / "hard.txt"
    target.write_text(LONG)
    target.chmod(0o600)
    link.symlink_to(target)
    os.link(target, hard)
    inode = target.stat().st_ino
    with rewrite(link) as fh:
        fh.write(SHORT)
    assert link.is_symlink() and target.read_bytes() == hard.read_bytes() == SHORT.encode()
    assert target.stat().st_ino == inode
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


def test_circle_spec_validation():
    with pytest.raises(ValueError, match="radius"):
        CircleSpec(radius=0.0)
    with pytest.raises(ValueError, match="does not fit"):
        CircleSpec(center=(0.9, 0.0))
    with pytest.raises(ValueError, match=r"no area: \(1\.0, 1\.0, -1\.0, 1\.0\)"):
        CircleSpec(radius=0.1, domain=(1.0, 1.0, -1.0, 1.0))


def test_dataset_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        Dataset(np.zeros((3, 3)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="shape"):
        Dataset(np.zeros((3, 2)), np.zeros(4, dtype=int))
