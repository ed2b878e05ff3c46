"""8-bit binary PGM I/O."""

import numpy as np
import pytest

from rqpkit.pgm import read_pgm, write_pgm


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, (13, 7), dtype=np.uint8)
    path = tmp_path / "frame.pgm"
    write_pgm(path, pixels)
    assert np.array_equal(read_pgm(path), pixels)


def test_known_bytes(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 2, 4, 6]))
    assert np.array_equal(read_pgm(path), np.array([[0, 2], [4, 6]], dtype=np.uint8))


def test_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n 2\t1 # dims\n255\n" + bytes([7, 9]))
    assert np.array_equal(read_pgm(path), np.array([[7, 9]], dtype=np.uint8))


def test_sixteen_bit_rejected(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n" + bytes([0, 1]))
    with pytest.raises(ValueError, match="bit depth"):
        read_pgm(path)


def test_sample_above_maxval_rejected(tmp_path):
    path = tmp_path / "hot.pgm"
    path.write_bytes(b"P5\n3 1\n100\n" + bytes([0, 100, 101]))
    with pytest.raises(ValueError, match="sample 101 exceeds the header's max value 100"):
        read_pgm(path)


def test_samples_up_to_maxval_accepted(tmp_path):
    path = tmp_path / "dim.pgm"
    path.write_bytes(b"P5\n2 1\n100\n" + bytes([0, 100]))
    assert np.array_equal(read_pgm(path), np.array([[0, 100]], dtype=np.uint8))


def test_wrong_magic(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_bytes(b"P2\n1 1\n255\n0\n")
    with pytest.raises(ValueError, match="magic"):
        read_pgm(path)


def test_truncated_raster(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes([0]))
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(path)


def test_garbage_header(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\nwide tall\n255\n")
    with pytest.raises(ValueError, match="header"):
        read_pgm(path)


def test_write_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros(4, dtype=np.uint8))


@pytest.mark.parametrize("pixels", [
    np.array([[300, -1, 2]]),
    np.array([[256]], dtype=np.int64),
    np.array([[-1]], dtype=np.int16),
    np.array([[2.7]]),
    np.array([[True]]),
    np.zeros((0, 3), dtype=np.uint8),
    np.zeros((3, 0), dtype=np.uint8),
], ids=["out_of_range", "above_255", "negative", "float", "bool", "no_rows", "no_columns"])
def test_write_rejects_what_would_not_read_back(tmp_path, pixels):
    path = tmp_path / "x.pgm"
    with pytest.raises(ValueError):
        write_pgm(path, pixels)
    assert not path.exists()


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64, np.uint32])
def test_write_accepts_any_integer_dtype_in_range(tmp_path, dtype):
    pixels = np.array([[0, 1, 254, 255]], dtype=dtype)
    write_pgm(tmp_path / "x.pgm", pixels)
    assert np.array_equal(read_pgm(tmp_path / "x.pgm"), pixels)
