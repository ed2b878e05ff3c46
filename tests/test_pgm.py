"""8-bit binary PGM I/O."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


WHITESPACE = st.sampled_from([bytes([c]) for c in b" \t\n\r\x0b\x0c"])


def comments(ends):
    """A # comment whose text holds no line break, ending in one of `ends`."""
    return st.builds(lambda text, end: b"#" + text + end,
                     st.binary(max_size=6).map(lambda b: b.replace(b"\r", b"").replace(b"\n", b"")),
                     st.sampled_from(ends))


COMMENT = comments([b"\n", b"\r", b"\r\n"])
SEPARATOR = st.lists(WHITESPACE | COMMENT, min_size=1, max_size=4).map(b"".join)
# After the max value a comment's line break is its own: a CR LF end would leave
# the LF as the header's last byte, so these end in one CR or one LF.
AFTER_MAXVAL = st.lists(comments([b"\n", b"\r"]), max_size=2).map(b"".join)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_header_whitespace_and_comments(tmp_path, data):
    # Any run of whitespace and comments may come before and between the four
    # tokens, and comments after the last; one whitespace byte ends the header.
    height, width = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    raster = data.draw(st.binary(min_size=height * width, max_size=height * width))
    seps = [data.draw(SEPARATOR) for _ in range(3)]
    tokens = [b"P5", str(width).encode(), str(height).encode(), b"255"]
    header = data.draw(st.just(b"") | SEPARATOR) + b"".join(
        tok + sep for tok, sep in zip(tokens, seps)) + tokens[3]
    header += data.draw(AFTER_MAXVAL) + data.draw(WHITESPACE)
    path = tmp_path / "h.pgm"
    path.write_bytes(header + raster)
    pixels = read_pgm(path)
    assert pixels.shape == (height, width) and pixels.tobytes() == raster


# A comment runs to the end of the data, so no token can be read out of it.
@pytest.mark.parametrize("data", [b"P5 #abc", b"P5\n2 2 #x"])
def test_comment_to_end_of_data_is_truncated(tmp_path, data):
    path = tmp_path / "cut.pgm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="truncated PGM header"):
        read_pgm(path)


@pytest.mark.parametrize("header", [b"255# c\n\n", b"255#c\r\n"])
def test_comment_after_maxval_is_not_read_as_pixels(tmp_path, header):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n2 2\n" + header + bytes([1, 2, 3, 4]))
    assert np.array_equal(read_pgm(path), np.array([[1, 2], [3, 4]], dtype=np.uint8))


def test_comment_after_maxval_needs_a_whitespace_byte(tmp_path):
    # The comment's LF ends the comment, so no whitespace byte ends the header.
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n2 2\n255# c\n" + bytes([65, 2, 3, 4]))
    with pytest.raises(ValueError, match="whitespace byte"):
        read_pgm(path)


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
