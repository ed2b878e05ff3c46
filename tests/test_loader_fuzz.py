"""Fuzz the checkpoint, sidecar and PGM loaders with truncations and byte flips.

A mutated checkpoint either loads equal to the original (the flip hit a
byte nothing reads) or raises CheckpointError.  A sidecar has no checksum,
so a flipped digit can make another valid document; it must either parse
into metadata that round-trips or raise MetadataError.  A PGM has no
checksum either: it reads as a 2-d uint8 array or raises ValueError.
Every error message is one line.
"""

import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from rqpkit.ingest import (
    MetadataError,
    load_metadata,
    parse_metadata,
    serialize_metadata,
    synth_corpus,
)
from rqpkit.pgm import read_pgm, write_pgm
from rqpkit.regressor import (
    CheckpointError,
    Network,
    NetworkConfig,
    TargetScaler,
    load_checkpoint,
    save_checkpoint,
)

FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _mutate(data: bytes, cut, flips) -> bytes:
    """Keep data[:cut] (all of it when cut is None), then XOR each (position, mask)."""
    out = bytearray(data if cut is None else data[:cut])
    for pos, mask in flips:
        if out:
            out[pos % len(out)] ^= mask
    return bytes(out)


def _mutations(size: int, hot: list[tuple[int, int]]):
    """(cut, flips) for a file of `size` bytes; flips favour the `hot` ranges."""
    anywhere = st.integers(0, size - 1)
    in_hot = st.sampled_from(hot).flatmap(lambda r: st.integers(*r))
    flips = st.lists(st.tuples(anywhere | in_hot, st.integers(1, 255)), max_size=3)
    return st.tuples(st.none() | st.integers(0, size - 1), flips)


def _assert_one_line(exc: Exception) -> None:
    assert len(str(exc).splitlines()) == 1


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """(file bytes, byte ranges holding headers, loaded original)."""
    path = tmp_path_factory.mktemp("fuzz") / "original.npz"
    save_checkpoint(path, Network(NetworkConfig(2, 2, seed=3)),
                    TargetScaler(np.array([1.5, -2.0]), np.array([0.5, 3.0])),
                    extra={"note": "fuzz"})
    data = path.read_bytes()
    with zipfile.ZipFile(path) as archive:
        starts = [m.header_offset for m in archive.infolist()]
    # Each member's zip and npy headers, and the central directory after the last member.
    hot = [(s, min(s + 200, len(data) - 1)) for s in starts] + [(starts[-1], len(data) - 1)]
    return data, hot, load_checkpoint(path)


@FUZZ
@given(st.data())
def test_mutated_checkpoint_loads_equal_or_raises(tmp_path, checkpoint, data):
    original, hot, (want_net, want_scaler, want_extra) = checkpoint
    path = tmp_path / "mutated.npz"
    path.write_bytes(_mutate(original, *data.draw(_mutations(len(original), hot))))
    try:
        network, scaler, extra = load_checkpoint(path)
    except CheckpointError as exc:
        _assert_one_line(exc)
        return
    assert network.config == want_net.config and extra == want_extra
    for got, want in zip(network.parameters() + [scaler.mean, scaler.scale],
                         want_net.parameters() + [want_scaler.mean, want_scaler.scale]):
        assert np.array_equal(got, want)


SIDECAR = (serialize_metadata(synth_corpus(1, seed=7, size=(32, 32))[0][1]) + "\n").encode()
_ID = SIDECAR.index(b'"frame_id": "') + len(b'"frame_id": "')


@FUZZ
@given(_mutations(len(SIDECAR), [(0, len(SIDECAR) - 1)]))
# A frame id escaped into holding a newline, then a width that breaks the tiling.
@example((None, [(_ID + 1, ord("7") ^ ord("\\")), (_ID + 2, ord("f") ^ ord("n")),
                 (SIDECAR.index(b'"width": 32') + 9, ord("3") ^ ord("1"))]))
def test_mutated_sidecar_parses_or_raises(tmp_path, mutation):
    path = tmp_path / "mutated.json"
    path.write_bytes(_mutate(SIDECAR, *mutation))
    try:
        md = load_metadata(path)
    except MetadataError as exc:
        _assert_one_line(exc)
        return
    assert parse_metadata(serialize_metadata(md)) == md


def _written_pgm() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "original.pgm"
        write_pgm(path, np.random.default_rng(5).integers(0, 256, (7, 13), dtype=np.uint8))
        return path.read_bytes()


PGM = _written_pgm()
_MAXVAL = PGM.index(b"255\n")


@FUZZ
@given(_mutations(len(PGM), [(0, _MAXVAL + 3)]))
# Cut after the header; "255" flipped to "155" over samples above 155; "13" to "1\x003"
# and to the non-ASCII "\xb13".
@example((_MAXVAL + 4, []))
@example((None, [(_MAXVAL, ord("2") ^ ord("1"))]))
@example((None, [(PGM.index(b"13") + 1, ord("3"))]))
@example((None, [(PGM.index(b"13"), 0x80)]))
def test_mutated_pgm_reads_or_raises(tmp_path, mutation):
    path = tmp_path / "mutated.pgm"
    path.write_bytes(_mutate(PGM, *mutation))
    try:
        pixels = read_pgm(path)
    except ValueError as exc:
        assert type(exc) is ValueError
        _assert_one_line(exc)
        return
    assert pixels.dtype == np.uint8 and pixels.ndim == 2
