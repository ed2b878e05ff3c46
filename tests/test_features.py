"""Feature planes: identity, partition means, mode mapping, stacking."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rqpkit.features as features
from rqpkit.features import (
    CHANNEL_ORDER,
    CoverageError,
    CuRect,
    GrayFrame,
    PuMode,
    TilingError,
    build_intra,
    build_seg,
    channel_order,
    stack_from_coding,
    validate_coverage,
    validate_tiling,
)
from rqpkit.ingest import CodingMetadata, MetadataError, parse_metadata, serialize_metadata
from rqpkit.model import OperationalPoint

INTRA_VALUES = frozenset(range(0, 239, 7))


def random_quadtree(rng: np.random.Generator, width: int, height: int,
                    root: int = 32, min_size: int = 4) -> list[CuRect]:
    """Coin-flip quadtree tiling, independent of the library's generator."""
    rects = []

    def visit(x, y, size):
        if x >= width or y >= height:
            return
        if size > min_size and rng.random() < 0.55:
            half = size // 2
            for dy in (0, half):
                for dx in (0, half):
                    visit(x + dx, y + dy, half)
        else:
            rects.append(CuRect(x, y, min(size, width - x), min(size, height - y)))

    for cy in range(0, height, root):
        for cx in range(0, width, root):
            visit(cx, cy, root)
    return rects


def random_frame(rng: np.random.Generator, width: int, height: int) -> GrayFrame:
    return GrayFrame(rng.integers(0, 256, size=(height, width), dtype=np.int64))


def coding(width: int, height: int, cus, pus=None) -> CodingMetadata:
    """Metadata for the given tiling; mode 0 on every grid cell unless pus are given."""
    if pus is None:
        pus = [PuMode(x, y, 0) for y in range(0, height, 16) for x in range(0, width, 16)]
    return CodingMetadata("t", width, height, tuple(cus), tuple(pus), OperationalPoint(10.0, 1e4))


def seg_plane(frame: GrayFrame, cus) -> np.ndarray:
    return build_seg(frame, validate_tiling(frame.width, frame.height, cus))


def intra_plane(width: int, height: int, pus) -> np.ndarray:
    return build_intra(validate_coverage(width, height, pus), width, height)


class TestGrayFrame:
    def test_validation(self):
        with pytest.raises(ValueError):
            GrayFrame(np.zeros((2, 2)))  # float dtype
        with pytest.raises(ValueError):
            GrayFrame(np.array([[300]]))
        with pytest.raises(ValueError):
            GrayFrame(np.array([[-1]]))
        with pytest.raises(ValueError):
            GrayFrame(np.zeros(4, dtype=np.uint8))

    def test_dimensions_and_equality(self):
        frame = GrayFrame(np.arange(6, dtype=np.uint8).reshape(2, 3))
        assert (frame.width, frame.height) == (3, 2)
        assert frame == GrayFrame(np.arange(6, dtype=np.uint8).reshape(2, 3))
        assert frame != GrayFrame(np.zeros((2, 3), dtype=np.uint8))

    def test_pixels_read_only(self):
        frame = GrayFrame(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            frame.pixels[0, 0] = 1


def rec_stack(frame: GrayFrame) -> np.ndarray:
    """The texture plane alone, beside a one-rectangle coding tree."""
    md = coding(frame.width, frame.height, [CuRect(0, 0, frame.width, frame.height)])
    return stack_from_coding(frame, md, ("rec",))


class TestBuildRec:
    def test_identity(self):
        rng = np.random.default_rng(0)
        frame = random_frame(rng, 16, 16)
        assert np.array_equal(rec_stack(frame)[0], frame.pixels)

    def test_single_pixel(self):
        assert rec_stack(GrayFrame(np.array([[42]], dtype=np.uint8)))[0][0, 0] == 42

    def test_checkerboard_preserved(self):
        board = np.indices((8, 8)).sum(axis=0) % 2 * 255
        frame = GrayFrame(board.astype(np.uint8))
        assert np.array_equal(rec_stack(frame)[0], frame.pixels)

    def test_returns_independent_copy(self):
        frame = GrayFrame(np.zeros((2, 2), dtype=np.uint8))
        assert not np.shares_memory(rec_stack(frame), frame.pixels)


class TestBuildSeg:
    def test_uniform_frame(self):
        frame = GrayFrame(np.full((8, 8), 128, dtype=np.uint8))
        cus = [CuRect(0, 0, 4, 8), CuRect(4, 0, 4, 4), CuRect(4, 4, 4, 4)]
        assert (seg_plane(frame, cus) == 128).all()

    def test_small_mean(self):
        frame = GrayFrame(np.array([[0, 2], [4, 6]], dtype=np.uint8))
        assert (seg_plane(frame, [CuRect(0, 0, 2, 2)]) == 3).all()

    def test_quadrant_means(self):
        quads = np.zeros((4, 4), dtype=np.uint8)
        quads[:2, :2] = [[10, 20], [30, 40]]       # mean 25
        quads[:2, 2:] = [[1, 1], [1, 2]]           # mean 1.25 -> 1
        quads[2:, :2] = [[250, 250], [250, 251]]   # mean 250.25 -> 250
        quads[2:, 2:] = [[0, 1], [1, 0]]           # mean 0.5 -> 1 (half-up)
        cus = [CuRect(0, 0, 2, 2), CuRect(2, 0, 2, 2), CuRect(0, 2, 2, 2), CuRect(2, 2, 2, 2)]
        out = seg_plane(GrayFrame(quads), cus)
        assert (out[:2, :2] == 25).all()
        assert (out[:2, 2:] == 1).all()
        assert (out[2:, :2] == 250).all()
        assert (out[2:, 2:] == 1).all()

    def test_overlap_names_both_rectangles(self):
        cus = [CuRect(0, 0, 4, 2), CuRect(0, 1, 4, 3)]
        with pytest.raises(TilingError) as err:
            validate_tiling(4, 4, cus)
        message = str(err.value)
        assert "CuRect(x=0, y=1" in message and "CuRect(x=0, y=0" in message

    def test_gap_reports_pixel(self):
        with pytest.raises(TilingError, match=r"uncovered"):
            validate_tiling(4, 4, [CuRect(0, 0, 4, 2)])

    def test_overhang_rejected(self):
        with pytest.raises(TilingError, match="overhangs"):
            validate_tiling(4, 4, [CuRect(0, 0, 8, 4)])

    def test_random_tilings_preserve_mean_and_structure(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            frame = random_frame(rng, 32, 32)
            cus = random_quadtree(rng, 32, 32)
            out = seg_plane(frame, cus)
            # Mean preserved within the integer rounding bound.
            assert abs(out.mean() - frame.pixels.mean()) <= 0.5
            # Piecewise constant per rectangle.
            for r in cus:
                block = out[r.y : r.y + r.h, r.x : r.x + r.w]
                assert (block == block[0, 0]).all()
            # Idempotent: averaging an averaged plane changes nothing.
            assert np.array_equal(seg_plane(GrayFrame(out), cus), out)

    def test_validate_tiling_standalone(self):
        validate_tiling(4, 4, [CuRect(0, 0, 4, 4)])
        with pytest.raises(TilingError):
            validate_tiling(4, 4, [])

    def test_validate_coverage_standalone(self):
        validate_coverage(20, 16, [PuMode(0, 0, 1), PuMode(16, 0, 2)])
        with pytest.raises(CoverageError, match="no prediction block"):
            validate_coverage(20, 16, [PuMode(0, 0, 1)])


def loop_seg(frame: GrayFrame, cus) -> np.ndarray:
    """Reference partition plane: one integer mean per rectangle, filled in turn."""
    out = np.empty((frame.height, frame.width), dtype=np.uint8)
    for r in cus:
        block = frame.pixels[r.y : r.y + r.h, r.x : r.x + r.w]
        count = r.w * r.h
        mean_half_up = (2 * int(block.sum(dtype=np.int64)) + count) // (2 * count)
        out[r.y : r.y + r.h, r.x : r.x + r.w] = mean_half_up
    return out


def loop_intra(width: int, height: int, pus) -> np.ndarray:
    """Reference mode plane: each block filled in turn, clipped by the frame."""
    out = np.empty((height, width), dtype=np.uint8)
    for p in pus:
        out[p.y : p.y + 16, p.x : p.x + 16] = p.mode * 7
    return out


class TestClosedFormPlanes:
    """build_seg and build_intra read a CodingMetadata's maps; they equal per-rectangle fills."""

    @given(width=st.integers(1, 90), height=st.integers(1, 90),
           root=st.sampled_from([4, 8, 16, 32, 64]), seed=st.integers(0, 2**32 - 1))
    @example(width=80, height=48, root=32, seed=0)
    @example(width=17, height=33, root=16, seed=1)
    @example(width=90, height=90, root=4, seed=2)  # hundreds of rectangles: an int16 owner map
    @settings(max_examples=150, deadline=None)
    def test_planes_match_per_rectangle_fills(self, width, height, root, seed):
        rng = np.random.default_rng(seed)
        frame = random_frame(rng, width, height)
        cus = random_quadtree(rng, width, height, root=root, min_size=1)
        cells = [(x, y) for y in range(0, height, 16) for x in range(0, width, 16)]
        pus = [PuMode(x, y, int(rng.integers(0, 35))) for x, y in rng.permutation(cells).tolist()]
        md = coding(width, height, cus, pus)
        assert md.owner.dtype == (np.int8 if len(cus) <= 128 else np.int16)
        seg, intra = build_seg(frame, md.owner), build_intra(md.modes, width, height)
        assert seg.dtype == np.uint8 and intra.dtype == np.uint8
        assert np.array_equal(seg, loop_seg(frame, cus))
        assert np.array_equal(intra, loop_intra(width, height, pus))

    def test_validators_return_their_maps(self):
        cus = [CuRect(0, 0, 3, 2), CuRect(3, 0, 2, 2), CuRect(0, 2, 5, 1)]
        assert np.array_equal(validate_tiling(5, 3, cus),
                              [[0, 0, 0, 1, 1], [0, 0, 0, 1, 1], [2, 2, 2, 2, 2]])
        pus = [PuMode(16, 0, 34), PuMode(0, 0, 0)]
        assert np.array_equal(validate_coverage(20, 16, pus), [[0, 34]])


def loop_tiling(width: int, height: int, cus):
    """Reference tiling check, rectangle by rectangle: the owner map, or the
    first overhang, overlap or uncovered pixel as a TilingError message."""
    owner = np.full((height, width), -1, dtype=np.min_scalar_type(-max(len(cus), 1)))
    for i, r in enumerate(cus):
        if r.x + r.w > width or r.y + r.h > height:
            return f"{r} overhangs the {width}x{height} frame"
        region = owner[r.y : r.y + r.h, r.x : r.x + r.w]
        if (region != -1).any():
            other = int(region[region != -1][0])
            return f"{r} overlaps {cus[other]}"
        region[...] = i
    if (owner == -1).any():
        gap_y, gap_x = np.argwhere(owner == -1)[0]
        return f"tiling leaves pixel ({int(gap_x)}, {int(gap_y)}) uncovered"
    return owner


def mutate_tiling(rng: np.random.Generator, width: int, height: int, cus, kind: str):
    """The tiling with one rectangle shifted, dropped, duplicated or stretched past
    the frame's edge, or with every rectangle dropped."""
    cus = list(cus)
    i = int(rng.integers(len(cus)))
    r = cus[i]
    if kind == "shift":
        dx, dy = (int(v) for v in rng.integers(-3, 4, size=2))
        cus[i] = CuRect(max(r.x + dx, 0), max(r.y + dy, 0), r.w, r.h)
    elif kind == "drop":
        del cus[i]
    elif kind == "duplicate":
        cus.insert(int(rng.integers(len(cus) + 1)), r)
    elif kind == "stretch":
        extra = int(rng.integers(1, 4))
        cus[i] = (CuRect(r.x, r.y, width - r.x + extra, r.h) if rng.random() < 0.5
                  else CuRect(r.x, r.y, r.w, height - r.y + extra))
    else:
        cus = []
    return cus


class TestCountingTiling:
    """validate_tiling counts; its answers are those of the per-rectangle walk."""

    @given(width=st.integers(1, 70), height=st.integers(1, 70),
           root=st.sampled_from([4, 8, 16, 32, 64]), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["none", "shift", "drop", "duplicate", "stretch", "empty"]))
    @example(width=64, height=64, root=32, seed=0, kind="duplicate")
    @example(width=8, height=8, root=8, seed=0, kind="drop")  # one rectangle, then none
    @example(width=64, height=64, root=16, seed=3, kind="empty")
    @settings(max_examples=300, deadline=None)
    def test_same_map_or_message_as_the_walk(self, width, height, root, seed, kind):
        rng = np.random.default_rng(seed)
        cus = random_quadtree(rng, width, height, root=root, min_size=1)
        if kind != "none":
            cus = mutate_tiling(rng, width, height, cus, kind)
        expected = loop_tiling(width, height, cus)
        if isinstance(expected, str):
            with pytest.raises(TilingError) as err:
                validate_tiling(width, height, cus)
            assert str(err.value) == expected
        else:
            owner = validate_tiling(width, height, cus)
            assert owner.dtype == expected.dtype and np.array_equal(owner, expected)
            assert not owner.flags.writeable

    def test_overlap_with_matching_area_is_named(self):
        # Two overlapping rectangles and a gap of the same size: the areas sum
        # to the frame's, so the -1 count is what refuses it.
        cus = [CuRect(0, 0, 2, 2), CuRect(1, 0, 2, 2), CuRect(0, 2, 4, 2)]
        with pytest.raises(TilingError) as err:
            validate_tiling(4, 4, cus)
        assert str(err.value) == loop_tiling(4, 4, cus)
        assert "overlaps CuRect(x=0, y=0" in str(err.value)


class TestGrayFrameRange:
    @pytest.mark.parametrize("value", [-1, 256])
    def test_int64_out_of_range_refused(self, value):
        pixels = np.zeros((3, 4), dtype=np.int64)
        pixels[1, 2] = value
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            GrayFrame(pixels)

    def test_uint8_reads_back_equal(self):
        pixels = np.random.default_rng(4).integers(0, 256, size=(5, 7), dtype=np.uint8)
        frame = GrayFrame(pixels)
        assert frame.pixels.dtype == np.uint8 and np.array_equal(frame.pixels, pixels)
        assert frame.pixels is not pixels and not frame.pixels.flags.writeable
        assert pixels.flags.writeable


class TestBuildIntra:
    def test_mode_zero_everywhere(self):
        pus = [PuMode(x, y, 0) for y in (0, 16) for x in (0, 16)]
        assert (intra_plane(32, 32, pus) == 0).all()

    def test_extreme_and_middle_modes(self):
        assert (intra_plane(16, 16, [PuMode(0, 0, 34)]) == 238).all()
        assert (intra_plane(16, 16, [PuMode(0, 0, 17)]) == 119).all()

    def test_value_set(self):
        rng = np.random.default_rng(5)
        pus = [
            PuMode(x, y, int(rng.integers(0, 35)))
            for y in range(0, 64, 16)
            for x in range(0, 64, 16)
        ]
        out = intra_plane(64, 64, pus)
        assert set(np.unique(out)) <= INTRA_VALUES

    def test_piecewise_constant(self):
        rng = np.random.default_rng(6)
        pus = [
            PuMode(x, y, int(rng.integers(0, 35)))
            for y in range(0, 48, 16)
            for x in range(0, 48, 16)
        ]
        out = intra_plane(48, 48, pus)
        for p in pus:
            block = out[p.y : p.y + 16, p.x : p.x + 16]
            assert (block == p.mode * 7).all()

    def test_partial_edge_blocks(self):
        pus = [PuMode(0, 0, 10), PuMode(16, 0, 20), PuMode(32, 0, 30)]
        out = intra_plane(40, 16, pus)
        assert out.shape == (16, 40)
        assert (out[:, 32:] == 210).all()  # truncated 8-wide block still filled

    def test_mode_range_enforced(self):
        with pytest.raises(ValueError):
            PuMode(0, 0, 35)
        with pytest.raises(ValueError):
            PuMode(0, 0, -1)

    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            PuMode(8, 0, 3)

    def test_coverage_errors(self):
        with pytest.raises(CoverageError, match="no prediction block"):
            validate_coverage(32, 16, [PuMode(0, 0, 1)])
        with pytest.raises(CoverageError, match="twice"):
            validate_coverage(16, 16, [PuMode(0, 0, 1), PuMode(0, 0, 2)])
        with pytest.raises(CoverageError, match="outside"):
            validate_coverage(16, 16, [PuMode(16, 0, 1)])


class TestAssemble:
    """channel_order decides a stack's channels; stack_from_coding stacks them."""

    def make_coding(self):
        rng = np.random.default_rng(1)
        frame = random_frame(rng, 16, 16)
        return frame, coding(16, 16, random_quadtree(rng, 16, 16, root=16), [PuMode(0, 0, 9)])

    def test_single_channel(self):
        stack = stack_from_coding(*self.make_coding(), ("rec",))
        assert stack.shape == (1, 16, 16) and stack.dtype == np.uint8

    def test_two_channels_in_canonical_order(self):
        frame, md = self.make_coding()
        stack = stack_from_coding(frame, md, ("intra", "seg"))
        assert stack.shape == (2, 16, 16)
        assert np.array_equal(stack[0], seg_plane(frame, md.cus))
        assert np.array_equal(stack[1], intra_plane(16, 16, md.pus))

    def test_all_three(self):
        assert channel_order(CHANNEL_ORDER) == CHANNEL_ORDER
        assert stack_from_coding(*self.make_coding()).shape == (3, 16, 16)

    def test_all_seven_subsets(self):
        for mask in range(1, 8):
            subset = tuple(c for i, c in enumerate(CHANNEL_ORDER) if mask >> i & 1)
            assert channel_order(reversed(subset)) == subset

    def test_errors(self):
        for bad in [(), ("luma",), "rec"]:
            with pytest.raises(ValueError):
                channel_order(bad)


class TestStackFromCoding:
    def test_channel_selection(self):
        rng = np.random.default_rng(2)
        frame = random_frame(rng, 32, 32)
        cus = random_quadtree(rng, 32, 32)
        pus = [PuMode(x, y, 5) for y in (0, 16) for x in (0, 16)]
        md = coding(32, 32, cus, pus)
        full = stack_from_coding(frame, md)
        assert full.shape == (3, 32, 32) and full.dtype == np.uint8
        assert np.array_equal(full[0], frame.pixels)
        assert np.array_equal(full[1], seg_plane(frame, cus))
        assert np.array_equal(full[2], intra_plane(32, 32, pus))
        rec_only = stack_from_coding(frame, md, ("rec",))
        assert np.array_equal(rec_only, full[:1])
        with pytest.raises(ValueError):
            stack_from_coding(frame, md, ("rec", "chroma"))

    @pytest.mark.parametrize("mask", range(1, 8))
    def test_size_mismatch_names_frame_and_sizes(self, mask):
        channels = tuple(c for i, c in enumerate(CHANNEL_ORDER) if mask >> i & 1)
        rng = np.random.default_rng(3)
        md = coding(64, 64, random_quadtree(rng, 64, 64))
        cropped = GrayFrame(random_frame(rng, 64, 64).pixels[:60, :60])
        with pytest.raises(ValueError, match=r"frame 't' is 60x60 but .* 64x64") as err:
            stack_from_coding(cropped, md, channels)
        assert type(err.value) is ValueError


class TestOneWalk:
    """CodingMetadata walks the coding tree once; the planes only read its maps."""

    def make(self):
        rng = np.random.default_rng(4)
        return random_frame(rng, 48, 32), coding(48, 32, random_quadtree(rng, 48, 32))

    def test_stack_runs_no_validator(self, monkeypatch):
        frame, md = self.make()
        calls = []

        def counted(name, original):
            def validator(*args):
                calls.append(name)
                return original(*args)
            return validator

        for name in ("validate_tiling", "validate_coverage"):
            monkeypatch.setattr(features, name, counted(name, getattr(features, name)))
        stack = stack_from_coding(frame, md)
        assert calls == []
        assert np.array_equal(stack[1], build_seg(frame, md.owner))

    def test_maps_are_read_only_and_out_of_sight(self):
        _, md = self.make()
        assert md.owner.shape == (32, 48) and md.modes.shape == (2, 3)
        for grid in (md.owner, md.modes):
            with pytest.raises(ValueError):
                grid[0, 0] = 1
        assert "owner" not in repr(md) and "modes" not in repr(md)
        assert parse_metadata(serialize_metadata(md)) == md
        assert hash(parse_metadata(serialize_metadata(md))) == hash(md)

    def test_huge_frame_refused_before_any_map(self):
        _, md = self.make()
        text = serialize_metadata(md).replace('"width": 48, "height": 32',
                                              '"width": 1000000, "height": 1000000')
        with pytest.raises(MetadataError, match=r"frame 't'.*6 prediction blocks"):
            parse_metadata(text)
