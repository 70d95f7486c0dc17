import struct
import sys
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from luxprobe.imgio import (_predictor_table, _unfilter, check_unit, read_hdr, read_pfm, read_png,
                            write_pfm, write_png)
from luxprobe.tonemap import quantize8
from conftest import allocation_peak, png_with_row_filters


class TestPfm:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        img = rng.random((8, 16, 3)).astype(np.float32) * 1000
        path = tmp_path / "x.pfm"
        write_pfm(path, img)
        back = read_pfm(path)
        assert back.dtype == np.float32
        assert (back == img).all()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.pfm"
        write_pfm(path, np.zeros((2, 4, 3), dtype=np.float32))
        blob = path.read_bytes()
        assert blob.startswith(b"PF\n4 2\n-1.0\n")
        assert len(blob) == len(b"PF\n4 2\n-1.0\n") + 2 * 4 * 3 * 4

    def test_rows_stored_bottom_to_top(self, tmp_path):
        img = np.zeros((2, 1, 3), dtype=np.float32)
        img[0] = 1.0  # top row in memory
        path = tmp_path / "x.pfm"
        write_pfm(path, img)
        payload = path.read_bytes()[len(b"PF\n1 2\n-1.0\n"):]
        first_stored = struct.unpack("<3f", payload[:12])
        assert first_stored == (0.0, 0.0, 0.0)  # bottom row comes first on disk

    def test_reads_grayscale_as_rgb(self, tmp_path):
        path = tmp_path / "g.pfm"
        data = np.arange(8, dtype="<f4")
        with open(path, "wb") as f:
            f.write(b"Pf\n4 2\n-1.0\n")
            f.write(data.tobytes())
        img = read_pfm(path)
        assert img.shape == (2, 4, 3)
        assert (img[..., 0] == img[..., 1]).all()
        assert img[1, 0, 0] == 0.0  # disk row 0 is the bottom

    def test_reads_big_endian(self, tmp_path):
        path = tmp_path / "be.pfm"
        data = np.arange(12, dtype=">f4")
        with open(path, "wb") as f:
            f.write(b"PF\n2 2\n1.0\n")
            f.write(data.tobytes())
        img = read_pfm(path)
        assert img.dtype == np.float32 and img.flags.c_contiguous
        assert img[1, 0, 0] == 0.0 and img[0, 0, 0] == 6.0

    @pytest.mark.parametrize("scale", [-2.5, 2.5])
    def test_scale_multiplies_values(self, tmp_path, scale):
        img = np.array([[[1.0, 0.5, -0.25], [2.0, 3.0, 4.0]]], dtype=np.float32)
        endian = "<" if scale < 0 else ">"
        path = tmp_path / "scaled.pfm"
        path.write_bytes(f"PF\n2 1\n{scale}\n".encode() + img.astype(endian + "f4").tobytes())
        back = read_pfm(path)
        assert back.dtype == np.float32 and back.flags.c_contiguous
        assert (back == img * np.float32(2.5)).all()

    @pytest.mark.parametrize("scale", ["-1e38", "1e38", "-1e39"])
    def test_overflowing_scale_rejected_without_warning(self, tmp_path, scale):
        img = np.full((1, 2, 3), 100.0, dtype=np.float32)
        img[0, 0] = 0.0  # 0 times a scale past float32's range is NaN, not inf
        endian = "<" if scale.startswith("-") else ">"
        path = tmp_path / "big.pfm"
        path.write_bytes(f"PF\n2 1\n{scale}\n".encode() + img.astype(endian + "f4").tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows float32"):
                read_pfm(path)

    def test_non_finite_texel_with_scale_is_decoded(self, tmp_path):
        # the caller rejects it by its value, as with a unit scale
        img = np.array([[[np.inf, 1.0, np.nan]]], dtype="<f4")
        path = tmp_path / "inf.pfm"
        path.write_bytes(b"PF\n1 1\n-2.0\n" + img.tobytes())
        back = read_pfm(path)
        assert back[0, 0, 0] == np.inf and back[0, 0, 1] == 2.0 and np.isnan(back[0, 0, 2])

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.pfm"
        with open(path, "wb") as f:
            f.write(b"PF\n4 4\n-1.0\n")
            f.write(b"\x00" * 10)
        with pytest.raises(ValueError, match="truncated"):
            read_pfm(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "n.pfm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError, match="not a PFM"):
            read_pfm(path)

    def test_writer_validates_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_pfm(tmp_path / "b.pfm", np.zeros((4, 4)))

    @pytest.mark.parametrize("shape", [(0, 0, 3), (0, 4, 3), (3, 0, 3)])
    def test_writer_refuses_an_empty_image(self, tmp_path, shape):
        # `read_pfm` rejects a zero dimension, so such a file must not be written
        with pytest.raises(ValueError, match="non-empty"):
            write_pfm(tmp_path / "e.pfm", np.zeros(shape))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_payload_is_the_reversed_float32_rows(self, tmp_path, rng, dtype):
        img = (rng.random((5, 10, 3)) * 1e3).astype(dtype)
        path = tmp_path / "p.pfm"
        write_pfm(path, img)
        expected = np.asarray(img, dtype=np.float32)[::-1].astype("<f4").tobytes()
        assert path.read_bytes() == b"PF\n10 5\n-1.0\n" + expected

    def test_grayscale_is_copied_once(self, tmp_path, rng):
        # the replicated RGB is already C-ordered float32 and is returned as it is: the
        # peak is the file's plane, np.repeat's contiguous copy of it and the 3 planes
        gray = rng.random((256, 512)).astype("=f4")
        scale = b"-1.0" if sys.byteorder == "little" else b"1.0"
        path = tmp_path / "gray.pfm"
        path.write_bytes(b"Pf\n512 256\n" + scale + b"\n" + gray[::-1].tobytes())
        with allocation_peak() as probe:
            img = read_pfm(path)
        assert img.dtype == np.float32 and img.flags.c_contiguous
        assert (img == gray[..., None]).all()
        assert probe.bytes < 2 * img.nbytes, probe.bytes / img.nbytes

    def test_one_copy_of_the_payload(self, tmp_path, rng):
        # a float32 copy, its reversed astype and tobytes made three
        img = rng.random((512, 1024, 3))
        payload = img.size * 4
        with allocation_peak() as probe:
            write_pfm(tmp_path / "m.pfm", img)
        assert probe.bytes < 1.5 * payload, probe.bytes / payload

    def test_reader_makes_one_copy(self, tmp_path, rng):
        # each block of disk rows is read into its place in the output and flipped there
        img = rng.random((512, 1024, 3)).astype(np.float32)
        path = tmp_path / "r.pfm"
        write_pfm(path, img)
        with allocation_peak() as probe:
            back = read_pfm(path)
        assert back.flags.c_contiguous and back.tobytes() == img.tobytes()
        assert probe.bytes < 1.25 * back.nbytes, probe.bytes / back.nbytes


class TestCheckUnit:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("edge, ok", [(-0.0, True), (0.0, True), (1.0, True),
                                          ("1+ulp", False), (np.nan, False), ("-tiny", False)])
    def test_edges(self, dtype, edge, ok):
        value = {"1+ulp": np.nextafter(dtype(1), dtype(2)),
                 "-tiny": -np.finfo(dtype).smallest_subnormal}.get(edge, edge)
        for values in (np.array(value, dtype=dtype), np.full((4, 8, 3), 0.5, dtype=dtype)):
            values[...] = 0.5
            values.flat[-1] = value
            if ok:
                check_unit(values, "x")
            else:
                with pytest.raises(ValueError, match=r"x must lie in \[0, 1\] \(NaN is rejected\)"):
                    check_unit(values, "x")

    def test_empty_passes(self):
        check_unit(np.zeros((0, 3)), "x")


def rgbe_bytes(r, g, b, e):
    return bytes([r, g, b, e])


class TestRadianceHdr:
    def _header(self, width, height):
        return b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n" + f"-Y {height} +X {width}\n".encode()

    def test_flat_scanlines_decode(self, tmp_path):
        # (128, 0, 0, 129) -> red = 128 * 2^(129-136) = 1.0
        path = tmp_path / "a.hdr"
        width, height = 4, 2
        px = rgbe_bytes(128, 0, 0, 129) * width
        path.write_bytes(self._header(width, height) + px * height)
        img = read_hdr(path)
        assert img.shape == (2, 4, 3)
        np.testing.assert_allclose(img[..., 0], 1.0, atol=1e-7)
        assert (img[..., 1:] == 0).all()

    def test_zero_exponent_is_black(self, tmp_path):
        path = tmp_path / "b.hdr"
        px = rgbe_bytes(200, 200, 200, 0) * 4
        path.write_bytes(self._header(4, 1) + px)
        assert (read_hdr(path) == 0).all()

    def test_rle_scanline(self, tmp_path):
        width = 8
        runs = []
        for value in (10, 20, 30, 136):  # r, g, b, e channels
            runs.append(bytes([128 + width, value]))  # one run covering the row
        scan = b"\x02\x02" + struct.pack(">H", width) + b"".join(runs)
        path = tmp_path / "c.hdr"
        path.write_bytes(self._header(width, 1) + scan)
        img = read_hdr(path)
        assert img.shape == (1, 8, 3)
        np.testing.assert_allclose(img[0, 0], [10.0, 20.0, 30.0], atol=1e-6)

    def test_rle_literal_blocks(self, tmp_path):
        width = 8
        chans = []
        for base in (1, 2, 3, 136):
            vals = bytes([base] * width) if base == 136 else bytes(range(base, base + width))
            chans.append(bytes([width]) + vals)  # literal block
        scan = b"\x02\x02" + struct.pack(">H", width) + b"".join(chans)
        path = tmp_path / "d.hdr"
        path.write_bytes(self._header(width, 1) + scan)
        img = read_hdr(path)
        np.testing.assert_allclose(img[0, 0], [1.0, 2.0, 3.0], atol=1e-6)
        np.testing.assert_allclose(img[0, 7], [8.0, 9.0, 10.0], atol=1e-6)

    def test_plus_y_flips(self, tmp_path):
        width = 4
        top = rgbe_bytes(128, 0, 0, 129) * width
        bottom = rgbe_bytes(0, 128, 0, 129) * width
        path = tmp_path / "e.hdr"
        header = b"#?RADIANCE\n\n" + f"+Y 2 +X {width}\n".encode()
        path.write_bytes(header + top + bottom)
        img = read_hdr(path)
        assert img[0, 0, 1] == pytest.approx(1.0)  # bottom scanline becomes row 0
        assert img[1, 0, 0] == pytest.approx(1.0)

    def test_old_style_rle_marker_rejected(self, tmp_path):
        width = 4
        px = [rgbe_bytes(128, 64, 32, 129)] * width
        path = tmp_path / "g.hdr"
        path.write_bytes(self._header(width, 1) + b"".join(px))
        np.testing.assert_allclose(read_hdr(path)[0], [[1.0, 0.5, 0.25]] * width, atol=1e-7)
        px[2] = rgbe_bytes(1, 1, 1, 2)  # old-style RLE: repeat the previous pixel twice
        path.write_bytes(self._header(width, 1) + b"".join(px))
        with pytest.raises(ValueError, match="old-style RLE"):
            read_hdr(path)

    @pytest.mark.parametrize("fmt", [b"32-bit_rle_xyze", b"32-bit_rle_rgbe_extra", b""])
    def test_format_other_than_rgbe_rejected(self, tmp_path, fmt):
        # an XYZE file was decoded as if it held RGB
        path = tmp_path / "x.hdr"
        header = b"#?RADIANCE\nFORMAT=" + fmt + b"\r\n\n-Y 1 +X 4\n"
        path.write_bytes(header + rgbe_bytes(128, 64, 32, 129) * 4)
        with pytest.raises(ValueError, match="unsupported HDR"):
            read_hdr(path)

    def test_rgbe_format_line_with_crlf_accepted(self, tmp_path):
        path = tmp_path / "r.hdr"
        header = b"#?RADIANCE\r\nFORMAT=32-bit_rle_rgbe\r\n\r\n-Y 1 +X 4\n"
        path.write_bytes(header + rgbe_bytes(128, 64, 32, 129) * 4)
        np.testing.assert_allclose(read_hdr(path)[0], [[1.0, 0.5, 0.25]] * 4, atol=1e-7)

    def _texels(self, path, header_lines=b""):
        """Decode a 1x2 flat file of texel (128, 64, 32, 129) with extra header lines."""
        path.write_bytes(b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n" + header_lines
                         + b"\n-Y 1 +X 2\n" + rgbe_bytes(128, 64, 32, 129) * 2)
        return read_hdr(path)

    def test_exposure_divides_the_stored_values(self, tmp_path):
        plain = self._texels(tmp_path / "p.hdr")
        exposed = self._texels(tmp_path / "e.hdr", b"EXPOSURE=4.0\n")
        assert exposed.dtype == np.float32
        assert (exposed * 4 == plain).all()
        assert (exposed == plain / np.float32(4)).all()

    def test_exposure_lines_multiply(self, tmp_path):
        plain = self._texels(tmp_path / "p.hdr")
        twice = self._texels(tmp_path / "e.hdr", b"EXPOSURE=2\nEXPOSURE= 4\n")
        assert (twice * 8 == plain).all()

    def test_colorcorr_divides_per_channel(self, tmp_path):
        plain = self._texels(tmp_path / "p.hdr")
        corrected = self._texels(tmp_path / "c.hdr", b"COLORCORR=1 2 4\n")
        assert (corrected * np.float32([1, 2, 4]) == plain).all()
        np.testing.assert_array_equal(corrected[0, 0], [1.0, 0.25, 0.0625])

    def test_product_of_one_keeps_the_bits(self, tmp_path):
        plain = self._texels(tmp_path / "p.hdr")
        unit = self._texels(tmp_path / "u.hdr", b"EXPOSURE=2\nEXPOSURE=0.5\nCOLORCORR=1 1 1\n")
        assert unit.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("line", [
        b"EXPOSURE=0", b"EXPOSURE=-1", b"EXPOSURE=nan", b"EXPOSURE=abc", b"EXPOSURE=inf",
        b"EXPOSURE=", b"COLORCORR=1 2", b"COLORCORR=1 0 1", b"COLORCORR=1 2 3 4",
        b"EXPOSURE=1e300\nEXPOSURE=1e300",
        # finite positive products so small that a texel overflows float32
        b"EXPOSURE=1e-300", b"COLORCORR=1 1e-39 1",
    ])
    def test_invalid_multiplier_rejected(self, tmp_path, line):
        with warnings.catch_warnings(), pytest.raises(ValueError, match="EXPOSURE|COLORCORR"):
            warnings.simplefilter("error")  # one ValueError, not numpy's overflow warning
            self._texels(tmp_path / "bad.hdr", line + b"\n")

    @pytest.mark.parametrize("tail", [
        pytest.param(b"", id="before-count"),
        pytest.param(bytes([128 + 8]), id="before-run-value"),
    ])
    def test_truncated_rle_scanline_rejected(self, tmp_path, tail):
        # a first scanline of literal blocks is long enough for the payload-size
        # guard of two scanlines; the second then ends inside its red channel
        marker = b"\x02\x02" + struct.pack(">H", 8)
        literal = marker + (bytes([8]) + bytes(range(1, 9))) * 3 + bytes([8]) + bytes([136] * 8)
        path = tmp_path / "t.hdr"
        path.write_bytes(self._header(8, 2) + literal + marker + tail)
        with pytest.raises(ValueError, match="truncated HDR RLE scanline"):
            read_hdr(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.hdr"
        path.write_bytes(b"JUNK\n")
        with pytest.raises(ValueError, match="not a Radiance"):
            read_hdr(path)



class TestPng:
    def test_uint8_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(6, 9, 3), dtype=np.uint8)
        path = tmp_path / "a.png"
        write_png(path, img)
        back, meta = read_png(path)
        assert (np.round(back * 255).astype(np.uint8) == img).all()
        assert meta == {}

    def test_float_quantization_rule(self, tmp_path):
        img = np.full((2, 2, 3), 0.5)
        path = tmp_path / "b.png"
        write_png(path, img)
        back, _ = read_png(path)
        assert (back == 128.0 / 255.0).all()  # round half away from zero

    def test_metadata_round_trip(self, tmp_path):
        path = tmp_path / "c.png"
        write_png(path, np.zeros((2, 2, 3)), metadata={"tonecurve": "agx", "a": "1"})
        _, meta = read_png(path)
        assert meta == {"tonecurve": "agx", "a": "1"}

    def test_srgb_chunk_present(self, tmp_path):
        path = tmp_path / "d.png"
        write_png(path, np.zeros((2, 2, 3)))
        assert b"sRGB" in path.read_bytes()

    def test_byte_deterministic(self, tmp_path, rng):
        img = rng.random((8, 8, 3))
        p1, p2 = tmp_path / "e1.png", tmp_path / "e2.png"
        write_png(p1, img, metadata={"k": "v"})
        write_png(p2, img, metadata={"k": "v"})
        assert p1.read_bytes() == p2.read_bytes()

    def test_out_of_range_float_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            write_png(tmp_path / "f.png", np.full((2, 2, 3), 1.5))

    def test_nan_rejected(self, tmp_path):
        img = np.full((2, 2, 3), 0.5)
        img[1, 0, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            write_png(tmp_path / "g.png", img)
        assert not (tmp_path / "g.png").exists()

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 1), (2, 2, 4), (2, 2, 3, 1)])
    def test_only_rgb_accepted(self, tmp_path, shape):
        with pytest.raises(ValueError, match="\\(H, W, 3\\)"):
            write_png(tmp_path / "h.png", np.zeros(shape))

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    @pytest.mark.parametrize("shape", [(0, 0, 3), (0, 4, 3), (3, 0, 3)])
    def test_writer_refuses_an_empty_image(self, tmp_path, shape, dtype):
        # `read_png` rejects a zero dimension; (0, 4, 3) used to raise IndexError
        with pytest.raises(ValueError, match="non-empty"):
            write_png(tmp_path / "e.png", np.zeros(shape, dtype=dtype))
        assert list(tmp_path.iterdir()) == []

    def test_reads_all_filter_types(self, tmp_path, rng):
        # one PNG per filter type, each decoded exactly
        img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        for ftype in range(5):
            path = tmp_path / f"filter{ftype}.png"
            path.write_bytes(png_with_row_filters(img, [ftype] * 5))
            back, _ = read_png(path)
            assert (np.round(back * 255).astype(np.uint8) == img).all(), f"filter {ftype}"

    def test_rejects_16_bit(self, tmp_path):
        def chunk(tag, body):
            return (
                struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF)
            )
        blob = (
            b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 16, 2, 0, 0, 0))
            + chunk(b"IEND", b"")
        )
        path = tmp_path / "deep.png"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="8-bit"):
            read_png(path)

    def test_not_png_rejected(self, tmp_path):
        path = tmp_path / "no.png"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError, match="not a PNG"):
            read_png(path)

    def test_corrupt_idat_rejected(self, tmp_path, rng):
        path = tmp_path / "corrupt.png"
        write_png(path, rng.random((4, 4, 3)))
        blob = bytearray(path.read_bytes())
        idat_at = blob.find(b"IDAT")
        blob[idat_at + 8] ^= 0xFF  # flip a byte inside the compressed stream
        (length,) = struct.unpack_from(">I", blob, idat_at - 4)
        crc_at = idat_at + 4 + length  # keep the CRC valid so zlib sees the damage
        blob[crc_at : crc_at + 4] = struct.pack(">I", zlib.crc32(blob[idat_at:crc_at]))
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="PNG"):
            read_png(path)

    @staticmethod
    def _png(path, width, height, color_type, stream):
        def chunk(tag, body):
            return (struct.pack(">I", len(body)) + tag + body
                    + struct.pack(">I", zlib.crc32(tag + body)))

        path.write_bytes(
            b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0))
            + chunk(b"IDAT", stream)
            + chunk(b"IEND", b"")
        )

    def test_gray_expands_to_rgb(self, tmp_path, rng):
        gray = rng.integers(0, 256, (3, 5), dtype=np.uint8)
        rows = np.hstack([np.zeros((3, 1), np.uint8), gray])  # filter 0 on every row
        path = tmp_path / "gray.png"
        self._png(path, 5, 3, 0, zlib.compress(rows.tobytes()))
        img, _ = read_png(path)
        assert img.shape == (3, 5, 3)
        assert (img == (gray / 255.0)[..., None]).all()

    def test_rgba_drops_alpha(self, tmp_path, rng):
        rgba = rng.integers(0, 256, (3, 5, 4), dtype=np.uint8)
        rows = np.hstack([np.zeros((3, 1), np.uint8), rgba.reshape(3, 20)])
        path = tmp_path / "rgba.png"
        self._png(path, 5, 3, 6, zlib.compress(rows.tobytes()))
        img, _ = read_png(path)
        assert (img == rgba[..., :3] / 255.0).all()

    @pytest.mark.parametrize("width, height", [(0, 2), (2, 0)])
    def test_zero_dimension_rejected(self, tmp_path, width, height):
        path = tmp_path / "empty.png"
        self._png(path, width, height, 2, zlib.compress(b""))
        with pytest.raises(ValueError, match="dimensions must be positive"):
            read_png(path)

    def test_inflate_bomb_rejected_in_bounded_memory(self, tmp_path):
        deflate = zlib.compressobj(9)
        block = bytes(1 << 20)
        stream = b"".join(deflate.compress(block) for _ in range(100)) + deflate.flush()
        path = tmp_path / "bomb.png"
        self._png(path, 1, 1, 2, stream)  # 1x1 RGB needs 4 bytes; this inflates to 100 MiB
        with allocation_peak() as probe, pytest.raises(ValueError, match="size mismatch"):
            read_png(path)
        assert probe.bytes < 10 * 2**20

    def test_huge_declared_size_rejected(self, tmp_path):
        path = tmp_path / "huge.png"
        self._png(path, 2**32 - 1, 2**32 - 1, 6, zlib.compress(b"abc"))
        with pytest.raises(ValueError, match="size mismatch"):
            read_png(path)

    def test_bad_chunk_crc_rejected(self, tmp_path, rng):
        path = tmp_path / "crc.png"
        write_png(path, rng.random((4, 4, 3)))
        blob = bytearray(path.read_bytes())
        blob[blob.find(b"IEND") - 5] ^= 0xFF  # last byte of the IDAT CRC; data intact
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="IDAT.*CRC"):
            read_png(path)

    def test_chunk_past_end_of_file_rejected(self, tmp_path, rng):
        path = tmp_path / "overrun.png"
        write_png(path, rng.random((4, 4, 3)))
        blob = path.read_bytes()
        # replace IEND with a tEXt chunk declaring 1000 bytes where 10 follow
        blob = blob[: blob.find(b"IEND") - 4] + b"\x00\x00\x03\xe8tEXtcomment\x00ab"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="past the end"):
            read_png(path)

    def test_truncated_chunk_rejected(self, tmp_path, rng):
        path = tmp_path / "trunc.png"
        write_png(path, rng.random((4, 4, 3)))
        path.write_bytes(path.read_bytes()[:-30])
        with pytest.raises(ValueError, match="PNG"):
            read_png(path)


def inflated_idat(path):
    """The inflated payload of a PNG file's IDAT chunks, as (H, 1 + 3W) rows."""
    blob = path.read_bytes()
    width, height = struct.unpack_from(">II", blob, 16)
    pos, idat = 8, b""
    while pos < len(blob):
        (length,) = struct.unpack_from(">I", blob, pos)
        if blob[pos + 4 : pos + 8] == b"IDAT":
            idat += blob[pos + 8 : pos + 8 + length]
        pos += 12 + length
    raw = zlib.decompress(idat)
    assert len(raw) == height * (1 + 3 * width)
    return np.frombuffer(raw, dtype=np.uint8).reshape(height, 1 + 3 * width)


def assert_written_as_up_rows(path, expected):
    """The file decodes to `expected` (uint8), every row is Up-filtered, and
    the per-byte unfilter of the payload gives the same pixels."""
    back, _ = read_png(path)
    assert (np.round(back * 255).astype(np.uint8) == expected).all()
    payload = inflated_idat(path)
    assert (payload[:, 0] == 2).all()
    height = expected.shape[0]
    assert (unfilter_by_rows(payload, 3) == expected.reshape(height, -1)).all()


_shapes = st.tuples(st.integers(1, 9), st.integers(1, 9), st.just(3))  # 1x1, 1xW, Hx1, odd W
# any [0, 1] value, the ends of the 8-bit grid and its exact half steps (k + 0.5)/255
_levels = st.one_of(st.floats(0.0, 1.0),
                    st.sampled_from([0.0, 1.0] + [(k + 0.5) / 255.0 for k in range(255)]))
_float_images = st.sampled_from([np.float32, np.float64]).flatmap(
    lambda dtype: arrays(dtype, _shapes, elements=_levels.map(dtype))
)


class TestPngWriter:
    """Every row Up-filtered at any size; decoded pixels as written. File
    bytes and sizes are not pinned: deflate output differs between zlib
    builds."""

    @settings(max_examples=150, deadline=None)
    @given(img=arrays(np.uint8, _shapes))
    def test_uint8_round_trip(self, tmp_path_factory, img):
        path = tmp_path_factory.mktemp("up") / "u.png"
        write_png(path, img)
        assert_written_as_up_rows(path, img)

    @settings(max_examples=150, deadline=None)
    @given(img=_float_images)
    def test_float_round_trip(self, tmp_path_factory, img):
        before = img.copy()
        path = tmp_path_factory.mktemp("up") / "f.png"
        write_png(path, img)
        expected = np.floor(img.astype(np.float64) * 255.0 + 0.5).astype(np.uint8)
        assert_written_as_up_rows(path, expected)
        assert (img == before).all()  # the input is not scaled in place
        # one 8-bit rounding: the decoded file is quantize8 of the input, bit for bit
        assert read_png(path)[0].tobytes() == quantize8(img).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_quantization_on_grid_and_half_steps(self, tmp_path, dtype):
        levels = np.concatenate([np.arange(256), np.arange(255) + 0.5]) / 255.0
        img = np.repeat(levels.astype(dtype)[:, None, None], 3, axis=2)
        path = tmp_path / "q.png"
        write_png(path, img)
        expected = np.floor(img.astype(np.float64) * 255.0 + 0.5).astype(np.uint8)
        assert (expected[:256, 0, 0] == np.arange(256)).all()
        assert_written_as_up_rows(path, expected)


def unfilter_line(ftype, line, prev, bpp):
    """The per-byte PNG unfilter that the wavefront one replaced (oracle)."""
    if ftype == 0:
        return line
    if ftype == 2:
        return line + prev
    out = line.astype(np.int32)
    if ftype == 1:
        for i in range(bpp, out.size):
            out[i] = (out[i] + out[i - bpp]) & 0xFF
    elif ftype == 3:
        up = prev.astype(np.int32)
        for i in range(out.size):
            left = out[i - bpp] if i >= bpp else 0
            out[i] = (out[i] + ((left + up[i]) >> 1)) & 0xFF
    elif ftype == 4:
        up = prev.astype(np.int32)
        for i in range(out.size):
            a = out[i - bpp] if i >= bpp else 0
            b = up[i]
            c = up[i - bpp] if i >= bpp else 0
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
            out[i] = (out[i] + pred) & 0xFF
    else:
        raise ValueError(f"unknown PNG filter type {ftype}")
    return out.astype(np.uint8)


def unfilter_by_rows(payload, bpp):
    img = np.empty((payload.shape[0], payload.shape[1] - 1), dtype=np.uint8)
    prev = np.zeros(payload.shape[1] - 1, dtype=np.uint8)
    for y, row in enumerate(payload):
        img[y] = prev = unfilter_line(row[0], row[1:].copy(), prev, bpp)
    return img


BPP = {0: 1, 2: 3, 6: 4}  # bytes per pixel of each PNG colour type read_png accepts


def random_payload(rng, filters, width, bpp):
    payload = rng.integers(0, 256, size=(len(filters), 1 + width * bpp), dtype=np.uint8)
    payload[:, 0] = filters
    return payload


def assert_unfilter_parity(payload, bpp):
    height = payload.shape[0]
    got = _unfilter(payload, bpp)
    assert got.dtype == np.uint8 and got.shape == (height, (payload.shape[1] - 1) // bpp, bpp)
    np.testing.assert_array_equal(got.reshape(height, -1), unfilter_by_rows(payload, bpp))


class TestUnfilterParity:
    """The vectorized unfilter against the per-byte one, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), height=st.integers(1, 40), width=st.integers(1, 40),
           color_type=st.sampled_from(sorted(BPP)), top=st.sampled_from([2, 4]))
    def test_random_filters_and_bytes(self, data, height, width, color_type, top):
        # top 2 draws None, Sub and Up only, the images decoded row by row
        bpp = BPP[color_type]
        filters = data.draw(st.lists(st.integers(0, top), min_size=height, max_size=height))
        body = data.draw(st.binary(min_size=height * width * bpp,
                                   max_size=height * width * bpp))
        payload = np.empty((height, 1 + width * bpp), dtype=np.uint8)
        payload[:, 0] = filters
        payload[:, 1:] = np.frombuffer(body, dtype=np.uint8).reshape(height, -1)
        assert_unfilter_parity(payload, bpp)

    @pytest.mark.parametrize("bpp", sorted(BPP.values()))
    @pytest.mark.parametrize("height, width", [(300, 1), (1, 300)], ids=["column", "row"])
    def test_one_pixel_wide_or_high(self, rng, bpp, height, width):
        assert_unfilter_parity(random_payload(rng, rng.integers(0, 5, height), width, bpp), bpp)

    @pytest.mark.parametrize("bpp", sorted(BPP.values()))
    @pytest.mark.parametrize("last", [3, 4], ids=["avg", "paeth"])
    def test_avg_or_paeth_only_in_last_row(self, rng, bpp, last):
        filters = [0, 1, 2, 1, 0, 2, 2, last]
        assert_unfilter_parity(random_payload(rng, filters, 9, bpp), bpp)

    @pytest.mark.parametrize("bpp", sorted(BPP.values()))
    def test_five_filters_on_consecutive_rows(self, rng, bpp):
        for shift in range(5):
            filters = np.roll(np.arange(10) % 5, shift)
            assert_unfilter_parity(random_payload(rng, filters, 11, bpp), bpp)

    def test_two_decodes_share_one_table(self, tmp_path, rng):
        img = rng.integers(0, 256, (6, 7, 3), dtype=np.uint8)
        path = tmp_path / "paeth.png"
        path.write_bytes(png_with_row_filters(img, [4, 3, 1, 4, 0, 2]))
        _predictor_table.cache_clear()
        for _ in range(2):
            got, _ = read_png(path)
            np.testing.assert_array_equal(got, img / 255.0)
        info = _predictor_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert not _predictor_table().flags.writeable

    @pytest.mark.parametrize("ftype", [5, 255])
    def test_unknown_filter_rejected(self, tmp_path, rng, ftype):
        payload = random_payload(rng, [4, 1, ftype, 3], 5, 3)
        with pytest.raises(ValueError, match="unknown PNG filter type"):
            _unfilter(payload, 3)
        path = tmp_path / "bad_filter.png"
        TestPng._png(path, 5, 4, 2, zlib.compress(payload.tobytes()))
        with pytest.raises(ValueError, match=f"unknown PNG filter type {ftype}"):
            read_png(path)


class TestPngLayout:
    """read_png returns C-ordered float64 for every filter mix and colour type."""

    @pytest.mark.parametrize("color_type", sorted(BPP), ids=["gray", "rgb", "rgba"])
    @pytest.mark.parametrize("mix", ["up", "mixed"])
    def test_c_ordered_with_the_bits_of_the_decode(self, tmp_path, rng, color_type, mix):
        height, width, bpp = 23, 17, BPP[color_type]
        filters = np.full(height, 2) if mix == "up" else rng.permutation(np.arange(height) % 5)
        payload = random_payload(rng, filters, width, bpp)
        path = tmp_path / "img.png"
        TestPng._png(path, width, height, color_type, zlib.compress(payload.tobytes()))
        got, _ = read_png(path)
        # the decode as it was written before it fixed the order (oracle): the
        # wavefront unfilter's channel-planar layout survived the float copy
        img = _unfilter(payload, bpp)
        if bpp == 1:
            img = img.repeat(3, axis=2)
        elif bpp == 4:
            img = img[..., :3]
        want = img.astype(np.float64) / 255.0
        assert got.dtype == np.float64 and got.shape == (height, width, 3)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
