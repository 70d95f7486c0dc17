"""Decoder fuzzing: any byte string either decodes to an array or raises ValueError.

Each reader gets arbitrary bytes, bytes behind its format's magic, and
mutated valid files; PNG also gets well-formed chunk streams (valid CRCs)
with arbitrary chunk bodies, so the fuzzer reaches the IHDR, zlib and
unfilter code behind the CRC check. The fusion net loader, which reads the
`--net` file, gets bytes behind its magic and mutated valid nets and must
return a FusionNet or raise ValueError.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxprobe.fusion import N_PARAMS, FusionNet, init_uniform, load_fusion_net, save_fusion_net
from luxprobe.imgio import read_hdr, read_pfm, read_png

FUZZ = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.bin"


def assert_decodes_or_value_error(reader, blob, path):
    path.write_bytes(blob)
    try:
        out = reader(path)
    except ValueError:
        return
    image = out[0] if isinstance(out, tuple) else out
    assert isinstance(image, np.ndarray)
    assert image.ndim == 3 and image.shape[2] == 3


@st.composite
def mutated(draw, blob):
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        pos = draw(st.integers(0, len(data)))
        if op == "set" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif op == "delete":
            del data[pos : pos + draw(st.integers(1, 8))]
        elif op == "truncate":
            del data[pos:]
    return bytes(data)


def _chunk(tag, body):
    return struct.pack(">I", len(body)) + tag + body + struct.pack(">I", zlib.crc32(tag + body))


_HDR_HEADER = b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n"

# valid seed files for the mutation tests: a 2x4 RGB PFM, a 2x8 HDR with one
# RLE (runs and a literal) and one flat scanline, and a 3x8 RGB PNG whose
# rows use the Sub, Average and Paeth filters
PFM_SEED = b"PF\n4 2\n-1.0\n" + np.arange(24, dtype="<f4").tobytes()
HDR_SEED = (
    _HDR_HEADER
    + b"-Y 2 +X 8\n"
    + b"\x02\x02\x00\x08"
    + bytes([128 + 8, 10, 8]) + bytes(range(8))
    + bytes([128 + 4, 30, 128 + 4, 31, 128 + 8, 136])
    + bytes([128, 64, 32, 129]) * 8
)
PNG_SEED = (
    b"\x89PNG\r\n\x1a\n"
    + _chunk(b"IHDR", struct.pack(">IIBBBBB", 8, 3, 8, 2, 0, 0, 0))
    + _chunk(b"tEXt", b"key\x00value")
    + _chunk(b"IDAT", zlib.compress(b"".join(bytes([f]) + bytes(range(24)) for f in (1, 3, 4))))
    + _chunk(b"IEND", b"")
)


SEEDS = [(read_pfm, PFM_SEED), (read_hdr, HDR_SEED), (read_png, PNG_SEED)]
READER_IDS = ["pfm", "hdr", "png"]


@pytest.mark.parametrize("reader, blob", SEEDS, ids=READER_IDS)
def test_seed_files_decode(fuzz_path, reader, blob):
    fuzz_path.write_bytes(blob)
    out = reader(fuzz_path)
    image = out[0] if isinstance(out, tuple) else out
    assert image.ndim == 3 and image.shape[2] == 3


@pytest.mark.parametrize("reader", [read_pfm, read_hdr, read_png], ids=READER_IDS)
@FUZZ
@given(blob=st.binary(max_size=256))
def test_arbitrary_bytes(fuzz_path, reader, blob):
    assert_decodes_or_value_error(reader, blob, fuzz_path)


@pytest.mark.parametrize("reader, seed", SEEDS, ids=READER_IDS)
@FUZZ
@given(data=st.data())
def test_mutated_valid_file(fuzz_path, reader, seed, data):
    assert_decodes_or_value_error(reader, data.draw(mutated(seed)), fuzz_path)


@FUZZ
@given(
    st.sampled_from([b"PF", b"Pf"]),
    st.one_of(st.integers(-3, 8), st.integers(-(2**70), 2**70)),
    st.one_of(st.integers(-3, 8), st.integers(-(2**70), 2**70)),
    st.sampled_from([b"-1.0", b"1.0", b"0", b"-2.5", b"nan", b"-inf", b"1e308", b"x"]),
    st.binary(max_size=128),
)
def test_pfm_header_fields(fuzz_path, magic, width, height, scale, payload):
    blob = magic + b"\n%d %d\n" % (width, height) + scale + b"\n" + payload
    assert_decodes_or_value_error(read_pfm, blob, fuzz_path)


@FUZZ
@given(
    st.sampled_from([b"-Y", b"+Y"]),
    st.one_of(st.integers(-3, 20), st.integers(-(2**70), 2**70)),
    st.one_of(st.integers(-3, 20), st.integers(-(2**70), 2**70)),
    st.binary(max_size=256),
)
def test_hdr_resolution_and_payload(fuzz_path, ydir, height, width, payload):
    blob = _HDR_HEADER + ydir + b" %d +X %d\n" % (height, width) + payload
    assert_decodes_or_value_error(read_hdr, blob, fuzz_path)


@FUZZ
@given(st.integers(8, 40), st.binary(max_size=256))
def test_hdr_rle_scanline(fuzz_path, width, body):
    blob = _HDR_HEADER + b"-Y 1 +X %d\n" % width + b"\x02\x02" + struct.pack(">H", width)
    assert_decodes_or_value_error(read_hdr, blob + body, fuzz_path)


@FUZZ
@given(st.binary(max_size=256))
def test_png_bytes_after_signature(fuzz_path, blob):
    assert_decodes_or_value_error(read_png, b"\x89PNG\r\n\x1a\n" + blob, fuzz_path)


@FUZZ
@given(
    st.lists(
        st.tuples(
            st.sampled_from([b"IHDR", b"IDAT", b"tEXt", b"IEND", b"zzZz"]),
            st.one_of(
                st.binary(max_size=32),
                st.binary(max_size=200).map(zlib.compress),
                st.builds(
                    struct.pack,
                    st.just(">IIBBBBB"),
                    st.integers(0, 40),
                    st.integers(0, 40),
                    st.sampled_from([1, 8, 16]),
                    st.sampled_from([0, 2, 3, 6]),
                    st.just(0),
                    st.just(0),
                    st.integers(0, 1),
                ),
            ),
        ),
        max_size=6,
    )
)
def test_png_chunk_streams_with_valid_crcs(fuzz_path, chunks):
    blob = b"\x89PNG\r\n\x1a\n" + b"".join(_chunk(tag, body) for tag, body in chunks)
    assert_decodes_or_value_error(read_png, blob, fuzz_path)


@pytest.fixture(scope="module")
def net_seed(tmp_path_factory):
    path = tmp_path_factory.mktemp("net") / "net.bin"
    save_fusion_net(init_uniform(0, dtype=np.float32), path)
    return path.read_bytes()


def assert_net_or_value_error(blob, path):
    path.write_bytes(blob)
    try:
        net = load_fusion_net(path)
    except ValueError:
        return
    assert isinstance(net, FusionNet)
    assert net.params.shape == (N_PARAMS,) and np.isfinite(net.params).all()


def test_net_seed_loads(fuzz_path, net_seed):
    fuzz_path.write_bytes(net_seed)
    assert isinstance(load_fusion_net(fuzz_path), FusionNet)


@FUZZ
@given(blob=st.binary(max_size=256))
def test_net_bytes_after_magic(fuzz_path, blob):
    assert_net_or_value_error(b"LXFN" + blob, fuzz_path)


@FUZZ
@given(data=st.data())
def test_net_mutated_valid_file(fuzz_path, net_seed, data):
    assert_net_or_value_error(data.draw(mutated(net_seed)), fuzz_path)
