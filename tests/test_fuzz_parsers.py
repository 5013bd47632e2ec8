"""Property tests for every input boundary: arbitrary bytes fed to the PLY,
label, config and checkpoint parsers either parse or raise a PointVbError
subclass, never another exception; an edge value of any config key either
runs or exits with a documented code."""

import contextlib
import io
import os
import struct
import tempfile
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from pointvb.cli import main
from pointvb.config import SCHEMA, load_config
from pointvb.errors import PointVbError
from pointvb.pcio import load_labels, load_ply
from pointvb.training import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    TrainConfig,
    init_state,
    load_checkpoint,
    save_checkpoint,
)

FUZZ = settings(max_examples=300, deadline=None)

PLY_HEADER_LINES = [
    b"format ascii 1.0", b"format binary_little_endian 1.0", b"format",
    b"element vertex 2", b"element vertex 0", b"element face 1", b"element",
    b"property double x", b"property float y", b"property float32 z",
    b"property uchar red", b"property uint8 green", b"property uchar blue",
    b"property int x", b"property", b"property list uchar int vertex_indices",
    b"comment anything", b"", b"obj_info",
]

VERTEX_HEADER = b"".join(line + b"\n" for line in PLY_HEADER_LINES[3:4] +
                         PLY_HEADER_LINES[7:13])
ply_payload = st.binary(max_size=200) | \
    st.text("0123456789.-+eafin \n", max_size=200).map(str.encode)
ply_bytes = st.one_of(
    st.binary(),
    st.builds(  # header lines in any order, any payload
        lambda lines, payload: b"\n".join([b"ply", *lines, b"end_header"])
        + b"\n" + payload,
        st.lists(st.one_of(st.sampled_from(PLY_HEADER_LINES),
                           st.binary(max_size=24)), max_size=12),
        ply_payload,
    ),
    st.builds(  # a valid header, any payload
        lambda fmt, payload: b"ply\n" + fmt + b"\n" + VERTEX_HEADER
        + b"end_header\n" + payload,
        st.sampled_from(PLY_HEADER_LINES[:2]),
        ply_payload,
    ),
)


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    cfg = TrainConfig(phase="finetune", feature_dim=2, hidden_widths=(2,),
                      knn=1, num_classes=2)
    path = tmp_path_factory.mktemp("ckpt") / "valid.ckpt"
    save_checkpoint(init_state(cfg, with_head=True), cfg, path)
    return path.read_bytes()


def parses_or_raises_typed(load, path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        load(path)
    except PointVbError:
        pass


@FUZZ
@given(data=ply_bytes)
# a bare property line
@example(data=b"ply\nformat ascii 1.0\nelement vertex 1\nproperty\nend_header\n")
def test_load_ply(scratch, data):
    parses_or_raises_typed(load_ply, scratch, data)


@FUZZ
@given(data=st.binary() | st.text().map(lambda t: t.encode("utf-8")))
@example(data="0 1\n1 é\n".encode("utf-8"))  # a non-ASCII label file
def test_load_labels(scratch, data):
    parses_or_raises_typed(lambda p: load_labels(p, 4, 16), scratch, data)


@FUZZ
@given(data=st.binary() | st.text().map(lambda t: t.encode("utf-8")))
@example(data=b"seed = \xff\n")  # a config that is not UTF-8
def test_load_config(scratch, data):
    parses_or_raises_typed(load_config, scratch, data)


HUGE_TENSOR_META = b'{"tensors": [["a", [18446744073709551615]]]}'


@FUZZ
@given(body=st.binary())
# a tensor of 2**64 - 1 elements: in the version-1 record layout, and in the
# version-2 metadata's tensor list
@example(body=struct.pack("<I2sII1sIQ", 2, b"{}", 1, 1, b"a", 1, 2**64 - 1))
@example(body=struct.pack("<I", len(HUGE_TENSOR_META)) + HUGE_TENSOR_META)
def test_load_checkpoint_of_arbitrary_bytes(scratch, body):
    header = CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
    parses_or_raises_typed(load_checkpoint, scratch, with_crc(header + body))


@FUZZ
@given(at=st.integers(min_value=8), patch=st.binary(max_size=16),
       truncate=st.booleans())
def test_load_checkpoint_of_edited_bytes(scratch, checkpoint_bytes, at, patch,
                                         truncate):
    """A valid checkpoint with bytes overwritten (or cut) from `at` on, its
    checksum recomputed so the structural parse sees the edit."""
    body = checkpoint_bytes[:-4]
    at = min(at, len(body))
    body = body[:at] + patch + (b"" if truncate else body[at + len(patch):])
    parses_or_raises_typed(load_checkpoint, scratch, with_crc(body))


EDGE_RUN = """num_scenes = 2
val_scenes = 1
points_per_scene = 64
feature_dim = 8
hidden_widths = 16
knn = 8
fps_count = 32
pretrain_steps = 2
finetune_steps = 2
labels_per_scene = 8
"""


@settings(max_examples=4 * len(SCHEMA) * 5, deadline=None)
@given(key=st.sampled_from(list(SCHEMA)),
       edge=st.sampled_from(["0", "-1", "", "nan", "inf"]))
def test_run_with_an_edge_value(key, edge):
    """A tiny `pointvb run` with one key set to an edge value exits 1 naming
    the key, or with another documented code; it never raises. Relative
    paths (out_dir, data_dir, init_checkpoint) resolve in a fresh directory."""
    lines = [line for line in EDGE_RUN.splitlines()
             if not line.startswith(f"{key} ")]
    text = "\n".join(lines + [f"{key} = {edge}"]) + "\n"
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        os.chdir(work)
        try:
            with open("edge.cfg", "w", encoding="utf-8") as fh:
                fh.write(text)
            code = main(["run", "--config", "edge.cfg"])
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert f"'{key}'" in err.getvalue(), err.getvalue()
        assert f"line {len(lines) + 1}:" in err.getvalue(), err.getvalue()
