"""Point-cloud and label ingestion, synthetic scenes, and dataset manifests.

Clouds are position+color arrays; labels are per-point class ids with -1
marking unlabeled points. PLY files are read from ASCII or binary
little-endian vertex data with x/y/z float and red/green/blue uint8
properties, and written as binary.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, LabelError, PlyParseError

ABSENT = -1

_PLY_STRUCT_CODES = {
    "char": "b", "int8": "b", "uchar": "B", "uint8": "B",
    "short": "h", "int16": "h", "ushort": "H", "uint16": "H",
    "int": "i", "int32": "i", "uint": "I", "uint32": "I",
    "float": "f", "float32": "f", "double": "d", "float64": "d",
}


@dataclass
class PointCloud:
    """M points with 3D positions (meters) and RGB colors in [0, 255]."""

    positions: np.ndarray  # (M, 3) float64
    colors: np.ndarray     # (M, 3) float64

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        self.colors = np.ascontiguousarray(self.colors, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise DataError(f"positions must be (M, 3), got {self.positions.shape}")
        if self.colors.shape != self.positions.shape:
            raise DataError(
                f"colors shape {self.colors.shape} does not match positions "
                f"{self.positions.shape}"
            )
        if len(self.positions) < 1:
            raise DataError("point cloud must contain at least one point")
        if not np.isfinite(self.positions).all():
            raise DataError("non-finite coordinates in point cloud")
        if not np.isfinite(self.colors).all():
            raise DataError("non-finite colors in point cloud")
        self.colors = np.clip(self.colors, 0.0, 255.0)  # never the caller's array

    def __len__(self) -> int:
        return len(self.positions)


@dataclass
class SparseLabelSet:
    """Per-point optional class ids; ABSENT (-1) marks unlabeled points."""

    labels: np.ndarray  # (M,) int64, each in {-1} | [0, num_classes)
    num_classes: int

    def __post_init__(self):
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1:
            raise LabelError("labels must be a 1-D array")
        if self.num_classes < 1:
            raise LabelError("num_classes must be positive")
        bad = (self.labels < ABSENT) | (self.labels >= self.num_classes)
        if bad.any():
            raise LabelError(
                f"label {self.labels[bad][0]} outside [0, {self.num_classes})"
            )

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def present_mask(self) -> np.ndarray:
        return self.labels != ABSENT


@dataclass
class SceneSet:
    """Ordered collection of (cloud, labels) scenes with a split tag."""

    scenes: list[tuple[PointCloud, SparseLabelSet]]
    split: str = "train"
    scene_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.scenes:
            raise DataError("scene set must be nonempty")
        if not self.scene_ids:
            self.scene_ids = [str(i) for i in range(len(self.scenes))]
        if not len(set(self.scene_ids)) == len(self.scene_ids) == len(self.scenes):
            raise DataError("scene ids must be unique, one a scene")
        for cloud, labels in self.scenes:
            if len(cloud) != len(labels):
                raise LabelError(
                    f"label count {len(labels)} does not match cloud size {len(cloud)}"
                )

    def __len__(self) -> int:
        return len(self.scenes)


def _parse_ply_header(raw: bytes, path: str):
    """Parse the header; returns (format, vertex spec, payload offset)."""
    end = raw.find(b"end_header\n")
    if end < 0:
        raise PlyParseError(f"{path}: missing end_header", len(raw))
    payload_offset = end + len(b"end_header\n")
    try:
        header = raw[:end].decode("ascii")
    except UnicodeDecodeError as exc:
        raise PlyParseError(f"{path}: non-ASCII header", exc.start) from None
    lines = header.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise PlyParseError(f"{path}: missing 'ply' magic line", 0)

    fmt = None
    elements = []  # list of [name, count, properties]
    offset = len(lines[0]) + 1
    for line in lines[1:]:
        tokens = line.split()
        if not tokens or tokens[0] == "comment":
            pass
        elif tokens[0] == "format":
            if len(tokens) != 3:
                raise PlyParseError(f"{path}: malformed format line", offset)
            fmt = tokens[1]
            if fmt not in ("ascii", "binary_little_endian"):
                raise PlyParseError(
                    f"{path}: unsupported format '{fmt}'", offset
                )
        elif tokens[0] == "element":
            if len(tokens) != 3 or not tokens[2].isdigit():
                raise PlyParseError(f"{path}: malformed element line", offset)
            elements.append([tokens[1], int(tokens[2]), []])
        elif tokens[0] == "property":
            if not elements:
                raise PlyParseError(f"{path}: property before element", offset)
            if tokens[1:2] == ["list"]:
                if len(tokens) != 5:
                    raise PlyParseError(f"{path}: malformed list property", offset)
                elements[-1][2].append(("list", tokens[2], tokens[3], tokens[4]))
            else:
                if len(tokens) != 3 or tokens[1] not in _PLY_STRUCT_CODES:
                    raise PlyParseError(
                        f"{path}: unsupported property line '{line}'", offset
                    )
                elements[-1][2].append(("scalar", tokens[1], tokens[2]))
        else:
            raise PlyParseError(f"{path}: unknown header keyword '{tokens[0]}'", offset)
        offset += len(line) + 1
    if fmt is None:
        raise PlyParseError(f"{path}: header has no format line", payload_offset)

    vertex_index = next(
        (i for i, e in enumerate(elements) if e[0] == "vertex"), None
    )
    if vertex_index is None:
        raise PlyParseError(f"{path}: no vertex element", payload_offset)
    for prior in elements[:vertex_index]:
        if prior[1] > 0:
            raise PlyParseError(
                f"{path}: element '{prior[0]}' precedes vertex data; unsupported",
                payload_offset,
            )
    name, count, props = elements[vertex_index]
    if any(p[0] == "list" for p in props):
        raise PlyParseError(f"{path}: list property in vertex element", payload_offset)
    prop_names = [p[2] for p in props]
    for required in ("x", "y", "z", "red", "green", "blue"):
        if required not in prop_names:
            raise PlyParseError(
                f"{path}: missing required vertex property '{required}'",
                payload_offset,
            )
    for p in props:
        if p[2] in ("x", "y", "z") and p[1] not in ("float", "float32", "double", "float64"):
            raise PlyParseError(
                f"{path}: property '{p[2]}' must be float typed", payload_offset
            )
        if p[2] in ("red", "green", "blue") and p[1] not in ("uchar", "uint8"):
            raise PlyParseError(
                f"{path}: property '{p[2]}' must be uchar", payload_offset
            )
    if len(elements) > vertex_index + 1:
        skipped = ", ".join(e[0] for e in elements[vertex_index + 1:])
        warnings.warn(f"{path}: skipping trailing PLY elements: {skipped}")
    return fmt, count, props, payload_offset


def load_ply(path: str | Path) -> PointCloud:
    """Load a PLY point cloud (ASCII or binary little-endian vertices)."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None
    fmt, count, props, payload_offset = _parse_ply_header(raw, str(path))
    if count < 1:
        raise PlyParseError(f"{path}: vertex count must be >= 1", payload_offset)
    names = [p[2] for p in props]
    want = {n: names.index(n) for n in ("x", "y", "z", "red", "green", "blue")}

    if fmt == "ascii":
        text = raw[payload_offset:].decode("ascii", errors="replace")
        rows = []  # (line, byte offset) for non-blank payload lines
        offset = payload_offset
        for line in text.splitlines():
            if line.strip():
                rows.append((line, offset))
            offset += len(line) + 1
        if len(rows) < count:  # before allocating: the header cannot size it
            raise PlyParseError(f"{path}: payload truncated at vertex "
                                f"{len(rows)} of {count}", offset)
        values = np.zeros((count, 6), dtype=np.float64)
        for i, (line, line_offset) in enumerate(rows[:count]):
            tokens = line.split()
            if len(tokens) < len(props):
                raise PlyParseError(
                    f"{path}: vertex {i} has {len(tokens)} values, expected "
                    f"{len(props)}", line_offset
                )
            try:
                values[i] = [float(tokens[j]) for j in want.values()]
            except ValueError:
                raise PlyParseError(
                    f"{path}: non-numeric value in vertex {i}", line_offset
                ) from None
        return PointCloud(values[:, :3], values[:, 3:])

    # binary_little_endian
    codes = [_PLY_STRUCT_CODES[p[1]] for p in props]
    dtype = np.dtype([(f"f{i}", "<" + c) for i, c in enumerate(codes)])
    payload = raw[payload_offset:]
    if len(payload) < dtype.itemsize * count:
        have = len(payload) // dtype.itemsize
        raise PlyParseError(
            f"{path}: payload truncated at vertex {have} of {count}",
            payload_offset + have * dtype.itemsize,
        )
    table = np.frombuffer(payload, dtype=dtype, count=count)
    values = np.stack([table[f"f{j}"].astype(np.float64) for j in want.values()],
                      axis=1)
    return PointCloud(values[:, :3], values[:, 3:])


def save_ply(cloud: PointCloud, path: str | Path) -> None:
    """Write a cloud as binary PLY, in double precision for bit-exact I/O."""
    m = len(cloud)
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {m}\n"
        "property double x\n"
        "property double y\n"
        "property double z\n"
        "property uchar red\n"
        "property uchar green\n"
        "property uchar blue\n"
        "end_header\n"
    )
    records = np.empty(m, dtype=[("xyz", "<f8", 3), ("rgb", "u1", 3)])
    records["xyz"] = cloud.positions
    records["rgb"] = np.rint(cloud.colors).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(records.tobytes())


def load_labels(path: str | Path, num_classes: int, num_points: int) -> SparseLabelSet:
    """Load sparse labels from an `index class` text file.

    Unlisted points become ABSENT. Indices must be strictly increasing;
    '#' starts a comment. A file of `index class` lines alone that passes
    every check is parsed in one pass; any other goes line by line.
    """
    path = Path(path)
    labels = np.full(num_points, ABSENT, dtype=np.int64)
    previous = -1
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise LabelError(f"{path}: non-ASCII byte at offset {exc.start}") from None
    except OSError as exc:
        raise LabelError(f"{path}: cannot read: {exc.strerror}") from None
    if re.fullmatch(r"(?:[0-9]{1,18} [0-9]{1,18}\n)*", text):  # 18 digits fit int64
        index, cls = np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, 2).T
        if (np.diff(index) > 0).all() and (index < num_points).all() \
                and (cls < num_classes).all():
            labels[index] = cls
            return SparseLabelSet(labels, num_classes)
    for lineno, line in enumerate(text.split("\n"), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        if len(tokens) != 2:
            raise LabelError(f"{path}:{lineno}: expected 'index class', got '{body}'")
        try:
            index, cls = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise LabelError(f"{path}:{lineno}: non-integer field") from None
        if index < 0:
            raise LabelError(f"{path}:{lineno}: negative index {index}")
        if index <= previous:
            kind = "duplicate" if index == previous else "non-increasing"
            raise LabelError(f"{path}:{lineno}: {kind} index {index}")
        if index >= num_points:
            raise LabelError(f"{path}:{lineno}: index {index} >= point count {num_points}")
        if not 0 <= cls < num_classes:
            raise LabelError(
                f"{path}:{lineno}: class {cls} outside [0, {num_classes})"
            )
        labels[index] = cls
        previous = index
    return SparseLabelSet(labels, num_classes)


def save_labels(labels: SparseLabelSet, path: str | Path) -> None:
    """Write present labels as `index class` lines."""
    rows = np.flatnonzero(labels.present_mask)
    pairs = np.stack([rows, labels.labels[rows]], axis=1).ravel().tolist()
    Path(path).write_text("%d %d\n" * len(rows) % tuple(pairs), encoding="ascii")


def generate_synthetic_scene(
    seed: int, num_points: int, num_classes: int
) -> tuple[PointCloud, SparseLabelSet]:
    """Generate a fully labeled desk-scale scene of colored box clusters.

    Class 0 is a floor slab; classes 1..S-1 are boxes placed on it at
    random locations. Box colors and extents correlate with the class, so
    geometry+color carries the label signal, with enough color noise that
    neither cue alone is clean.
    """
    if num_classes < 2:
        raise DataError("need at least 2 classes")
    if num_points < num_classes:
        raise DataError("need at least one point per class")
    rng = np.random.default_rng(seed)

    # Fixed per-class palette and box extents, independent of the seed so
    # that class identity means the same thing across scenes.
    palette_rng = np.random.default_rng(123456789)
    palette = palette_rng.uniform(40.0, 215.0, size=(num_classes, 3))
    extents = palette_rng.uniform(0.25, 0.9, size=(num_classes, 3))
    heights = palette_rng.uniform(0.3, 1.2, size=num_classes)

    counts = np.full(num_classes, num_points // num_classes, dtype=np.int64)
    counts[: num_points - counts.sum()] += 1

    positions = np.empty((num_points, 3))
    colors = np.empty((num_points, 3))
    labels = np.empty(num_points, dtype=np.int64)
    cursor = 0
    for cls in range(num_classes):
        n = counts[cls]
        sel = slice(cursor, cursor + n)
        if cls == 0:
            # floor slab over the whole 6 m x 6 m room
            pos = rng.uniform([-3.0, -3.0, 0.0], [3.0, 3.0, 0.02], size=(n, 3))
        else:
            center = rng.uniform(-2.2, 2.2, size=2)
            ext = extents[cls]
            pos = rng.uniform(-0.5, 0.5, size=(n, 3)) * ext
            pos[:, 0] += center[0]
            pos[:, 1] += center[1]
            pos[:, 2] = rng.uniform(0.0, heights[cls], size=n)
        positions[sel] = pos
        colors[sel] = palette[cls] + rng.normal(0.0, 30.0, size=(n, 3))
        labels[sel] = cls
        cursor += n
    np.clip(colors, 0.0, 255.0, out=colors)
    return PointCloud(positions, colors), SparseLabelSet(labels, num_classes)


def subsample_labels(labels: SparseLabelSet, k: int, seed: int) -> SparseLabelSet:
    """Keep exactly k present labels, chosen uniformly without replacement."""
    if k < 1:
        raise LabelError("k must be >= 1")
    present = np.flatnonzero(labels.present_mask)
    if len(present) < k:
        raise LabelError(f"only {len(present)} present labels, need {k}")
    rng = np.random.default_rng(seed)
    keep = rng.choice(present, size=k, replace=False)
    out = np.full(len(labels), ABSENT, dtype=np.int64)
    out[keep] = labels.labels[keep]
    return SparseLabelSet(out, labels.num_classes)


def make_directory(path: str | Path) -> Path:
    """path as a directory, made with its parents when missing."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{path}: cannot make a directory: {exc.strerror}") from None
    return Path(path)


def check_scene_directory(scenes: SceneSet, directory: str | Path) -> None:
    """Refuse a directory that holds a scene_<id>.ply or .labels file of an
    id not among scenes': writing them there would mix two datasets."""
    ids = set(scenes.scene_ids)
    stale = sorted(path.name for path in Path(directory).glob("scene_*")
                   if path.suffix in (".ply", ".labels")
                   and path.stem[len("scene_"):] not in ids)
    if stale:
        raise DataError(f"{directory} holds files of other scenes, such as {stale[0]}")


def write_scene_set(scenes: SceneSet, directory: str | Path) -> None:
    """Write scenes as scene_<id>.ply + .labels files, if check_scene_directory allows."""
    check_scene_directory(scenes, directory)
    directory = make_directory(directory)
    for scene_id, (cloud, labels) in zip(scenes.scene_ids, scenes.scenes):
        save_ply(cloud, directory / f"scene_{scene_id}.ply")
        save_labels(labels, directory / f"scene_{scene_id}.labels")


def load_scene_set(
    directory: str | Path, num_classes: int, split: str
) -> SceneSet:
    """Load a scene_<id>.ply + scene_<id>.labels manifest directory."""
    directory = Path(directory)
    ply_files = sorted(directory.glob("scene_*.ply"))
    if not ply_files:
        raise DataError(f"no scene_*.ply files in {directory}")
    scenes = []
    scene_ids = []
    for ply_path in ply_files:
        scene_id = ply_path.stem[len("scene_"):]
        cloud = load_ply(ply_path)
        label_path = ply_path.with_suffix(".labels")
        if label_path.exists():
            labels = load_labels(label_path, num_classes, len(cloud))
        else:
            labels = SparseLabelSet(
                np.full(len(cloud), ABSENT, dtype=np.int64), num_classes
            )
        scenes.append((cloud, labels))
        scene_ids.append(scene_id)
    return SceneSet(scenes, split=split, scene_ids=scene_ids)
