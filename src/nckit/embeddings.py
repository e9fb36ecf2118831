"""Labeled embedding sets and their on-disk formats.

An embedding set is an ordered list of (class label, feature vector) rows
with one fixed feature dimension. Two interchange formats are supported:

* CSV: first line is exactly ``label,f0,f1,...,f{p-1}``; every following
  line holds one integer label and p decimal reals. UTF-8, ``\\n`` line
  endings. Floats are written with shortest round-trip precision, so a
  save/load cycle reproduces the values exactly.
* Binary: magic ``NCEB``, format version (u32 LE) = 1, row count (u64 LE),
  dim (u32 LE), then per row a u32 LE label followed by dim IEEE-754
  float64 LE values. Bit-exact round trips.

All containers are immutable after construction (backing arrays are marked
read-only) and safe for concurrent read-only use.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

BINARY_MAGIC = b"NCEB"
BINARY_VERSION = 1
FORMATS = ("csv", "binary")

_BINARY_HEADER = struct.Struct("<4sIQI")  # magic, version, row count, dim


class FormatError(ValueError):
    """An embedding file violates the CSV or binary layout."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


@dataclass(frozen=True, eq=False)
class LabeledEmbeddings:
    """A validated set of feature rows tagged with integer class labels.

    ``labels`` is an int64 vector of non-negative class ids and
    ``features`` a float64 matrix with one row per label. Labels need not
    be contiguous. All feature values must be finite.
    """

    labels: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.labels)
        # checked before the int64 cast, which would truncate or warn
        if raw.dtype.kind == "f" and not ((raw == np.floor(raw)) & (abs(raw) < 2.0**63)).all():
            raise ValueError("class labels must be integers")
        labels = np.ascontiguousarray(raw, dtype=np.int64)
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array of shape (rows, dim)")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError("labels must be a 1-D array with one entry per feature row")
        if features.shape[0] == 0:
            raise ValueError("an embedding set needs at least one row")
        if features.shape[1] == 0:
            raise ValueError("feature dimension must be positive")
        if labels.min() < 0:
            raise ValueError("class labels must be non-negative integers")
        if not np.isfinite(features).all():
            bad = int(np.flatnonzero(~np.isfinite(features).all(axis=1))[0])
            raise ValueError(f"row {bad}: non-finite feature value")
        labels.setflags(write=False)
        features.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "features", features)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def class_ids(self) -> np.ndarray:
        """Distinct labels in ascending order."""
        return np.unique(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledEmbeddings):
            return NotImplemented
        return np.array_equal(self.labels, other.labels) and np.array_equal(
            self.features, other.features
        )


@dataclass(frozen=True, eq=False)
class ClassPartition:
    """Feature rows grouped by class label.

    ``groups`` maps each class id to its (m_c, dim) feature block and
    iterates in ascending label order. ``appearance`` records the labels
    in order of first occurrence in the source rows; episode sampling is
    keyed to this order so that renaming labels never changes which
    feature groups a seeded draw selects.
    """

    dim: int
    groups: dict[int, np.ndarray]
    appearance: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        if not self.groups:
            raise ValueError("a partition needs at least one class")
        ordered: dict[int, np.ndarray] = {}
        for label in sorted(self.groups):
            block = np.ascontiguousarray(self.groups[label], dtype=np.float64)
            if block.ndim != 2 or block.shape[1] != self.dim:
                raise ValueError(f"class {label}: group rows must have dimension {self.dim}")
            if block.shape[0] == 0:
                raise ValueError(f"class {label}: empty group")
            block.setflags(write=False)
            ordered[int(label)] = block
        appearance = self.appearance or tuple(ordered)
        if sorted(appearance) != sorted(ordered):
            raise ValueError("appearance order must list every class exactly once")
        object.__setattr__(self, "groups", ordered)
        object.__setattr__(self, "appearance", tuple(int(c) for c in appearance))

    @property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(self.groups)

    @property
    def n_classes(self) -> int:
        return len(self.groups)

    @property
    def total_rows(self) -> int:
        return sum(block.shape[0] for block in self.groups.values())


def partition_by_class(embeddings: LabeledEmbeddings) -> ClassPartition:
    """Group every feature row under its label, preserving row order."""
    labels = embeddings.labels
    uniq, first = np.unique(labels, return_index=True)
    appearance = tuple(int(lab) for lab in uniq[np.argsort(first)])
    groups = {int(lab): embeddings.features[labels == lab] for lab in uniq}
    return ClassPartition(dim=embeddings.dim, groups=groups, appearance=appearance)


def _csv_header(dim: int) -> str:
    return "label," + ",".join(f"f{i}" for i in range(dim))


def _load_csv(path) -> LabeledEmbeddings:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    if text == "":
        raise FormatError("empty file")
    carriage_return = text.find("\r")
    if carriage_return >= 0:
        line = text.count("\n", 0, carriage_return)  # line 0 is the header
        message = "carriage return; the format uses '\\n' line endings"
        if line == 0:
            raise FormatError(f"header: {message}")
        raise FormatError(message, row=line - 1)
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = lines[0].split(",")
    if len(header) < 2 or header[0] != "label" or any(
        tok != f"f{i}" for i, tok in enumerate(header[1:])
    ):
        raise FormatError(f"malformed header {lines[0]!r}; expected 'label,f0,...'")
    dim = len(header) - 1
    if len(lines) == 1:
        raise FormatError("no data rows")
    labels = np.empty(len(lines) - 1, dtype=np.int64)
    features = np.empty((len(lines) - 1, dim), dtype=np.float64)
    for row, line in enumerate(lines[1:]):
        tokens = line.split(",")
        if len(tokens) != dim + 1:
            raise FormatError(
                f"ragged row: {len(tokens) - 1} features, header declares {dim}", row=row
            )
        try:
            label = int(tokens[0])
        except ValueError:
            raise FormatError(f"malformed label {tokens[0]!r}", row=row) from None
        if label < 0:
            raise FormatError(f"negative label {label}", row=row)
        if label >= 2**63:
            raise FormatError(f"label {label} exceeds the int64 range", row=row)
        try:
            values = [float(tok) for tok in tokens[1:]]
        except ValueError:
            raise FormatError("unparseable feature value", row=row) from None
        if not all(np.isfinite(values)):
            raise FormatError("non-finite feature value", row=row)
        labels[row] = label
        features[row] = values
    return LabeledEmbeddings(labels=labels, features=features)


def _save_csv(embeddings: LabeledEmbeddings, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_header(embeddings.dim) + "\n")
        for label, row in zip(embeddings.labels, embeddings.features):
            fh.write(str(int(label)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def _row_dtype(dim: int) -> np.dtype:
    return np.dtype([("label", "<u4"), ("features", "<f8", (dim,))])


def _load_binary(path) -> LabeledEmbeddings:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob == b"":
        raise FormatError("empty file")
    if len(blob) < _BINARY_HEADER.size:
        raise FormatError("truncated header")
    magic, version, rows, dim = _BINARY_HEADER.unpack_from(blob)
    if magic != BINARY_MAGIC:
        raise FormatError(f"bad magic {magic!r}; expected {BINARY_MAGIC!r}")
    if version != BINARY_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if rows == 0:
        raise FormatError("no data rows")
    if dim == 0:
        raise FormatError("feature dimension must be positive")
    expected = _BINARY_HEADER.size + rows * (4 + 8 * dim)
    if len(blob) != expected:
        raise FormatError(f"file holds {len(blob)} bytes, header implies {expected}")
    table = np.frombuffer(blob, dtype=_row_dtype(dim), count=rows, offset=_BINARY_HEADER.size)
    features = np.ascontiguousarray(table["features"], dtype=np.float64).reshape(rows, dim)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise FormatError("non-finite feature value", row=int(np.flatnonzero(~finite)[0]))
    return LabeledEmbeddings(labels=table["label"].astype(np.int64), features=features)


def _save_binary(embeddings: LabeledEmbeddings, path) -> None:
    if embeddings.labels.max() >= 2**32:
        raise ValueError("binary format stores labels as u32; label too large")
    table = np.empty(embeddings.n_rows, dtype=_row_dtype(embeddings.dim))
    table["label"] = embeddings.labels
    table["features"] = embeddings.features
    with open(path, "wb") as fh:
        fh.write(_BINARY_HEADER.pack(BINARY_MAGIC, BINARY_VERSION, embeddings.n_rows, embeddings.dim))
        fh.write(table.tobytes())


def load_embeddings(path, format: str = "csv") -> LabeledEmbeddings:
    """Load and validate an embedding set from ``path``.

    Raises FormatError (with the offending row number where applicable)
    for malformed content, and OSError for I/O failures.
    """
    if format == "csv":
        return _load_csv(path)
    if format == "binary":
        return _load_binary(path)
    raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")


def save_embeddings(embeddings: LabeledEmbeddings, path, format: str = "csv") -> None:
    """Write an embedding set so that loading it back reproduces the set."""
    if format == "csv":
        _save_csv(embeddings, path)
    elif format == "binary":
        _save_binary(embeddings, path)
    else:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
