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

A CSV file is parsed in one C-level ``np.loadtxt`` pass: labels through
``int()`` into int64, features into float64. The pass is taken only for
ASCII files with a well-formed header, and its result only when it has
one row per line, non-negative labels and finite features. Any other
file goes through the row-by-row parse, which defines the format: it
accepts the same files with the same values, and it names the first bad
row and what is wrong with it. A file that is not UTF-8 is a FormatError.

All containers are immutable after construction (backing arrays are marked
read-only) and safe for concurrent read-only use.
"""

from __future__ import annotations

import io
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
    order = np.argsort(embeddings.labels, kind="stable")  # keeps row order within a class
    labels = embeddings.labels[order]
    starts = np.flatnonzero(np.diff(labels, prepend=-1))  # labels >= 0: row 0 starts a class
    appearance = tuple(int(lab) for lab in labels[starts][np.argsort(order[starts])])
    groups = dict(zip(labels[starts].tolist(), np.split(embeddings.features[order], starts[1:])))
    return ClassPartition(dim=embeddings.dim, groups=groups, appearance=appearance)


def _csv_header(dim: int) -> str:
    return "label," + ",".join(f"f{i}" for i in range(dim))


# loadtxt strips these as whitespace around a number, int() and float() do not
_NOT_FAST = (b"\r", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _load_csv(path) -> LabeledEmbeddings:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob == b"":
        raise FormatError("empty file")
    table = _csv_table(blob)
    if table is None:
        return _csv_rows(_utf8(blob))
    del blob  # freed before LabeledEmbeddings copies the features out of the table
    return LabeledEmbeddings(labels=table["label"], features=table["f"])


def _csv_table(blob: bytes) -> np.ndarray | None:
    """The data rows of a well-formed ASCII file in one C-level parse, or None.

    None sends the file to ``_csv_rows``, which gives the verdict and the
    error message. loadtxt skips empty lines, which the row loop calls
    ragged, so the parsed row count must equal the line count.
    """
    end = blob.find(b"\n")
    # no data row; a blank first row (loadtxt warns on an all-blank body); not ASCII
    if end < 0 or blob[end + 1 : end + 2] in (b"", b"\n") or not blob.isascii():
        return None
    dim = blob.count(b",", 0, end)
    if blob[:end] != _csv_header(dim).encode() or any(c in blob for c in _NOT_FAST):
        return None
    rows = blob.count(b"\n", end + 1) + (not blob.endswith(b"\n"))
    dtype = np.dtype([("label", np.int64), ("f", np.float64, (dim,))])
    try:
        # labels go through int() as in the row loop: some numpy versions
        # read "5.0" into an int64 column with only a DeprecationWarning
        table = np.loadtxt(
            io.BytesIO(blob), dtype=dtype, delimiter=",", comments=None, skiprows=1,
            ndmin=1, encoding="ascii", converters={0: int},
        )
    except ValueError:
        return None
    if len(table) != rows or table["label"].min() < 0 or not np.isfinite(table["f"]).all():
        return None
    return table


def _utf8(blob: bytes) -> str:
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as err:
        line = blob.count(b"\n", 0, err.start)  # line 0 is the header
        message = f"not UTF-8 text: {err.reason} 0x{blob[err.start]:02x} at byte {err.start}"
        if line == 0:
            raise FormatError(f"header: {message}") from None
        raise FormatError(message, row=line - 1) from None


def _csv_rows(text: str) -> LabeledEmbeddings:
    """Parse and check the file one row at a time: the exact error path."""
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
