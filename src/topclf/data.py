"""Dataset container, file loaders and writers, splitting and minibatch machinery."""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "SplitSpec",
    "load_csv",
    "save_csv",
    "load_libsvm",
    "split",
    "minibatch_epoch",
    "synth_example",
]


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with binary labels.

    ``features`` is an (n, m) float array, ``labels`` a boolean vector where
    True marks a positive sample.  Index partitions and counts are derived at
    construction and the underlying arrays are locked read-only, so a Dataset
    can be shared freely across workers.
    """

    features: np.ndarray
    labels: np.ndarray
    pos_idx: np.ndarray = field(init=False)
    neg_idx: np.ndarray = field(init=False)

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=bool)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {feats.shape}")
        if labels.shape != (feats.shape[0],):
            raise ValueError(
                f"labels shape {labels.shape} does not match {feats.shape[0]} rows"
            )
        if not np.isfinite(feats).all():
            raise ValueError("features contain non-finite entries")
        feats.setflags(write=False)
        labels.setflags(write=False)
        pos_idx = np.flatnonzero(labels)
        neg_idx = np.flatnonzero(~labels)
        pos_idx.setflags(write=False)
        neg_idx.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "pos_idx", pos_idx)
        object.__setattr__(self, "neg_idx", neg_idx)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    @property
    def n_pos(self) -> int:
        return self.pos_idx.size

    @property
    def n_neg(self) -> int:
        return self.neg_idx.size

    def subset(self, indices: np.ndarray) -> "Dataset":
        """New Dataset restricted to ``indices`` (order preserved)."""
        idx = np.asarray(indices)
        return Dataset(self.features[idx], self.labels[idx])

    def require_both_classes(self) -> None:
        """Raise unless the dataset holds at least one sample of each class."""
        if self.n_pos < 1 or self.n_neg < 1:
            raise ValueError(
                f"need at least one positive and one negative sample, "
                f"got n_pos={self.n_pos}, n_neg={self.n_neg}"
            )


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions plus the seed that fixes the shuffle."""

    train_frac: float = 0.5
    valid_frac: float = 0.25
    test_frac: float = 0.25
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        fracs = (self.train_frac, self.valid_frac, self.test_frac)
        if any(f < 0 or f > 1 for f in fracs):
            raise ValueError(f"fractions must lie in [0,1], got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-12:
            raise ValueError(f"fractions must sum to 1, got {sum(fracs)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_frac, self.valid_frac, self.test_frac)


def _largest_remainder(total: int, fractions) -> list[int]:
    """Integer part sizes summing exactly to ``total``.

    Floors the raw shares, then hands leftover units to the parts with the
    largest fractional remainders (ties broken by part order).
    """
    raw = [total * f for f in fractions]
    sizes = [math.floor(r) for r in raw]
    leftover = total - sum(sizes)
    remainders = sorted(
        range(len(fractions)), key=lambda i: (-(raw[i] - sizes[i]), i)
    )
    for i in remainders[:leftover]:
        sizes[i] += 1
    return sizes


def load_csv(path, label_column: str, positive_value: str) -> Dataset:
    """Load a comma-separated file with a header row into a Dataset.

    Every non-label column must parse as a finite float.  A row is positive
    iff its label cell, stripped of surrounding whitespace, equals
    ``positive_value`` verbatim.  More than two distinct label tokens is an
    error; a single class is only a warning.  A malformed row is an error
    that names its line.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    raw = path.read_bytes()
    text = raw.decode("utf-8-sig")
    # a wrapper over the same bytes reads rows lazily, where a StringIO would copy the text
    rows = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline=""))
    try:
        header = next(rows)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    if label_column not in header:
        raise ValueError(f"{path}: label column {label_column!r} not in header")
    label_pos = header.index(label_column)
    feature_cols = [i for i in range(len(header)) if i != label_pos]
    try:
        features, tokens = _parse_plain(text, len(header), label_pos, feature_cols)
    except ValueError:
        # the row-by-row parse reads every file csv does and names the line
        # of an error; it runs only when the fast parse refuses the file
        features, tokens = _parse_rows(path, rows, len(header), label_pos, feature_cols)
    seen = set(tokens)
    if len(seen) > 2:
        raise ValueError(
            f"{path}: label column has {len(seen)} distinct values {sorted(seen)}; "
            "expected a binary column"
        )
    if not tokens:
        raise ValueError(f"{path}: no data rows")
    labels = np.array([token == positive_value for token in tokens], dtype=bool)
    dataset = Dataset(features, labels)
    if dataset.n_pos == 0 or dataset.n_neg == 0:
        warnings.warn(f"{path}: all samples belong to one class", stacklevel=2)
    return dataset


# a quote, and the ASCII separators that numpy strips around a number and float does not
_NOT_PLAIN = '"\x1c\x1d\x1e\x1f'


def _parse_plain(
    text: str, n_cells: int, label_pos: int, feature_cols: list[int]
) -> tuple[np.ndarray, list[str]]:
    """Features and stripped label tokens of an unquoted file, in one C-level parse.

    Raises a ValueError without a line number for anything it does not take:
    a quote or separator character, a row without exactly ``n_cells`` cells
    (blank rows included), no data rows, a cell numpy cannot parse or a
    non-finite value.  Where it succeeds it gives the same values as the
    row-by-row parse: numpy parses floats with the same routine as ``float``
    and accepts fewer spellings.
    """
    if any(char in text for char in _NOT_PLAIN):
        raise ValueError("quoted cells or separator characters")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    body = text.split("\n")[1:]
    if text.endswith("\n"):
        body.pop()
    # np.loadtxt with usecols ignores extra cells and skips blank lines
    if not body or any(line.count(",") != n_cells - 1 for line in body):
        raise ValueError("irregular rows")
    features = np.loadtxt(
        body, dtype=np.float64, delimiter=",", usecols=feature_cols, comments=None, ndmin=2
    )
    if features.shape[0] != len(body) or not np.isfinite(features).all():
        raise ValueError("blank rows or non-finite values")
    if label_pos == n_cells - 1:
        tokens = [line.rpartition(",")[2].strip() for line in body]
    else:
        tokens = [line.split(",", label_pos + 1)[label_pos].strip() for line in body]
    return features, tokens


def _parse_rows(
    path: Path, rows, n_cells: int, label_pos: int, feature_cols: list[int]
) -> tuple[np.ndarray, list[str]]:
    """Features and stripped label tokens of the csv ``rows`` after the header, row by row.

    Raises a ValueError that names the line of the first malformed row.
    """
    values, tokens = [], []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != n_cells:
            raise ValueError(f"{path}:{lineno}: expected {n_cells} cells, got {len(row)}")
        try:
            cells = [float(row[i]) for i in feature_cols]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric feature cell") from exc
        if not all(math.isfinite(v) for v in cells):
            raise ValueError(f"{path}:{lineno}: non-finite feature value")
        values.append(cells)
        tokens.append(row[label_pos].strip())
    return np.array(values, dtype=np.float64), tokens


def save_csv(d: Dataset, path) -> None:
    """Write ``d`` as CSV with columns x0..x{m-1} plus a ``label`` column.

    Reloading reproduces the floats bit-for-bit; labels are written as 1/0.
    """
    columns = [f"x{j}" for j in range(d.m)] + ["label"]
    labels = ["1" if positive else "0" for positive in d.labels.tolist()]
    write_csv(path, columns, (row.tolist() + [label] for row, label in zip(d.features, labels)))


def write_csv(path, columns, rows) -> None:
    """Write a ``columns`` header, then ``rows``, as UTF-8 CSV; floats get their shortest repr."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def write_json(path, doc) -> None:
    """Write ``doc`` as ASCII JSON indented by 2 spaces."""
    Path(path).write_text(json.dumps(doc, indent=2), encoding="utf-8")


# a manifest datasets entry, by format: the JSON layout of every key it may
# hold (see experiment._check) and the keys it requires
_ENTRY = {"name": str, "format": str}
DATASET_ENTRIES = {
    "synth": ({**_ENTRY, "n": int, "seed": int}, ("name", "n")),
    "csv": ({**_ENTRY, "path": str, "label": str, "pos": str}, ("name", "path", "label", "pos")),
    "libsvm": ({**_ENTRY, "path": str}, ("name", "path")),
}


def load_dataset(entry: dict) -> Dataset:
    """The dataset a manifest ``datasets`` entry names, loaded by its ``format`` (default csv)."""
    kind = entry.get("format", "csv")
    if kind == "synth":
        return synth_example(entry["n"], entry.get("seed", 0))
    if kind == "csv":
        return load_csv(entry["path"], entry["label"], entry["pos"])
    return load_libsvm(entry["path"])


# the label tokens of a libsvm row, by whether they mark a positive
_LIBSVM_LABELS = {"+1": True, "1": True, "-1": False, "0": False}


def load_libsvm(path) -> Dataset:
    """Load a sparse ``label idx:val`` text file into a dense Dataset.

    Indices are 1-based and must be strictly increasing within a row; the
    feature count is the largest index seen anywhere in the file.  Labels
    +1/1 map to positive, -1/0 to negative.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    # each entry's row, 0-based column and value, in file order, and each row's label
    rows, cols, vals, labels = [], [], [], []
    with path.open(encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if tokens[0] not in _LIBSVM_LABELS:
                raise ValueError(f"{path}:{lineno}: unknown label {tokens[0]!r}")
            labels.append(_LIBSVM_LABELS[tokens[0]])
            prev = 0
            for tok in tokens[1:]:
                try:
                    idx_str, val_str = tok.split(":")
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: malformed token {tok!r}") from exc
                if idx <= prev:
                    rule = "1-based" if idx < 1 else "strictly increasing"
                    where = f"index {idx} after {prev}" if prev else f"index {idx}"
                    raise ValueError(f"{path}:{lineno}: indices must be {rule} ({where})")
                if not math.isfinite(val):
                    raise ValueError(f"{path}:{lineno}: non-finite value in {tok!r}")
                rows.append(len(labels) - 1)
                cols.append(idx - 1)
                vals.append(val)
                prev = idx
    if not labels:
        raise ValueError(f"{path}: empty file")
    features = np.zeros((len(labels), max(cols, default=-1) + 1), dtype=np.float64)
    features[rows, cols] = vals
    dataset = Dataset(features, np.array(labels, dtype=bool))
    if dataset.n_pos == 0 or dataset.n_neg == 0:
        warnings.warn(f"{path}: all samples belong to one class", stacklevel=2)
    return dataset


def split(d: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Partition ``d`` into train/validation/test datasets.

    Part sizes follow largest-remainder rounding of the fractions, so they
    always sum to n.  With ``stratified`` the same rounding is applied to the
    positive and negative index pools separately, keeping each part's
    positive fraction within one sample of the source.  Deterministic for a
    fixed seed.
    """
    rng = np.random.default_rng(spec.seed)
    pools = (d.pos_idx, d.neg_idx) if spec.stratified else (np.arange(d.n),)
    part_pools: list[list[np.ndarray]] = [[], [], []]
    for pool in pools:
        sizes = _largest_remainder(pool.size, spec.fractions)
        chunks = np.split(rng.permutation(pool), np.cumsum(sizes)[:-1])
        for part, chunk in zip(part_pools, chunks):
            part.append(chunk)
    parts = [np.sort(np.concatenate(chunks)) for chunks in part_pools]
    for name, idx in zip(("train", "validation", "test"), parts):
        if idx.size == 0:
            raise ValueError(f"split would leave the {name} part empty")
    return tuple(d.subset(idx) for idx in parts)


def check_minibatches(d: Dataset, n_minibatch: int) -> None:
    """Raise unless ``d`` deals into ``n_minibatch`` chunks that all hold both classes."""
    if not 1 <= n_minibatch <= d.n:
        raise ValueError(f"n_minibatch must be in [1, {d.n}], got {n_minibatch}")
    if n_minibatch > 1 and n_minibatch > min(d.n_pos, d.n_neg):
        raise ValueError(
            f"n_minibatch={n_minibatch} exceeds min(n_pos, n_neg) = "
            f"{min(d.n_pos, d.n_neg)}, so a minibatch would contain one class only; "
            "reduce n_minibatch"
        )


def minibatch_epoch(d: Dataset, n_minibatch: int, seed: int, epoch: int) -> list[Dataset]:
    """One epoch's class-stratified minibatches of ``d``, as Datasets.

    Every epoch shuffles the positives and the negatives separately with a
    stream derived from (seed, epoch), lines up the shuffled positives
    followed by the shuffled negatives and deals them round-robin into
    ``n_minibatch`` chunks.  Chunk sizes, and each chunk's count of either
    class, differ by at most one.  The objective normalizes by the batch's
    positive count, so every chunk must hold both classes: more than
    min(n_pos, n_neg) chunks is an error.

    The epoch's rows are gathered in one copy and each minibatch is a view of
    its contiguous block.  Each batch lists its positives before its
    negatives: the row order fixes the order in which the objective and the
    threshold sum over a batch, so it fixes their bits.
    """
    check_minibatches(d, n_minibatch)
    rng = np.random.default_rng([seed, epoch])
    order = np.concatenate((rng.permutation(d.pos_idx), rng.permutation(d.neg_idx)))
    chunks = [order[i::n_minibatch] for i in range(n_minibatch)]
    rows = np.concatenate(chunks)
    # np.take copies whole rows faster than fancy indexing
    features, labels = np.take(d.features, rows, axis=0), d.labels[rows]
    ends = np.cumsum([chunk.size for chunk in chunks])
    return [
        Dataset(features[end - chunk.size : end], labels[end - chunk.size : end])
        for chunk, end in zip(chunks, ends)
    ]


def synth_example(n: int, seed: int = 0) -> Dataset:
    """Two-dimensional synthetic dataset with a single negative outlier.

    n negative samples uniform on [-1,0]x[-1,1], n positive samples uniform
    on [0,1]x[-1,1], plus one negative sample fixed at (2, 0).  Total 2n+1
    samples; deterministic under the seed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    pos = np.column_stack([rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n)])
    neg = np.column_stack([rng.uniform(-1.0, 0.0, n), rng.uniform(-1.0, 1.0, n)])
    outlier = np.array([[2.0, 0.0]])
    features = np.vstack([pos, neg, outlier])
    labels = np.concatenate([np.ones(n, bool), np.zeros(n + 1, bool)])
    return Dataset(features, labels)
