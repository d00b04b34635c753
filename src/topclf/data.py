"""Dataset container, file loaders, splitting and minibatch machinery."""

from __future__ import annotations

import csv
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
        if not np.all(np.isfinite(feats)):
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
    iff its label cell equals ``positive_value`` verbatim.  More than two
    distinct label tokens is an error; a single class is only a warning.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if label_column not in header:
            raise ValueError(f"{path}: label column {label_column!r} not in header")
        label_pos = header.index(label_column)
        feature_cols = [i for i in range(len(header)) if i != label_pos]
        rows, labels, seen = [], [], set()
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                values = [float(row[i]) for i in feature_cols]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric feature cell") from exc
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{path}:{lineno}: non-finite feature value")
            rows.append(values)
            token = row[label_pos].strip()
            seen.add(token)
            labels.append(token == positive_value)
    if len(seen) > 2:
        raise ValueError(
            f"{path}: label column has {len(seen)} distinct values {sorted(seen)}; "
            "expected a binary column"
        )
    if not rows:
        raise ValueError(f"{path}: no data rows")
    dataset = Dataset(np.array(rows, dtype=np.float64), np.array(labels, dtype=bool))
    if dataset.n_pos == 0 or dataset.n_neg == 0:
        warnings.warn(f"{path}: all samples belong to one class", stacklevel=2)
    return dataset


def save_csv(d: Dataset, path, label_column: str = "label") -> None:
    """Write ``d`` as CSV with columns x0..x{m-1} plus the label column.

    Feature cells use repr so that reloading reproduces the floats
    bit-for-bit; labels are written as 1/0.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(d.m)] + [label_column])
        for i in range(d.n):
            writer.writerow(
                [repr(float(v)) for v in d.features[i]] + ["1" if d.labels[i] else "0"]
            )


def load_libsvm(path) -> Dataset:
    """Load a sparse ``label idx:val`` text file into a dense Dataset.

    Indices are 1-based and must be strictly increasing within a row; the
    feature count is the largest index seen anywhere in the file.  Labels
    +1/1 map to positive, -1/0 to negative.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    rows: list[dict[int, float]] = []
    labels: list[bool] = []
    max_index = 0
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            label_tok = tokens[0]
            if label_tok in ("+1", "1"):
                labels.append(True)
            elif label_tok in ("-1", "0"):
                labels.append(False)
            else:
                raise ValueError(f"{path}:{lineno}: unknown label {label_tok!r}")
            entries: dict[int, float] = {}
            prev = 0
            for tok in tokens[1:]:
                try:
                    idx_str, val_str = tok.split(":")
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: malformed token {tok!r}") from exc
                if idx <= prev:
                    raise ValueError(
                        f"{path}:{lineno}: indices must be strictly increasing "
                        f"(index {idx} after {prev})"
                    )
                if not math.isfinite(val):
                    raise ValueError(f"{path}:{lineno}: non-finite value in {tok!r}")
                entries[idx] = val
                prev = idx
            max_index = max(max_index, prev)
            rows.append(entries)
    if not rows:
        raise ValueError(f"{path}: empty file")
    features = np.zeros((len(rows), max_index), dtype=np.float64)
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            features[i, idx - 1] = val
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


def minibatch_epoch(d: Dataset, n_minibatch: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Class-stratified index partition for one epoch.

    Every epoch shuffles the positives and the negatives separately with a
    stream derived from (seed, epoch), lines up the shuffled positives
    followed by the shuffled negatives and deals them round-robin into
    ``n_minibatch`` chunks.  Chunk sizes, and each chunk's count of either
    class, differ by at most one.  The objective normalizes by the batch's
    positive count, so every chunk must hold both classes: more than
    min(n_pos, n_neg) chunks is an error.
    """
    if not 1 <= n_minibatch <= d.n:
        raise ValueError(f"n_minibatch must be in [1, {d.n}], got {n_minibatch}")
    if n_minibatch > 1 and n_minibatch > min(d.n_pos, d.n_neg):
        raise ValueError(
            f"n_minibatch={n_minibatch} exceeds min(n_pos, n_neg) = "
            f"{min(d.n_pos, d.n_neg)}, so a minibatch would contain one class only; "
            "reduce n_minibatch"
        )
    rng = np.random.default_rng([seed, epoch])
    order = np.concatenate((rng.permutation(d.pos_idx), rng.permutation(d.neg_idx)))
    return [order[i::n_minibatch] for i in range(n_minibatch)]


def synth_example(n: int, seed: int = 0) -> Dataset:
    """Two-dimensional synthetic dataset with a single negative outlier.

    n negative samples uniform on [-1,0]x[-1,1], n positive samples uniform
    on [0,1]x[-1,1], plus one negative sample fixed at (2, 0).  Total 2n+1
    samples; deterministic under the seed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    pos = np.column_stack([rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n)])
    neg = np.column_stack([rng.uniform(-1.0, 0.0, n), rng.uniform(-1.0, 1.0, n)])
    outlier = np.array([[2.0, 0.0]])
    features = np.vstack([pos, neg, outlier])
    labels = np.concatenate([np.ones(n, bool), np.zeros(n + 1, bool)])
    return Dataset(features, labels)
