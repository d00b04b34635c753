"""Seeded input generation for the four workloads, cached on disk.

Everything here is plain numpy: the program under test never touches input
generation, so the same seed gives byte-identical inputs on any commit.
Inputs live under ``.perfbench_cache/<workload>-<version>/seed<n>/`` in the
checkout, where the version hashes this file, and are built once per seed
before any timing starts.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

METHODS = ("toppush", "toppushk", "grill", "grill-np", "patmat", "patmat-np", "topmean", "topmean-np")
# the rule kind behind each method token, as documented in the topclf README
KIND_OF = {
    "toppush": "top_push",
    "toppushk": "top_push_k",
    "grill": "quantile",
    "grill-np": "quantile_np",
    "patmat": "surrogate_quantile",
    "patmat-np": "surrogate_quantile_np",
    "topmean": "top_mean",
    "topmean-np": "top_mean_np",
}
M, K, TAU, BETA, LAM = 30, 5, 0.05, 1.0, 1e-3
EVAL_TAUS = (0.01, 0.03, 0.05)
GRID_POINTS_PER_METHOD = 6
KEEP_SEEDS = 3  # cached seeds kept per workload; older ones are deleted


@dataclass(frozen=True)
class Sizes:
    train_n: int
    train_iters: int
    sgd_pos: int
    sgd_minibatches: int
    eval_sets: tuple  # (name, rows, positive share, quantized)
    grid_n: tuple
    grid_iters: int


FULL = Sizes(
    train_n=100_000,
    train_iters=20,
    sgd_pos=5_000,
    sgd_minibatches=10,
    # pr_curve is O(n^2) in distinct scores, so the untied sets stay at
    # 2k-3k rows and a 15 s run makes 75 or more calls.  The two
    # 2,500-row sets hold the middle 40 % of calls, so the median call stays
    # in their cluster wherever the seed puts the cost of the tied set.
    eval_sets=(
        ("a2k", 2000, 0.10, False),
        ("b2k5", 2500, 0.50, False),
        ("c2k5", 2500, 0.02, False),
        ("d3k", 3000, 0.20, False),
        ("tied8k", 8000, 0.10, True),
    ),
    grid_n=(150, 400),
    grid_iters=200,
)

SMOKE = Sizes(
    train_n=3000,
    train_iters=5,
    sgd_pos=300,
    sgd_minibatches=10,
    eval_sets=(
        ("a300", 300, 0.10, False),
        ("b500", 500, 0.50, False),
        ("tied400", 400, 0.10, True),
    ),
    grid_n=(40, 60),
    grid_iters=20,
)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _planted(rng, n: int, m: int, n_pos: int, shift: float, quantized: bool):
    """Gaussian features with positives shifted along a random unit direction.

    Values are rounded to six decimals so the CSV text reparses to exactly
    the same floats; quantized sets hold only -1, 0 and 1.
    """
    u = rng.standard_normal(m)
    u /= np.linalg.norm(u)
    labels = np.zeros(n, dtype=bool)
    labels[rng.choice(n, size=n_pos, replace=False)] = True
    x = rng.standard_normal((n, m)) + shift * np.outer(labels, u)
    x = np.clip(np.rint(x), -1.0, 1.0) if quantized else np.round(x, 6)
    return x, labels, u


def _write_csv(path: Path, x: np.ndarray, labels: np.ndarray) -> None:
    m = x.shape[1]
    table = np.column_stack([x, labels.astype(np.float64)])
    header = ",".join([f"x{j}" for j in range(m)] + ["label"])
    np.savetxt(path, table, fmt=["%.6f"] * m + ["%d"], delimiter=",", header=header, comments="")


def _model_doc(w: np.ndarray, t: float) -> dict:
    """A model.json as `topclf train` writes it, built by hand."""
    return {
        "w": [float(v) for v in w],
        "t_final": float(t),
        "spec": {
            "rule": {"kind": "top_mean", "k": None, "tau": TAU, "beta": None},
            "loss": "hinge",
            "lambda": 0.0,
        },
        "config": {},
    }


def _build_train(out: Path, seed: int, sizes: Sizes, sgd: bool) -> None:
    rng = _rng(seed, 1 if sgd else 0)
    n_pos = sizes.sgd_pos if sgd else sizes.train_n // 2
    shift = 1.5 if sgd else 1.0
    x, labels, _ = _planted(rng, sizes.train_n, M, n_pos, shift, False)
    _write_csv(out / "train.csv", x, labels)
    np.savez(out / "train.npz", features=x, labels=labels)
    (out / "meta.json").write_text(json.dumps({"cfg_seed": int(rng.integers(2**31))}))


def _build_eval(out: Path, seed: int, sizes: Sizes) -> None:
    pairs = []
    for i, (name, n, share, quantized) in enumerate(sizes.eval_sets):
        rng = _rng(seed, 10 + i)
        x, labels, u = _planted(rng, n, M, max(1, round(n * share)), 1.0, quantized)
        w = u + 0.5 * rng.standard_normal(M)
        if quantized:
            # quarter steps keep every score exact, so ties are exact ties
            w = np.rint(4.0 * w) / 4.0
            z = x @ w
            t = float(np.sort(z)[int(0.8 * n)])  # lands on a tied score
        else:
            w /= np.linalg.norm(w)
            z = np.sort(x @ w)
            j = int(0.9 * n)
            t = float(0.5 * (z[j] + z[j + 1]))  # between two scores
        _write_csv(out / f"{name}.csv", x, labels)
        np.savez(out / f"{name}.npz", features=x, labels=labels)
        (out / f"{name}.model.json").write_text(json.dumps(_model_doc(w, t), indent=2))
        pairs.append(name)
    (out / "pairs.json").write_text(json.dumps(pairs))


def grid_manifest(seed: int, sizes: Sizes) -> dict:
    rng = _rng(seed, 20)
    s = [int(v) for v in rng.integers(2**31, size=4)]
    return {
        "datasets": [
            {"name": f"synth{n}", "format": "synth", "n": n, "seed": s[i]}
            for i, n in enumerate(sizes.grid_n)
        ],
        "methods": [
            {"method": tok} if KIND_OF[tok] in ("top_push", "top_push_k") else {"method": tok, "tau": TAU}
            for tok in METHODS
        ],
        "train": {"iterations": sizes.grid_iters, "seed": s[2]},
        "split": {"seed": s[3]},
        "select": {"criterion": "positives_at_top"},
        "criteria_taus": [0.01, 0.03],
        "loss": "hinge",
    }


def _build_grid(out: Path, seed: int, sizes: Sizes) -> None:
    (out / "manifest.json").write_text(json.dumps(grid_manifest(seed, sizes), indent=2))


_BUILDERS = {
    "train-full": lambda out, seed, sizes: _build_train(out, seed, sizes, sgd=False),
    "train-sgd": lambda out, seed, sizes: _build_train(out, seed, sizes, sgd=True),
    "eval-cli": _build_eval,
    "grid-manifest": _build_grid,
}


def ensure(root: Path, workload: str, seed: int, smoke: bool) -> Path:
    """Directory holding the inputs of ``workload`` for ``seed``; builds it once."""
    version = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:10]
    base = root / ".perfbench_cache" / f"{workload}{'-smoke' if smoke else ''}-{version}"
    out = base / f"seed{seed}"
    if (out / "done").exists():
        return out
    tmp = base / f"seed{seed}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    _BUILDERS[workload](tmp, seed, SMOKE if smoke else FULL)
    (tmp / "done").write_text("")
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    cached = sorted(
        (p for p in base.iterdir() if p.name.startswith("seed") and p != out),
        key=lambda p: p.stat().st_mtime,
    )
    for old in cached[: max(0, len(cached) - (KEEP_SEEDS - 1))]:
        shutil.rmtree(old, ignore_errors=True)
    return out
