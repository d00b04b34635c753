"""The four workloads: one cycle of operations each, with their checks.

A workload is a list of operations making one cycle.  Each operation calls
the program through its public functions or the in-process CLI and returns
how many units it completed plus its output; the matching check runs
outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import topclf
import topclf.cli

import checks
import inputs


@dataclass
class Op:
    label: str
    units: int
    call: Callable[[], object]
    check: Callable[[object], None]


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        code = topclf.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"topclf {argv[0]} exited with {code}")
    return code


def train_ops(cache: Path, sizes: inputs.Sizes, sgd: bool) -> list[Op]:
    arrays = np.load(cache / "train.npz")
    features, labels = arrays["features"], arrays["labels"]
    d = topclf.Dataset(features, labels)
    cfg_seed = json.loads((cache / "meta.json").read_text())["cfg_seed"]
    loss = "quadratic_hinge" if sgd else "hinge"
    cfg = topclf.TrainConfig(
        iterations=sizes.train_iters,
        n_minibatch=sizes.sgd_minibatches if sgd else 1,
        seed=cfg_seed,
    )
    ref_w: dict[str, np.ndarray] = {}
    ops = []
    for token in inputs.METHODS:
        kind = inputs.KIND_OF[token]
        k = inputs.K if kind == "top_push_k" else None
        tau = inputs.TAU if kind not in ("top_push", "top_push_k") else None
        beta = inputs.BETA if kind.startswith("surrogate") else None
        spec = topclf.ObjectiveSpec(
            rule=topclf.ThresholdRule(kind=kind, k=k, tau=tau, beta=beta),
            loss=topclf.make_loss(loss),
            lam=inputs.LAM,
        )

        def check(model, token=token, kind=kind, k=k, tau=tau, beta=beta):
            checks.check_train(
                model, kind, loss, k, tau, beta, features, labels, cfg.iterations, ref_w.get(token)
            )
            ref_w.setdefault(token, model.w.copy())

        # looked up at call time so a traced run goes through the wrapper
        ops.append(Op(token, cfg.iterations, lambda spec=spec: topclf.solver.train(spec, d, cfg), check))
    return ops


def eval_ops(cache: Path, out_root: Path) -> list[Op]:
    taus = ",".join(f"{t:g}" for t in inputs.EVAL_TAUS)
    ops = []
    for name in json.loads((cache / "pairs.json").read_text()):
        arrays = np.load(cache / f"{name}.npz")
        model = json.loads((cache / f"{name}.model.json").read_text())
        ref = checks.eval_reference(
            arrays["features"], arrays["labels"], np.asarray(model["w"]), model["t_final"], inputs.EVAL_TAUS
        )
        out = out_root / name
        argv = [
            "eval", "--model", str(cache / f"{name}.model.json"), "--data", str(cache / f"{name}.csv"),
            "--taus", taus, "--out", str(out),
        ]
        ops.append(Op(name, 1, lambda argv=argv: _cli(argv), lambda _, out=out, ref=ref: checks.check_eval(out, ref)))
    return ops


def grid_splits(manifest: dict) -> dict:
    """The manifest's train/valid/test parts as (features, labels) arrays."""
    spec = topclf.SplitSpec(seed=manifest["split"]["seed"])
    splits = {}
    for entry in manifest["datasets"]:
        parts = topclf.split(topclf.synth_example(entry["n"], entry["seed"]), spec)
        splits[entry["name"]] = {
            name: (np.array(p.features), np.array(p.labels)) for name, p in zip(("train", "valid", "test"), parts)
        }
    return splits


def grid_ops(cache: Path, out_root: Path, jobs: int = 2) -> list[Op]:
    manifest = json.loads((cache / "manifest.json").read_text())
    splits = grid_splits(manifest)
    n_methods = len(manifest["methods"])
    units = len(manifest["datasets"]) * n_methods * inputs.GRID_POINTS_PER_METHOD
    out = out_root / "grid"
    argv = ["grid", "--manifest", str(cache / "manifest.json"), "--jobs", str(jobs), "--out", str(out)]

    def check(_):
        checks.check_grid(
            out, splits, n_methods, inputs.GRID_POINTS_PER_METHOD, manifest["criteria_taus"],
            manifest["select"]["criterion"],
        )

    return [Op("grid", units, lambda: _cli(argv), check)]


def build(workload: str, cache: Path, out_root: Path, sizes: inputs.Sizes) -> list[Op]:
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    if workload in ("train-full", "train-sgd"):
        return train_ops(cache, sizes, sgd=workload == "train-sgd")
    if workload == "eval-cli":
        return eval_ops(cache, out_root)
    return grid_ops(cache, out_root)
