"""Command-line interface: train, eval, grid, synth, reproduce.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import Dataset, load_dataset, save_csv, synth_example, write_csv, write_json
from .evaluation import build_report, check_taus, write_curve_csv
from .experiment import ManifestError, reproduce_worked_example, run_manifest
from .objective import ObjectiveSpec
from .solver import Model, TrainConfig, train
from .surrogate import make_loss
from .threshold import CLI_TOKENS, ThresholdRule, method_params


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--format", choices=("csv", "libsvm"), default="csv")
    p.add_argument("--label", default="label", help="CSV label column name")
    p.add_argument("--pos", default="1", help="CSV label value marking positives")


def _dataset_entry(args) -> dict:
    """The manifest ``datasets`` entry, less its name, that the data flags spell."""
    entry = {"format": args.format, "path": args.data}
    if args.format == "csv":
        entry.update(label=args.label, pos=args.pos)
    return entry


def _out_dir(args, parser) -> Path:
    """``--out`` as a Path; a usage error if it or a parent exists and is not a directory."""
    out = Path(args.out)
    for path in (out, *out.parents):
        if path.exists() and not path.is_dir():
            parser.error(f"--out {out}: {path} exists and is not a directory")
    return out


def cmd_train(args, parser) -> int:
    out = _out_dir(args, parser)
    missing = [f"--{name}" for name in method_params(args.method) if getattr(args, name) is None]
    if missing:
        parser.error(f"method {args.method} requires {', '.join(missing)}")
    try:
        rule = ThresholdRule(kind=CLI_TOKENS[args.method], k=args.k, tau=args.tau, beta=args.beta)
        spec = ObjectiveSpec(rule=rule, loss=make_loss(args.loss), lam=args.lam)
        cfg = TrainConfig(
            iterations=args.iters,
            adam={"step_size": args.step_size},
            n_minibatch=args.minibatches,
            seed=args.seed,
            project_unit_ball={"auto": None, "on": True, "off": False}[args.project],
            init=args.init,
        )
    except ValueError as exc:
        parser.error(str(exc))
    model = train(spec, load_dataset(_dataset_entry(args)), cfg)
    out.mkdir(parents=True, exist_ok=True)
    doc = model.to_dict()
    doc["version"] = __version__
    write_json(out / "model.json", doc)
    # wall times stay out of the CSV so reruns are byte-identical
    hist = model.history
    rows = zip(range(hist.objective.size), hist.objective.tolist(), hist.w_norm.tolist())
    write_csv(out / "history.csv", ["iteration", "objective", "w_norm"], rows)
    print(f"wrote {out / 'model.json'} (t_final={model.t_final:.6g})")
    return 0


def _parse_taus(text: str) -> list[float]:
    """Comma-separated quantiles, sorted; each in (0, 1] and none repeated."""
    try:
        taus = check_taus(sorted(float(tok) for tok in text.split(",") if tok))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not taus:
        raise argparse.ArgumentTypeError("empty tau list")
    return taus


def cmd_eval(args, parser) -> int:
    out = _out_dir(args, parser)
    model = Model.from_dict(json.loads(Path(args.model).read_text()))
    dataset = load_dataset(_dataset_entry(args))
    if args.format == "libsvm" and dataset.m < model.w.shape[0]:
        # an index that no row of a libsvm file uses is a zero column
        features = np.pad(dataset.features, ((0, 0), (0, model.w.shape[0] - dataset.m)))
        dataset = Dataset(features, dataset.labels)
    if dataset.m != model.w.shape[0]:
        raise ValueError(f"model expects {model.w.shape[0]} features, dataset has {dataset.m}")
    report = build_report(model.w, model.t_final, dataset, args.taus)
    out.mkdir(parents=True, exist_ok=True)
    write_curve_csv(report.pr_curve, out / "pr_curve.csv", ("recall", "precision"))
    write_curve_csv(report.ptau_curve, out / "ptau_curve.csv", ("tau", "precision"))
    write_json(out / "report.json", report.to_dict())
    print(f"wrote {out / 'report.json'}")
    return 0


def cmd_synth(args, parser) -> int:
    try:
        dataset = synth_example(args.n, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    save_csv(dataset, args.out)
    print(f"wrote {args.out} ({dataset.n} samples)")
    return 0


def cmd_reproduce(args, parser) -> int:
    try:
        rows = reproduce_worked_example(args.n, args.tau, args.beta, args.k, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    header = ["method", "point", "t", "t_expected", "f", "f_expected"]
    print("  ".join(f"{h:>11s}" for h in header))
    for row in rows:
        print(
            f"{row['method']:>11s}  {row['point']:>11s}  "
            f"{row['t']:11.4f}  {row['t_expected']:11.4f}  "
            f"{row['f']:11.4f}  {row['f_expected']:11.4f}"
        )
    if args.out:
        write_csv(args.out, header, [[row[name] for name in header] for row in rows])
        print(f"wrote {args.out}")
    return 0


def cmd_grid(args, parser) -> int:
    _out_dir(args, parser)
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except json.JSONDecodeError as exc:
        parser.error(f"manifest {args.manifest} is not valid JSON: {exc}")
    try:
        run_manifest(manifest, args.out, jobs=args.jobs)
    except ManifestError as exc:
        parser.error(str(exc))
    print(f"wrote experiment outputs to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="topclf")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a linear model")
    p.add_argument("--method", required=True, choices=sorted(CLI_TOKENS))
    p.add_argument("--tau", type=float)
    p.add_argument("--loss", choices=("hinge", "quadratic_hinge"), default="hinge")
    p.add_argument("--beta", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    _add_data_args(p)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--minibatches", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", choices=("zeros", "uniform"), default="zeros")
    p.add_argument("--step-size", type=float, default=0.01)
    p.add_argument(
        "--project",
        choices=("auto", "on", "off"),
        default="auto",
        help="l2-unit-ball projection after each step",
    )
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", help="evaluate a trained model")
    p.add_argument("--model", required=True, help="model.json from train")
    _add_data_args(p)
    p.add_argument(
        "--taus", type=_parse_taus, default="0.01,0.03", help="comma-separated quantiles"
    )
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate the planted-outlier dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("reproduce", help="measured vs closed-form worked example")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="optional output CSV path")

    p = sub.add_parser("grid", help="hyperparameter grid search")
    p.add_argument("--manifest", required=True, help="experiment manifest JSON")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": cmd_train,
        "eval": cmd_eval,
        "synth": cmd_synth,
        "reproduce": cmd_reproduce,
        "grid": cmd_grid,
    }
    try:
        return handlers[args.command](args, parser)
    except Exception as exc:  # argparse errors exit(2) before reaching here
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
