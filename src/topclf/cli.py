"""Command-line interface: train, eval, curve, grid, synth, reproduce.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path


from . import __version__
from .data import SplitSpec, load_csv, load_libsvm, save_csv, split, synth_example
from .evaluation import CRITERION_KINDS, build_report, check_taus, write_curve_csv
from .experiment import (
    Grid,
    ManifestError,
    SelectCriterion,
    grid_search,
    reproduce_worked_example,
    run_manifest,
    zero_audit,
)
from .objective import ObjectiveSpec
from .solver import AdamParams, Model, TrainConfig, train
from .surrogate import make_loss
from .threshold import CLI_TOKENS, method_params, rule_from_token


def _add_data_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--data", required=required, help="dataset file")
    p.add_argument("--format", choices=("csv", "libsvm"), default="csv")
    p.add_argument("--label", default="label", help="CSV label column name")
    p.add_argument("--pos", default="1", help="CSV label value marking positives")


def _add_method_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--method", required=required, choices=sorted(CLI_TOKENS))
    p.add_argument("--tau", type=float)
    p.add_argument("--loss", choices=("hinge", "quadratic_hinge"), default="hinge")


def _add_train_args(p: argparse.ArgumentParser) -> None:
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


def _load_dataset(args):
    if args.format == "csv":
        return load_csv(args.data, args.label, args.pos)
    return load_libsvm(args.data)


def _build_spec(args, parser: argparse.ArgumentParser) -> ObjectiveSpec:
    params = method_params(args.method)
    missing = [f"--{name}" for name in params if getattr(args, name) is None]
    if missing:
        parser.error(f"method {args.method} requires {', '.join(missing)}")
    rule = rule_from_token(args.method, k=args.k, tau=args.tau, beta=args.beta)
    return ObjectiveSpec(rule=rule, loss=make_loss(args.loss), lam=args.lam)


def _train_config(args) -> TrainConfig:
    project = {"auto": None, "on": True, "off": False}[args.project]
    return TrainConfig(
        iterations=args.iters,
        adam=AdamParams(step_size=args.step_size),
        n_minibatch=args.minibatches,
        seed=args.seed,
        project_unit_ball=project,
        init=args.init,
    )


def cmd_train(args, parser) -> int:
    spec = _build_spec(args, parser)
    dataset = _load_dataset(args)
    cfg = _train_config(args)
    model = train(spec, dataset, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = model.to_dict()
    doc["version"] = __version__
    (out / "model.json").write_text(json.dumps(doc, indent=2))
    # wall times stay out of the CSV so reruns are byte-identical
    with (out / "history.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "objective", "w_norm"])
        hist = model.history
        for i in range(len(hist.objective)):
            writer.writerow([i, repr(float(hist.objective[i])), repr(float(hist.w_norm[i]))])
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


def cmd_eval(args, parser, curves_only: bool = False) -> int:
    model = Model.from_dict(json.loads(Path(args.model).read_text()))
    dataset = _load_dataset(args)
    if dataset.m != model.w.shape[0]:
        raise ValueError(
            f"model expects {model.w.shape[0]} features, dataset has {dataset.m}"
        )
    report = build_report(model.w, model.t_final, dataset, args.taus)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_curve_csv(report.pr_curve, out / "pr_curve.csv", ("recall", "precision"))
    write_curve_csv(report.ptau_curve, out / "ptau_curve.csv", ("tau", "precision"))
    if not curves_only:
        report.to_json(out / "report.json")
        print(f"wrote {out / 'report.json'}")
    else:
        print(f"wrote {out / 'pr_curve.csv'}")
    return 0


def cmd_synth(args, parser) -> int:
    dataset = synth_example(args.n, args.seed)
    save_csv(dataset, args.out)
    print(f"wrote {args.out} ({dataset.n} samples)")
    return 0


def cmd_reproduce(args, parser) -> int:
    rows = reproduce_worked_example(n=args.n, tau=args.tau, beta=args.beta, k=args.k, seed=args.seed)
    header = ["method", "point", "t", "t_expected", "f", "f_expected"]
    print("  ".join(f"{h:>11s}" for h in header))
    for row in rows:
        print(
            f"{row['method']:>11s}  {row['point']:>11s}  "
            f"{row['t']:11.4f}  {row['t_expected']:11.4f}  "
            f"{row['f']:11.4f}  {row['f_expected']:11.4f}"
        )
    if args.out:
        with Path(args.out).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


def cmd_grid(args, parser) -> int:
    if args.manifest:
        manifest = json.loads(Path(args.manifest).read_text())
        try:
            run_manifest(manifest, args.out, jobs=args.jobs)
        except ManifestError as exc:
            parser.error(str(exc))
        print(f"wrote experiment outputs to {args.out}")
        return 0
    if not args.method or not args.data:
        parser.error("grid needs either --manifest or both --method and --data")
    # k, beta and lambda come from the grid; tau is fixed for the whole grid
    if "tau" in method_params(args.method) and args.tau is None:
        parser.error(f"method {args.method} requires --tau")
    try:
        select = SelectCriterion(kind=args.criterion, tau=args.criterion_tau)
    except ValueError as exc:
        parser.error(f"--criterion-tau: {exc}")
    dataset = _load_dataset(args)
    splits = split(dataset, SplitSpec(seed=args.seed))
    swept = {name: getattr(args, name) for name in ("betas", "lambdas", "ks")}
    grid = Grid(**{name: tuple(values) for name, values in swept.items() if values})
    best, records = grid_search(
        args.method, grid, splits, _train_config(args), select,
        tau=args.tau, loss=make_loss(args.loss), jobs=args.jobs,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_records.json").write_text(
        json.dumps([r.to_dict() for r in records], indent=2)
    )
    audit = zero_audit(records)
    (out / "zero_audit.json").write_text(json.dumps(audit, indent=2))
    print(f"best point: {best.params} -> {out / 'run_records.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="topclf")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a linear model")
    _add_method_args(p)
    p.add_argument("--beta", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    _add_data_args(p)
    _add_train_args(p)
    p.add_argument("--out", required=True, help="output directory")

    for name, help_text in (
        ("eval", "evaluate a trained model"),
        ("curve", "emit PR and P-tau curve CSVs"),
    ):
        p = sub.add_parser(name, help=help_text)
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

    # no abbreviations: --k, --beta and --lambda would silently mean --ks,
    # --betas and --lambdas
    p = sub.add_parser("grid", help="hyperparameter grid search", allow_abbrev=False)
    p.add_argument("--manifest", help="experiment manifest JSON")
    _add_method_args(p, required=False)
    _add_data_args(p, required=False)
    _add_train_args(p)
    p.add_argument("--betas", type=float, nargs="*")
    p.add_argument("--lambdas", type=float, nargs="*")
    p.add_argument("--ks", type=int, nargs="*")
    p.add_argument("--criterion", choices=CRITERION_KINDS, default="positives_at_top")
    p.add_argument("--criterion-tau", type=float)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": cmd_train,
        "eval": cmd_eval,
        "curve": lambda a, p: cmd_eval(a, p, curves_only=True),
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
