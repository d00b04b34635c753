"""Acceptance suite: one test per release criterion, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    brute_force_quantile,
    central_diff,
    is_stable,
    objective_pattern,
    random_dataset,
    tied_integer_dataset,
    timing_probe,
)
from topclf.data import Dataset, synth_example
from topclf.evaluation import counts, criterion, pr_curve, precision_recall
from topclf.experiment import reproduce_worked_example
from topclf.objective import ObjectiveSpec, evaluate, objective
from topclf.solver import TrainConfig, train
from topclf.surrogate import HINGE, QUADRATIC_HINGE
from topclf.threshold import (
    ThresholdRule,
    exact_quantile,
    rule_from_token,
    scores,
    surrogate_quantile,
    threshold_scored,
)

CONVEX_KINDS = (
    "top_push",
    "top_push_k",
    "top_mean",
    "top_mean_np",
    "surrogate_quantile",
    "surrogate_quantile_np",
)
TOP_K_KINDS = ("top_push", "top_push_k", "top_mean", "top_mean_np")
ALL_TOKENS = (
    "toppush",
    "toppushk",
    "grill",
    "grill-np",
    "patmat",
    "patmat-np",
    "topmean",
    "topmean-np",
)


def verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {state}: {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def make_rule(kind, k=2, tau=0.4, beta=0.7):
    return ThresholdRule(
        kind=kind,
        k=k if kind == "top_push_k" else None,
        tau=tau if kind not in ("top_push", "top_push_k") else None,
        beta=beta if kind.startswith("surrogate") else None,
    )


def make_spec(kind, k=2, tau=0.4, beta=0.7, lam=0.0, loss=HINGE):
    return ObjectiveSpec(rule=make_rule(kind, k=k, tau=tau, beta=beta), loss=loss, lam=lam)


def test_01_worked_example_closed_forms():
    tic = time.perf_counter()
    rows = reproduce_worked_example(n=100_000, tau=0.05, beta=0.01, k=5, seed=0)
    worst = max(
        max(abs(r["t"] - r["t_expected"]), abs(r["f"] - r["f_expected"])) for r in rows
    )
    elapsed = time.perf_counter() - tic
    verdict(
        1,
        "planted-outlier worked example matches closed forms",
        worst <= 0.02 and elapsed < 30.0,
        f"max err {worst:.4f}, {elapsed:.1f}s",
    )


def test_02_top_push_collapses_to_zero():
    tic = time.perf_counter()
    d = synth_example(1000, seed=0)
    spec = ObjectiveSpec(rule=ThresholdRule("top_push"))
    hits = 0
    for seed in range(12):
        cfg = TrainConfig(iterations=1000, seed=seed, init="uniform")
        model = train(spec, d, cfg)
        if np.linalg.norm(model.w) < 0.05:
            hits += 1
    elapsed = time.perf_counter() - tic
    verdict(
        2,
        "random starts collapse to the zero minimum",
        hits >= 10 and elapsed < 60.0,
        f"{hits}/12 runs, {elapsed:.1f}s",
    )


def test_03_objective_convexity():
    tic = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = -np.inf
    for kind in CONVEX_KINDS:
        spec = make_spec(kind)
        for _ in range(1000):
            d = random_dataset(rng, n=50, m=5)
            w1 = rng.uniform(-1, 1, 5)
            w2 = rng.uniform(-1, 1, 5)
            lam = float(rng.uniform(0, 1))
            mix = objective([spec], (lam * w1 + (1 - lam) * w2)[None], d)[0]
            bound = (
                lam * objective([spec], w1[None], d)[0]
                + (1 - lam) * objective([spec], w2[None], d)[0]
            )
            worst = max(worst, mix - bound)
    elapsed = time.perf_counter() - tic
    verdict(
        3,
        "convexity of the six convex objectives",
        worst <= 1e-9 and elapsed < 60.0,
        f"worst margin {worst:.2e}, {elapsed:.1f}s",
    )


def test_04_zero_minimum_conditions():
    tic = time.perf_counter()
    rng = np.random.default_rng(102)
    tau, k = 0.4, 2
    violations = 0
    conditioned = {kind: 0 for kind in TOP_K_KINDS}
    for kind in TOP_K_KINDS:
        spec = make_spec(kind, k=k, tau=tau)
        for _ in range(1000):
            d = random_dataset(rng)
            w = rng.uniform(-1, 1, d.m)
            z = scores(w, d)
            zn = np.sort(z[d.neg_idx])[::-1]
            pos_mean = z[d.pos_idx].mean()
            # hypothesis from the sorted scores, matching the method's
            # threshold definition
            if kind == "top_push":
                lhs = zn[0]
            elif kind == "top_push_k":
                lhs = zn[:k].mean()
            elif kind == "top_mean_np":
                lhs = zn[: math.ceil(d.n_neg * tau)].mean()
            else:
                lhs = np.sort(z)[::-1][: math.ceil(d.n * tau)].mean()
            if lhs >= pos_mean:
                conditioned[kind] += 1
                f0 = objective([spec], np.zeros((1, d.m)), d)[0]
                if f0 > objective([spec], w[None], d)[0] + 1e-12:
                    violations += 1
    # corollary: enough positives make zero unconditionally optimal for the
    # all-samples top mean
    spec = make_spec("top_mean", tau=0.3)
    filled = 0
    while filled < 1000:
        d = random_dataset(rng, n=40, pos_frac=0.6)
        if d.n_pos < math.ceil(d.n * 0.3):
            continue
        filled += 1
        w = rng.uniform(-2, 2, d.m)
        f0 = objective([spec], np.zeros((1, d.m)), d)[0]
        if f0 > objective([spec], w[None], d)[0] + 1e-12:
            violations += 1
    elapsed = time.perf_counter() - tic
    min_cond = min(conditioned.values())
    verdict(
        4,
        "zero-weights dominance under the threshold conditions",
        violations == 0 and min_cond > 100 and elapsed < 60.0,
        f"0 violations, >= {min_cond} conditioned cases per method, {elapsed:.1f}s",
    )


def test_05_surrogate_quantile_escapes_zero():
    rng = np.random.default_rng(103)
    tau = 0.3
    hits = wins = 0
    while hits < 100:
        d = random_dataset(rng)
        w = rng.uniform(-1, 1, d.m)
        z = scores(w, d)
        if z[d.pos_idx].mean() <= z[d.neg_idx].mean():
            w, z = -w, -z
        if z[d.pos_idx].mean() <= z[d.neg_idx].mean():
            continue
        hits += 1
        z_min, z_max = float(z.min()), float(z.max())
        zbar = float(z.mean())
        beta = min(
            tau / (zbar - z_min) if zbar > z_min else np.inf,
            (1 - tau) / (z_max - zbar) if z_max > zbar else np.inf,
        )
        spec = make_spec("surrogate_quantile", tau=tau, beta=beta)
        if objective([spec], w[None], d)[0] < objective([spec], np.zeros((1, d.m)), d)[0]:
            wins += 1
    verdict(5, "constructed scaling beats the zero weights", wins == 100, f"{wins}/100")


def test_06_threshold_orderings():
    rng = np.random.default_rng(104)
    eps = 1e-9
    violations = 0
    for _ in range(1000):
        d = random_dataset(rng, n=int(rng.integers(20, 60)))
        tau = float(rng.uniform(0.2, 0.8))
        k_cap = math.ceil(d.n_neg * tau)
        k = int(rng.integers(1, k_cap + 1))
        beta = float(10.0 ** rng.uniform(-1.5, 0.5))
        w = rng.uniform(-1, 1, d.m)
        t = {
            kind: threshold_scored(
                [make_rule(kind, k=k, tau=tau, beta=beta)], scores(w, d)[None], d
            ).t[0]
            for kind in (
                "top_push",
                "top_push_k",
                "quantile",
                "quantile_np",
                "surrogate_quantile",
                "surrogate_quantile_np",
                "top_mean",
                "top_mean_np",
            )
        }
        chain = (
            t["top_push"] >= t["top_push_k"] - eps
            and t["top_push_k"] >= t["top_mean_np"] - eps
            and t["surrogate_quantile"] >= t["top_mean"] - eps
            and t["top_mean"] >= t["quantile"] - eps
            and t["surrogate_quantile_np"] >= t["top_mean_np"] - eps
            and t["top_mean_np"] >= t["quantile_np"] - eps
        )
        if not chain:
            violations += 1
            continue
        z = scores(w, d)
        zp = np.sort(z[d.pos_idx])[::-1]
        zn = np.sort(z[d.neg_idx])[::-1]
        kp, kn = math.ceil(d.n_pos * tau), math.ceil(d.n_neg * tau)
        if zp[kp - 1] > zn[kn - 1] and t["quantile"] < t["quantile_np"] - eps:
            violations += 1
        if zp[:kp].mean() > zn[:kn].mean() and not t["top_mean"] > t["top_mean_np"]:
            violations += 1
    verdict(6, "threshold ordering chain", violations == 0, f"{violations} violations")


def test_07_gradient_oracle():
    rng = np.random.default_rng(105)
    h = 1e-6
    per_combo = 42
    stable_total = matched = 0
    for kind in CONVEX_KINDS:
        for loss in (HINGE, QUADRATIC_HINGE):
            spec = make_spec(kind, loss=loss, lam=0.01)
            found = attempts = 0
            while found < per_combo and attempts < 20 * per_combo:
                attempts += 1
                d = random_dataset(rng, n=30, m=4)
                w = rng.uniform(-1, 1, 4)
                if not is_stable(lambda v: objective_pattern(spec, v, d), w, h):
                    continue
                found += 1
                g = evaluate([spec], w[None], d)[1][0]
                fd = central_diff(lambda v: objective([spec], v[None], d)[0], w, h)
                if np.linalg.norm(fd - g) <= 1e-4 * max(1.0, np.linalg.norm(g)):
                    matched += 1
            stable_total += found
    verdict(
        7,
        "finite differences confirm the implicit gradient",
        stable_total >= 500 and matched >= 0.95 * stable_total,
        f"{matched}/{stable_total} stable points matched",
    )


def test_08_quantile_count_identity():
    rng = np.random.default_rng(106)
    w = np.array([1.0])
    checked = 0
    exact = True
    while checked < 100:
        n = int(rng.choice([10, 20, 40]))
        tau = float(rng.choice([0.1, 0.2, 0.5]))
        if n * tau != round(n * tau):
            continue
        d = tied_integer_dataset(rng, n, tau)
        checked += 1
        z = scores(w, d)
        t = exact_quantile(z, tau)
        c = counts(scores(w, d), t, d)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            rhs = (
                alpha * c.fp
                + (1 - alpha) * c.fn
                + (1 - alpha) * (n * tau - d.n_pos)
                + (1 - alpha) * (c.q - 1)
            )
            if c.fp != rhs:
                exact = False
    verdict(8, "false-positive identity at the exact quantile", exact, f"{checked} datasets")


def test_09_surrogate_quantile_solver():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 80))
        values = rng.normal(scale=float(rng.uniform(0.1, 5.0)), size=n)
        tau = float(rng.uniform(0.05, 0.95))
        beta = float(10.0 ** rng.uniform(-2, 1))
        t = surrogate_quantile(values[None], tau, [beta], HINGE)[0]
        residual = abs(float(np.mean(HINGE.value(beta * (values - t)))) - tau)
        worst = max(worst, residual / max(1.0, tau))
    tau, beta = 0.2, 0.1
    closed = surrogate_quantile(np.zeros((1, 64)), tau, [beta])[0] == (1.0 - tau) / beta
    verdict(
        9,
        "surrogate quantile residuals and zero-score closed form",
        worst <= 1e-10 and closed,
        f"worst scaled residual {worst:.2e}",
    )


def test_10_brute_force_equivalence():
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(500):
        n = int(rng.integers(4, 13))
        d = random_dataset(rng, n=n, m=int(rng.integers(1, 4)))
        w = rng.uniform(-1, 1, d.m)
        z = scores(w, d)
        tau = float(rng.uniform(0.05, 0.95))
        t = float(rng.normal())

        tq = exact_quantile(z, tau)
        ok &= tq == brute_force_quantile(z, tau)

        c = counts(scores(w, d), t, d)
        tp = sum(1 for i in d.pos_idx if z[i] >= t)
        fp = sum(1 for i in d.neg_idx if z[i] >= t)
        ok &= (c.tp, c.fp, c.fn, c.tn) == (tp, fp, d.n_pos - tp, d.n_neg - fp)
        ok &= c.q == sum(1 for zi in z if zi == t)

        best = {}
        for tt in sorted(set(z), reverse=True):
            cc = counts(scores(w, d), float(tt), d)
            p, r = precision_recall(cc)
            if r not in best or p > best[r]:
                best[r] = p
        ok &= pr_curve(scores(w, d), d) == sorted(best.items())

        t_top = max(z[i] for i in d.neg_idx)
        expect = sum(1 for i in d.pos_idx if z[i] >= t_top) / d.n_pos
        ok &= criterion("positives_at_top", scores(w, d), d) == expect
        t_q = brute_force_quantile(z, tau)
        expect = sum(1 for i in d.pos_idx if z[i] >= t_q) / d.n_pos
        ok &= criterion("positives_at_quantile", scores(w, d), d, tau) == expect
        t_np = brute_force_quantile(z[d.neg_idx], tau)
        expect = sum(1 for i in d.pos_idx if z[i] >= t_np) / d.n_pos
        ok &= criterion("positives_at_np", scores(w, d), d, tau) == expect
    verdict(10, "enumeration oracles agree on small datasets", bool(ok))


def test_11_iteration_speed():
    rng = np.random.default_rng(109)
    d = Dataset(rng.standard_normal((100_000, 30)), rng.random(100_000) < 0.5)
    per_method = {}
    for token in ALL_TOKENS:
        spec = ObjectiveSpec(rule=rule_from_token(token, k=5, tau=0.05, beta=0.1))
        per_method[token] = timing_probe(
            spec, d, TrainConfig(iterations=1), warmup=5, timed=21
        )
    slowest = max(per_method, key=per_method.get)
    spec = ObjectiveSpec(rule=rule_from_token(slowest, k=5, tau=0.05, beta=0.1))
    tic = time.perf_counter()
    train(spec, d, TrainConfig(iterations=1000))
    full_run = time.perf_counter() - tic
    worst_ms = per_method[slowest]
    verdict(
        11,
        "full-batch iteration speed on 100k x 30",
        worst_ms <= 50.0 and full_run <= 50.0,
        f"slowest {slowest} {worst_ms:.1f} ms/iter, 1000 iters {full_run:.1f}s",
    )
