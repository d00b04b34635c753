"""Shared generators and oracles for the test suite."""

import dataclasses
import math
from pathlib import Path

import numpy as np

from topclf.data import Dataset
from topclf.solver import AdamState, train
from topclf.threshold import (
    NEGATIVE_KINDS,
    QUANTILE_KINDS,
    TOP_K_KINDS,
    exact_quantile,
    scores,
    surrogate_quantile,
    threshold_scored,
)


def random_dataset(rng, n=50, m=5, pos_frac=0.5, scale=1.0):
    """Random dense dataset guaranteed to contain both classes."""
    features = scale * rng.standard_normal((n, m))
    labels = rng.random(n) < pos_frac
    if labels.all():
        labels[rng.integers(n)] = False
    if not labels.any():
        labels[rng.integers(n)] = True
    return Dataset(features, labels)


def save_libsvm(d, path):
    """Write ``d`` as a libsvm file: zero entries left out, every value as its repr."""
    lines = []
    for row, positive in zip(d.features.tolist(), d.labels.tolist()):
        cells = [f"{j + 1}:{x!r}" for j, x in enumerate(row) if x != 0.0]
        lines.append(" ".join(["+1" if positive else "-1", *cells]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def brute_force_quantile(values, tau):
    """Largest candidate t with at least a tau fraction of entries >= t.

    Candidates are the score values themselves; checks the count predicate
    directly instead of selecting by rank.
    """
    values = list(values)
    need = math.ceil(tau * len(values))
    feasible = [v for v in values if sum(x >= v for x in values) >= need]
    return max(feasible)


def oracle_surrogate_quantile(values, tau, beta, loss, max_iter=200):
    """Root t of mean_i l(beta*(z_i - t)) = tau by bisection.

    The bracket grows downward until the residual changes sign, then halves
    until it collapses to float resolution.  Raises when either fails.
    """
    values = np.asarray(values, dtype=np.float64)

    def residual(t):
        return float(np.mean(loss.value(beta * (values - t)))) - tau

    hi = float(values.max()) + 1.0 / beta  # residual == -tau for our losses
    lo = float(values.min()) - 1.0 / beta
    span = max(hi - lo, 1.0)
    while residual(lo) < 0.0:
        lo -= span
        span *= 2.0
        if not math.isfinite(lo):
            raise RuntimeError("failed to bracket the surrogate quantile")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    if abs(residual(mid)) <= 1e-10 * max(1.0, tau):
        return mid
    raise RuntimeError(f"bisection did not converge after {max_iter} iterations")


def running_max_surrogate_quantile(rows, tau, beta, loss):
    """The surrogate quantile of each row, its root segment found by a binary search.

    Mirrors ``threshold.surrogate_quantile`` except for the search: the breakpoint
    residuals are made non-decreasing by a running max and searched with
    ``searchsorted``, where the package takes the first residual that reaches tau.
    """
    rows = np.asarray(rows, dtype=np.float64)
    g_rows, n = rows.shape
    b = np.asarray(beta, dtype=np.float64)
    z = np.sort(rows, axis=1)[:, ::-1]
    j = np.arange(n)
    zero = np.zeros((g_rows, 1))
    if loss.kind == "hinge":
        prefix = np.concatenate((zero, np.cumsum(z, axis=1)), axis=1)
        c = (b / n)[:, None] * (prefix[:, :n] - j * z)
    else:
        y = z - z[:, :1]
        py = np.concatenate((zero, np.cumsum(y, axis=1)), axis=1)
        qy = np.concatenate((zero, np.cumsum(y * y, axis=1)), axis=1)
        c = (b * b / n)[:, None] * (qy[:, :n] - 2.0 * y * py[:, :n] + j * y * y)
    c = np.maximum.accumulate(c, axis=1)
    t = np.empty(g_rows)
    for g, (cg, bg) in enumerate(zip(c, beta)):
        a = int(np.searchsorted(cg, tau, side="left"))
        if loss.kind == "hinge" and a >= n:
            t[g] = prefix[g, n] / n + (1.0 - tau) / bg
        elif loss.kind == "hinge":
            t[g] = (a + bg * prefix[g, a] - n * tau) / (bg * a)
        else:
            top = z[g, :a]
            m = top.mean()
            dev = top - m
            s2 = max((n * tau - bg * bg * float(dev @ dev)) / a, 0.0)
            t[g] = m + (1.0 - math.sqrt(s2)) / bg
    return t


def grid_solve(fun, lo, hi, levels=4, points=2000):
    """Find a zero of a monotone decreasing function by nested grid zoom."""
    for _ in range(levels):
        grid = np.linspace(lo, hi, points)
        vals = np.array([fun(t) for t in grid])
        below = np.flatnonzero(vals <= 0.0)
        i = below[0] if below.size else points - 1
        lo, hi = grid[max(i - 1, 0)], grid[i]
    return 0.5 * (lo + hi)


def central_diff(f, w, h=1e-6):
    """Central finite-difference gradient of a scalar function of w."""
    w = np.asarray(w, dtype=np.float64)
    g = np.zeros_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


def active_pattern(rule, w, d, loss):
    """Snapshot of everything that kinks the threshold at w.

    Two weight vectors with the same pattern lie on the same smooth piece,
    so finite differences across them are trustworthy.
    """
    z = scores(w, d)
    tres = threshold_scored([rule], z[None], d, loss)
    return frozenset(tres.support.tolist())


def objective_pattern(spec, w, d):
    """Pattern for the full objective: threshold support plus loss branches."""
    z = scores(w, d)
    tres = threshold_scored([spec.rule], z[None], d, spec.loss)
    up = tres.t - z[d.pos_idx]
    branches = tuple((up > -1.0).tolist())
    if spec.include_fp:
        un = z[d.neg_idx] - tres.t
        branches = branches + tuple((un > -1.0).tolist())
    return (frozenset(tres.support.tolist()), branches)


def is_stable(pattern_fn, w, h=1e-6):
    """True when the active pattern is identical at w and all w +- h e_j."""
    base = pattern_fn(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        if pattern_fn(w + e) != base or pattern_fn(w - e) != base:
            return False
    return True


def tied_integer_dataset(rng, n, tau):
    """Integer scores with the quantile value tied downward from rank n*tau.

    The tie block starts exactly at the quantile rank, so the count of
    samples at or above the quantile equals n*tau + q - 1 by construction.
    """
    k = round(n * tau)
    base = rng.choice(np.arange(-3 * n, 3 * n), size=n, replace=False)
    z = np.sort(base)[::-1].astype(float)
    extra_ties = int(rng.integers(1, 4))
    stop = min(k + extra_ties, n)
    z[k:stop] = z[k - 1]
    labels = rng.random(n) < 0.5
    if labels.all():
        labels[0] = False
    if not labels.any():
        labels[0] = True
    return Dataset(z[:, None], labels)


def oracle_top_k_mean(values, k):
    """Mean of the k largest entries by a full stable descending sort.

    Ties go to the lowest index.  The support comes back in sorted order,
    and the mean is taken over the entries in that order.
    """
    values = np.asarray(values, dtype=np.float64)
    support = np.argsort(-values, kind="stable")[:k]
    return float(values[support].mean()), support


def oracle_threshold_gradient(rule, z, d, loss):
    """Threshold and its gradient from gathered feature rows.

    Top-k rules average the k supporting rows, surrogate-quantile rules
    take the l'-weighted mean of every pool row, exact quantiles give zero.
    """
    sel = d.neg_idx if rule.kind in NEGATIVE_KINDS else np.arange(d.n)
    zsel, xsel = z[sel], d.features[sel]
    if rule.kind in TOP_K_KINDS:
        if rule.kind == "top_push":
            k = 1
        elif rule.kind == "top_push_k":
            k = rule.k
        else:
            k = math.ceil(rule.tau * zsel.size)
        t, local = oracle_top_k_mean(zsel, k)
        return t, xsel[local].mean(axis=0)
    if rule.kind in QUANTILE_KINDS:
        return exact_quantile(zsel, rule.tau), np.zeros(d.m)
    t = surrogate_quantile(zsel[None], rule.tau, [rule.beta], loss)[0]
    weights = loss.deriv(rule.beta * (zsel - t))
    return t, (weights @ xsel) / weights.sum()


def oracle_gradient(spec, w, d):
    """grad f(w) assembled from the positive and negative row blocks."""
    z = d.features @ w
    t, grad_t = oracle_threshold_gradient(spec.rule, z, d, spec.loss)
    dup = spec.loss.deriv(t - z[d.pos_idx])
    grad = (dup.sum() * grad_t - dup @ d.features[d.pos_idx]) / d.n_pos
    if spec.include_fp:
        dun = spec.loss.deriv(z[d.neg_idx] - t)
        grad += (dun @ d.features[d.neg_idx] - dun.sum() * grad_t) / d.n_neg
    return grad + spec.lam * w


def oracle_adam_step(state, grad, params):
    """One bias-corrected ADAM update written functionally: a new state and the delta."""
    step = state.step + 1
    m = params.beta1 * state.m + (1.0 - params.beta1) * grad
    v = params.beta2 * state.v + (1.0 - params.beta2) * grad * grad
    m_hat = m / (1.0 - params.beta1**step)
    v_hat = v / (1.0 - params.beta2**step)
    delta = -params.step_size * m_hat / (np.sqrt(v_hat) + params.epsilon)
    return AdamState(m=m, v=v, step=step), delta


def timing_probe(spec, d, cfg, warmup=5, timed=21):
    """Median wall-clock milliseconds per training iteration after warmup."""
    if warmup < 1:
        raise ValueError("warmup must be >= 1")
    probe_cfg = dataclasses.replace(cfg, iterations=warmup + timed)
    model = train(spec, d, probe_cfg)
    return float(np.median(model.history.iter_ms[warmup:]))
