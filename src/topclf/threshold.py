"""Score-dependent decision thresholds and their gradients.

Every training method in this package fixes the decision threshold t as a
function of the sample scores z_i = w.x_i.  Eight rules are supported:

==================== ======================================================
kind                 threshold definition
==================== ======================================================
top_push             largest negative score
top_push_k           mean of the k largest negative scores
quantile             largest t with at least ceil(n*tau) scores >= t
quantile_np          same, over negative scores and ceil(n_neg*tau)
surrogate_quantile   t solving mean_i l(beta*(z_i - t)) = tau, all samples
surrogate_quantile_np same, over negative samples
top_mean             mean of the ceil(n*tau) largest scores
top_mean_np          mean of the ceil(n_neg*tau) largest negative scores
==================== ======================================================

Every threshold gradient is a weighted sum of sample rows,
grad t(w) = sum_i a_i x_i, so a rule returns the per-sample coefficients a_i
on its support instead of a feature vector.  The top-k-mean rules put 1/k on
the k supporting samples; the surrogate-quantile rules put the implicit
weights l'(beta*(z_i-t)) / sum_j l'(beta*(z_j-t)) on the samples with a
positive derivative; the exact quantile rules put zero on the samples tied
at t and expect the caller to recompute t after each step.  The objective
folds these coefficients into a single product with the feature matrix.
The surrogate quantile is solved exactly, for both losses, by one scan over
the sorted breakpoints of its piecewise linear or quadratic equation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .surrogate import SurrogateLoss, HINGE

__all__ = [
    "ThresholdRule",
    "ThresholdResult",
    "CLI_TOKENS",
    "method_params",
    "rule_from_token",
    "scores",
    "top_k_mean",
    "exact_quantile",
    "surrogate_quantile",
    "RuleStack",
    "threshold_scored",
]

# kind: (CLI token, parameters the rule takes, pool is the negatives only)
RULES = {
    "top_push": ("toppush", (), True),
    "top_push_k": ("toppushk", ("k",), True),
    "quantile": ("grill", ("tau",), False),
    "quantile_np": ("grill-np", ("tau",), True),
    "surrogate_quantile": ("patmat", ("tau", "beta"), False),
    "surrogate_quantile_np": ("patmat-np", ("tau", "beta"), True),
    "top_mean": ("topmean", ("tau",), False),
    "top_mean_np": ("topmean-np", ("tau",), True),
}
CLI_TOKENS = {token: kind for kind, (token, _, _) in RULES.items()}
NEGATIVE_KINDS = frozenset(kind for kind, (_, _, neg) in RULES.items() if neg)
TOP_K_KINDS = frozenset({"top_push", "top_push_k", "top_mean", "top_mean_np"})
QUANTILE_KINDS = frozenset({"quantile", "quantile_np"})
# the rules that take the ceil(tau * pool)-th largest score
TAU_POOL_KINDS = QUANTILE_KINDS | {"top_mean", "top_mean_np"}

# parameter: (valid value, what the error asks for)
_PARAM_CHECKS = {
    "k": (lambda v: v >= 1, "a positive integer k"),
    "tau": (lambda v: 0.0 < v < 1.0, "tau in (0, 1)"),
    "beta": (lambda v: v > 0.0, "beta > 0"),
}


@dataclass(frozen=True)
class ThresholdRule:
    """One of the eight threshold definitions with its parameters."""

    kind: str
    k: int | None = None
    tau: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in RULES:
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        _, takes, _ = RULES[self.kind]
        for name, (valid, wanted) in _PARAM_CHECKS.items():
            value = getattr(self, name)
            if name in takes and (value is None or not valid(value)):
                raise ValueError(f"{self.kind} requires {wanted}, got {value!r}")
            if name not in takes and value is not None:
                raise ValueError(f"{self.kind} takes no {name} parameter")


@dataclass(frozen=True)
class ThresholdResult:
    """The G thresholds ``t`` of a (G, n) score stack, their samples and gradient weights.

    ``support`` holds flat indices g * n + i into the C-ordered stack, i indexing the scored
    dataset (batch-relative on a minibatch); ``weights[j]`` is that sample's gradient weight.
    """

    t: np.ndarray
    support: np.ndarray
    weights: np.ndarray


def method_params(token: str) -> tuple[str, ...]:
    """Parameters taken by the rule behind CLI ``token``."""
    if token not in CLI_TOKENS:
        raise ValueError(
            f"unknown method {token!r}; choose from {sorted(CLI_TOKENS)}"
        )
    _, params, _ = RULES[CLI_TOKENS[token]]
    return params


def rule_from_token(
    token: str,
    k: int | None = None,
    tau: float | None = None,
    beta: float | None = None,
) -> ThresholdRule:
    """Build a rule from its CLI token, keeping only the parameters it uses."""
    given = {"k": k, "tau": tau, "beta": beta}
    params = {name: given[name] for name in method_params(token)}
    return ThresholdRule(kind=CLI_TOKENS[token], **params)


def scores(w: np.ndarray, d: Dataset) -> np.ndarray:
    """Linear scores z_i = w.x_i for every sample.

    A (G, m) stack of weights gives the C-ordered (G, n) stack of their scores, one
    ``ndarray.dot`` per row: matmul's BLAS gemv without its dispatch, with its bits but
    that a 1 x 1 product keeps a zero's sign.  Each row has the bits of its own 1-D call.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim not in (1, 2) or w.shape[-1] != d.m:
        raise ValueError(f"weight shape {w.shape} does not match {d.m} features")
    z = np.empty((*w.shape[:-1], d.n))
    for row, wg in zip(z.reshape(-1, d.n), w.reshape(-1, d.m)):
        d.features.dot(wg, out=row)
    if not np.isfinite(z).all():
        raise ValueError("scores are not finite")
    return z


def top_k_mean(rows: np.ndarray, ks: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Mean of the k_g largest entries of each row g of a (G, n) stack, and their indices.

    Ties are broken toward the lowest index so the supporting set, and with
    it the gradient, is deterministic.  Gives the G means and the flat
    indices of their supports in the C-ordered stack, row by row.
    """
    rows = np.asarray(rows, dtype=np.float64)
    g_rows, size = rows.shape
    if not (1 <= min(ks) and max(ks) <= size):
        raise ValueError(f"k must be in [1, {size}], got {ks}")
    if max(ks) == 1:
        # argmax returns the first maximal index; the mean of one value is that value
        flat = rows.argmax(axis=1) + np.arange(0, g_rows * size, size)
        return rows.reshape(-1)[flat], flat
    # linear-time selection of the k-th largest value of each row
    last = [size - kg for kg in ks]
    kth = np.partition(rows, sorted(set(last)), axis=1)[range(g_rows), last]
    reach = rows >= kth[:, None]
    flat = np.flatnonzero(reach)
    if flat.size > sum(ks):
        # more than k entries reach the k-th value: drop the highest-index ties
        for g, extra in enumerate((np.count_nonzero(reach, axis=1) - ks).tolist()):
            if extra:
                tied = np.flatnonzero(rows[g] == kth[g])
                reach[g, tied[-extra:]] = False
        flat = np.flatnonzero(reach)
    top = rows.reshape(-1)[flat]
    # row g holds k_g of the indices; by row, then descending by value, ties
    # by low index: the order of a stable sort, as lexsort is stable
    order = np.lexsort((-top, flat // size))
    top, flat = top[order], flat[order]
    # add.reduce / k has the same bits as mean(), row by row or for all rows that share k,
    # and skips its overhead; one value is taken as it is, as a sum turns -0.0 into 0.0
    if len(set(ks)) == 1:
        return np.add.reduce(top.reshape(g_rows, -1), axis=1) / ks[0], flat
    t, start = np.empty(g_rows), 0
    for g, kg in enumerate(ks):
        t[g] = top[start] if kg == 1 else np.add.reduce(top[start:start + kg]) / kg
        start += kg
    return t, flat


def exact_quantile(values: np.ndarray, tau: float) -> float | np.ndarray:
    """The ceil(tau*n)-th largest value of a vector, or of each row of a (G, n) stack.

    Equivalently the largest t such that at least a tau fraction of the
    entries is >= t.
    """
    values = np.asarray(values, dtype=np.float64)
    size = values.shape[-1]
    if size == 0:
        raise ValueError("cannot take a quantile of an empty vector")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    last = size - math.ceil(tau * size)
    return np.partition(values, last, axis=-1).take(last, axis=-1)


def surrogate_quantile(
    rows: np.ndarray, tau: float, beta: Sequence[float], loss: SurrogateLoss = HINGE
) -> np.ndarray:
    """Solve mean_i l(beta*(z_i - t)) = tau for t.

    The left side is continuous, non-increasing in t and strictly decreasing
    wherever it is positive, so the root is unique for tau in (0, 1).  Between
    the breakpoints t_j = z_(j) + 1/beta, scores in descending order, exactly
    the j largest scores are active and the equation is linear (hinge) or
    quadratic (quadratic hinge) in t; one scan of the breakpoint residuals
    finds the segment of the root, which is solved there in closed form.
    Each row g of a (G, n) stack is solved with ``beta[g]``; every row is
    sorted at once, and the G roots come back.
    """
    rows = np.asarray(rows, dtype=np.float64)
    g_rows, n = rows.shape
    if n == 0:
        raise ValueError("cannot take a surrogate quantile of an empty vector")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    b = np.asarray(beta, dtype=np.float64)
    if b.shape != (g_rows,) or (b <= 0.0).any():
        raise ValueError(f"beta must be positive, one per row, got {beta}")
    z = np.sort(rows, axis=1)[:, ::-1]
    j = np.arange(n)
    zero = np.zeros((g_rows, 1))
    # residual at breakpoint t_j, where the j-th term vanishes, non-decreasing in j
    if loss.kind == "hinge":
        # c_j = (beta/n) * sum_{i<j} (z_(i) - z_(j))
        prefix = np.concatenate((zero, np.cumsum(z, axis=1)), axis=1)
        c = (b / n)[:, None] * (prefix[:, :n] - j * z)
    else:
        # c_j = (beta^2/n) * sum_{i<j} (z_(i) - z_(j))^2 from prefix sums of
        # y = z - z_(0): each term is at most y_j^2 and the sum at least y_j^2,
        # so the cancellation error does not grow with the score offset
        y = z - z[:, :1]
        py = np.concatenate((zero, np.cumsum(y, axis=1)), axis=1)
        qy = np.concatenate((zero, np.cumsum(y * y, axis=1)), axis=1)
        c = (b * b / n)[:, None] * (qy[:, :n] - 2.0 * y * py[:, :n] + j * y * y)
    # the root lies where the `a` largest scores are active: a is the first j with c_j >= tau,
    # or n if none is; rounding wobble in c needs no guard: c's running max first reaches tau there
    reach = c >= tau
    first = np.where(reach.any(axis=1), reach.argmax(axis=1), n).tolist()
    t = np.empty(g_rows)
    for g, (a, bg) in enumerate(zip(first, beta)):
        if loss.kind == "hinge" and a >= n:
            t[g] = prefix[g, n] / n + (1.0 - tau) / bg
        elif loss.kind == "hinge":
            # solve a + beta*(S_a - a t) = n tau
            t[g] = (a + bg * prefix[g, a] - n * tau) / (bg * a)
        else:
            # solve sum_{i<a} (1 + beta*(z_(i) - t))^2 = n tau, i.e. a*s^2 + beta^2*D
            # = n tau with s = 1 + beta*(m - t) >= 0, m the mean and D the centred sum
            # of squares of the active scores (from the scores, for full precision);
            # n tau > n c_(a-1) >= beta^2 D, so only rounding can make s^2 negative
            top = z[g, :a]
            m = top.mean()
            dev = top - m
            s2 = max((n * tau - bg * bg * float(dev @ dev)) / a, 0.0)
            t[g] = m + (1.0 - math.sqrt(s2)) / bg
    return t


class RuleStack(tuple):
    """Rules of one kind and tau whose pools fit every batch of ``d`` dealt into ``parts``,
    checked once, with their per-row constants; :func:`threshold_scored` checks any other."""

    def __new__(cls, rules: Sequence[ThresholdRule], d: Dataset, parts: int = 1):
        stack = super().__new__(cls, rules)
        if not stack:
            raise ValueError("the stack is empty: it needs at least one row")
        if len({(r.kind, r.tau) for r in stack}) > 1:
            raise ValueError("a score stack takes rules of one kind and one tau")
        for r in stack:
            check_pool(r, d, parts)
        stack.k = [r.k or 1 for r in stack] if stack[0].kind in ("top_push", "top_push_k") else None
        stack.weights = stack.k and np.repeat(1.0 / np.array(stack.k), stack.k)
        stack.beta = np.array([r.beta for r in stack], dtype=np.float64)
        return stack


def threshold_scored(
    rules: Sequence[ThresholdRule], z: np.ndarray, d: Dataset, loss: SurrogateLoss = HINGE
) -> ThresholdResult:
    """Thresholds, gradient weights and supports of a (G, n) stack ``z`` of scores of ``d``.

    Row g is thresholded by ``rules[g]``.  The rules share their kind and tau,
    as the points of one grid cell do; only k and beta vary by row.  Every row
    is thresholded at once, with the bits of a one-row stack of it.
    """
    if type(rules) is not RuleStack:
        rules = RuleStack(rules, d)
    if z.ndim != 2:
        raise ValueError(f"score shape {z.shape} is not a (G, n) stack")
    if len(z) != len(rules):
        raise ValueError(f"{len(z)} score rows for {len(rules)} rules")
    kind, tau = rules[0].kind, rules[0].tau
    sel = d.neg_idx if kind in NEGATIVE_KINDS else None
    # take keeps the rows C-ordered, so their sums have the bits of one-row sums
    zsel = z if sel is None else z.take(sel, axis=1)
    g_rows, size = zsel.shape

    # flat indices into the C-ordered zsel, row by row, and their weights
    if kind in TOP_K_KINDS:
        k = rules.k or [math.ceil(tau * size)] * g_rows
        t, flat = top_k_mean(zsel, k)
        weights = rules.weights if rules.k else np.full(flat.size, 1.0 / k[0])
    elif kind in QUANTILE_KINDS:
        t = exact_quantile(zsel, tau)
        # gradient treated as zero: t is recomputed after every step
        flat = np.flatnonzero(zsel == t[:, None])
        weights = np.zeros(flat.size)
    else:  # surrogate quantile kinds
        t = surrogate_quantile(zsel, tau, rules.beta, loss)
        deriv = loss.deriv(rules.beta[:, None] * (zsel - t[:, None]))
        denom = np.add.reduce(deriv, axis=1)
        if (denom <= 0.0).any():
            raise ValueError(
                "all surrogate derivatives vanished; the implicit threshold gradient is undefined"
            )
        active = deriv > 0.0
        flat = np.flatnonzero(active)
        # each row's active derivatives over that row's sum
        weights = (deriv / denom[:, None]).reshape(-1)[flat]
    if sel is not None:
        # the flat index in the stack of every pooled score; one row's are sel's
        flat = sel[flat] if g_rows == 1 else flat // size * z.shape[1] + sel[flat % size]
    return ThresholdResult(t=t, support=flat, weights=weights)


def check_pool(rule: ThresholdRule, d: Dataset, parts: int = 1) -> np.ndarray | None:
    """The rows of ``d`` whose scores ``rule`` thresholds over: its negatives,
    or None for every row.  Raises unless the smallest pool of ``d`` dealt into
    ``parts`` minibatches, floor(pool / parts) scores, can support ``rule``.
    """
    sel = d.neg_idx if rule.kind in NEGATIVE_KINDS else None
    pool_size = (d.n if sel is None else sel.size) // parts
    if pool_size == 0:
        raise ValueError(f"{rule.kind} needs at least one sample in its score pool")
    if rule.kind == "top_push_k" and rule.k > pool_size:
        raise ValueError(f"k={rule.k} exceeds the {pool_size} negative samples")
    if rule.kind in TAU_POOL_KINDS and rule.tau * pool_size < 1.0:
        raise ValueError(
            f"{rule.kind} needs tau * pool >= 1; got tau={rule.tau} over {pool_size} samples"
        )
    return sel
