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
"""

from __future__ import annotations

import math
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
    "threshold",
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
                raise ValueError(f"{self.kind} requires {wanted}")
            if name not in takes and value is not None:
                raise ValueError(f"{self.kind} takes no {name} parameter")


@dataclass(frozen=True)
class ThresholdResult:
    """Threshold value, the samples determining it and their gradient weights.

    ``support`` holds indices into the dataset the threshold was computed on
    (batch-relative when evaluated on a minibatch); ``weights[j]`` is the
    coefficient of row ``support[j]`` in the threshold gradient.
    """

    t: float
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
    """Linear scores z_i = w.x_i for every sample."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (d.m,):
        raise ValueError(f"weight shape {w.shape} does not match {d.m} features")
    z = d.features @ w
    if not np.all(np.isfinite(z)):
        raise ValueError("scores are not finite")
    return z


def top_k_mean(values: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """Mean of the k largest entries and their indices.

    Ties are broken toward the lowest index so the supporting set, and with
    it the gradient, is deterministic.
    """
    values = np.asarray(values, dtype=np.float64)
    if not 1 <= k <= values.size:
        raise ValueError(f"k must be in [1, {values.size}], got {k}")
    if k == 1:
        # argmax returns the first maximal index
        support = np.array([np.argmax(values)])
        return float(values[support[0]]), support
    # linear-time selection of the k-th largest value
    kth = np.partition(values, values.size - k)[values.size - k]
    support = np.nonzero(values >= kth)[0]
    excess = support.size - k
    if excess:
        # more than k entries reach the k-th value: drop the highest-index ties
        tied = np.nonzero(values[support] == kth)[0]
        support = np.delete(support, tied[-excess:])
    # descending by value, ties by low index: the order of a stable sort
    support = support[np.argsort(-values[support], kind="stable")]
    # sum / k has the same bits as mean() and skips its overhead
    return float(values[support].sum() / k), support


def exact_quantile(values: np.ndarray, tau: float) -> float:
    """The ceil(tau*n)-th largest value.

    Equivalently the largest t such that at least a tau fraction of the
    entries is >= t.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot take a quantile of an empty vector")
    k = math.ceil(tau * values.size)
    if k < 1:
        raise ValueError(f"ceil(tau*n) must be >= 1, got tau={tau}, n={values.size}")
    k = min(k, values.size)
    return float(np.partition(values, values.size - k)[values.size - k])


def surrogate_quantile(
    values: np.ndarray, tau: float, beta: float, loss: SurrogateLoss = HINGE
) -> float:
    """Solve mean_i l(beta*(z_i - t)) = tau for t.

    The left side is continuous, non-increasing in t and strictly decreasing
    wherever it is positive, so the root is unique for tau in (0, 1).  For
    the hinge loss the equation is piecewise linear in t and is solved
    exactly by scanning the breakpoints t_j = z_(j) + 1/beta in descending
    score order; other losses fall back to bisection.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot take a surrogate quantile of an empty vector")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if loss.kind == "hinge":
        return _hinge_surrogate_quantile(values, tau, beta)
    return _bisect_surrogate_quantile(values, tau, beta, loss)


def _hinge_surrogate_quantile(values: np.ndarray, tau: float, beta: float) -> float:
    n = values.size
    z = np.sort(values)[::-1]
    prefix = np.concatenate(([0.0], np.cumsum(z)))
    # residual at breakpoint z_(j) + 1/beta, where the j-th term vanishes:
    # c_j = (beta/n) * sum_{i<j} (z_(i) - z_(j)), non-decreasing in j
    j = np.arange(n)
    c = (beta / n) * (prefix[j] - j * z)
    # mathematically non-decreasing; accumulate guards the binary search
    # against rounding wobble in the prefix-sum cancellation
    c = np.maximum.accumulate(c)
    first = int(np.searchsorted(c, tau, side="left"))
    if first >= n:
        # level tau lies below every breakpoint: all samples active
        return float(prefix[n] / n + (1.0 - tau) / beta)
    # on the segment ending at breakpoint index `first`, the active set is
    # the `first` largest scores; solve a + beta*(S_a - a t) = n tau
    a = first
    return float((a + beta * prefix[a] - n * tau) / (beta * a))


def _bisect_surrogate_quantile(
    values: np.ndarray, tau: float, beta: float, loss: SurrogateLoss, max_iter: int = 200
) -> float:
    def residual(t: float) -> float:
        return float(np.mean(loss.value(beta * (values - t)))) - tau

    hi = float(values.max()) + 1.0 / beta  # residual == -tau for our losses
    lo = float(values.min()) - 1.0 / beta
    span = max(hi - lo, 1.0)
    while residual(lo) < 0.0:
        lo -= span
        span *= 2.0
        if not math.isfinite(lo):
            raise RuntimeError("failed to bracket the surrogate quantile")
    # bisect until the bracket collapses to float resolution; stopping at the
    # residual tolerance early would leave jitter in t that finite-difference
    # consumers of the threshold gradient amplify by 1/h
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    tol = 1e-10 * max(1.0, tau)
    if abs(residual(mid)) <= tol:
        return mid
    raise RuntimeError(
        f"surrogate quantile bisection did not converge after {max_iter} iterations"
    )


def threshold(
    rule: ThresholdRule, w: np.ndarray, d: Dataset, loss: SurrogateLoss = HINGE
) -> ThresholdResult:
    """Threshold, gradient and support for ``rule`` at weights ``w``."""
    return threshold_scored(rule, scores(w, d), d, loss)


def threshold_scored(
    rule: ThresholdRule, z: np.ndarray, d: Dataset, loss: SurrogateLoss = HINGE
) -> ThresholdResult:
    """Same as :func:`threshold` with the scores already computed."""
    kind = rule.kind
    if kind in NEGATIVE_KINDS:
        sel = d.neg_idx
        zsel = z[sel]
    else:
        sel = None
        zsel = z
    if zsel.size == 0:
        raise ValueError(f"{kind} needs at least one sample in its score pool")

    if kind in TOP_K_KINDS:
        if kind == "top_push":
            k = 1
        elif kind == "top_push_k":
            k = rule.k
            if k > d.n_neg:
                raise ValueError(f"k={k} exceeds the {d.n_neg} negative samples")
        else:
            _check_tau_pool(rule.tau, zsel.size, kind)
            k = math.ceil(rule.tau * zsel.size)
        t, local = top_k_mean(zsel, k)
        weights = np.full(k, 1.0 / k)
    elif kind in QUANTILE_KINDS:
        _check_tau_pool(rule.tau, zsel.size, kind)
        t = exact_quantile(zsel, rule.tau)
        # gradient treated as zero: t is recomputed after every step
        local = np.flatnonzero(zsel == t)
        weights = np.zeros(local.size)
    else:  # surrogate quantile kinds
        t = surrogate_quantile(zsel, rule.tau, rule.beta, loss)
        deriv = loss.deriv(rule.beta * (zsel - t))
        denom = float(deriv.sum())
        if denom <= 0.0:
            raise ValueError(
                "all surrogate derivatives vanished; the implicit threshold "
                "gradient is undefined"
            )
        local = np.flatnonzero(deriv > 0.0)
        weights = deriv[local] / denom
    support = local if sel is None else sel[local]
    return ThresholdResult(t=float(t), support=support, weights=weights)


def _check_tau_pool(tau: float, pool_size: int, kind: str) -> None:
    if tau * pool_size < 1.0:
        raise ValueError(
            f"{kind} needs tau * pool >= 1; got tau={tau} over {pool_size} samples"
        )
