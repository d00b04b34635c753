"""ADAM-driven (stochastic) training loop with optional l2-ball projection."""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset, minibatch_epoch
from .objective import ObjectiveSpec, SpecStack, evaluate
from .surrogate import make_loss
from .threshold import QUANTILE_KINDS, ThresholdRule, scores, threshold_scored

__all__ = [
    "AdamParams",
    "AdamState",
    "TrainConfig",
    "TrainHistory",
    "Model",
    "adam_step",
    "project_l2_ball",
    "train",
]


@dataclass(frozen=True)
class AdamParams:
    step_size: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.step_size < 0.0:
            raise ValueError("step_size must be non-negative")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")


@dataclass
class AdamState:
    """Exponential moment estimates plus the step counter.

    :func:`adam_step` updates a state in place, so ``m`` and ``v`` must be
    arrays this state owns; :meth:`fresh` makes such a state.
    """

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def fresh(cls, shape: int | tuple[int, int]) -> "AdamState":
        """Zero moments for one weight vector of length ``shape`` or a (G, m) stack."""
        return cls(m=np.zeros(shape), v=np.zeros(shape), step=0)


@dataclass(frozen=True)
class TrainConfig:
    """Iteration budget, ADAM parameters, minibatching and initialization.

    ``project_unit_ball=None`` means automatic: projection is applied exactly
    for the exact-quantile rules, where it is part of the original method;
    for the convex rules it would destroy convexity.  ``adam`` also accepts
    the dict that ``dataclasses.asdict`` writes, so ``TrainConfig(**doc)``
    reads the JSON form back.
    """

    iterations: int = 1000
    adam: AdamParams = field(default_factory=AdamParams)
    n_minibatch: int = 1
    seed: int = 0
    project_unit_ball: bool | None = None
    init: str = "zeros"

    def __post_init__(self):
        if isinstance(self.adam, dict):
            object.__setattr__(self, "adam", AdamParams(**self.adam))
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.n_minibatch < 1:
            raise ValueError("n_minibatch must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.init not in ("zeros", "uniform"):
            raise ValueError(f"init must be 'zeros' or 'uniform', got {self.init!r}")

    def resolve_projection(self, rule: ThresholdRule) -> bool:
        if self.project_unit_ball is None:
            return rule.kind in QUANTILE_KINDS
        return self.project_unit_ball


@dataclass
class TrainHistory:
    """Per-iteration trace: minibatch objective, post-step ||w|| and wall time, of which
    each of G points trained in lockstep reads 1/G.
    """

    objective: np.ndarray
    w_norm: np.ndarray
    iter_ms: np.ndarray


@dataclass
class Model:
    """Trained weights with the threshold refit on the full training data."""

    w: np.ndarray
    spec: ObjectiveSpec
    config: TrainConfig
    t_final: float
    history: TrainHistory

    def to_dict(self) -> dict:
        return {
            "w": self.w.tolist(),
            "t_final": self.t_final,
            "spec": {
                "rule": asdict(self.spec.rule),
                "loss": self.spec.loss.kind,
                "lambda": self.spec.lam,
            },
            "config": asdict(self.config),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Model":
        spec_doc = doc["spec"]
        spec = ObjectiveSpec(
            rule=ThresholdRule(**spec_doc["rule"]),
            loss=make_loss(spec_doc.get("loss", "hinge")),
            lam=spec_doc.get("lambda", 0.0),
        )
        empty = TrainHistory(np.array([]), np.array([]), np.array([]))
        return cls(
            w=np.asarray(doc["w"], dtype=np.float64),
            spec=spec,
            config=TrainConfig(**doc.get("config", {})),
            t_final=doc["t_final"],
            history=empty,
        )


def adam_step(
    state: AdamState, grad: np.ndarray, params: AdamParams
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected ADAM update of ``state`` in place; returns ``state`` and the weight delta.

    ``state.m``, ``state.v`` and ``state.step`` are overwritten in place; a
    bad gradient raises before any of them changes.  The operations run in
    the same order as a functional update that builds a new state, so both
    give the same bits.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != state.m.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match state")
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient")
    state.step += 1
    b1, b2, lr, eps = params.beta1, params.beta2, params.step_size, params.epsilon
    c1, c2 = 1.0 - b1**state.step, 1.0 - b2**state.step
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    return state, -lr * (m / c1) / (np.sqrt(v / c2) + eps)


def project_l2_ball(w: np.ndarray) -> np.ndarray:
    """w scaled back onto the unit l2 ball if it lies outside; a (G, m) stack row by row."""
    norms = _norms(w)
    if (norms <= 1.0).all():
        return w
    # x / 1.0 is x, so the rows inside the ball keep their bits
    return w / np.maximum(norms, 1.0).reshape(*w.shape[:-1], 1)


def _norms(w: np.ndarray) -> np.ndarray:
    """The l2 norm of each row of ``w``, one dot product per row as for a 1-D ``w``."""
    return np.sqrt([wg.dot(wg) for wg in w.reshape(-1, w.shape[-1])])


def train(
    spec: ObjectiveSpec | Sequence[ObjectiveSpec], d_train: Dataset, cfg: TrainConfig
) -> Model | list[Model]:
    """Run exactly ``cfg.iterations`` ADAM steps and refit the final threshold.

    Each iteration takes the next minibatch of the epoch schedule (the whole
    dataset when ``n_minibatch`` is 1), evaluates the objective and gradient
    on it, updates the weights and optionally projects them onto the unit
    ball.  Bitwise deterministic for fixed inputs and seed.  A stack that
    :class:`SpecStack` refuses on ``d_train``'s minibatches raises before any step.

    A sequence of G specs of one rule kind and loss trains G points in
    lockstep from the same initial weights on the same minibatches, as one
    (G, m) weight stack, and returns their G models.  Each model has the bits
    a one-spec call gives; its ``iter_ms`` is its 1/G share of each iteration.
    """
    # one check covers every batch: each pool holds at least floor(pool / n_minibatch) scores
    specs = SpecStack([spec] if isinstance(spec, ObjectiveSpec) else spec, d_train, cfg.n_minibatch)
    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(d_train.m) if cfg.init == "zeros" else rng.uniform(-1.0, 1.0, d_train.m)
    w = np.tile(w, (len(specs), 1))
    project = cfg.resolve_projection(specs[0].rule)
    state = AdamState.fresh(w.shape)
    objective_trace, norm_trace = np.empty((2, len(specs), cfg.iterations))
    ms_trace = np.empty(cfg.iterations)

    # one batch is the whole training set; more are gathered anew each epoch
    batches = [d_train]
    for it in range(cfg.iterations):
        tic = time.perf_counter()
        epoch, pos = divmod(it, cfg.n_minibatch)
        if pos == 0 and cfg.n_minibatch > 1:
            # release the old epoch's rows before gathering the next one
            batches = None
            batches = minibatch_epoch(d_train, cfg.n_minibatch, cfg.seed, epoch)
        value, grad, _ = evaluate(specs, w, batches[pos])
        if not np.isfinite(value).all():
            bad = float(value[~np.isfinite(value)][0])
            raise FloatingPointError(
                f"objective became non-finite at iteration {it} (value {bad!r})"
            )
        state, delta = adam_step(state, grad, cfg.adam)
        w = w + delta
        if project:
            w = project_l2_ball(w)
        objective_trace[:, it] = value
        norm_trace[:, it] = _norms(w)
        ms_trace[it] = (time.perf_counter() - tic) * 1e3

    t_final = threshold_scored(specs.rules, scores(w, d_train), d_train, specs[0].loss).t.tolist()
    share = ms_trace / len(specs)
    models = [
        Model(w[g], s, cfg, t_final[g], TrainHistory(objective_trace[g], norm_trace[g], share))
        for g, s in enumerate(specs)
    ]
    return models[0] if isinstance(spec, ObjectiveSpec) else models
