"""Linear binary classification focused on the top of the score ranking.

Eight training methods share one shape: minimize a convex surrogate of the
false-negative count above a threshold that is itself a function of the
sample scores, differentiating through the threshold.  The package root
exports what a library user needs to load data, train and evaluate; the
submodules hold the rest.
"""

__version__ = "0.1.0"

from .data import Dataset, SplitSpec, load_csv, split, synth_example
from .surrogate import make_loss
from .threshold import ThresholdRule, rule_from_token
from .objective import ObjectiveSpec
from .solver import TrainConfig, train
from .evaluation import build_report, counts

__all__ = [
    "__version__",
    "Dataset",
    "SplitSpec",
    "load_csv",
    "split",
    "synth_example",
    "make_loss",
    "ThresholdRule",
    "rule_from_token",
    "ObjectiveSpec",
    "TrainConfig",
    "train",
    "build_report",
    "counts",
]
