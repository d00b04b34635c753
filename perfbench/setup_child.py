"""One set-up sample, run in a fresh interpreter by run.py.

Usage: setup_child.py SRC_DIR [CACHE_DIR]

Times what a user pays before the first unit of work: importing the CLI
and, when CACHE_DIR is given, reading its train.csv with ``load_csv``.  The
loaded dataset is then compared with the generator's arrays.  Prints one
JSON line {"seconds": ..., "ok": ...}.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import topclf.cli  # noqa: F401

    dataset = None
    if len(sys.argv) > 2:
        dataset = topclf.load_csv(Path(sys.argv[2]) / "train.csv", "label", "1")
    seconds = time.perf_counter() - START
    ok = True
    if dataset is not None:
        import numpy as np

        ref = np.load(Path(sys.argv[2]) / "train.npz")
        ok = bool(
            np.array_equal(dataset.features, ref["features"])
            and np.array_equal(dataset.labels, ref["labels"])
        )
    print(json.dumps({"seconds": seconds, "ok": ok}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
