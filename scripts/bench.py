"""Time the bundled configs on the ladder of grid sizes and write a JSON file.

    python scripts/bench.py BENCH.json

Runs each config in ``configs/`` as bundled (sensitivity included) at
n = 101, 401, 1601, 6401 and 25601 nodes through ``run_experiment``,
writing into a temporary directory: one warm-up run per rung, then
three timed runs.  Each rung records its config, n, the best process
and wall time of the timed runs, the spread of the process times
(max - min), whether the run passed, and its failure texts.  A failing
rung stays in the file, timed up to its failure.  The top level holds
the Python, numpy and scipy versions.  BLAS runs on one thread, as in
``scripts/output_digests.py``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

# BLAS pinned to one thread before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
GRID_SIZES = (101, 401, 1601, 6401, 25601)
REPEATS = 3


def rung(config, out_dir: str) -> dict:
    """One warm-up run, then ``REPEATS`` timed runs of one config."""
    from qvix.experiments import run_experiment

    run_experiment(config, out_dir=out_dir)
    process, wall = [], []
    for _ in range(REPEATS):
        wall0, process0 = time.perf_counter(), time.process_time()
        artifacts = run_experiment(config, out_dir=out_dir)
        process.append(time.process_time() - process0)
        wall.append(time.perf_counter() - wall0)
    return {"process_s": min(process), "wall_s": min(wall),
            "process_spread_s": max(process) - min(process),
            "ok": artifacts.ok, "failures": list(artifacts.failures)}


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    from qvix.experiments import parse_config

    rungs = []
    for cfg_path in sorted((ROOT / "configs").glob("*.json")):
        raw = json.loads(cfg_path.read_text(encoding="utf-8"))
        for n in GRID_SIZES:
            raw["grid"]["n_nodes"] = n
            with tempfile.TemporaryDirectory() as tmp:
                rungs.append({"config": cfg_path.stem, "n": n, **rung(parse_config(raw), tmp)})
            print(f"{cfg_path.stem}@{n}: {rungs[-1]['process_s']:.4f} s", file=sys.stderr)
    result = {"python": platform.python_version(), "numpy": numpy.__version__,
              "scipy": scipy.__version__, "rungs": rungs}
    Path(args[0]).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
