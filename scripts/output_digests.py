"""Print the SHA-256 of every output file of the bundled configs.

For each config in ``configs/``, runs ``run_experiment`` with seed 0 into
a temporary directory in three variants:

- as bundled and with Dirichlet boundary conditions
  (``operator.bc = "dirichlet"``), each at the config's own grid and at
  401, 1601, 6401 and 25601 nodes;
- with both extremal runs and sensitivity off (``run = "both"``), at the
  config's own grid, 401 and 1601 nodes.

It prints one line ``<config>[-dirichlet|-both]@<n>/<file> <sha256>`` per
written file, sorted by file name within each run.  Running it on two
checkouts and diffing the outputs shows whether a change kept the outputs
byte-identical:

    python scripts/output_digests.py > after.txt
    python scripts/output_digests.py --root ../other-checkout > before.txt
    diff before.txt after.txt

``--root`` names the checkout whose ``src/`` and ``configs/`` are used;
it defaults to the one holding this script.  BLAS runs on one thread,
so the digests of two checkouts compare like with like: at 25601 nodes a
dot product gives other bits on one thread than on two.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

# BLAS pinned to one thread before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

GRID_SIZES = (None, 401, 1601, 6401, 25601)  # None: the config's own grid


def _dirichlet(raw: dict) -> None:
    raw["operator"]["bc"] = "dirichlet"


def _both(raw: dict) -> None:
    raw["run"] = "both"
    raw["sensitivity"]["enabled"] = False


# name suffix, change to the bundled config, grid sizes
VARIANTS = (("", None, GRID_SIZES),
            ("-dirichlet", _dirichlet, GRID_SIZES),
            ("-both", _both, GRID_SIZES[:3]))


def digests(root: Path) -> list[str]:
    sys.path.insert(0, str(root / "src"))
    from qvix.experiments import parse_config, run_experiment

    lines = []
    for suffix, change, grid_sizes in VARIANTS:
        for cfg_path in sorted((root / "configs").glob("*.json")):
            raw = json.loads(cfg_path.read_text(encoding="utf-8"))
            name = cfg_path.stem + suffix
            if change is not None:
                change(raw)
            for n in grid_sizes:
                if n is not None:
                    raw["grid"]["n_nodes"] = n
                label = f"{name}@{raw['grid']['n_nodes']}"
                with tempfile.TemporaryDirectory() as tmp:
                    run_experiment(parse_config(raw), out_dir=tmp, seed=0)
                    for path in sorted(Path(tmp).iterdir()):
                        sha = hashlib.sha256(path.read_bytes()).hexdigest()
                        lines.append(f"{label}/{path.name} {sha}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to run (default: the one holding this script)")
    args = parser.parse_args(argv)
    print("\n".join(digests(args.root.resolve())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
