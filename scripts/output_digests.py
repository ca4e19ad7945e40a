"""Print the SHA-256 of every output file of the bundled configs.

For each config in ``configs/``, as bundled and with Dirichlet boundary
conditions (``operator.bc = "dirichlet"``), and each grid size (the
config's own, 401, 1601, 6401 and 25601 nodes), runs ``run_experiment`` with
seed 0 into a temporary directory and prints one line
``<config>[-dirichlet]@<n>/<file> <sha256>`` per written file, sorted.  Running it on two checkouts and diffing the
outputs shows whether a change kept the outputs byte-identical:

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
BOUNDARY_VARIANTS = (None, "dirichlet")  # None: the config's own condition


def digests(root: Path) -> list[str]:
    sys.path.insert(0, str(root / "src"))
    from qvix.experiments import parse_config, run_experiment

    lines = []
    for bc in BOUNDARY_VARIANTS:
        for cfg_path in sorted((root / "configs").glob("*.json")):
            raw = json.loads(cfg_path.read_text(encoding="utf-8"))
            name = cfg_path.stem
            if bc is not None:
                raw["operator"]["bc"] = bc
                name += f"-{bc}"
            for n in GRID_SIZES:
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
