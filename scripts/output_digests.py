"""Print the SHA-256 of every output file of the bundled configs.

For each config in ``configs/``, runs ``run_experiment`` with seed 0 into
a temporary directory in three variants:

- as bundled and with Dirichlet boundary conditions
  (``operator.bc = "dirichlet"``), each at the config's own grid and at
  401, 1601, 6401 and 25601 nodes;
- with both extremal runs and sensitivity off (``run = "both"``), at the
  config's own grid, 401 and 1601 nodes.

It prints one line ``<config>[-dirichlet|-both]@<n>/<file> <sha256>`` per
written file, sorted by file name within each run.  ``--against`` compares two
checkouts and shows whether a change kept the outputs byte-identical:

    python scripts/output_digests.py --against ../other-checkout

It computes the digests of both trees, each in its own process so that
each imports its own ``qvix``, prints every line that differs (``-`` for
the other checkout, ``+`` for this one), then "N of M lines identical",
and exits 1 on any difference.  It exits 2, naming the tree, when a tree
holds no ``src/qvix`` or its digests fail to run, so a crash never reads
as a difference.  ``--root`` names the checkout whose
``src/`` and ``configs/`` are used; it defaults to the one holding this
script.  BLAS runs on one thread, so the digests of two checkouts compare
like with like: at 25601 nodes a dot product gives other bits on one
thread than on two.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
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


def _child_digests(root: Path) -> dict[str, str]:
    """Digest of each output file of root, from ``digests`` run in a child process."""
    done = subprocess.run([sys.executable, __file__, "--root", str(root)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return dict(line.rsplit(" ", 1) for line in done.stdout.splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to run (default: the one holding this script)")
    parser.add_argument("--against", type=Path,
                        help="checkout to compare with; exit 1 if any digest differs")
    args = parser.parse_args(argv)
    for tree in filter(None, (args.root, args.against)):
        if not (tree / "src" / "qvix").is_dir():
            parser.error(f"{tree} holds no src/qvix")
    if args.against is None:
        print("\n".join(digests(args.root.resolve())))
        return 0
    try:
        new = _child_digests(args.root.resolve())
        old = _child_digests(args.against.resolve())
    except subprocess.CalledProcessError as exc:
        print(f"digests of {exc.cmd[-1]} failed (exit {exc.returncode})", file=sys.stderr)
        return 2
    names = list(dict.fromkeys([*new, *old]))
    for name in names:
        if old.get(name) != new.get(name):
            for mark, side in (("-", old), ("+", new)):
                if name in side:
                    print(f"{mark} {name} {side[name]}")
    identical = sum(old.get(name) == new.get(name) for name in names)
    print(f"{identical} of {len(names)} lines identical")
    return int(identical != len(names))


if __name__ == "__main__":
    raise SystemExit(main())
