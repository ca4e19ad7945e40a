"""Seeded inputs of the three benchmark workloads.

Every call is one ``run_experiment`` on a config derived from one of the
four bundled configs.  ``small_batch`` and ``extremal_both`` run 100
variants in every pass: 25 per bundled config, the grid sizes spread
evenly over the workload's sizes, and the continuous parameters a Latin
hypercube inside the stated ranges.  The parameter points of a pass
depend on the pass number only, and the seed decides the order in which
the calls run.  So every seed runs the same draws, which pass and fail
alike, and two runs with different seeds agree on how many calls fail;
a pass still covers 100 points, and a run 200 to 400.  A draw that
fails is recorded, never replaced.  ``ladder`` is the fixed grid ladder
of the ROADMAP and uses no draws.

A run makes a fixed number of passes, ``passes(workload, seconds)``: the
requested seconds over the pass's nominal CPU time on the reference
machine.  The work of a run, and so its ``attempted`` and ``failed``
counts, never depends on how fast the machine happens to be.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONFIG_NAMES = ("toy_min", "toy_max", "inverse_elliptic_max", "thermoforming_desk")

# (dotted path into the config, low, high) per bundled config
RANGES = {
    "toy_min": [("forcing.const", 1.8, 2.2)],
    "toy_max": [("forcing.const", 1.8, 2.2)],
    "inverse_elliptic_max": [("forcing.sine.amplitude", 2.0, 4.0),
                             ("map.gain.scale", 1.0, 3.0)],
    "thermoforming_desk": [("forcing.const", 0.5, 1.5),
                           ("map.mould.const", 2.5, 3.5)],
}

DRAWS_PER_PASS = 100
# seed of the parameter points; the benchmark's --seed only orders the calls
DESIGN_SEED = 20090126


@dataclass(frozen=True)
class Call:
    """One benchmark operation: a config for ``run_experiment``."""

    family: str
    n: int
    raw: dict

    @property
    def label(self) -> str:
        return f"{self.family}@{self.n}"


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple[int, ...]
    run: str | None          # override of the config's "run", or None
    sensitivity: bool
    pass_cpu_s: float        # nominal CPU time of one pass on the reference machine


def passes(workload: Workload, seconds: float) -> int:
    """Number of passes of a run asked to measure ``seconds``."""
    return max(1, round(seconds / workload.pass_cpu_s))


# pass_cpu_s measured on a 2-core KVM guest (Intel Xeon, 2.0 GHz), one thread
WORKLOADS = {
    "small_batch": Workload("small_batch", (101, 201, 401), None, True, 4.7),
    "extremal_both": Workload("extremal_both", (801, 1201, 1601), "both", False, 8.0),
    "ladder": Workload("ladder", (101, 401, 1601, 6401, 25601), None, True, 3.8),
}


def load_bundled(config_dir: Path) -> dict[str, dict]:
    out = {}
    for name in CONFIG_NAMES:
        with open(config_dir / f"{name}.json", encoding="utf-8") as fh:
            raw = json.load(fh)
        raw.pop("output_dir", None)
        out[name] = raw
    return out


def _set(raw: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = raw
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value


def _variant(base: dict, workload: Workload, n: int, values: dict) -> dict:
    raw = copy.deepcopy(base)
    raw["grid"]["n_nodes"] = int(n)
    if workload.run is not None:
        raw["run"] = workload.run
    raw["sensitivity"]["enabled"] = workload.sensitivity
    for dotted, value in values.items():
        _set(raw, dotted, float(value))
    return raw


def warm_up_calls(workload: Workload, bundled: dict[str, dict]) -> list[Call]:
    """Each bundled config once, at the workload's smallest size, whatever the seed."""
    n = min(workload.sizes)
    return [Call(name, n, _variant(bundled[name], workload, n, {})) for name in CONFIG_NAMES]


def _latin_hypercube(rng: np.random.Generator, count: int, dims: int) -> np.ndarray:
    """``count`` points in [0, 1)^dims with one point per stratum in every axis."""
    u = rng.uniform(size=(count, dims))
    strata = np.stack([rng.permutation(count) for _ in range(dims)], axis=1)
    return (strata + u) / count


def make_calls(workload: Workload, seed: int, pass_index: int,
               bundled: dict[str, dict]) -> list[Call]:
    """The calls of one pass, in the order they run."""
    if workload.name == "ladder":
        return [Call(name, n, _variant(bundled[name], workload, n, {}))
                for n in workload.sizes for name in CONFIG_NAMES]

    rng = np.random.default_rng([DESIGN_SEED, pass_index])
    sizes = workload.sizes
    base, extra = divmod(DRAWS_PER_PASS // len(CONFIG_NAMES), len(sizes))
    calls = []
    for k, name in enumerate(CONFIG_NAMES):
        ranges = RANGES[name]
        for j, n in enumerate(sizes):
            # even split of the draws over the sizes; the extra draw rotates
            count = base + ((j - k) % len(sizes) < extra)
            unit = _latin_hypercube(rng, count, len(ranges))
            for point in unit:
                values = {path: lo + (hi - lo) * v for (path, lo, hi), v in zip(ranges, point)}
                calls.append(Call(name, n, _variant(bundled[name], workload, n, values)))
    order = np.random.default_rng([seed, pass_index]).permutation(len(calls))
    return [calls[i] for i in order]
