"""The README's code examples and solver-settings names against the library."""

import importlib
import json
import re
from pathlib import Path

import numpy as np

from qvix.experiments import build_problem, parse_config

README = Path(__file__).resolve().parent.parent / "README.md"

CONSTANT = r"[A-Z][A-Z0-9_]+"


def _section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs():
    block = re.search(r"```python\n(.*?)```", _section("Library example"), re.S).group(1)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    # the results its comments state
    assert np.max(np.abs(scope["minimal"].solution.values - 1.0)) <= 1e-10
    assert np.all(scope["dphi"].values == 0.0)
    assert np.max(np.abs(scope["deriv"].alpha.values)) <= 1e-12
    assert len(scope["check"].fd_table) == 4


def test_config_examples_parse_and_build():
    text = README.read_text(encoding="utf-8")
    blocks = [block for block in re.findall(r"```json\n(.*?)```", text, re.S)
              if '"version"' in block]
    # the one under "Config format"
    assert len(blocks) == 1
    for block in blocks:
        build_problem(parse_config(json.loads(block)))


def test_solver_settings_name_existing_constants():
    text = " ".join(_section("Solver settings").split())
    # "`A`, `B` and `C` in `qvix.mod`", and qualified names "mod.A" / "qvix.mod.A"
    lists = re.findall(rf"((?:`{CONSTANT}`(?:, | and ))*`{CONSTANT}`) in `(qvix\.\w+)`", text)
    named = [(module, name) for names, module in lists
             for name in re.findall(rf"`({CONSTANT})`", names)]
    named += [(f"qvix.{module}", name)
              for module, name in re.findall(rf"\b(?:qvix\.)?([a-z_]+)\.({CONSTANT})\b", text)]
    assert len(lists) >= 3
    missing = [f"{module}.{name}" for module, name in named
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"README names constants the library lacks: {missing}"
    # a constant the section names without its module is one of the listed ones
    assert set(re.findall(rf"`({CONSTANT})`", text)) <= {name for _, name in named}
