"""Check that the tier-1 tests see every solver gate.

A gate is the condition line of a check that refuses a result.  It is
tagged where it is tested, in a module of ``src/qvix``:

    if <condition>:  # gate: <name>

with a dotted name such as ``extremal.residual``.  For each tagged gate
the script rewrites that line as ``if (<condition>) and False:`` in a
temporary copy of the checkout, runs the tier-1 tests there with ``-x``
and expects them to fail.  The condition still runs, calls and all, and
only the refusal goes, so a test that merely counts the calls a gate
makes does not catch it.  A gate whose tests still pass has survived: a
change that broke it would go unseen.

    python scripts/gate_mutations.py

Before any test runs it exits 1 if a tag sits on a line of any other
form, if a name repeats, or if no tag is found.  It then runs the tier-1
tests on the unchanged copy, which must pass, and prints ``caught  <name>``
or ``SURVIVED  <name>`` for each gate and ``K of N gates caught`` at the
end.  It exits 1 if the unchanged copy fails or a gate survives; 0
otherwise.  The gates run one at a time, so a run takes about as long as
the tier-1 suite times the number of gates.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAG = re.compile(r"#\s*gate\b")
GATE = re.compile(r"(?P<indent>\s*)if (?P<condition>.+):  # gate: (?P<name>\w+(?:\.\w+)+)")

TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")


def _find_gates(package: Path) -> dict[str, tuple[str, int, str]]:
    """Each tagged gate's name -> (module file, line index, mutated line); {} after a bad tag."""
    gates, faults = {}, []
    for path in sorted(package.glob("*.py")):
        for at, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
            if not TAG.search(line):
                continue
            gate, where = GATE.fullmatch(line), f"{path.name}:{at + 1}"
            if gate is None:
                faults.append(f"a gate tag on a line that is not `if <condition>:`  {where}")
            elif gate["name"] in gates:
                faults.append(f"gate name {gate['name']} repeated  {where}")
            else:
                gates[gate["name"]] = (path.name, at,
                                       f"{gate['indent']}if ({gate['condition']}) and False:\n")
    if not gates and not faults:
        faults.append(f"no gate tag in {package.relative_to(ROOT)}")
    for fault in faults:
        print(fault)
    return {} if faults else gates


def _tier1_passes(checkout: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    gates = _find_gates(ROOT / "src" / "qvix")
    if not gates:
        return 1

    caught = 0
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work"))
        if not _tier1_passes(checkout):
            print("the tier-1 tests fail on the unchanged copy")
            return 1
        for name, (module, at, mutated) in gates.items():
            path = checkout / "src" / "qvix" / module
            original = path.read_text(encoding="utf-8")
            lines = original.splitlines(keepends=True)
            lines[at] = mutated
            path.write_text("".join(lines), encoding="utf-8")
            try:
                survived = _tier1_passes(checkout)
            finally:
                path.write_text(original, encoding="utf-8")
            print(f"{'SURVIVED' if survived else 'caught'}  {name}")
            caught += not survived
    print(f"{caught} of {len(gates)} gates caught")
    return int(caught < len(gates))


if __name__ == "__main__":
    raise SystemExit(main())
