"""Check that the tier-1 tests see every solver gate.

A gate is the condition line of a check that refuses a result.  For each
gate in ``GATES`` the script rewrites that line ``if <condition>:`` as
``if (<condition>) and False:`` in a temporary copy of the checkout, runs
the tier-1 tests there with ``-x`` and expects them to fail.  The
condition still runs, calls and all, and only the refusal goes, so a
test that merely counts the calls a gate makes does not catch it.  A
gate whose tests still pass has survived: a change that broke it would
go unseen.

    python scripts/gate_mutations.py

It first runs the tier-1 tests on the unchanged copy, which must pass.
It exits 1 if a listed line is not found exactly once in its file, if
the unchanged copy fails, or if a gate survives; 0 otherwise.  The gates
run one at a time, so a run takes about as long as the tier-1 suite
times the number of gates.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/qvix, condition line as written there, what it refuses)
GATES = (
    ("vi.py", 'if A.bc == "dirichlet" and np.any(phi.values[A.boundary] < -VI_TOL):',
     "obstacle below zero at a Dirichlet boundary node"),
    ("vi.py", "if info or not np.all(e > 0):", "an (I - J) solve without a rate certificate"),
    ("extremal.py", "if sign * worst < -MONOTONE_TOL:", "a monotone loop that lost its order"),
    ("extremal.py", "if residuals[-1] > RESIDUAL_TOL:", "residual of an extremal limit"),
    ("extremal.py", "if np.any(sign * d.values < 0):", "a direction against the run's sign"),
    ("extremal.py", "if sign > 0 or not omap.concave or np.any(f.values < 0):",
     "Newton steps outside max runs of concave maps under loads >= 0"),
    ("sensitivity.py", "if res > extremal.RESIDUAL_TOL:", "residual of the cone's base point"),
    ("sensitivity.py", "if leak > 10 * tol_lam:", "multiplier off the coincidence set"),
    ("sensitivity.py", "if residual > ALPHA_RESIDUAL_TOL:", "residual of the derivative"),
    ("sensitivity.py", "if sign > 0:", "an (I - J) derivative step on a min cone"),
    ("sensitivity.py", "if sign > 0 and not check_subsolution(A, far, omap, base):",
     "a min rerun start that is no subsolution at the farthest source"),
    ("sensitivity.py", "if sign < 0 and not check_supersolution(A, far, omap, base):",
     "a max rerun start that is no supersolution at the farthest source"),
    ("sensitivity.py", "if not fd_monotone and not cone.partition.biactive.any():",
     "quotient errors that do not shrink on a strictly complementary instance"),
    ("sensitivity.py", "if final_err > tol:", "final difference-quotient error"),
    ("obstacle_maps.py", "if v_norm(temp) > self.temperature_bound() + 1e-9:",
     "temperature above its a priori bound"),
    ("obstacle_maps.py", "if taken == TEMPERATURE_MAX_STEPS:",
     "a temperature whose last Newton state fails the residual test"),
)

TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")


def _line_number(text: str, condition: str) -> int | None:
    """Index of the one line of text that is condition once stripped, else None."""
    hits = [i for i, line in enumerate(text.splitlines()) if line.strip() == condition]
    return hits[0] if len(hits) == 1 else None


def _tier1_passes(checkout: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    status = 0
    for name, condition, _ in GATES:
        if _line_number((ROOT / "src" / "qvix" / name).read_text(encoding="utf-8"),
                        condition) is None:
            print(f"NOT FOUND ONCE  {name}: {condition}")
            status = 1
    if status:
        return status

    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work"))
        if not _tier1_passes(checkout):
            print("the tier-1 tests fail on the unchanged copy")
            return 1
        for name, condition, what in GATES:
            path = checkout / "src" / "qvix" / name
            original = path.read_text(encoding="utf-8")
            lines = original.splitlines(keepends=True)
            at = _line_number(original, condition)
            indent = lines[at][:len(lines[at]) - len(lines[at].lstrip())]
            kept = condition.removeprefix("if ").removesuffix(":")
            lines[at] = f"{indent}if ({kept}) and False:\n"
            path.write_text("".join(lines), encoding="utf-8")
            try:
                survived = _tier1_passes(checkout)
            finally:
                path.write_text(original, encoding="utf-8")
            print(f"{'SURVIVED' if survived else 'caught  '}  {name}: {what}")
            status |= survived
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main())
