"""Tests of the benchmark's own parts: tracer wiring, output checks and draws.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import qvix  # noqa: E402
import qvix.cli  # noqa: E402,F401  (binds library names too)
from qvix.experiments import parse_config  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
import tracing  # noqa: E402
from tracing import LAYER_OF_MODULE, METHODS, METRIC_SPANS, Tracer  # noqa: E402


def public_functions():
    """Every public function defined in a traced module, by identity."""
    out = set()
    for mod_name in LAYER_OF_MODULE:
        for name, obj in vars(sys.modules[mod_name]).items():
            if inspect.isfunction(obj) and not name.startswith("_") \
                    and obj.__module__ == mod_name:
                out.add(obj)
    return out


def bindings():
    """(module, name, function) for every qvix module binding such a function."""
    functions = public_functions()
    return [(mod, name, obj)
            for mod_name, mod in sorted(sys.modules.items())
            if mod_name == "qvix" or mod_name.startswith("qvix.")
            for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj in functions]


def run_experiment(cfg, out_dir):
    # looked up at call time, so that an installed tracer sees the call
    return qvix.experiments.run_experiment(cfg, out_dir=out_dir)


def tiny_configs():
    bundled = workloads.load_bundled(ROOT / "configs")
    for name, raw in bundled.items():
        raw["grid"]["n_nodes"] = 21
        yield name, raw
    both = json.loads(json.dumps(bundled["inverse_elliptic_max"]))
    both.update(run="both", sensitivity={"enabled": False})
    yield "inverse_elliptic_both", both


def test_imported_names_are_wrapped_in_every_binding_module():
    found = bindings()
    modules = {mod.__name__ for mod, name, _ in found if name == "iterate_min"}
    assert {"qvix.extremal", "qvix.sensitivity", "qvix.experiments", "qvix"} <= modules
    methods = [(getattr(sys.modules[m], c), meth) for m, c, meth in METHODS]
    originals = {(cls, meth): vars(cls)[meth] for cls, meth in methods}

    with Tracer():
        for mod, name, original in found:
            wrapped = getattr(mod, name)
            assert wrapped is not original, f"{mod.__name__}.{name} not wrapped"
            assert wrapped.__wrapped__ is original
        assert qvix.sensitivity.iterate_min is qvix.experiments.iterate_min
        for (cls, meth), original in originals.items():
            assert vars(cls)[meth].__wrapped__ is original, f"{cls.__name__}.{meth}"

    for mod, name, original in found:
        assert getattr(mod, name) is original
    for (cls, meth), original in originals.items():
        assert vars(cls)[meth] is original


def test_every_metric_span_fires_on_tiny_instances(tmp_path):
    with Tracer() as tracer:
        for name, raw in tiny_configs():
            artifacts = run_experiment(parse_config(raw), out_dir=tmp_path / name)
            assert artifacts.ok, artifacts.failures
    silent = [span for span in METRIC_SPANS if tracer.calls[span] == 0]
    assert not silent

    metrics = {k: v for k, (v, _) in tracer.metrics(1.0, 0.0).items()}
    assert metrics["sensitivity.fd_reruns"] == 4 * metrics["sensitivity.fd_validate_calls"]
    assert metrics["vi.cold_solves"] > 0
    assert 0 < metrics["extremal.unique_run_ratio"] < 1   # fd_validate repeats the base run
    assert 0 < metrics["maps.evaluate_unique_ratio"] < 1
    assert metrics["experiments.bytes_written"] == sum(
        p.stat().st_size for p in tmp_path.rglob("*") if p.is_file())
    assert metrics["vi.errors"] == metrics["extremal.errors"] == 0
    # the runner's own body: inside run_experiment, outside every child span
    assert metrics["trace.untracked_s"] == tracer.self_s["experiments.run_experiment"]
    assert 0 < metrics["trace.untracked_s"] < metrics["experiments.run_self_s"]
    assert metrics["trace.hook_s"] > 0


def test_errors_are_counted_once_per_layer():
    tracer = Tracer()

    def inner():
        raise RuntimeError("boom")

    inner_vi = tracer._wrap(inner, "vi.inner")
    outer_vi = tracer._wrap(lambda: inner_vi(), "vi.outer")
    top = tracer._wrap(lambda: outer_vi(), "extremal.top")
    with pytest.raises(RuntimeError):
        top()
    assert dict(tracer.errors) == {"vi": 1, "extremal": 1}
    assert tracer.calls["vi.inner"] == tracer.calls["extremal.top"] == 1


def test_hook_time_is_charged_to_no_span(monkeypatch):
    monkeypatch.setitem(tracing._BEFORE, "vi.child", lambda tr, args, kwargs: time.sleep(0.05))
    tracer = Tracer()
    child = tracer._wrap(lambda: None, "vi.child")
    parent = tracer._wrap(lambda: child(), "extremal.parent")
    parent()
    assert tracer.hook_s >= 0.05
    assert tracer.self_s["vi.child"] < 0.01 and tracer.self_s["extremal.parent"] < 0.01
    assert tracer.total_s["vi.child"] < 0.01 and tracer.total_s["extremal.parent"] < 0.01


def test_traced_and_untraced_outputs_are_byte_identical(tmp_path):
    for name, raw in tiny_configs():
        cfg = parse_config(raw)
        run_experiment(cfg, out_dir=tmp_path / "plain" / name)
        with Tracer():
            run_experiment(cfg, out_dir=tmp_path / "traced" / name)
        assert checks.same_outputs(tmp_path / "plain" / name, tmp_path / "traced" / name) == []


def test_checks_accept_good_outputs_and_catch_a_wrong_multiplier(tmp_path):
    configs = dict(tiny_configs())
    for name in ("toy_min", "toy_max", "thermoforming_desk"):
        run_experiment(parse_config(configs[name]), out_dir=tmp_path / name)
        assert checks.check_call(tmp_path / name, configs[name], name) == []

    path = tmp_path / "thermoforming_desk" / "solution_min.csv"
    lines = path.read_text().splitlines()
    x, u, phi, lam, cls = lines[5].split(",")
    lines[5] = ",".join([x, u, phi, repr(float(lam) + 1e-3), cls])
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check_call(tmp_path / "thermoforming_desk",
                                 configs["thermoforming_desk"], "thermoforming_desk")
    assert any("lambda differs" in p for p in problems)


def write_solution(out: Path, raw: dict, u, phi, lam) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    x = [i / (raw["grid"]["n_nodes"] - 1) for i in range(raw["grid"]["n_nodes"])]
    rows = [",".join([repr(float(v)) for v in row] + ["I"]) for row in zip(x, u, phi, lam)]
    (out / "iterates_max.csv").write_text("iter,step_vnorm,qvi_residual,min_node_delta\n")
    path = out / "solution_max.csv"
    path.write_text("x,u,phi_u,lambda,class\n" + "\n".join(rows) + "\n")
    return path


def test_kkt_floor_scales_with_the_grid(tmp_path):
    """At n = 25601 a multiplier of -1e-7 is roundoff; -1e-2 is a defect."""
    raw = json.loads(json.dumps(dict(tiny_configs())["toy_max"]))
    raw["grid"]["n_nodes"] = n = 25601
    raw["forcing"] = {"const": 2.0}
    u = np.full(n, 2.0)   # the exact maximal solution, on the obstacle everywhere
    lam = np.zeros(n)
    assert checks.check_solution(write_solution(tmp_path / "exact", raw, u, u, lam), raw) == []

    lam[5] = -1e-7        # above 1e-8, below the rounding of a density at this n
    assert checks.check_solution(write_solution(tmp_path / "roundoff", raw, u, u, lam), raw) == []

    lam[5] = -1e-2
    problems = checks.check_solution(write_solution(tmp_path / "sign", raw, u, u, lam), raw)
    assert any("multiplier sign" in p for p in problems)

    phi = u.copy()
    phi[7] -= 1e-3        # u above its obstacle
    problems = checks.check_solution(write_solution(tmp_path / "feasible", raw, u, phi, 0 * u),
                                     raw)
    assert any("feasibility" in p for p in problems)

    lam = np.zeros(n)
    lam[9] = 1e-2         # a positive multiplier off the obstacle
    phi = u + 1e-3
    problems = checks.check_solution(write_solution(tmp_path / "comp", raw, u, phi, lam), raw)
    assert any("complementarity" in p for p in problems)


def test_toy_closed_form_check_catches_a_wrong_solution(tmp_path):
    raw = dict(tiny_configs())["toy_min"]
    out = tmp_path / "toy"
    run_experiment(parse_config(raw), out_dir=out)
    path = out / "solution_min.csv"
    path.write_text(path.read_text().replace("1.0,", "1.0000001,", 1))
    assert any("toy min" in p for p in checks.check_toy(out, raw))


def test_draws_are_stratified_inside_their_ranges_and_ordered_by_the_seed():
    bundled = workloads.load_bundled(ROOT / "configs")
    wl = workloads.WORKLOADS["small_batch"]
    first = workloads.make_calls(wl, 7, 0, bundled)
    assert first == workloads.make_calls(wl, 7, 0, bundled)
    assert first != workloads.make_calls(wl, 7, 1, bundled)
    other_seed = workloads.make_calls(wl, 8, 0, bundled)
    assert other_seed != first
    # every seed runs the same draws, in its own order
    key = lambda c: json.dumps(c.raw, sort_keys=True)  # noqa: E731
    assert sorted(map(key, other_seed)) == sorted(map(key, first))
    assert len(first) == workloads.DRAWS_PER_PASS
    for name, ranges in workloads.RANGES.items():
        mine = [c for c in first if c.family == name]
        assert sorted(Counter(c.n for c in mine).values()) == [8, 8, 9]
        for dotted, lo, hi in ranges:
            values = []
            for c in mine:
                node = c.raw
                for key in dotted.split("."):
                    node = node[key]
                values.append(node)
            assert all(lo <= v <= hi for v in values)
    ladder = workloads.make_calls(workloads.WORKLOADS["ladder"], 7, 3, bundled)
    assert [(c.family, c.n) for c in ladder] == [
        (name, n) for n in (101, 401, 1601, 6401, 25601) for name in workloads.CONFIG_NAMES]

