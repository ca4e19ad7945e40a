"""Outside-in tracer for the qvix layers.

``Tracer.install`` replaces every public function of the six library
modules, and the methods named in ``METHODS``, with timing wrappers.  A
name bound through ``from ... import`` is replaced in every qvix module
that binds it, so ``qvix.sensitivity.iterate_min`` is traced as well as
``qvix.extremal.iterate_min``.  Each wrapper records a span: its self
time is its duration minus the time its child spans cover.  The hooks
that read counts run inside the span; their time is taken out of every
span's time and reported on its own as ``trace.hook_s``.  Spans are
aggregated per function as they close, rather than stored one by one,
so a long run keeps a bounded footprint.  Counts are read from the
arguments and return values of the traced calls, never from inside the
library, which is left untouched.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict

LAYER_OF_MODULE = {
    "qvix.fem": "fem",
    "qvix.vi": "vi",
    "qvix.obstacle_maps": "maps",
    "qvix.extremal": "extremal",
    "qvix.sensitivity": "sensitivity",
    "qvix.experiments": "experiments",
}

# (module, class, method) wrapped on the class itself
METHODS = (
    ("qvix.fem", "TridiagonalSpd", "solve"),
    ("qvix.obstacle_maps", "PlateauMap", "evaluate"),
    ("qvix.obstacle_maps", "PlateauMap", "derivative_action"),
    ("qvix.obstacle_maps", "InverseEllipticMap", "evaluate"),
    ("qvix.obstacle_maps", "InverseEllipticMap", "derivative_action"),
    ("qvix.obstacle_maps", "ThermoformingMap", "evaluate"),
    ("qvix.obstacle_maps", "ThermoformingMap", "derivative_action"),
    ("qvix.obstacle_maps", "ThermoformingMap", "temperature"),
)

EVALUATE_SPANS = tuple(f"maps.{cls}.evaluate" for cls in
                       ("PlateauMap", "InverseEllipticMap", "ThermoformingMap"))
DERIVATIVE_SPANS = tuple(f"maps.{cls}.derivative_action" for cls in
                         ("PlateauMap", "InverseEllipticMap", "ThermoformingMap"))
WRITE_SPANS = ("experiments.write_solution_csv", "experiments.write_iterates_csv",
               "experiments.write_sensitivity_csv")

# every span the per-layer metrics read
METRIC_SPANS = (
    "fem.TridiagonalSpd.solve", "fem.assemble_operator", "fem.sup_embedding_constant",
    "vi.solve_vi", "vi.classify_active",
    *EVALUATE_SPANS, *DERIVATIVE_SPANS, "maps.ThermoformingMap.temperature",
    "maps.lipschitz_estimate", "maps.lipschitz_threshold_check",
    "extremal.iterate_min", "extremal.iterate_max",
    "extremal.check_subsolution", "extremal.check_supersolution",
    "sensitivity.fd_validate", "sensitivity.build_cone", "sensitivity.solve_derivative_qvi",
    "experiments.run_experiment", "experiments.build_problem", *WRITE_SPANS,
)


class _Frame:
    """An open span; ``hook_s`` covers the count hooks run inside it."""

    __slots__ = ("name", "child_s", "hook_s", "iterate_children")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.hook_s = 0.0
        self.iterate_children = 0


class Tracer:
    """Span aggregator; ``install`` wraps the library, ``uninstall`` restores it."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.hook_s = 0.0                       # spent in the count hooks
        self.errors = defaultdict(int)          # per layer
        self.counts = defaultdict(float)        # counts read from args and results
        self._stack: list[_Frame] = []
        self._seen_inputs: set = set()          # per top-level call
        self._seen_runs: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "qvix" or name.startswith("qvix.")) and m is not None]
        wrappers = {}
        for mod_name, layer in LAYER_OF_MODULE.items():
            mod = sys.modules[mod_name]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod_name):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            layer = LAYER_OF_MODULE[mod_name]
            self._patch(cls, meth, self._wrap(vars(cls)[meth], f"{layer}.{cls_name}.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name: str):
        layer = name.split(".", 1)[0]
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                self._seen_inputs.clear()
                self._seen_runs.clear()
            frame = _Frame(name)
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            own_hook_s = 0.0
            if before is not None:
                before(self, args, kwargs)
                own_hook_s = clock() - start
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._count_error(exc, layer)
                raise
            else:
                if after is not None:
                    hook0 = clock()
                    after(self, args, kwargs, result, parent)
                    own_hook_s += clock() - hook0
                return result
            finally:
                duration = clock() - start
                stack.pop()
                self.calls[name] += 1
                frame.hook_s += own_hook_s
                self.total_s[name] += duration - frame.hook_s
                self.self_s[name] += duration - frame.child_s - own_hook_s
                self.hook_s += own_hook_s
                if parent is not None:
                    parent.child_s += duration
                    parent.hook_s += frame.hook_s
                    if name.startswith("extremal.iterate_") and \
                            parent.name == "sensitivity.fd_validate":
                        parent.iterate_children += 1
                        if parent.iterate_children > 1:  # the first is the base run
                            self.counts["fd_reruns"] += 1
                            self.counts["fd_rerun_s"] += duration - frame.hook_s

        return traced

    def _count_error(self, exc: BaseException, layer: str) -> None:
        # count each exception once per layer, where it first leaves that layer
        marks = exc.__dict__.setdefault("_traced_layers", set())
        if layer not in marks:
            marks.add(layer)
            self.errors[layer] += 1

    # -- report -------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def span_count(self) -> int:
        return sum(self.calls.values())

    def metrics(self, wall_s: float, span_cost_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced so far, as (value, unit)."""
        c, s, t, k = self.calls, self.self_s, self.total_s, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        solves = c["vi.solve_vi"]
        runs = c["extremal.iterate_min"] + c["extremal.iterate_max"]
        evaluations = sum(c[n] for n in EVALUATE_SPANS)
        out = {
            "fem.solve_calls": (c["fem.TridiagonalSpd.solve"], "count"),
            "fem.solve_self_s": (s["fem.TridiagonalSpd.solve"], "s"),
            "fem.assemble_calls": (c["fem.assemble_operator"], "count"),
            "fem.assemble_self_s": (s["fem.assemble_operator"], "s"),
            "fem.embedding_calls": (c["fem.sup_embedding_constant"], "count"),
            "fem.embedding_self_s": (s["fem.sup_embedding_constant"], "s"),
            "fem.embedding_bytes_computed": (k["embedding_bytes"], "B"),
            "vi.solve_calls": (solves, "count"),
            "vi.self_s": (self.layer_self_s("vi"), "s"),
            "vi.pdas_iters": (k["pdas_iters"], "count"),
            "vi.pdas_iters_per_solve": (ratio(k["pdas_iters"], k["solves_returned"]), "count"),
            "vi.pdas_iters_max": (k["pdas_iters_max"], "count"),
            "vi.cold_solves": (k["cold_solves"], "count"),
            "vi.cold_pdas_iters": (k["cold_pdas_iters"], "count"),
            "vi.classify_calls": (c["vi.classify_active"], "count"),
            "vi.errors": (self.errors["vi"], "count"),
            "maps.evaluate_calls": (evaluations, "count"),
            "maps.evaluate_self_s": (sum(s[n] for n in EVALUATE_SPANS), "s"),
            "maps.evaluate_unique_ratio": (ratio(k["unique_inputs"], evaluations), "ratio"),
            "maps.derivative_calls": (sum(c[n] for n in DERIVATIVE_SPANS), "count"),
            "maps.derivative_self_s": (sum(s[n] for n in DERIVATIVE_SPANS), "s"),
            "maps.temperature_calls": (c["maps.ThermoformingMap.temperature"], "count"),
            "maps.temperature_self_s": (s["maps.ThermoformingMap.temperature"], "s"),
            "maps.lipschitz_s": (t["maps.lipschitz_estimate"], "s"),
            "maps.threshold_check_s": (t["maps.lipschitz_threshold_check"], "s"),
            "maps.errors": (self.errors["maps"], "count"),
            "extremal.runs": (runs, "count"),
            "extremal.self_s": (self.layer_self_s("extremal"), "s"),
            "extremal.outer_iters": (k["outer_iters"], "count"),
            "extremal.outer_iters_per_run": (ratio(k["outer_iters"], k["runs_returned"]),
                                             "count"),
            "extremal.unique_run_ratio": (ratio(k["unique_runs"], runs), "ratio"),
            "extremal.bracket_checks": (c["extremal.check_subsolution"]
                                        + c["extremal.check_supersolution"], "count"),
            "extremal.errors": (self.errors["extremal"], "count"),
            "sensitivity.fd_validate_calls": (c["sensitivity.fd_validate"], "count"),
            "sensitivity.self_s": (self.layer_self_s("sensitivity"), "s"),
            "sensitivity.cone_builds": (c["sensitivity.build_cone"], "count"),
            "sensitivity.alpha_iters": (k["alpha_iters"], "count"),
            "sensitivity.fd_reruns": (k["fd_reruns"], "count"),
            "sensitivity.fd_rerun_s": (k["fd_rerun_s"], "s"),
            "sensitivity.errors": (self.errors["sensitivity"], "count"),
            "experiments.run_self_s": (self.layer_self_s("experiments"), "s"),
            "experiments.build_s": (t["experiments.build_problem"], "s"),
            "experiments.write_s": (sum(t[n] for n in WRITE_SPANS), "s"),
            "experiments.bytes_written": (k["bytes_written"], "B"),
            "trace.wall_s": (wall_s, "s"),
            "trace.untracked_s": (s["experiments.run_experiment"], "s"),
            "trace.hook_s": (self.hook_s, "s"),
            "trace.overhead_frac": (ratio(self.span_count() * span_cost_s + self.hook_s,
                                          wall_s), "ratio"),
        }
        return out


# -- counts read from arguments and return values ---------------------

def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _after_solve_vi(tr: Tracer, args, kwargs, result, parent) -> None:
    iters = result.iterations
    tr.counts["solves_returned"] += 1
    tr.counts["pdas_iters"] += iters
    tr.counts["pdas_iters_max"] = max(tr.counts["pdas_iters_max"], iters)
    if _arg(args, kwargs, 4, "active0") is None:
        tr.counts["cold_solves"] += 1
        tr.counts["cold_pdas_iters"] += iters


def _digest(fn) -> bytes:
    """Short digest of a nodal function's values, to key the sets of seen inputs."""
    return hashlib.blake2b(fn.values.tobytes(), digest_size=16).digest()


def _before_evaluate(tr: Tracer, args, kwargs) -> None:
    key = (id(args[0]), _digest(_arg(args, kwargs, 1, "u")))
    if key not in tr._seen_inputs:
        tr._seen_inputs.add(key)
        tr.counts["unique_inputs"] += 1


def _before_iterate(which: str):
    def before(tr: Tracer, args, kwargs) -> None:
        f = _arg(args, kwargs, 1, "f")
        start = _arg(args, kwargs, 3, "start")
        key = (which, id(_arg(args, kwargs, 2, "omap")), _digest(f), _digest(start))
        if key not in tr._seen_runs:
            tr._seen_runs.add(key)
            tr.counts["unique_runs"] += 1
    return before


def _after_iterate(tr: Tracer, args, kwargs, result, parent) -> None:
    tr.counts["runs_returned"] += 1
    tr.counts["outer_iters"] += result.n_iters


def _after_embedding(tr: Tracer, args, kwargs, result, parent) -> None:
    n = _arg(args, kwargs, 0, "grid").n_nodes
    tr.counts["embedding_bytes"] += 2 * 8 * n * n  # dense identity plus dense inverse


def _after_derivative(tr: Tracer, args, kwargs, result, parent) -> None:
    tr.counts["alpha_iters"] += len(result.alpha_iterates)


def _after_run(tr: Tracer, args, kwargs, result, parent) -> None:
    tr.counts["bytes_written"] += sum(p.stat().st_size for p in result.files.values())


_BEFORE = {
    "extremal.iterate_min": _before_iterate("min"),
    "extremal.iterate_max": _before_iterate("max"),
    **{name: _before_evaluate for name in EVALUATE_SPANS},
}

_AFTER = {
    "vi.solve_vi": _after_solve_vi,
    "extremal.iterate_min": _after_iterate,
    "extremal.iterate_max": _after_iterate,
    "fem.sup_embedding_constant": _after_embedding,
    "sensitivity.solve_derivative_qvi": _after_derivative,
    "experiments.run_experiment": _after_run,
}


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost one traced span adds, from a wrapped no-op.

    The no-op has no count hooks; their time is measured as it is spent
    and added to the overhead by ``Tracer.metrics``.
    """
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "calibration.noop")
    clock = time.perf_counter
    best = float("inf")
    for _ in range(5):
        t0 = clock()
        for _ in range(samples):
            noop()
        t1 = clock()
        for _ in range(samples):
            wrapped()
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
    return max(best, 0.0)
