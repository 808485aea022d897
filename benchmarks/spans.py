"""Span tracer that times perturblab's layers from outside the package.

During a traced pass, each public function listed in TARGETS is replaced,
in every ``perturblab`` module that binds it, by a wrapper that records a
span: its name, its parent, the trial it belongs to, its wall interval and
its self CPU time.  Nothing under ``src/`` changes; ``uninstall`` puts the
original bindings back.

Busy time is thread CPU time (``time.thread_time_ns``) minus the CPU time
of child spans, so it adds up across the worker threads of a pool and does
not count time spent waiting for the interpreter lock.  Latencies
(``p50_ms``, ``tail_ms``) are wall time.

The parent stack is thread-local: a trial closure that runs on a pool
worker starts a fresh stack whose root names the ``run_trials`` span of
the submitting thread as its parent.  Spans are kept in per-thread lists
in memory and written out once, at the end of the run.  Calls that take
only microseconds (``rational.determinant`` inside the exhaustive
enumeration) are aggregated into counters and keep no span.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (layer.function, keep one span per call)
TARGETS = (
    ("noise.sample_iid_matrix", True),
    ("noise.distribution_from_spec", True),
    ("noise.certificate_from_symmetric", True),
    ("linalg.svd", True),
    ("linalg.perturb", True),
    ("rational.solve_exact", True),
    ("rational.determinant", False),
    ("concentration.exact_concentration", True),
    ("concentration.fourier_bound", True),
    ("gaps.inverse_lo_search", True),
    ("witness.classify_witness", True),
    ("experiments.gaussian_matrix", True),
    ("experiments.condition_tail", True),
    ("experiments.tail_curve", True),
    ("experiments.ge_error_experiment", True),
    ("experiments.singularity_probability", True),
)
RUN_TRIALS = "records.run_trials"
TRIAL = "experiments.trial"
LAYERS = ("noise", "linalg", "rational", "concentration", "gaps", "witness", "experiments", "records")


@dataclass
class Stat:
    calls: int = 0
    busy_ns: int = 0
    wait_ns: int = 0
    errors: dict = field(default_factory=dict)
    residual_max: float = 0.0
    found: int = 0

    def merge(self, other: "Stat") -> None:
        self.calls += other.calls
        self.busy_ns += other.busy_ns
        self.wait_ns += other.wait_ns
        for k, v in other.errors.items():
            self.errors[k] = self.errors.get(k, 0) + v
        self.residual_max = max(self.residual_max, other.residual_max)
        self.found += other.found


@dataclass
class _Frame:
    name: str
    span_id: int
    parent: int | None
    trial: int | None
    wall0: int
    cpu0: int
    child_cpu: int = 0


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[_Frame] = []
        self.stats: dict[str, Stat] | None = None
        self.spans: list[tuple] | None = None


def _on_result(name: str, stat: Stat, out) -> None:
    if name == "linalg.svd":
        stat.residual_max = max(stat.residual_max, float(out.convergence_residual))
    elif name == "gaps.inverse_lo_search":
        stat.found += out.found is not None


class Tracer:
    """Install with ``install()``, run the traced work, then ``uninstall()``."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._trial_ids = itertools.count(1)
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._all_stats: list[dict[str, Stat]] = []
        self._all_spans: list[list[tuple]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- per-thread storage -------------------------------------------------

    def _storage(self) -> tuple[dict[str, Stat], list[tuple]]:
        local = self._local
        if local.stats is None:
            local.stats, local.spans = {}, []
            with self._lock:
                self._all_stats.append(local.stats)
                self._all_spans.append(local.spans)
        return local.stats, local.spans

    def _push(self, name: str, parent: int | None = None, new_trial: bool = False) -> _Frame:
        stack = self._local.stack
        top = stack[-1] if stack else None
        if parent is None and top is not None:
            parent = top.span_id
        trial = next(self._trial_ids) if new_trial else (top.trial if top else None)
        frame = _Frame(name, next(self._ids), parent, trial, time.perf_counter_ns(), time.thread_time_ns())
        stack.append(frame)
        return frame

    def _pop(self, frame: _Frame, keep: bool, error: BaseException | None) -> Stat:
        wall1 = time.perf_counter_ns()
        cpu = time.thread_time_ns() - frame.cpu0
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1].child_cpu += cpu
        stats, spans = self._storage()
        stat = stats.get(frame.name)
        if stat is None:
            stat = stats[frame.name] = Stat()
        stat.calls += 1
        stat.busy_ns += cpu - frame.child_cpu
        if frame.name == TRIAL:
            stat.wait_ns += (wall1 - frame.wall0) - cpu
        if error is not None:
            kind = type(error).__name__
            stat.errors[kind] = stat.errors.get(kind, 0) + 1
        if keep:
            spans.append((frame.span_id, frame.parent, frame.trial, frame.name,
                          threading.get_ident(), frame.wall0, wall1, cpu - frame.child_cpu))
        return stat

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn, keep: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._push(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._pop(frame, keep, exc)
                raise
            _on_result(name, self._pop(frame, keep, None), out)
            return out

        return wrapper

    def _wrap_run_trials(self, fn):
        """run_trials itself, and each call of the trial closure it receives as
        a trial span whose parent is the run_trials span, on any thread."""

        @functools.wraps(fn)
        def wrapper(trial_fn, count, threads):
            frame = self._push(RUN_TRIALS)

            def traced_trial(index):
                inner = self._push(TRIAL, parent=frame.span_id, new_trial=True)
                try:
                    out = trial_fn(index)
                except BaseException as exc:
                    self._pop(inner, True, exc)
                    raise
                self._pop(inner, True, None)
                return out

            try:
                out = fn(traced_trial, count, threads)
            except BaseException as exc:
                self._pop(frame, True, exc)
                raise
            self._pop(frame, True, None)
            return out

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A benchmark-level span that starts a new trial id."""
        frame = self._push(name, new_trial=True)
        try:
            yield
        except BaseException as exc:
            self._pop(frame, True, exc)
            raise
        self._pop(frame, True, None)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of each target in the loaded perturblab modules."""
        import perturblab  # noqa: F401  (the package must be imported first)

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "perturblab" or k.startswith("perturblab."))]
        wrappers = []
        for name, keep in TARGETS:
            layer, attr = name.split(".")
            original = getattr(sys.modules[f"perturblab.{layer}"], attr)
            wrappers.append((original, self._wrap(name, original, keep)))
        run_trials = sys.modules["perturblab.records"].run_trials
        wrappers.append((run_trials, self._wrap_run_trials(run_trials)))
        for original, wrapper in wrappers:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def stats(self) -> dict[str, Stat]:
        merged: dict[str, Stat] = {}
        with self._lock:
            for per_thread in self._all_stats:
                for name, stat in per_thread.items():
                    merged.setdefault(name, Stat()).merge(stat)
        return merged

    def spans(self) -> list[dict]:
        with self._lock:
            rows = [s for per_thread in self._all_spans for s in per_thread]
        rows.sort(key=lambda s: (s[5], s[0]))
        keys = ("id", "parent", "trial", "name", "thread", "start_ns", "end_ns", "self_cpu_ns")
        return [dict(zip(keys, row)) for row in rows]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.spans():
                fh.write(json.dumps(row) + "\n")


def tail_of(durations_ms: list[float]) -> tuple[float, float, float]:
    """(p50, tail, tail percentile).

    The tail is the highest percentile with at least ten samples beyond it,
    i.e. the eleventh largest sample.  With ten samples or fewer there is
    no such percentile and the median is reported as the tail.
    """
    if not durations_ms:
        return 0.0, 0.0, 0.0
    xs = sorted(durations_ms)
    count = len(xs)
    p50 = xs[(count - 1) // 2]
    if count < 11:
        return p50, p50, 50.0
    return p50, xs[count - 11], 100.0 * (count - 10) / count


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics named as BENCHMARK.json's per_layer list."""
    stats = tracer.stats()
    spans = tracer.spans()

    def stat(name: str) -> Stat:
        return stats.get(name, Stat())

    def durations(name: str) -> list[float]:
        return [(s["end_ns"] - s["start_ns"]) / 1e6 for s in spans if s["name"] == name]

    out: dict[str, tuple[float, str]] = {}
    for name, _keep in TARGETS:
        if name.startswith("experiments.") and name != "experiments.gaussian_matrix":
            continue
        out[f"{name}.calls"] = (stat(name).calls, "count")
        out[f"{name}.busy_s"] = (stat(name).busy_ns / 1e9, "s")
    svd = stat("linalg.svd")
    p50, tail, pct = tail_of(durations("linalg.svd"))
    out["linalg.svd.p50_ms"] = (p50, "ms")
    out["linalg.svd.tail_ms"] = (tail, "ms")
    out["linalg.svd.tail_pct"] = (pct, "%")
    out["linalg.svd.errors"] = (sum(svd.errors.values()), "count")
    out["linalg.svd.residual_max"] = (svd.residual_max, "ratio")
    conc = stat("concentration.exact_concentration")
    out["concentration.exact_concentration.refused"] = (conc.errors.get("ResourceError", 0), "count")
    search = stat("gaps.inverse_lo_search")
    out["gaps.inverse_lo_search.found_ratio"] = (
        search.found / search.calls if search.calls else 0.0, "ratio")
    trial = stat(TRIAL)
    p50, tail, pct = tail_of(durations(TRIAL))
    out["experiments.trial.count"] = (trial.calls, "count")
    out["experiments.trial.p50_ms"] = (p50, "ms")
    out["experiments.trial.tail_ms"] = (tail, "ms")
    out["experiments.trial.tail_pct"] = (pct, "%")
    out["experiments.self_s"] = (
        sum(s.busy_ns for n, s in stats.items()
            if n.startswith("experiments.") and n != "experiments.gaussian_matrix") / 1e9, "s")
    out["records.run_trials.calls"] = (stat(RUN_TRIALS).calls, "count")
    out["records.run_trials.wait_s"] = (trial.wait_ns / 1e9, "s")
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = (
            sum(s.busy_ns for n, s in stats.items() if n.startswith(layer + ".")) / 1e9, "s")
    return out
