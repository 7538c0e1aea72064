"""Per-layer tracing: spans around the calls into each rindlercv module.

While a traced pass runs, :func:`instrument` replaces the public functions of
the package's modules (and the few private CLI helpers that mark a stage
boundary: the sweep evaluator, the thread pool, the figure row builders and
the table writer) with wrappers that open and close a span, and
:func:`restore` puts the originals back.  Nothing under ``src/`` changes.

A span's self time is its duration minus the durations of the spans it
encloses on the same thread.  Durations come from the thread's CPU clock
(``time.thread_time``), so work done on the sweep's pool threads is charged
to the thread that did it, and time a thread spends waiting for the
interpreter lock or for the pool is not counted as work.  Spans are folded
into per-thread totals as they close, so memory stays bounded however many
calls a pass makes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field

#: Every per-layer metric, with the end-to-end metric and workload it should move.
LAYER_METRICS = {
    "phase_space.symplectic_eigenvalues.calls": "points_per_s on crosscheck",
    "phase_space.symplectic_eigenvalues.self_s": "points_per_s on crosscheck",
    "phase_space.cov_constructions": "points_per_s on crosscheck",
    "phase_space.symp_constructions": "points_per_s on crosscheck",
    "phase_space.validate_s": "points_per_s on crosscheck",
    "phase_space.eig_fallback_ratio": "points_per_s on crosscheck",
    "rindler_frames.build_cm.calls": "points_per_s on crosscheck",
    "rindler_frames.build_cm.self_s": "points_per_s on crosscheck",
    "info_measures.two_mode_m.calls": "points_per_s on crosscheck",
    "info_measures.two_mode_m.self_s": "points_per_s on crosscheck",
    "info_measures.mutual_information.calls": "points_per_s on crosscheck",
    "info_measures.mutual_information.self_s": "points_per_s on crosscheck",
    "info_measures.contangle_from_m.calls": "points_per_s on grid",
    "info_measures.clamp_ratio": "points_per_s on grid",
    "entanglement_analysis.reports.calls": "points_per_s on grid; call_p50_ms on point",
    "entanglement_analysis.reports.self_s": "points_per_s on grid; call_p50_ms on point",
    "entanglement_analysis.closed_forms.calls": "points_per_s on grid; call_p50_ms on point",
    "entanglement_analysis.closed_forms.self_s": "points_per_s on grid; call_p50_ms on point",
    "entanglement_analysis.to_dict.self_s": "points_per_s on grid; call_p50_ms on point",
    "entanglement_analysis.validate.self_s": "call_p50_ms on point",
    "selftest.run.self_s": "points_per_s on crosscheck",
    "cli.main.calls": "call_p50_ms and call_p99_ms on point",
    "cli.build_parser.self_s": "call_p50_ms and call_p99_ms on point",
    "cli.self_s": "points_per_s and peak_rss_mb on grid",
    "cli.bytes_out": "points_per_s and peak_rss_mb on grid",
    "cli.write_s": "points_per_s and peak_rss_mb on grid",
    "trace.overhead": "none: traced pass time over untraced pass time",
}

# m-parameters in [1 - CLAMP_WINDOW, 1) are clamped to 1 by contangle_from_m
CLAMP_WINDOW = 1e-9


@dataclass
class _ThreadState:
    ident: int
    name: str
    stack: list = field(default_factory=list)  # per open span: [time of enclosed spans]
    stats: dict = field(default_factory=dict)  # group -> [calls, self seconds]
    counts: dict = field(default_factory=dict)  # counter -> value


class Tracer:
    """Collects spans per thread; create one per traced pass."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            current = threading.current_thread()
            state = _ThreadState(threading.get_ident(), current.name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def begin(self):
        state = self._state()
        frame = [0.0]
        state.stack.append(frame)
        return state, frame, time.thread_time()

    def end(self, group: str, token) -> None:
        state, frame, start = token
        duration = time.thread_time() - start
        state.stack.pop()
        if state.stack:
            state.stack[-1][0] += duration
        rec = state.stats.get(group)
        if rec is None:
            rec = state.stats[group] = [0, 0.0]
        rec[0] += 1
        rec[1] += duration - frame[0]

    def count(self, counter: str, n: int = 1) -> None:
        counts = self._state().counts
        counts[counter] = counts.get(counter, 0) + n

    def wrap(self, group: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(group, token)
        return traced

    def threads(self) -> list[_ThreadState]:
        with self._lock:
            return list(self._threads)

    def totals(self) -> tuple[dict, dict]:
        """Per-group [calls, self seconds] and counters, summed over threads."""
        stats: dict = {}
        counts: dict = {}
        for state in self.threads():
            for group, (calls, self_s) in state.stats.items():
                rec = stats.setdefault(group, [0, 0.0])
                rec[0] += calls
                rec[1] += self_s
            for name, value in state.counts.items():
                counts[name] = counts.get(name, 0) + value
        return stats, counts

    def by_thread_role(self) -> dict:
        """Self seconds per group on the main thread and on all other threads."""
        out: dict = {}
        main = threading.main_thread().ident
        for state in self.threads():
            role = "main" if state.ident == main else "pool"
            for group, (calls, self_s) in state.stats.items():
                rec = out.setdefault(group, {"main": [0, 0.0], "pool": [0, 0.0]})[role]
                rec[0] += calls
                rec[1] += self_s
        return out


class Patches:
    """Attribute replacements made by :func:`instrument`, undone by :meth:`restore`."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, replacement) -> None:
        """Rebind every rindlercv module name that refers to ``original``."""
        for name, module in list(sys.modules.items()):
            if name != "rindlercv" and not name.startswith("rindlercv."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _public_functions(module) -> list[str]:
    return [name for name, value in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(value)
            and value.__module__ == module.__name__]


def instrument(tracer: Tracer, pkg) -> Patches:
    """Wrap the package's layer boundaries with spans of ``tracer``.

    ``pkg`` is a namespace holding the modules ``cli``, ``ea``, ``im``,
    ``ps``, ``rf`` and ``st``.
    """
    import numpy

    patches = Patches()

    def wrap_function(module, name, group):
        original = getattr(module, name)
        patches.replace_everywhere(original, tracer.wrap(group, original))

    # L0 phase_space
    wrap_function(pkg.ps, "symplectic_eigenvalues", "phase_space.symplectic_eigenvalues")
    patches.set(pkg.ps.CovMatrix, "__post_init__",
                tracer.wrap("phase_space.validate.cov", pkg.ps.CovMatrix.__post_init__))
    patches.set(pkg.ps.SympTransform, "__post_init__",
                tracer.wrap("phase_space.validate.symp", pkg.ps.SympTransform.__post_init__))
    cholesky = numpy.linalg.cholesky

    def counting_cholesky(*args, **kwargs):
        # symplectic_eigenvalues falls back to a general eigensolver when this raises
        try:
            return cholesky(*args, **kwargs)
        except numpy.linalg.LinAlgError:
            tracer.count("phase_space.eig_fallbacks")
            raise
    patches.set(numpy.linalg, "cholesky", counting_cholesky)

    # L1 rindler_frames and info_measures
    for name in ("build_single_observer_cm", "build_double_observer_cm"):
        wrap_function(pkg.rf, name, "rindler_frames.build_cm")
    for name in ("two_mode_m", "mutual_information"):
        wrap_function(pkg.im, name, f"info_measures.{name}")
    contangle = pkg.im.contangle_from_m

    def counting_contangle(m):
        if 1.0 - CLAMP_WINDOW <= m < 1.0:
            tracer.count("info_measures.clamps")
        return contangle(m)
    patches.replace_everywhere(contangle, tracer.wrap(
        "info_measures.contangle_from_m", functools.wraps(contangle)(counting_contangle)))

    # L2 entanglement_analysis
    reports = ("single_observer_report", "double_observer_report")
    for name in _public_functions(pkg.ea):
        wrap_function(pkg.ea, name, "entanglement_analysis.reports" if name in reports
                      else "entanglement_analysis.closed_forms")
    for cls in (pkg.ea.SingleObserverReport, pkg.ea.DoubleObserverReport):
        patches.set(cls, "to_dict", tracer.wrap("entanglement_analysis.to_dict", cls.to_dict))
        patches.set(cls, "validate", tracer.wrap("entanglement_analysis.validate", cls.validate))

    # L3 selftest and cli
    wrap_function(pkg.st, "run", "selftest.run")
    wrap_function(pkg.cli, "main", "cli.main")
    build_parser = pkg.cli.build_parser

    @functools.wraps(build_parser)
    def parser_with_traced_parse():
        parser = build_parser()
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
        return parser
    patches.set(pkg.cli, "build_parser", tracer.wrap("cli.build_parser", parser_with_traced_parse))
    wrap_function(pkg.cli, "_sweep_evaluator", "cli.evaluate")
    for name in ("_write_table", "_dump_json"):
        wrap_function(pkg.cli, name, "cli.write")
    for preset in pkg.cli.FIGURE_PRESETS.values():
        patches.set(preset, "build", tracer.wrap("cli.rows", preset.build))

    class TracedPool(pkg.cli.ThreadPoolExecutor):
        """The sweep's pool; its span covers the main thread's share of the pool."""

        def __enter__(self):
            self._span = tracer.begin()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.end("cli.pool", self._span)
    patches.set(pkg.cli, "ThreadPoolExecutor", TracedPool)
    return patches


def layer_metrics(tracer: Tracer, bytes_out: int) -> dict:
    """The per-layer metrics of one traced pass (``trace.overhead`` excepted)."""
    stats, counts = tracer.totals()

    def calls(group):
        return stats.get(group, [0, 0.0])[0]

    def self_s(*groups):
        return sum(stats.get(g, [0, 0.0])[1] for g in groups)

    spectra = calls("phase_space.symplectic_eigenvalues")
    contangles = calls("info_measures.contangle_from_m")
    return {
        "phase_space.symplectic_eigenvalues.calls": spectra,
        "phase_space.symplectic_eigenvalues.self_s": self_s("phase_space.symplectic_eigenvalues"),
        "phase_space.cov_constructions": calls("phase_space.validate.cov"),
        "phase_space.symp_constructions": calls("phase_space.validate.symp"),
        "phase_space.validate_s": self_s("phase_space.validate.cov", "phase_space.validate.symp"),
        "phase_space.eig_fallback_ratio":
            counts.get("phase_space.eig_fallbacks", 0) / spectra if spectra else 0.0,
        "rindler_frames.build_cm.calls": calls("rindler_frames.build_cm"),
        "rindler_frames.build_cm.self_s": self_s("rindler_frames.build_cm"),
        "info_measures.two_mode_m.calls": calls("info_measures.two_mode_m"),
        "info_measures.two_mode_m.self_s": self_s("info_measures.two_mode_m"),
        "info_measures.mutual_information.calls": calls("info_measures.mutual_information"),
        "info_measures.mutual_information.self_s": self_s("info_measures.mutual_information"),
        "info_measures.contangle_from_m.calls": contangles,
        "info_measures.clamp_ratio":
            counts.get("info_measures.clamps", 0) / contangles if contangles else 0.0,
        "entanglement_analysis.reports.calls": calls("entanglement_analysis.reports"),
        "entanglement_analysis.reports.self_s": self_s("entanglement_analysis.reports"),
        "entanglement_analysis.closed_forms.calls": calls("entanglement_analysis.closed_forms"),
        "entanglement_analysis.closed_forms.self_s": self_s("entanglement_analysis.closed_forms"),
        "entanglement_analysis.to_dict.self_s": self_s("entanglement_analysis.to_dict"),
        "entanglement_analysis.validate.self_s": self_s("entanglement_analysis.validate"),
        "selftest.run.self_s": self_s("selftest.run"),
        "cli.main.calls": calls("cli.main"),
        "cli.build_parser.self_s": self_s("cli.build_parser"),
        # the CLI's own work: main, the sweep evaluator and the figure row
        # builders, without parsing, the pool, writing or the library
        "cli.self_s": self_s("cli.main", "cli.evaluate", "cli.rows"),
        "cli.bytes_out": bytes_out,
        "cli.write_s": self_s("cli.write"),
    }
