"""Spans around calls into the engine's layers, recorded from outside it.

``Tracer.install`` replaces public engine functions by timing wrappers.
Where a module imported a function by name (``from .propagate import
run_pulse_sequence``), every rotecho module attribute bound to the same
function object is patched, so the engine's internal calls are caught
too.  ``restore`` puts every original back.

Each span records its name, start, end and the index of the span that
was open when it began (its parent).  Spans are kept in memory; a
process-pool worker forked while the wrappers are installed records
into its own copy, which is lost, so layer splits come from serial runs.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time


def _kick_gflop(args, kwargs) -> float:
    """Computed work of one impulsive kick, from the block sizes.

    Per m block of size n: the propagator (V * phase) @ V.T and the
    sandwich U @ rho @ U^dagger are three complex n x n products at
    8 n^3 real flops each.
    """
    rho = args[0] if args else kwargs["rho"]
    return sum(24.0 * b.shape[0] ** 3 for b in rho.blocks) / 1e9


# (module, attribute, span name, work function)
TARGETS = (
    ("rotecho.cli", "main", "cli.main", None),
    ("rotecho.config", "load_config", "config.load_config", None),
    ("rotecho.basis", "RotorBasis.__init__", "basis.RotorBasis", None),
    ("rotecho.basis", "thermal_state", "basis.thermal_state", None),
    ("rotecho.propagate", "run_pulse_sequence", "propagate.run_pulse_sequence", None),
    ("rotecho.propagate", "run_two_pulse", "propagate.run_two_pulse", None),
    ("rotecho.propagate", "impulsive_kick", "propagate.impulsive_kick", _kick_gflop),
    ("rotecho.propagate", "free_evolve", "propagate.free_evolve", None),
    ("rotecho.echo", "extract_secho", "echo.extract_secho", None),
    ("rotecho.echo", "find_optimal_p2", "echo.find_optimal_p2", None),
    ("rotecho.echo", "scan_dtau", "echo.scan_dtau", None),
    ("rotecho.echo", "scan_p2", "echo.scan_p2", None),
    ("rotecho.echo", "fit_sin2", "echo.fit_sin2", None),
    ("rotecho.focal", "averaged_scan_p2", "focal.averaged_scan_p2", None),
    ("rotecho.runio", "write_trace_csv", "runio.write", None),
    ("rotecho.runio", "write_curve_csv", "runio.write", None),
    ("rotecho.runio", "write_opt_csv", "runio.write", None),
    ("rotecho.runio", "write_fit_json", "runio.write", None),
    ("rotecho.runio", "write_manifest", "runio.write", None),
)

LAYERS = ("cli", "config", "basis", "propagate", "echo", "focal", "runio")


class Span:
    __slots__ = ("name", "start", "end", "parent", "work")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.work = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, work):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(name, open_[-1] if open_ else -1)
            spans.append(span)
            open_.append(idx)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
                if work is not None:
                    span.work = work(args, kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, work in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(original, name, work))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, work)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("rotecho"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # --- reading the spans -------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def count(self, name: str) -> int:
        return len(self.named(name))

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with an open ``ancestor`` span above them."""
        hits = 0
        for s in self.named(name):
            p = s.parent
            while p >= 0 and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            hits += p >= 0
        return hits


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counters, busy times and self times from one traced run."""
    own = tracer.self_times()
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            t for s, t in zip(tracer.spans, own) if s.name.startswith(layer + ".")
        )

    evals = tracer.count("echo.extract_secho")
    runs = tracer.count("propagate.run_pulse_sequence")
    kick_s = tracer.total("propagate.impulsive_kick")
    gflop = sum(s.work for s in tracer.named("propagate.impulsive_kick"))
    optima = tracer.named("echo.find_optimal_p2")

    m["basis.thermal_state.calls"] = tracer.count("basis.thermal_state")
    m["basis.thermal_state_s"] = tracer.total("basis.thermal_state")
    m["propagate.runs"] = runs
    m["propagate.runs_per_eval"] = runs / evals if evals else 0.0
    m["propagate.kick.calls"] = tracer.count("propagate.impulsive_kick")
    m["propagate.kick_s"] = kick_s
    m["propagate.kick.gflop"] = gflop
    m["propagate.kick.gflops"] = gflop / kick_s if kick_s > 0 else 0.0
    m["propagate.free_evolve.calls"] = tracer.count("propagate.free_evolve")
    m["propagate.free_evolve_s"] = tracer.total("propagate.free_evolve")
    m["propagate.run_self_s"] = sum(
        t for s, t in zip(tracer.spans, own) if s.name == "propagate.run_pulse_sequence"
    )
    m["echo.evals"] = evals
    m["echo.evals_per_optimum"] = (
        tracer.under("echo.extract_secho", "echo.find_optimal_p2") / len(optima)
        if optima else 0.0
    )
    m["echo.optimum_s"] = (
        statistics.median(s.duration for s in optima) if optima else 0.0
    )
    m["echo.fit_s"] = tracer.total("echo.fit_sin2")
    m["runio.write_s"] = tracer.total("runio.write")
    m["focal.shell_evals"] = tracer.under(
        "propagate.run_two_pulse", "focal.averaged_scan_p2"
    )
    m["focal.quadrature_s"] = tracer.total("focal.averaged_scan_p2")
    return m
