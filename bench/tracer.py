"""Outside-in per-layer tracer for the benchmark's traced rep.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces attributes of the simulator's classes and modules with timing
wrappers inside the traced child process only, and
:meth:`Tracer.uninstall` puts every original object back.

A *layer* is a module (or package) under ``repro.`` named in
:data:`LAYERS`.  Three kinds of entry point are wrapped:

(a) engine callbacks: every callback handed to ``Simulation.schedule``,
    ``Simulation.every`` or ``Simulation.every_while`` runs inside a span
    of the layer whose module defines the callback;
(b) the public methods and constructors of every class a layer module
    defines; the ``Grid*`` and ``*Array`` twins live in the same modules
    as the event engine's classes, so every engine reports under the
    same names;
(c) the roots ``run_grid`` and ``execute_job``, which are module
    functions (the other roots are public methods, covered by (b)).

Spans nest on an in-memory stack.  A span's self time is its duration
minus the durations of the spans it called.  What a wrapper itself costs
lands in the span that called it, so each finished span also charges its
caller the wrapper cost :func:`calibrate` measured.  Callbacks owned by
modules outside :data:`LAYERS` are timed under ``OTHER`` and count as
unattributed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
import time
import types
import weakref
from typing import Callable, Dict, List, Optional, Tuple

LAYERS: Tuple[str, ...] = (
    "sim.engine",
    "sim.batch",
    "sim.blocks",
    "lte.channel",
    "lte.cell",
    "lte.scheduler",
    "lte.firmware_buffer",
    "lte.ue",
    "lte.diagnostics",
    "lte.shared_cell",
    "net",
    "rate_control.pacer",
    "rate_control.fbcc",
    "rate_control.gcc",
    "compression",
    "video",
    "roi",
    "telephony.sender",
    "telephony.receiver",
    "telephony.uplink",
    "metrics",
    "experiments",
    "obs",
    "service",
)

#: Modules that belong to a layer without sharing its name.
ALIASES = {"sim.batch_cell": "sim.batch"}

#: Slot for callbacks defined outside every layer.
OTHER = len(LAYERS)

ENGINE = LAYERS.index("sim.engine")
UE = LAYERS.index("lte.ue")

#: ``Simulation`` methods whose third positional argument is a callback.
CALLBACK_APIS = ("schedule", "every", "every_while")

#: Root module functions, as (module, attribute).
ROOTS = (("repro.experiments.runner", "run_grid"), ("repro.service.jobs", "execute_job"))

_MARK = "__bench_layer__"


def layer_index(module: Optional[str]) -> Optional[int]:
    """Index into :data:`LAYERS` of a module name, or None."""
    if not module or not module.startswith("repro."):
        return None
    name = module[len("repro."):]
    name = ALIASES.get(name, name)
    for index, layer in enumerate(LAYERS):
        if name == layer or name.startswith(layer + "."):
            return index
    return None


def layer_modules() -> List[types.ModuleType]:
    """Import and return every module that belongs to a layer."""
    import repro

    modules = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if layer_index(info.name) is not None:
            modules.append(importlib.import_module(info.name))
    return modules


class Tracer:
    """Span stack, per-layer accumulators and the patches that feed them.

    ``cost`` is :func:`calibrate`'s result.  When a span ends, its duration
    plus the calibrated cost of its wrapper is charged to the span that
    called it, so the caller's self time comes out without the wrapper.
    """

    def __init__(self, cost: Optional[Dict[str, float]] = None) -> None:
        self.cost = dict(cost or {"wrapper_ns": 0.0, "event_ns": 0.0, "prep_ns": 0.0})
        slots = len(LAYERS) + 1
        #: Self time, spans entered and callback spans entered, per slot.
        self.self_ns = [0.0] * slots
        self.calls = [0] * slots
        self.events = [0] * slots
        #: Callback-API calls (their bookkeeping is charged to sim.engine).
        self.preps = 0
        self.session_ticks = 0
        self.batched_sessions = 0
        self.simulated_subframes = 0.0
        self._child: List[float] = []
        self._callbacks: Dict[object, Tuple[int, object]] = {}
        self._ue_periods: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.patches: List[Tuple[object, str, object]] = []
        self.event = self._make_event()

    # -- wrappers --------------------------------------------------------

    def span(self, fn: Callable, layer: int) -> Callable:
        """``fn`` timed as a span of ``layer``."""
        child, self_ns, calls = self._child, self.self_ns, self.calls
        charge = self.cost["wrapper_ns"]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[layer] += elapsed - child.pop()
                calls[layer] += 1
                if child:
                    child[-1] += elapsed + charge

        setattr(traced, _MARK, layer)
        return traced

    def _make_event(self) -> Callable:
        """The trampoline every engine callback is dispatched through."""
        child, self_ns, calls, events = self._child, self.self_ns, self.calls, self.events
        charge = self.cost["event_ns"]
        clock = time.perf_counter_ns

        def event(layer, callback, *args):
            child.append(0)
            start = clock()
            try:
                return callback(*args)
            finally:
                elapsed = clock() - start
                self_ns[layer] += elapsed - child.pop()
                calls[layer] += 1
                events[layer] += 1
                if child:
                    child[-1] += elapsed + charge

        return event

    def _resolve(self, callback) -> Tuple[int, object]:
        """(layer, callable) for an engine callback.

        A callback that is already a traced method is unwrapped, so it is
        timed once, as an event, not twice.
        """
        func = getattr(callback, "__func__", callback)
        entry = self._callbacks.get(func)
        if entry is None:
            layer = getattr(func, _MARK, None)
            if layer is not None:
                entry = (layer, func.__wrapped__)
            else:
                found = layer_index(getattr(func, "__module__", None))
                entry = (OTHER if found is None else found, None)
            # A cached lambda or closure would keep the simulation it
            # captured alive for the rest of the rep.
            if "<" not in getattr(func, "__qualname__", "<"):
                self._callbacks[func] = entry
        layer, inner = entry
        if inner is not None:
            bound = getattr(callback, "__self__", None)
            callback = inner if bound is None else types.MethodType(inner, bound)
        return layer, callback

    def callback_api(self, original: Callable, track_ue: bool = False) -> Callable:
        """``Simulation.schedule``-like method routing its callback through
        :attr:`event`; ``track_ue`` records UE subframe periods."""
        event, resolve, child = self.event, self._resolve, self._child
        charge = self.cost["prep_ns"]
        periods = self._ue_periods
        tracer = self

        @functools.wraps(original)
        def prep(sim, when, callback, *args, **kwargs):
            tracer.preps += 1
            child[-1] += charge
            layer, callback = resolve(callback)
            if track_ue and layer == UE:
                periods.setdefault(sim, []).append(when)
            return original(sim, when, event, layer, callback, *args, **kwargs)

        return prep

    def _count_sim_run(self, run: Callable) -> Callable:
        """Accumulate the UE subframes each ``Simulation.run`` simulates."""
        periods = self._ue_periods
        tracer = self

        @functools.wraps(run)
        def counted(sim, *args, **kwargs):
            before = sim.now
            try:
                return run(sim, *args, **kwargs)
            finally:
                elapsed = sim.now - before
                for period in periods.get(sim, ()):
                    tracer.simulated_subframes += elapsed / period

        return counted

    def _count_batch_run(self, run: Callable, original: Callable) -> Callable:
        """Accumulate the sessions and session-ticks of each cohort run."""
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(run)
        def counted(sim, *args, **kwargs):
            result = run(sim, *args, **kwargs)
            bound = signature.bind(sim, *args, **kwargs)
            bound.apply_defaults()
            duration = bound.arguments["duration"]
            if duration is None:
                duration = sim.configs[0].duration
            ticks = round(bound.arguments["warmup"] * 1000) + round(duration * 1000)
            tracer.batched_sessions += sim.n
            tracer.session_ticks += sim.n * ticks
            return result

        return counted

    # -- patching --------------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self.patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_member(self, cls: type, name: str, member, layer: int):
        """The replacement for one class attribute, or None to leave it.

        Generator functions are left alone: their body runs lazily, inside
        whichever span iterates them.
        """
        if isinstance(member, (staticmethod, classmethod)):
            func = member.__func__
            if inspect.isgeneratorfunction(func):
                return None
            return type(member)(self.span(func, layer))
        if not inspect.isfunction(member) or inspect.isgeneratorfunction(member):
            return None
        if cls.__name__ == "Simulation" and layer == ENGINE:
            if name in CALLBACK_APIS:
                prep = self.callback_api(member, track_ue=name == "every_while")
                return self.span(prep, layer)
            if name == "run":
                return self._count_sim_run(self.span(member, layer))
        if cls.__name__ == "BatchedSimulation" and name == "run":
            return self._count_batch_run(self.span(member, layer), member)
        return self.span(member, layer)

    def install(self) -> None:
        """Wrap every layer's public methods, engine callbacks and roots."""
        if self.patches:
            raise RuntimeError("tracer already installed")
        for module in layer_modules():
            layer = layer_index(module.__name__)
            for cls in list(vars(module).values()):
                if not isinstance(cls, type) or cls.__module__ != module.__name__:
                    continue
                for name, member in list(vars(cls).items()):
                    if name.startswith("_") and name != "__init__":
                        continue
                    wrapped = self._wrap_member(cls, name, member, layer)
                    if wrapped is not None:
                        self._patch(cls, name, wrapped)
        for module_name, name in ROOTS:
            module = importlib.import_module(module_name)
            self._patch(module, name, self.span(getattr(module, name), layer_index(module_name)))

    def uninstall(self) -> None:
        """Put back every original attribute, newest patch first."""
        while self.patches:
            owner, name, original = self.patches.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------

    def report(self, traced_wall_s: float) -> dict:
        """Per-layer calls, self time and share, plus counters.

        A layer whose self time the wrapper charges overshoot is clipped
        at zero.  ``unattributed_share`` is the part of the traced wall
        time, less the calibrated cost of every wrapper, that is in no
        layer's self time.
        """
        self_ns = [max(0.0, value) for value in self.self_ns]
        events = sum(self.events)
        overhead_ns = (
            (sum(self.calls) - events) * self.cost["wrapper_ns"]
            + events * self.cost["event_ns"]
            + self.preps * self.cost["prep_ns"]
        )
        program_ns = traced_wall_s * 1e9 - overhead_ns
        attributed = sum(self_ns[:OTHER])
        layers = {
            layer: {
                "calls": self.calls[index],
                "self_s": self_ns[index] / 1e9,
                "share": self_ns[index] / attributed if attributed else 0.0,
            }
            for index, layer in enumerate(LAYERS)
        }
        return {
            "layers": layers,
            "other_self_s": self_ns[OTHER] / 1e9,
            "events": events,
            "ue_subframes": self.events[UE],
            "simulated_subframes": round(self.simulated_subframes),
            "session_ticks": self.session_ticks,
            "batched_sessions": self.batched_sessions,
            "unattributed_share": (program_ns - attributed) / program_ns,
            "overhead_s": overhead_ns / 1e9,
            "cost": dict(self.cost),
        }


def _noop(value):
    return value


def _schedule_stub(sim, when, callback, *args):
    return None


def calibrate(calls: int = 20000, repeats: int = 7) -> Dict[str, float]:
    """Median cost, in ns, of one span wrapper, one callback trampoline and
    one callback-API bookkeeping step, each measured inside a span the way
    they occur in a traced run."""
    probe = Tracer()
    span = probe.span(_noop, 0)
    event = probe.event
    prep = probe.callback_api(_schedule_stub)
    clock = time.perf_counter_ns
    counts = range(calls)

    def loops():
        start = clock()
        for i in counts:
            _noop(i)
        bare = clock() - start
        start = clock()
        for i in counts:
            span(i)
        spanned = clock() - start
        start = clock()
        for i in counts:
            event(0, _noop, i)
        evented = clock() - start
        start = clock()
        for i in counts:
            _schedule_stub(None, 0.0, _noop, i)
        direct = clock() - start
        start = clock()
        for i in counts:
            prep(None, 0.0, _noop, i)
        prepped = clock() - start
        return (spanned - bare) / calls, (evented - bare) / calls, (prepped - direct) / calls

    outer = probe.span(loops, 1)
    samples = [outer() for _ in range(repeats)]
    return {
        "wrapper_ns": statistics.median(s[0] for s in samples),
        "event_ns": statistics.median(s[1] for s in samples),
        "prep_ns": statistics.median(s[2] for s in samples),
    }
