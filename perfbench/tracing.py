"""Spans and counters recorded around calls into the blechannel layers.

The benchmark traces from outside the package: it replaces a layer
function with a wrapper in every blechannel module that holds a reference
to it.  Patching only the defining module would record nothing, because
``harness`` and ``cli`` import the layer functions by name and call their
own references.

A span holds its name, start, end, parent span and iteration id.  Spans are
kept in memory and written out when the run ends.  Counts are computed
after the wrapped call returns, inside a ``perfbench.count`` span, so the
counting cost is charged to neither the layer nor its caller.
"""

from __future__ import annotations

import contextlib
import json
import sys
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

COUNT_SPAN = "perfbench.count"
ITERATION_SPAN = "perfbench.iteration"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int


class Tracer:
    """Span and counter store for one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.iteration = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        sp = Span(name, perf_counter(), 0.0, parent, self.iteration)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    def add(self, counts: dict[str, int]) -> None:
        self.counts[self.iteration].update(counts)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, sp in enumerate(self.spans):
                f.write(json.dumps({"id": i, **asdict(sp)}) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return [
        (sp.end - sp.start) - covered(children[i], sp.start, sp.end)
        for i, sp in enumerate(spans)
    ]


def self_time_by_name(spans: list[Span]) -> dict[int, dict[str, float]]:
    """iteration -> span name -> summed self time."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sp, st in zip(spans, self_times(spans)):
        out[sp.iteration][sp.name] += st
    return out


# --- what each layer boundary counts -------------------------------------


def _events(args, kwargs, result):
    return {"simkit.events": len(result)}


def _windows(args, kwargs, result):
    return {"simkit.windows": len(result)}


def _packets(args, kwargs, result):
    return {"simkit.packets": len(result)}


def _reception(args, kwargs, result):
    events = kwargs["events"] if "events" in kwargs else args[0]
    return {
        "simkit.beacons": sum(len(ev.channels) for ev in events),
        "simkit.packets": len(result),
    }


def _labels(args, kwargs, result):
    kinds = Counter(cp.result.kind.value for cp in result)
    return {
        "detector.packets": len(result),
        "detector.channel": kinds["channel"],
        "detector.guard": kinds["guard"],
        "detector.pre_start": kinds["pre-start"],
    }


def _bytes_out(args, kwargs, result):
    return {"harness.trace_bytes_out": len(result.encode("utf-8"))}


def _bytes_in(args, kwargs, result):
    text = kwargs["text"] if "text" in kwargs else args[0]
    return {"harness.trace_bytes_in": len(text.encode("utf-8"))}


def _samples(args, kwargs, result):
    return {"ranging.samples": result.n_samples}


# (module, function) -> count function.  The span name is "<module>.<function>".
TRACED = {
    ("simkit", "gen_advertising"): _events,
    ("simkit", "gen_scan_windows"): _windows,
    ("simkit", "simulate_reception"): _reception,
    ("simkit", "attach_rssi"): None,
    ("detector", "classify_trace"): _labels,
    ("harness", "simulate_scenario"): None,
    ("harness", "classification_samples"): None,
    ("harness", "build_accuracy_curve"): None,
    ("harness", "run_compatibility_matrix"): None,
    ("harness", "trace_to_text"): _bytes_out,
    ("harness", "trace_from_text"): _bytes_in,
    ("ranging", "calibrate"): _samples,
    ("ranging", "compare_estimators"): None,
    ("cli", "main"): None,
}

# Counts the untimed run keeps: each is a len() of a returned list, so the
# end-to-end figures can report packets without paying for the others.
COUNTED = {
    ("simkit", "gen_advertising"): _events,
    ("simkit", "gen_scan_windows"): _windows,
    ("simkit", "simulate_reception"): _packets,
}


def _spanned(tracer: Tracer, name: str, fn, count):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            with tracer.span(COUNT_SPAN):
                tracer.add(count(args, kwargs, result))
        return result

    return wrapper


def _counted(tracer: Tracer, fn, count):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.add(count(args, kwargs, result))
        return result

    return wrapper


@contextlib.contextmanager
def instrumented(tracer: Tracer, timed: bool):
    """Patch the layer functions in every blechannel module that names them.

    ``timed`` installs span wrappers on every function in ``TRACED``;
    otherwise only the ``COUNTED`` length counters go in.  The original
    functions are restored on exit.
    """
    modules = [
        m for n, m in sys.modules.items() if n == "blechannel" or n.startswith("blechannel.")
    ]
    table = TRACED if timed else COUNTED
    patched = []
    try:
        for (mod_name, fn_name), count in table.items():
            original = getattr(sys.modules[f"blechannel.{mod_name}"], fn_name)
            if timed:
                wrapper = _spanned(tracer, f"{mod_name}.{fn_name}", original, count)
            else:
                wrapper = _counted(tracer, original, count)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    patched.append((mod, fn_name, original))
        yield
    finally:
        for mod, fn_name, original in reversed(patched):
            setattr(mod, fn_name, original)
