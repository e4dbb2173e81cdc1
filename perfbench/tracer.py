"""Run the tagsplit CLI in this process with timing wrappers installed.

    python3 perfbench/tracer.py RECORD MODE CLI-ARG...

MODE is ``plain`` or ``traced``.  Both modes time the sim layer's
trace-folding calls (public ``tagsplit.sim`` functions with a ``trace``
parameter) from entry to exit and sum the accesses of the ``SimStats``
they return.  ``plain`` mode also samples the host's speed with
``SpeedProbe`` and takes the probe's time out of the sim time and its
memory out of the peak.  ``traced`` mode also records a span for every public
function and constructor of each layer module, rebound at every module
that imports it.  Spans stay in memory until the CLI returns; then
RECORD (JSON) and, when traced, RECORD.npz are written.

All times are ``time.perf_counter`` readings, which on Linux is
CLOCK_MONOTONIC and therefore comparable with the launching process.
"""

from __future__ import annotations

import inspect
import json
import signal
import sys
import time
from array import array

LAYERS = ("traces", "sim", "model", "optimum", "costs", "cli")

clock = time.perf_counter


def public_names(module) -> list[str]:
    """The module's ``__all__``, or the public names it defines itself."""
    names = getattr(module, "__all__", None)
    if names is not None:
        return list(names)
    return [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
    ]


def trace_folders(sim_module) -> list[str]:
    """Public sim functions that take a ``trace`` argument (the access loops)."""
    found = []
    for name in public_names(sim_module):
        obj = getattr(sim_module, name)
        if callable(obj) and not isinstance(obj, type):
            if "trace" in inspect.signature(obj).parameters:
                found.append(name)
    return found


def rebind(original, replacement) -> None:
    """Point every tagsplit module attribute bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "tagsplit" or name.startswith("tagsplit.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Spans:
    """Nested spans (name, start, end, parent) kept in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        names, parents, starts, ends, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)

        def spanned(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        spanned.__wrapped__ = fn
        return spanned

    def install(self, modules: dict) -> None:
        """Wrap each layer's public functions and constructors."""
        for layer, module in modules.items():
            for name in public_names(module):
                obj = getattr(module, name)
                label = f"{layer}.{name}"
                if isinstance(obj, type):
                    init = obj.__dict__.get("__init__")
                    if init is not None and not issubclass(obj, BaseException):
                        obj.__init__ = self.wrap(label, init)
                elif callable(obj):
                    rebind(obj, self.wrap(label, obj))

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class SpeedProbe:
    """Samples the host's speed while the CLI runs.

    Every ``period`` seconds of host time a SIGALRM handler runs a fixed
    slice of work like the CLI's: 10,000 accesses to a pure-Python 8-way
    LRU cache of 2^14 sets, a few MiB that outgrow the CPU's private
    caches as a simulated cache does.  The mean time of a slice says how
    fast the host ran during the invocation.  ``seconds`` is all the time
    the probe took, set-up included, to be taken out of the CLI's times,
    and ``resident_kib`` the memory it holds, to be taken out of its peak.
    """

    SETS = 1 << 14

    def __init__(self, period: float = 0.1):
        self.period = period
        self.seconds = 0.0
        self.times = array("d")
        self.resident_kib = 0
        self._sets: list[list[int]] = []
        self._x = 12345

    def _slice(self) -> float:
        t0 = clock()
        sets, x, mask = self._sets, self._x, self.SETS - 1
        for _ in range(10_000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            # 32 tags per set, above the small-int cache like real tags
            ways, tag = sets[x & mask], 1024 | (x >> 26)
            if tag in ways:
                ways.remove(tag)
            elif len(ways) == 8:
                ways.pop(0)
            ways.append(tag)
        self._x = x
        return clock() - t0

    def _sample(self, signum, frame) -> None:
        took = self._slice()
        self.times.append(took)
        self.seconds += took

    def start(self) -> None:
        t0 = clock()
        before = resident_kib()
        self._sets = [[] for _ in range(self.SETS)]
        for _ in range(24):  # fill the ways
            self._slice()
        self.resident_kib = resident_kib() - before
        self.seconds += clock() - t0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.times:  # an invocation shorter than one period
            self._sample(signal.SIGALRM, None)

    def record(self) -> dict:
        return {
            "probe_s": self.seconds,
            "probe_samples": len(self.times),
            "probe_mean_s": sum(self.times) / len(self.times) if self.times else 0.0,
        }


class FoldTimer:
    """Host time and simulated counters of the outermost trace-folding calls,
    less the time ``probe`` took during them."""

    def __init__(self, probe: SpeedProbe | None = None):
        self.probe = probe
        self.seconds = 0.0
        self.accesses = 0
        self.hits = 0
        self.survivors = 0
        self._depth = 0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth = 1
            probed = self.probe.seconds if self.probe else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds += clock() - t0
                if self.probe:
                    self.seconds -= self.probe.seconds - probed
                self._depth = 0
            self.accesses += getattr(result, "accesses", 0)
            self.hits += getattr(result, "hits", 0)
            histogram = getattr(result, "matched_way_histogram", ())
            self.survivors += sum(s * count for s, count in enumerate(histogram))
            return result

        timed.__wrapped__ = fn
        return timed

    def install(self, sim_module) -> None:
        for name in trace_folders(sim_module):
            obj = getattr(sim_module, name)
            rebind(obj, self.wrap(obj))

    def record(self) -> dict:
        return {
            "sim_s": self.seconds,
            "accesses": self.accesses,
            "hits": self.hits,
            "survivors": self.survivors,
        }


def _status_kib(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field):
                return int(line.split()[1])
    raise OSError(f"no {field} in /proc/self/status")


def peak_rss_kib() -> int:
    """High-water resident set of this process's own address space.

    Unlike ru_maxrss, which on Linux also counts the launching process's
    high-water mark when the child was spawned with vfork, VmHWM belongs
    to the address space created by exec.
    """
    return _status_kib("VmHWM:")


def resident_kib() -> int:
    return _status_kib("VmRSS:")


def main(argv: list[str]) -> int:
    record_path, mode, cli_args = argv[1], argv[2], argv[3:]
    probe = SpeedProbe() if mode == "plain" else None
    spans = Spans() if mode == "traced" else None
    timer = FoldTimer(probe)
    if probe is not None:
        probe.start()  # before the imports, so that they are sampled too
    try:
        import importlib

        modules = {layer: importlib.import_module(f"tagsplit.{layer}") for layer in LAYERS}
        if spans is not None:
            spans.install(modules)
        timer.install(modules["sim"])
        return modules["cli"].main(cli_args)
    finally:
        if probe is not None:
            probe.stop()
        if spans is not None:
            spans.save(record_path + ".npz")
        record = dict(timer.record(), peak_rss_kib=peak_rss_kib())
        if probe is not None:
            record.update(probe.record())
            record["peak_rss_kib"] -= probe.resident_kib
        with open(record_path, "w", encoding="ascii") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
