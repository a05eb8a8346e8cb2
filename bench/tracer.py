"""Layer tracing for the cdcalc benchmark, applied from outside the package.

`Tracer.install()` replaces the public entry points of `cdcalc.nsring`,
`cdcalc.catalog`, `cdcalc.checks`, `cdcalc.conelab` and `cdcalc.cli` with
wrappers, in the defining module and wherever another cdcalc module holds
the same function under a re-imported name (so `checks.pushpull` and
`cli.pair` are traced too).  The ring product `NSClass.__mul__` gets a span
and `NSClass.__init__` a call counter.  `uninstall()` puts every original
back.  Nothing under `src/` is modified.

Each wrapped call yields a span (name, start_ns, end_ns, parent, op id).
Self time -- a span's duration minus the part covered by its child spans --
and exact call and size counts are aggregated as calls return; the spans
themselves are kept in memory only while `recording` is set, and written
out once by `dump`.  Only public attributes are read, so the tracer keeps
working when a module's internals change; an entry point that no longer
exists is simply not wrapped and reads as zero.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import cdcalc
from cdcalc import catalog, checks, cli, conelab, nsring

MODULES = {"nsring": nsring, "catalog": catalog, "checks": checks, "conelab": conelab, "cli": cli}

# Check functions are reported under the check id they emit.
CHECK_IDS = {
    "check_pencil_pairings": "pencil-pairings",
    "check_pushpull_closed_form": "pushpull-closed-form",
    "check_kernel_decomposition": "kernel-decomposition",
    "check_mult_and_chern": "mult-chern",
    "check_plane_quintic": "plane-quintic",
}

# Called hundreds of thousands of times per sweep: counted, not spanned.
COUNT_ONLY = {"catalog.binom"}

CLI_ENTRY_POINTS = (
    "main", "build_parser", "parse_class", "resolve_class",
    "cmd_class", "cmd_eval", "cmd_pair", "cmd_pushpull", "cmd_cone", "cmd_verify",
)


def _entry_points():
    """(module short name, attribute, span name) for every public function."""
    for short, module in MODULES.items():
        names = CLI_ENTRY_POINTS if module is cli else getattr(module, "__all__", ())
        for attr in names:
            fn = getattr(module, attr, None)
            if not callable(fn) or isinstance(fn, type):
                continue
            label = CHECK_IDS.get(attr, attr) if module is checks else attr
            yield short, attr, f"{short}.{label}"


def _term_count(c, *_rest) -> int:
    return len(c.terms()) if isinstance(c, nsring.NSClass) else 0


class Tracer:
    def __init__(self):
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.sizes: Counter = Counter()
        self.spans: list = []
        self.recording = False
        self.op_id = -1
        self._stack: list = []  # frames [start_ns, child_ns, span index]
        self._saved: list = []  # (owner, attribute, original)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, size=None):
        clock = time.perf_counter_ns
        stack, spans, calls, self_ns, sizes = self._stack, self.spans, self.calls, self.self_ns, self.sizes
        size_key = size and size[0]
        size_fn = size and size[1]

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if size_fn is not None:
                sizes[size_key] += size_fn(*args)
            index = -1
            if self.recording:
                index = len(spans)
                spans.append(None)
            frame = [clock(), 0, index]
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    spans[index] = (name, frame[0], end, parent, self.op_id)

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for short, attr, name in _entry_points():
            fn = getattr(MODULES[short], attr)
            if name in COUNT_ONLY:
                replacements[id(fn)] = (fn, self._counter(name, fn))
            elif name == "catalog.pushpull":
                replacements[id(fn)] = (fn, self._span(name, fn, ("catalog.pushpull.terms_in", _term_count)))
            else:
                replacements[id(fn)] = (fn, self._span(name, fn))
        for module in (cdcalc, *MODULES.values()):
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        cls = nsring.NSClass

        def term_pairs(a, b):
            return _term_count(a) * _term_count(b)

        for attr, wrapper in (
            ("__mul__", self._span("nsring.mul", cls.__mul__, ("nsring.mul.term_pairs", term_pairs))),
            ("__init__", self._counter("nsring.init", cls.__init__)),
        ):
            self._saved.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results --------------------------------------------------------------

    def dump(self, path, stamp: dict, passes: int) -> None:
        """Write the recorded spans and the per-pass aggregates as JSON."""
        names = sorted(set(self.calls) | set(self.sizes))
        payload = {
            "stamp": stamp,
            "traced_passes": passes,
            "aggregates": {
                name: {
                    "calls": self.calls.get(name, 0),
                    "self_us": self.self_ns.get(name, 0) / 1000,
                    "size": self.sizes.get(name, 0),
                }
                for name in names
            },
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": [s for s in self.spans if s is not None],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
            handle.write("\n")
