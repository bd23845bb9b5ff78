"""Call spans around chanid's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the traced modules
with a timing wrapper.  The modules import each other by name
(``from .identify import reconstruct``), so the wrapper is set on every
``chanid`` module binding that refers to the function, not only on the
defining module.  The ``__post_init__`` of the two validating value types
is wrapped on the class, so constructions are counted where they happen.
``uninstall`` restores the originals.  Nothing under ``src/`` is edited.

Spans stay in memory in flat arrays until the run ends: name, start, end,
parent span, root span (the ``cli_main`` call that caused it) and, for
the functions whose cost depends on it, the input dimension.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "harness", "identify", "metrics", "channel", "linalg", "serialize")
VALUE_TYPES = (("channel", "KrausChannel"), ("linalg", "DensityOperator"))

# functions whose per-call medians are reported per input dimension
_DIM_OF = {
    "identify.reconstruct": lambda args: args[1].dim,
    "identify.forward_map": lambda args: args[0].dim_in,
    "metrics.channel_fidelity": lambda args: args[0].dim_in,
    "metrics.cb_distance_interval": lambda args: args[0].dim_in,
    "metrics.cb_objective": lambda args: args[0].dim_in,
}
# serialize functions whose JSON object is kept to count the bytes processed
_DECODERS = ("serialize.channel_from_json", "serialize.density_from_json", "serialize.reference_from_json")
_ENCODERS = ("serialize.channel_to_json", "serialize.norm_interval_to_json")
PAYLOAD_SAMPLES = 64  # JSON objects kept per function: enough for a median, bounded memory


class Tracer:
    """Records spans while ``recording`` is true; calls pass straight through otherwise."""

    def __init__(self, package: str = "chanid"):
        self.package = package
        self.recording = False
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.root = array("q")
        self.dim = array("q")
        self.payload: dict[int, object] = {}
        self._kept: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.names)

    def _wrap(self, name: str, fn):
        dim_of = _DIM_OF.get(name)
        stack = self._stack

        def keep(sid, obj):
            if self._kept.get(name, 0) < PAYLOAD_SAMPLES:
                self._kept[name] = self._kept.get(name, 0) + 1
                self.payload[sid] = obj

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = len(self.names)
            parent = stack[-1] if stack else -1
            self.names.append(name)
            self.parent.append(parent)
            self.root.append(self.root[parent] if parent >= 0 else sid)
            dim = -1
            if dim_of is not None:
                try:
                    dim = int(dim_of(args))
                except (IndexError, AttributeError):
                    pass
            self.dim.append(dim)
            if name in _DECODERS and args:
                keep(sid, args[0])
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            if name in _ENCODERS:
                keep(sid, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: sys.modules[f"{self.package}.{layer}"] for layer in LAYERS}
        bindings = [
            m for key, m in sys.modules.items()
            if key == self.package or key.startswith(self.package + ".")
        ]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for owner in bindings:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._patches.append((owner, key, fn))
                            setattr(owner, key, wrapped)
        for layer, cls_name in VALUE_TYPES:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__["__post_init__"]
            self._patches.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(f"{layer}.{cls_name}", original)

    @contextlib.contextmanager
    def active(self):
        self.recording = True
        try:
            yield
        finally:
            self.recording = False

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def payload_bytes(self, sid: int) -> int:
        return len(json.dumps(self.payload[sid]))

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i], "root": self.root[i], "dim": self.dim[i],
                }) + "\n")


class SpanSummary:
    """Durations, self times and nesting facts derived from a tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        n = len(tracer)
        self.duration = [tracer.end[i] - tracer.start[i] for i in range(n)]
        self.child_time = [0.0] * n
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                self.child_time[p] += self.duration[i]
        self.by_name: dict[str, list[int]] = {}
        for i, name in enumerate(tracer.names):
            self.by_name.setdefault(name, []).append(i)

    def ids(self, name: str, roots: set[int], dim: int | None = None) -> list[int]:
        t = self.tracer
        return [
            i for i in self.by_name.get(name, [])
            if t.root[i] in roots and (dim is None or t.dim[i] == dim)
        ]

    def self_time(self, i: int) -> float:
        return self.duration[i] - self.child_time[i]

    def outermost(self, ids: list[int]) -> list[int]:
        """Drop spans nested inside a span of the same name (no double counting)."""
        t = self.tracer
        out = []
        for i in ids:
            p = t.parent[i]
            while p >= 0 and t.names[p] != t.names[i]:
                p = t.parent[p]
            if p < 0:
                out.append(i)
        return out
