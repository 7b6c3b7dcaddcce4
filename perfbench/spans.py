"""Call spans around wenzl_lab's public functions, for the traced run.

``Tracer.install()`` replaces every public function of the traced modules
at every name in the package that refers to it (``vertex.onb_of_irrep``,
``channel.max_schmidt_optimizer``, ``cli.moe_bracket``, ...) with a wrapper
that records one span per call: name, start, end and the enclosing span.
The spans stay in memory until ``uninstall()``; ``layer_metrics`` then
turns them into the per-layer metrics of BENCHMARK.json.

Timing from outside cannot see inside a call: cache hits and misses and
the optimizer's losing restarts stay invisible. Builds are therefore
derived from the distinct keys requested after a cold start.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

MODULES = ("qnum", "jones_wenzl", "vertex", "entangle", "channel", "cli")

# What a call to each cached function builds, from its leading arguments
# (params, level) or (params, triple).
_KEYED = {
    "jones_wenzl.jw_projection": lambda p, k: (p.n, k),
    "jones_wenzl.onb_of_irrep": lambda p, k: (p.n, k),
    "vertex.isometry": lambda p, t: (p.n, t.k, t.l, t.m),
}
_OPTIMIZER = "entangle.max_schmidt_optimizer"


class Span:
    __slots__ = ("ident", "name", "parent", "start", "end", "key", "outcome")

    def __init__(self, ident, name, parent, start):
        self.ident = ident
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.key = None
        self.outcome = None

    def as_dict(self) -> dict:
        return {
            "id": self.ident,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._replaced: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap each public function of MODULES wherever the package binds it."""
        names = {}
        for short in MODULES:
            module = importlib.import_module(f"wenzl_lab.{short}")
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    names[value] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "wenzl_lab" and not modname.startswith("wenzl_lab."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._replaced.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()

    def _wrap(self, name: str, fn):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter
        keyed = _KEYED.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(next(ids), name, stack[-1].ident if stack else None, clock())
            if keyed is not None:
                span.key = keyed(*list(signature.bind(*args, **kwargs).arguments.values())[:2])
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if name == _OPTIMIZER:
                span.outcome = (result.sweeps, result.converged)
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children run in their parent's thread, one after another, so the time
    they cover is the sum of their durations.
    """
    own = {s.ident: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], dim_irrep, stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics named in BENCHMARK.json, from one traced pass.

    ``dim_irrep(n, k)`` gives [k+1]_q at rank n, for the computed bytes.
    """
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    keys: dict[str, set] = defaultdict(set)
    sweeps = converged = 0
    for s in spans:
        self_s[s.name] += own[s.ident]
        calls[s.name] += 1
        if s.key is not None:
            keys[s.name].add(s.key)
        if s.outcome is not None:
            sweeps += s.outcome[0]
            converged += int(s.outcome[1])

    levels = keys["jones_wenzl.jw_projection"]
    bases = keys["jones_wenzl.onb_of_irrep"]
    isos = keys["vertex.isometry"]
    jw_calls = calls["jones_wenzl.jw_projection"] + calls["jones_wenzl.onb_of_irrep"]
    opt_calls = calls[_OPTIMIZER]
    out = {}
    for name in (
        "jones_wenzl.onb_of_irrep",
        "jones_wenzl.jw_projection",
        "vertex.isometry",
        _OPTIMIZER,
        "channel.moe_bracket",
    ):
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    out.update(
        {
            "jones_wenzl.bases_built": len(bases),
            "jones_wenzl.levels_built": len(levels),
            "jones_wenzl.dense_bytes": sum(8 * n ** (2 * k) for n, k in levels),
            "jones_wenzl.reuse_ratio": (
                1.0 - (len(levels) + len(bases)) / jw_calls if jw_calls else 0.0
            ),
            "vertex.isometries_built": len(isos),
            "vertex.reduced_bytes": sum(
                8 * n ** (l + m) * round(dim_irrep(n, k)) for n, k, l, m in isos
            ),
            "entangle.winning_sweeps": sweeps,
            "entangle.converged_ratio": converged / opt_calls if opt_calls else 0.0,
            "entangle.rd_certificate.self_s": self_s["entangle.rd_certificate"],
            "cli.main.self_s": self_s["cli.main"],
            "cli.emit.self_s": self_s["cli.emit"],
            "cli.stdout_bytes": stdout_bytes,
            "qnum.self_s": sum(v for k, v in self_s.items() if k.startswith("qnum.")),
        }
    )
    return out
