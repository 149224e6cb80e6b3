"""Per-layer tracing of eds235 from outside the package.

``install()`` imports the engine modules in dependency order and replaces
their public functions, plus a few named methods, with timing wrappers.
A wrapper sits outside any ``lru_cache``, so a cache hit counts as one
call that takes almost no time.  Every module that imported a name with
``from .x import name`` gets the wrapper rebound, so calls between modules
are seen too.  Arithmetic on ``Scalar`` and ``QuadExt`` is only counted,
because timing tens of millions of tiny calls would swamp the run.

A function's self time is its wall time minus the time spent inside
wrapped callees.  Spans (name, label, start, end, parent) are kept in
memory and written out by ``dump``; only the first ``SPAN_CAP`` calls of
each function get a span, which bounds memory while keeping every stage.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

MODULES = ["scalar", "exterior", "liemodel", "geometry", "jet", "tableau",
           "pipeline", "examples"]

# Public methods worth their own per-layer numbers (module -> class.method).
METHODS = {
    "scalar": ["Scalar.parse", "Scalar.substitute"],
    "exterior": ["Form.d", "Form.wedge", "CoframedContext.substitute_generator"],
    "liemodel": ["MatrixLieAlgebra.coords_of"],
}

ARITH = {
    "scalar": {
        "Scalar": ["__add__", "__sub__", "__mul__", "__truediv__"],
        "QuadExt": ["__add__", "__sub__", "__mul__", "__truediv__"],
    },
}

SPAN_CAP = 64


class Tracer:
    def __init__(self):
        self.stats: dict = {}      # name -> [calls, self seconds]
        self.spans: list = []      # [name, label, start, end, parent]
        self.arith_calls = 0
        self._frames: list = []    # [child seconds, nearest recorded span]

    def timed(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        frames = self._frames
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            # frame[1] is the nearest recorded span at or above this call
            parent = frames[-1][1] if frames else None
            index = None
            if stat[0] < SPAN_CAP:
                index = len(spans)
                spans.append([name, _label(args, kwargs), 0.0, 0.0, parent])
            frame = [0.0, parent if index is None else index]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                total = end - start
                stat[0] += 1
                stat[1] += total - frame[0]
                if frames:
                    frames[-1][0] += total
                if index is not None:
                    spans[index][2] = start
                    spans[index][3] = end

        return wrapper

    def counted(self, fn):
        tracer = self

        def wrapper(a, b):
            tracer.arith_calls += 1
            return fn(a, b)

        return wrapper

    def dump(self, path) -> None:
        payload = {
            "stats": {k: {"calls": c, "self_s": s}
                      for k, (c, s) in sorted(self.stats.items())},
            "arith_calls": self.arith_calls,
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _label(args, kwargs) -> str:
    """Short text of the string arguments, such as a stage name."""
    parts = [a for a in args if isinstance(a, str)]
    parts += [f"{k}={v}" for k, v in kwargs.items() if isinstance(v, str)]
    return ",".join(parts)[:40]


def _public_functions(module) -> dict:
    out = {}
    for attr, value in vars(module).items():
        if attr.startswith("_") or inspect.isclass(value):
            continue
        inner = getattr(value, "__wrapped__", value)
        if callable(value) and getattr(inner, "__module__", None) == module.__name__:
            out[attr] = value
    return out


def install(modules=MODULES) -> Tracer:
    """Import the engine with every public function wrapped; returns the tracer.

    ``modules`` is a prefix of ``MODULES``; the rest stay unimported.
    Must run before any other import of ``eds235``: names that modules copy
    with ``from .x import name`` at import time are rebound here, and
    ``pipeline`` calls ``sp6_model()`` while it is being imported.
    """
    tracer = Tracer()
    originals: dict = {}   # id(original) -> wrapper
    imported = []
    for short in modules:
        module = importlib.import_module(f"eds235.{short}")
        imported.append(module)
        for attr, fn in _public_functions(module).items():
            if id(fn) in originals:
                continue
            wrapper = tracer.timed(f"{short}.{attr}", fn)
            originals[id(fn)] = wrapper
            setattr(module, attr, wrapper)
        for path in METHODS.get(short, []):
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(tracer.timed(f"{short}.{path}", raw.__func__)))
            else:
                setattr(cls, meth, tracer.timed(f"{short}.{path}", raw))
        for cls_name, meths in ARITH.get(short, {}).items():
            cls = getattr(module, cls_name)
            for meth in meths:
                setattr(cls, meth, tracer.counted(cls.__dict__[meth]))
        # rebind names copied into modules imported so far
        for other in imported:
            for attr, value in list(vars(other).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper is not value:
                    setattr(other, attr, wrapper)
    return tracer
