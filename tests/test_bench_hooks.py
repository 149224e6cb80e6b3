"""The names the traced benchmark run wraps exist where it looks for them.

``perfbench/tracer.py`` replaces methods through ``cls.__dict__[name]``
and public functions by module; ``BENCHMARK.json`` reports them per layer.
A refactor that moves one of them would break the traced run or leave
its numbers reading 0, so these tests read both files and check the engine.
"""

import importlib
import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(__file__))


def _tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_methods():
    tracer = _tracer()
    out = []
    for short, paths in tracer.METHODS.items():
        out += [(short, *p.split(".")) for p in paths]
    for short, classes in tracer.ARITH.items():
        out += [(short, cls, meth) for cls, meths in classes.items() for meth in meths]
    return out


def _per_layer_targets():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    out = []
    for name in names:
        short, *path, _metric = name.split(".")
        if short == "trace" or (short, *path) == ("scalar", "arith"):
            continue
        out.append((short, tuple(path)))
    return sorted(set(out))


def test_wrapped_methods_defined_in_their_class():
    missing = []
    for short, cls_name, meth in _wrapped_methods():
        cls = getattr(importlib.import_module(f"eds235.{short}"), cls_name)
        if meth not in cls.__dict__:
            missing.append(f"{short}.{cls_name}.{meth}")
    assert missing == []


def _traceable(module, path) -> bool:
    """Whether the tracer can wrap ``path`` (function or class.method) of ``module``."""
    if len(path) == 2:
        cls = getattr(module, path[0], None)
        return cls is not None and path[1] in cls.__dict__
    fn = getattr(module, path[0], None)
    # the tracer wraps only the public functions a module defines itself
    inner = getattr(fn, "__wrapped__", fn)
    return (callable(fn) and not path[0].startswith("_")
            and getattr(inner, "__module__", None) == module.__name__)


def test_per_layer_names_resolve():
    missing = [
        ".".join((short, *path)) for short, path in _per_layer_targets()
        if not _traceable(importlib.import_module(f"eds235.{short}"), path)
    ]
    assert missing == []
