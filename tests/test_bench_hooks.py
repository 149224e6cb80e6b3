"""The names the traced benchmark run wraps exist where it looks for them.

``perfbench/tracer.py`` replaces methods through ``cls.__dict__[name]``
and public functions by module; ``BENCHMARK.json`` reports them per layer.
A refactor that moves one of them would break the traced run or leave
its numbers reading 0, so these tests read both files and check the engine.
``perfbench/child.py`` runs the workloads; every engine name it reads is
checked the same way.
"""

import ast
import importlib
import importlib.util
import inspect
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


def _engine_names(tree) -> dict:
    """Local name -> eds235 module, for every eds235 import in a module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("eds235") and alias.asname is None:
                    names["eds235"] = "eds235"
                elif alias.name.startswith("eds235"):
                    names[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("eds235"):
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _dotted(node) -> list | None:
    """["a", "b", "c"] for the expression a.b.c, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def _resolve(path: str):
    """The object a dotted eds235 path names (module, then attributes)."""
    head, *rest = path.split(".")
    obj = importlib.import_module(head)
    for part in rest:
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(f"{obj.__name__}.{part}")
    return obj


def test_child_reads_only_engine_names_that_exist():
    """Every eds235 name ``perfbench/child.py`` imports or reads resolves,
    and every keyword it passes to one is a parameter, so a refactor cannot
    break a benchmark role unseen."""
    with open(os.path.join(ROOT, "perfbench", "child.py")) as fh:
        tree = ast.parse(fh.read())
    names = _engine_names(tree)
    paths = set(names.values())
    keywords = set()
    for node in ast.walk(tree):
        parts = _dotted(node) if isinstance(node, ast.Attribute) else None
        if parts and parts[0] in names:
            paths.add(".".join([names[parts[0]], *parts[1:]]))
        parts = _dotted(node.func) if isinstance(node, ast.Call) else None
        if parts and parts[0] in names:
            path = ".".join([names[parts[0]], *parts[1:]])
            keywords |= {(path, k.arg) for k in node.keywords if k.arg}
    missing = []
    for path in sorted(paths):
        try:
            _resolve(path)
        except (AttributeError, ImportError):
            missing.append(path)
    assert {"eds235.jet.STAGE_ORDER", "eds235.geometry.reconstruct_level2"} <= paths
    assert missing == []
    assert ("eds235.geometry.reconstruct_derivatives", "depth") in keywords
    unknown = [f"{path}({arg}=)" for path, arg in sorted(keywords)
               if arg not in inspect.signature(_resolve(path)).parameters]
    assert unknown == []
