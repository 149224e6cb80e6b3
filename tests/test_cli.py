"""The command-line front end and the package's public names."""

import json
import os

from eds235.cli import main

SPECS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "specs")


def test_star_import_resolves_every_public_module():
    namespace: dict = {}
    exec("from eds235 import *", namespace)
    assert callable(namespace["cli"].main)


def test_verdict_of_d6_is_embeddable(capsys):
    assert main(["verdict", os.path.join(SPECS, "d6.json")]) == 0
    out = capsys.readouterr().out
    assert '"embeddable": true' in out
    assert json.loads(out)["failing"] == []


def test_verdict_of_malformed_spec_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for text, named in (('{"bindings": [1]}', "bindings"),
                        ('{"bindings": {"A3": true}}', "'A3'"),
                        ('{"bindingz": {"A3": "1"}}', "'bindingz'"),
                        ('{"bindings": {"A3": "1"}, "relations": ["Q9 - 1"]}',
                         "'Q9'")):
        path.write_text(text)
        assert main(["verdict", str(path)]) == 2, text
        assert named in capsys.readouterr().err, text


def _verdict_exit(tmp_path, capsys, spec: dict):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["verdict", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verdict_of_contradicted_relation_exits_2(tmp_path, capsys):
    with open(os.path.join(SPECS, "d6.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["relations"] = ["A3 - 12345"]
    code, out, err = _verdict_exit(tmp_path, capsys, spec)
    assert (code, out) == (2, "")
    assert "A3-12345" in err.replace(" ", "")


def test_verdict_of_cyclic_bindings_exits_2(tmp_path, capsys):
    for bindings, named in (({"A3": "A3 + 1"}, "A3"),
                            ({"A3": "B3", "B3": "A3"}, "A3, B3")):
        code, out, err = _verdict_exit(tmp_path, capsys, {"bindings": bindings})
        assert (code, out) == (2, ""), bindings
        assert f"cyclic curvature bindings: {named}" in err, bindings
