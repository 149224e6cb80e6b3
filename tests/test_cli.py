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
    path.write_text('{"bindings": [1]}')
    assert main(["verdict", str(path)]) == 2
    assert "bindings" in capsys.readouterr().err
