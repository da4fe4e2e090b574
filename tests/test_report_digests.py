"""Smoke test of tools/report_digests.py on the Kac-Paljutkin algebra."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("report_digests",
                                                  ROOT / "tools" / "report_digests.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_digests_and_compare_on_kp(tmp_path, capsys):
    tool = _tool()
    out = tmp_path / "a.json"
    assert tool.main([str(out), "--algebras", "kp", "--samples", "5"]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc) == ["biinner kp seed 1 samples 5", "biinner kp seed 7 samples 5",
                           "verify kp seed 1", "verify kp seed 7"]
    biinner = doc["biinner kp seed 1 samples 5"]
    assert biinner["exit"] == 0 and len(biinner["sha256"]) == 64
    assert "/checks/1/residual" in biinner["floats"]          # biinner_commutation

    # identical digests compare clean
    assert tool.main(["--compare", str(out), str(out)]) == 0
    assert "0 differ" in capsys.readouterr().out

    # a moved float is reported with its size; a changed verdict fails
    moved = json.loads(out.read_text())
    rep = moved["biinner kp seed 1 samples 5"]
    rep["sha256"] = "0" * 64
    rep["floats"]["/checks/1/residual"] += 2.5e-16
    other = tmp_path / "b.json"
    other.write_text(json.dumps(moved))
    assert tool.main(["--compare", str(out), str(other)]) == 0
    text = capsys.readouterr().out
    assert "biinner kp seed 1 samples 5: floats only; largest float move 2.5" in text
    rep["nonfloat_sha256"] = "0" * 64
    other.write_text(json.dumps(moved))
    assert tool.main(["--compare", str(out), str(other)]) == 1
    assert "NON-FLOAT CONTENT DIFFERS" in capsys.readouterr().out
