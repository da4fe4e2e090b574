"""tools/report_digests.py: a smoke run on the Kac-Paljutkin algebra, and what
--compare prints for a report whose non-float content differs."""

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


def _digest(floats, nonfloats, tag):
    return {"exit": 0, "sha256": tag, "nonfloat_sha256": tag, "floats": floats,
            "nonfloats": nonfloats}


def test_compare_names_each_differing_nonfloat_leaf(tmp_path, capsys):
    tool = _tool()
    a = {"verify group:S3 seed 1": _digest(
        {"/checks/5/residual": 1e-3, "/scalar": 0.5},
        {"/checks/5/info": "min singular value 1.080e-03", "/checks/5/passed": True,
         "/checks/6/name": "unit"}, "a")}
    b = {"verify group:S3 seed 1": _digest(
        {"/checks/5/residual": 2e-3},
        {"/checks/5/info": "min singular value 5.661e-04", "/checks/5/passed": True,
         "/scalar": None, "/checks/7/name": "unit"}, "b")}
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    assert tool.main(["--compare", *map(str, paths)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("verify group:S3 seed 1: NON-FLOAT CONTENT DIFFERS")
    assert lines[5] == "1 vs 1 reports, 1 differ, largest float move 1.000e-03"
    assert lines[1:5] == [
        '  /checks/5/info: "min singular value 1.080e-03" -> "min singular value 5.661e-04"',
        '  /checks/6/name: "unit" -> absent',
        '  /checks/7/name: absent -> "unit"',
        '  /scalar: 0.5 -> null']
    # digests written before the non-float leaves were recorded
    del a["verify group:S3 seed 1"]["nonfloats"]
    paths[0].write_text(json.dumps(a))
    assert tool.main(["--compare", *map(str, paths)]) == 1
    assert "no non-float leaves recorded" in capsys.readouterr().out
