import json
import os

import jsonschema
import numpy as np
import pytest

from fqg import blockalg as ba, cli
from fqg.cli import main
from fqg.errors import ParseError
from fqg.groups import cyclic
from fqg.hopf import function_algebra
from fqg.io import (element_from_json, element_to_json, hopf_from_json,
                    hopf_to_json, load_bundled_kac_paljutkin, schema)


# -- serialisation round trips ----------------------------------------------------

def test_element_roundtrip():
    a = ba.BlockAlgebra((2, 1))
    x = ba.random_element(a, np.random.default_rng(0))
    doc = element_to_json(x)
    jsonschema.validate(doc, schema("element"))
    back = element_from_json(a, doc)
    assert (back - x).norm() < 1e-15


def test_hopf_roundtrip_and_schema(fs3):
    doc = hopf_to_json(fs3.hopf)
    jsonschema.validate(doc, schema("algebra"))
    back = hopf_from_json(doc)
    assert np.allclose(back.coproduct, fs3.hopf.coproduct)
    assert np.allclose(back.haar, fs3.hopf.haar)


def test_bundled_kac_paljutkin_validates():
    h = load_bundled_kac_paljutkin()
    assert h.algebra.block_dims == (1, 1, 1, 1, 2)


def test_corrupted_structure_constants_rejected(tmp_path):
    h = function_algebra(cyclic(2))
    doc = hopf_to_json(h)
    doc["coproduct"][0][0][0] += 0.1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    from fqg.io import load_hopf_file
    with pytest.raises(ParseError) as err:
        load_hopf_file(str(path))
    assert "axioms" in str(err.value)


# -- CLI -------------------------------------------------------------------------

def test_cli_verify_function_s3_passes(capsys):
    rc = main(["verify", "--group", "S3", "--algebra", "function",
               "--seed", "5", "--samples", "25"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "overall: PASS" in out


def test_cli_verify_kac_paljutkin_json_report(capsys):
    rc = main(["verify", "--kac-paljutkin", "--seed", "5", "--samples", "20",
               "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("report"))
    assert doc["passed"] is True
    assert "timing" not in doc


def test_cli_reports_byte_identical_for_same_seed(capsys):
    args = ["verify", "--group", "Z3", "--algebra", "group",
            "--seed", "11", "--samples", "15", "--json"]
    rc1 = main(args)
    out1 = capsys.readouterr().out
    rc2 = main(args)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv, validated", [
    (["--group", "cyclic:1"], ["left", "right"]),
    (["--group", "Z2", "--algebra", "function"], "none"),
])
def test_cli_spectrum_preservation_placements(argv, validated, capsys):
    """On the trivial group convolution by a normalised c is the identity, so
    both placements agree on every evaluated sample (draws skipped for small
    tau(c) do not count against them); on C(Z2) neither placement survives.
    The check is reported, never gating."""
    rc = main(["verify", *argv, "--json", "--seed", "7"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["passed"] is True
    check, = [c for c in doc["checks"] if c["name"] == "spectrum_preservation"]
    assert check["gating"] is False
    info = check["info"]
    assert info["validated_placement"] == validated
    assert 0 < info["trials"] <= 50
    assert max(info["agreeing"].values()) <= info["trials"]


@pytest.mark.parametrize("scalar, info", [(1 / 6 - 1.3e-18j, "scalar 0.166667"),
                                          (0.5 + 0.25j, "scalar 0.5+0.25j")])
def test_cli_counit_scalar_prints_an_imaginary_part_above_round_off(scalar, info, monkeypatch,
                                                                     capsys):
    """The imaginary part of the counit-support scalar is printed only when
    it exceeds eq_tol max(1, |scalar|): below that it is round-off, which
    moves with the last bits of the dual."""
    monkeypatch.setattr(cli, "fourier_of_counit_support", lambda h, d, tol: (scalar, 0.0))
    main(["verify", "--group", "Z2", "--json", "--seed", "7"])
    doc = json.loads(capsys.readouterr().out)
    check, = [c for c in doc["checks"] if c["name"] == "fourier_counit_support_scalar"]
    assert check["info"] == info


def test_cli_corrupted_file_nonzero_exit(tmp_path, capsys):
    h = function_algebra(cyclic(2))
    doc = hopf_to_json(h)
    doc["antipode"][0][0][0] += 0.2
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc))
    rc = main(["verify", "--file", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "axioms" in err


def test_cli_memory_error_is_a_typed_refusal(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.85 GiB for an array")
    monkeypatch.setattr("fqg.cli.build_multiplicative_unitary", refuse)
    rc = main(["verify", "--group", "Z2", "--samples", "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ResourceLimit: Unable to allocate 2.85 GiB")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "biinner"])
@pytest.mark.parametrize("samples", ["0", "-3", "two"])
def test_cli_refuses_non_positive_samples(command, samples, capsys):
    # a report backed by no samples is refused before any work is done
    with pytest.raises(SystemExit) as exc:
        main([command, "--group", "Z2", "--samples", samples])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples" in captured.err


@pytest.mark.parametrize("command", ["verify", "biinner", "convolve"])
@pytest.mark.parametrize("flag, value", [("--tol-eq", "0"), ("--tol-eq", "2"),
                                         ("--tol-inv", "-1"), ("--tol-psd", "0"),
                                         ("--tol-eq", "nan"), ("--tol-inv", "inf")])
def test_cli_refuses_invalid_tolerances(command, flag, value, capsys):
    # refused before any work is done, with the usage exit code
    extra = ["--a", "[]", "--b", "[]"] if command == "convolve" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--group", "Z2", flag, value, *extra])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol-" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("content", [None, "not json", b"\xff\xfe{"])
def test_cli_convolve_refuses_an_unreadable_element_file(content, tmp_path, capsys):
    path = tmp_path / "a.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    rc = main(["convolve", "--group", "Z2", "--algebra", "group",
               "--a", f"@{path}", "--b", "[[[[1,0]]],[[[1,0]]]]"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: ParseError: cannot read {path}")
    assert "Traceback" not in err


def test_cli_convolve_reads_an_element_file(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text("[[[[1,0]]],[[[0,0]]]]")
    rc = main(["convolve", "--group", "Z2", "--algebra", "group",
               "--a", f"@{path}", "--b", "[[[[1,0]]],[[[1,0]]]]"])
    assert rc == 0
    assert "unit_law" in capsys.readouterr().out


def test_cli_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")
    monkeypatch.setattr("fqg.cli.build_group_model", broken)
    rc = main(["biinner", "--group", "Z2", "--samples", "2"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" in err
    assert err.rstrip().splitlines()[-1] == \
        "error: InternalError: TypeError: unsupported operand"


def test_cli_biinner_refuses_a_large_algebra_before_building_v(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("built past the size refusal")
    for name in ("build_dual", "build_gns", "build_multiplicative_unitary"):
        monkeypatch.setattr(f"fqg.cli.{name}", refuse)
    for algebra in ("function", "group"):
        rc = main(["biinner", "--group", "S4", "--algebra", algebra, "--samples", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "error: PreconditionFailed: consistency harness is desk-scale: dim <= 12\n"


def test_cli_biinner_z4(capsys):
    rc = main(["biinner", "--group", "Z4", "--algebra", "function",
               "--samples", "30", "--seed", "7", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("report"))
    assert doc["verdicts"]["positives_are_identity"] is True


def test_cli_biinner_group_s3_trivial(capsys):
    rc = main(["biinner", "--group", "S3", "--algebra", "group",
               "--samples", "30", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "positives_are_identity: True" in out


def test_cli_convolve_unit_law(capsys):
    rc = main(["convolve", "--group", "Z2", "--algebra", "group",
               "--a", "[[[[1,0]]],[[[0,0]]]]", "--b", "[[[[1,0]]],[[[1,0]]]]"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "unit_law" in out


def test_cli_convolve_group_basis(capsys, tmp_path):
    # lam_1 <> lam_1 = lam_1 in C[Z2]; the group basis element in block
    # coordinates is (1, -1)
    rc = main(["convolve", "--group", "Z2", "--algebra", "group", "--json",
               "--a", "[[[[1,0]]],[[[-1,0]]]]", "--b", "[[[[1,0]]],[[[-1,0]]]]"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    got = doc["verdicts"]["a_conv_b"]
    assert abs(got[0][0][0][0] - 1.0) < 1e-9
    assert abs(got[1][0][0][0] + 1.0) < 1e-9


def test_cli_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("FQG_SEED", "21")
    rc = main(["verify", "--group", "Z2", "--algebra", "function",
               "--samples", "10", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["seed"] == 21


def test_cli_cayley_file(tmp_path, capsys):
    g = cyclic(3)
    path = tmp_path / "z3.csv"
    path.write_text("\n".join(",".join(str(g.mul(a, b)) for b in range(3))
                              for a in range(3)))
    rc = main(["verify", "--cayley-file", str(path), "--algebra", "function",
               "--samples", "10", "--seed", "1"])
    assert rc == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_cli_rejects_ambiguous_selection(capsys):
    rc = main(["verify", "--group", "Z2", "--kac-paljutkin"])
    assert rc == 2
