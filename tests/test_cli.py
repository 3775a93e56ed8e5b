"""End-to-end runs of the command line through main()."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy._core._exceptions import _ArrayMemoryError

from perfectnt import cli, matrix, reference, transforms, verify
from perfectnt.cli import main
from perfectnt.codes import UnsupportedParametersError
from perfectnt.gf import MAX_LENGTH, PrimeField
from perfectnt.matrix import (
    FieldMatrix,
    SingularMatrixError,
    format_matrix_text,
    inverse,
    parse_matrix,
)
from perfectnt.transforms import verify_properties
from perfectnt.verify import resolve, run_target, select_targets

GF2 = PrimeField(2)
GF3 = PrimeField(3)

# sha256 of stdout for the large builds, recorded by the benchmark (read only)
DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text(encoding="utf-8")
)["sha256"]
CYCLIC255 = ["--code", "hamming", "--p", "2", "--m", "8", "--form", "cyclic"]
HAMMING400 = ["--code", "hamming", "--p", "7", "--m", "4"]


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_gen_cyclic_hamming_matches_stored(capsys):
    status, out, err = run(capsys, "gen", "--code", "hamming", "--p", "2", "--m", "3", "--form", "cyclic")
    assert status == 0 and err == ""
    assert out.splitlines()[0] == "transform form=cyclic lambda=1 code=hamming(7,4,3)-cyclic"
    assert parse_matrix(out) == FieldMatrix(GF2, reference.CYCLIC_HAMMING7_TRANSFORM)


def test_gen_json(capsys):
    status, out, err = run(capsys, "gen", "--code", "golay", "--p", "3", "--form", "cyclic", "--json")
    assert status == 0
    payload = json.loads(out)
    assert payload["p"] == 3
    assert FieldMatrix(GF3, payload["rows"]) == FieldMatrix(GF3, reference.TERNARY_GOLAY11_CYCLIC_TRANSFORM)


def test_gen_to_file(capsys, tmp_path):
    path = tmp_path / "t74.txt"
    status, out, err = run(capsys, "gen", "--code", "hamming74", "--out", str(path))
    assert status == 0 and out == ""
    assert parse_matrix(path.read_text()) == FieldMatrix(GF2, reference.HAMMING74_TRANSFORM)


def test_gen_extended(capsys):
    status, out, _ = run(capsys, "gen", "--code", "golay", "--p", "3", "--form", "extended")
    assert status == 0
    assert parse_matrix(out) == reference.matrix(3, reference.EXTENDED_GOLAY12_TRANSFORM)


def test_apply_impulse_is_first_column(capsys):
    impulse = ",".join(["1"] + ["0"] * 6)
    status, out, _ = run(capsys, "apply", "--code", "hamming", "--p", "2", "--m", "3", "--form", "cyclic", "--vector", impulse)
    assert status == 0
    first_col = [row[0] for row in reference.CYCLIC_HAMMING7_TRANSFORM]
    assert out.strip() == ",".join(str(x) for x in first_col)


def test_apply_constant_scales_by_row_sum(capsys):
    t = FieldMatrix(GF3, reference.TERNARY_GOLAY11_CYCLIC_TRANSFORM)
    expected = t.mat_vec([1] * 11)
    status, out, _ = run(capsys, "apply", "--code", "golay", "--p", "3", "--form", "cyclic", "--vector", ",".join(["1"] * 11))
    assert status == 0
    assert out.strip() == ",".join(str(int(x)) for x in expected)


def test_apply_invert_roundtrip(capsys):
    vec = "0,1,2,0,2,1,1,0,0,2,1"
    status, out, _ = run(capsys, "apply", "--code", "golay", "--p", "3", "--form", "cyclic", "--vector", vec)
    assert status == 0
    status, out, _ = run(capsys, "invert", "--code", "golay", "--p", "3", "--form", "cyclic", "--vector", out.strip())
    assert status == 0
    assert out.strip() == vec


def test_transform_file_apply_and_invert(capsys, tmp_path):
    path = tmp_path / "golay23.txt"
    status, _, _ = run(capsys, "gen", "--code", "golay", "--p", "2", "--form", "cyclic", "--out", str(path))
    assert status == 0
    vec = ",".join(str(i % 2) for i in range(23))
    status, from_file, _ = run(capsys, "apply", "--transform", str(path), "--vector", vec)
    assert status == 0
    status, from_selector, _ = run(capsys, "apply", "--code", "golay", "--p", "2", "--form", "cyclic", "--vector", vec)
    assert status == 0
    assert from_file == from_selector
    status, back, _ = run(capsys, "invert", "--transform", str(path), "--vector", from_file.strip())
    assert status == 0
    assert back.strip() == vec


def test_eigen_table(capsys):
    status, out, _ = run(capsys, "eigen", "--code", "golay", "--p", "3")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "code golay(11,6,5)-systematic p=3 N=11 k=6"
    assert "lambda=0 det=0 unsuitable" in lines
    assert "lambda=1 det=2 admissible" in lines
    assert "lambda=2 det=2 admissible" in lines
    assert "eigenspace dim=6" in lines


def test_verify_ternary_cyclic_golay(capsys):
    status, out, _ = run(capsys, "verify", "--code", "golay", "--p", "3", "--form", "cyclic", "--trials", "50", "--seed", "7")
    assert status == 0
    assert "order=242" in out
    assert "det≠0" in out
    assert " FAIL " not in out
    assert out.splitlines()[-1].endswith("all passed")


def test_verify_everything(capsys):
    status, out, _ = run(capsys, "verify", "--trials", "5", "--seed", "2")
    assert status == 0
    assert "verified 8 target(s)" in out
    assert " FAIL " not in out


def test_verify_dynamic_hamming_target(capsys):
    # N = 31, k = 28: far too many codewords to enumerate
    status, out, _ = run(capsys, "verify", "--code", "hamming", "--p", "5", "--m", "3", "--trials", "20")
    assert status == 0
    assert "CHECK codeword_invariance PASS expected=all 37252902984619140625 codewords fixed" in out
    assert out.splitlines()[-1] == "verified 1 target(s), 8 checks: all passed"


def test_verify_no_match(capsys):
    status, out, err = run(capsys, "verify", "--code", "golay", "--p", "5")
    assert status == 1
    assert err.startswith("error:")


def test_info_ternary_cyclic_golay(capsys):
    status, out, _ = run(capsys, "info", "--code", "golay", "--p", "3", "--form", "cyclic")
    assert status == 0
    assert "code golay(11,6,5) over GF(3)" in out
    assert "N=11 k=6 d=5" in out
    assert "h(x) = x^6+2x^5+2x^4+2x^3+x^2+1" in out
    assert "perfect: yes, witness radius t=2" in out


def test_info_control_is_not_perfect(capsys):
    status, out, _ = run(capsys, "info", "--code", "control")
    assert status == 0
    assert "perfect: no" in out


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["apply", "--code", "golay", "--p", "3", "--form", "cyclic", "--vector", "0,1,2,0,2,1,1,0,0,2,3"], "residues"),
        (["apply", "--code", "golay", "--p", "3", "--form", "cyclic", "--vector", "1,0"], "length-11"),
        (["apply", "--code", "golay", "--p", "3", "--form", "cyclic", "--vector", "1,a,0"], "integers"),
        (["gen", "--code", "golay", "--p", "3", "--form", "cyclic", "--lambda", "0"], "lambda=0"),
        (["gen", "--p", "2", "--m", "3"], "--code"),
        (["gen", "--code", "hamming", "--p", "2"], "--p and --m"),
        (["gen", "--code", "hamming", "--p", "3", "--m", "2", "--form", "cyclic"], "gcd"),
        (["gen", "--code", "golay", "--p", "2", "--form", "extended"], "GF(3)"),
        (["gen", "--code", "control", "--form", "cyclic"], "standard"),
        (["gen", "--code", "hamming", "--p", "4", "--m", "2"], "prime"),
        (["gen", "--code", "hamming", "--p", "2097169", "--m", "2"], "too large"),
        (["verify", "--trials", "0"], "--trials"),
        (["verify", "--trials", "-5"], "--trials"),
        (["gen", "--code", "hamming", "--p", "2", "--m", "3", "--form", "extended"], "no extended form"),
        (["gen", "--code", "golay", "--p", "5"], "--p 2 or --p 3"),
        # refused before any target runs: once hamming74, hamming13 and
        # hamming7-cyclic printed 42 lines first, and the second printed 12
        (["verify", "--trials", "800000"], "800000 * 23 exceeds"),
        (["verify", "--form", "standard", "--trials", "1300000"], "1300000 * 13 exceeds"),
        (["verify", "--seed", "-1"], "--seed"),
        (["verify", "--code", "hamming", "--p", "2", "--m", "12", "--seed", "-1", "--trials", "10"], "--seed"),
        (["gen", "--code", "hamming", "--p", "17", "--m", "4"], "5220 x 5220 entries"),
        (["eigen", "--code", "hamming", "--p", "2", "--m", "13", "--form", "cyclic"], "8178 x 8191 entries"),
    ],
)
def test_error_paths_exit_one(capsys, argv, needle):
    status, out, err = run(capsys, *argv)
    assert status == 1
    assert err.startswith("error:")
    assert out == "" and len(err.splitlines()) == 1
    assert needle in err


@pytest.mark.parametrize(
    "command,p,m,form,extra",
    [
        ("eigen", 2, 16, "standard", []),  # N = 65535: once a 32 GiB kernel array
        ("info", 2, 20, "standard", []),
        ("info", 2, 40, "standard", []),  # once 21.7 s, then a MemoryError
        ("gen", 2, 15, "cyclic", []),  # N = 32767
        ("verify", 3, 10, "standard", []),  # N = 29524
        ("apply", 7, 6, "standard", ["--vector", "1"]),  # N = 19608
        ("gen", 2_097_143, 2, "standard", []),  # N = 2097144
        ("info", 2, 10**12, "cyclic", []),  # p^m is never formed
    ],
)
def test_oversized_selector_is_refused_quickly(capsys, command, p, m, form, extra):
    selector = ["--code", "hamming", "--p", str(p), "--m", str(m), "--form", form]
    start = time.perf_counter()
    status, out, err = run(capsys, command, *selector, *extra)
    assert time.perf_counter() - start < 1.0
    assert status == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and f"maximum N = {MAX_LENGTH}" in err
    start = time.perf_counter()
    with pytest.raises(UnsupportedParametersError, match="maximum N"):
        resolve("hamming", p, m, form)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("command", ["gen", "eigen"])
def test_oversized_output_is_refused_before_anything_is_built(capsys, monkeypatch, command):
    # at N = 16383, gen's matrix and eigen's basis would each take 2 GiB; both
    # are refused before a transform is built, a lambda printed or a basis formed
    def refuse(*args):
        raise AssertionError("built past the output bound")

    monkeypatch.setattr(transforms, "_finish", refuse)
    monkeypatch.setattr(cli, "kernel_basis", refuse)
    start = time.perf_counter()
    status, out, err = run(capsys, command, "--code", "hamming", "--p", "2", "--m", "14", "--form", "cyclic")
    assert time.perf_counter() - start < 1.0
    assert status == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "above the bound 2**24 = 16777216" in err


def test_output_bound_admits_2_pow_24_entries():
    cli._check_output("gen's N x N matrix", 4096, 4096)
    with pytest.raises(cli.CliError, match="4096 x 4097 entries, above the bound"):
        cli._check_output("eigen's k x N eigenspace basis", 4096, 4097)


@pytest.mark.parametrize(
    "family,p,m,form,trials",
    [
        ("golay", 3, None, "cyclic", 10**9),  # once an 82 GiB draw, then a MemoryError
        ("hamming", 2, 8, "cyclic", 2**24 // 255 + 1),
        ("hamming", 2, 14, "cyclic", 1025),  # 1000 trials at N = 16383 are admitted
    ],
)
def test_oversized_trial_counts_are_refused_before_drawing(capsys, family, p, m, form, trials):
    # trials * N > 2**24 is refused before any vector is drawn, by the CLI with
    # one error line and by the library with a ValueError
    selector = ["--code", family, "--p", str(p), "--form", form, *(["--m", str(m)] if m else [])]
    start = time.perf_counter()
    status, out, err = run(capsys, "verify", *selector, "--trials", str(trials))
    assert time.perf_counter() - start < 1.0
    assert status == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "exceeds the bound 2**24" in err
    (target,) = select_targets(family, p, m, form)
    t = target.build()
    for check in (lambda: run_target(target, t, trials=trials), lambda: verify_properties(t, trials)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"exceeds the bound 2\*\*24"):
            check()
        assert time.perf_counter() - start < 1.0


def test_oversized_modulus_in_transform_file(capsys, tmp_path):
    # the modulus case must be refused before the primality test runs; the
    # entry cases used to raise OverflowError when converted to int64
    cases = [
        ("apply", "big.json", '{"p": 1000000000000000003, "rows": [[1]]}', "too large"),
        ("apply", "entry.json", '{"p": 7, "rows": [[100000000000000000000]]}', "int64"),
        ("invert", "entry.json", '{"p": 7, "rows": [[100000000000000000000]]}', "int64"),
        ("apply", "entry.txt", "h\n7 1 1\n100000000000000000000\n", "int64"),
        ("invert", "entry.txt", "h\n7 1 1\n100000000000000000000\n", "int64"),
        # JSON values that int() would truncate or convert are refused too
        ("apply", "float.json", '{"p": 7.9, "rows": [[1.5, 0], [0, 1]]}', "integer"),
        ("apply", "entry.json", '{"p": 7, "rows": [[1.5, 0], [0, 1]]}', "integer"),
        ("apply", "str.json", '{"p": "7", "rows": [["1", 0], [0, 1]]}', "integer"),
        ("invert", "bool.json", '{"p": 7, "rows": [[true, 0], [0, 1]]}', "integer"),
        ("apply", "rows.json", '{"p": 7, "rows": 5}', "integer"),
        # every refusal of the text body: row count, row length, token, range
        ("apply", "short.txt", "7 2 2\n1 0\n", "expected 2 rows"),
        ("invert", "ragged.txt", "7 2 2\n1 0\n0\n", "entries per row"),
        ("invert", "token.txt", "7 2 2\n1 0\n0 1.5\n", "invalid literal"),
        ("apply", "range.txt", "7 2 2\n1 0\n0 -9223372036854775809\n", "int64"),
    ]
    for command, name, text, needle in cases:
        path = tmp_path / name
        path.write_text(text)
        start = time.perf_counter()
        status, out, err = run(capsys, command, "--transform", str(path), "--vector", "1")
        assert time.perf_counter() - start < 1.0
        assert status == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and needle in err


@pytest.mark.parametrize("bad", [7.0, "7", True], ids=["float", "str", "bool"])
def test_non_integer_scalars_are_refused(capsys, tmp_path, bad):
    # a scalar that is not an integer is a ValueError, never truncated, parsed
    # or a TypeError from arithmetic further in
    with pytest.raises(ValueError, match="modulus must be an integer"):
        PrimeField(bad)
    with pytest.raises(ValueError, match="p must be an integer"):
        resolve("hamming", bad, 2, "standard")
    with pytest.raises(ValueError, match="m must be an integer"):
        resolve("hamming", 7, bad, "cyclic")
    # the CLI reads such a modulus from a transform file
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"p": bad, "rows": [[1]]}))
    status, out, err = run(capsys, "apply", "--transform", str(path), "--vector", "1")
    assert (status, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "modulus must be an integer" in err


def test_integer_scalars_of_any_type_are_taken():
    field = PrimeField(np.int64(7))
    assert field == PrimeField(7) and type(field.p) is int
    assert resolve("hamming", np.int64(3), np.int64(2), "standard")[0].N == 4


@pytest.mark.parametrize(
    "text,reason",
    [
        ("h\n7 2 2\n1 0\n0 1.5\n", "invalid literal for int() with base 10: '1.5'"),
        ("h\n7 2 2\n1 0\n0 -9223372036854775809\n", "entries must lie in the int64 range [-2**63, 2**63)"),
        ("7 2 2\n9223372036854775808 0\n0 1\n", "entries must lie in the int64 range [-2**63, 2**63)"),
    ],
    ids=["token", "below-int64", "above-int64"],
)
def test_text_matrix_token_refusals_keep_their_line(capsys, tmp_path, text, reason):
    # the text body goes to int64 without an object array; a token int()
    # refuses and one past int64 still give these exact lines
    path = tmp_path / "t.txt"
    path.write_text(text)
    status, out, err = run(capsys, "invert", "--transform", str(path), "--vector", "1,1")
    assert (status, out) == (1, "")
    assert err == f"error: cannot parse matrix from {path}: {reason}\n"


@pytest.mark.parametrize(
    "key,argv",
    [
        ("gen-cyclic255-lambda1", ["gen", *CYCLIC255, "--lambda", "1"]),
        ("gen-hamming400-lambda3", ["gen", *HAMMING400, "--lambda", "3"]),
        ("eigen-cyclic255", ["eigen", *CYCLIC255]),
        ("eigen-hamming400", ["eigen", *HAMMING400]),
    ],
)
def test_large_output_matches_recorded_digest(capsys, key, argv):
    status, out, err = run(capsys, *argv)
    assert status == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[key]


SMALL_SELECTORS = {
    "hamming74": ["--code", "hamming74"],
    "hamming74-cyclic": ["--code", "hamming74", "--form", "cyclic"],
    "hamming-p2-m3": ["--code", "hamming", "--p", "2", "--m", "3"],
    "hamming-p2-m3-cyclic": ["--code", "hamming", "--p", "2", "--m", "3", "--form", "cyclic"],
    "hamming-p3-m3": ["--code", "hamming", "--p", "3", "--m", "3"],
    "hamming-p3-m3-cyclic": ["--code", "hamming", "--p", "3", "--m", "3", "--form", "cyclic"],
    "golay-p2": ["--code", "golay", "--p", "2"],
    "golay-p2-cyclic": ["--code", "golay", "--p", "2", "--form", "cyclic"],
    "golay-p3": ["--code", "golay", "--p", "3"],
    "golay-p3-cyclic": ["--code", "golay", "--p", "3", "--form", "cyclic"],
    "golay-p3-extended": ["--code", "golay", "--p", "3", "--form", "extended"],
    "control": ["--code", "control"],
}


# First 16 hex digits of sha256(stdout) and sha256(stderr), and the exit code.
# The refusals are `gen` at the singular lambda=1 (hamming p2 m3 and golay p2,
# standard), and `eigen` and `info` on the systematic hamming74 fixture as cyclic.
@pytest.mark.parametrize(
    "command,selector,out_digest,err_digest,status",
    [
        ("eigen", "hamming74", "444eb3f4fbdb2911", "e3b0c44298fc1c14", 0),
        ("gen", "hamming74", "4e8e3367d0055897", "e3b0c44298fc1c14", 0),
        ("eigen", "hamming74-cyclic", "e3b0c44298fc1c14", "ac3f4df309cd8acf", 1),
        ("eigen", "hamming-p2-m3", "f40b7f75eb227757", "e3b0c44298fc1c14", 0),
        ("gen", "hamming-p2-m3", "e3b0c44298fc1c14", "a31e820534af8596", 1),
        ("eigen", "hamming-p2-m3-cyclic", "b18ab1de096d441e", "e3b0c44298fc1c14", 0),
        ("gen", "hamming-p2-m3-cyclic", "4aaa5e49ca0e935f", "e3b0c44298fc1c14", 0),
        ("eigen", "hamming-p3-m3", "d17dbbb2214bc179", "e3b0c44298fc1c14", 0),
        ("gen", "hamming-p3-m3", "0f1895190784576e", "e3b0c44298fc1c14", 0),
        ("eigen", "hamming-p3-m3-cyclic", "b8a840b796b3f496", "e3b0c44298fc1c14", 0),
        ("gen", "hamming-p3-m3-cyclic", "4029e27bf19e9705", "e3b0c44298fc1c14", 0),
        ("eigen", "golay-p2", "c648e6b98e59e31c", "e3b0c44298fc1c14", 0),
        ("gen", "golay-p2", "e3b0c44298fc1c14", "dad274bf1e72f814", 1),
        ("eigen", "golay-p2-cyclic", "9d647762db5a2bb2", "e3b0c44298fc1c14", 0),
        ("gen", "golay-p2-cyclic", "e89b73356722a45a", "e3b0c44298fc1c14", 0),
        ("eigen", "golay-p3", "7c0ce1d8c57737c5", "e3b0c44298fc1c14", 0),
        ("gen", "golay-p3", "04eb5d17a80529af", "e3b0c44298fc1c14", 0),
        ("eigen", "golay-p3-cyclic", "e47ee7bf0426c722", "e3b0c44298fc1c14", 0),
        ("gen", "golay-p3-cyclic", "2e424897e73a3727", "e3b0c44298fc1c14", 0),
        ("eigen", "golay-p3-extended", "a8ff63d0eedc1267", "e3b0c44298fc1c14", 0),
        ("gen", "golay-p3-extended", "c7c361b5e0dbaac1", "e3b0c44298fc1c14", 0),
        ("eigen", "control", "5b0c4bb6a888a489", "e3b0c44298fc1c14", 0),
        ("gen", "control", "4e0781da7ef37640", "e3b0c44298fc1c14", 0),
        ("info", "hamming74", "ab74308419d9d626", "e3b0c44298fc1c14", 0),
        ("info", "hamming74-cyclic", "e3b0c44298fc1c14", "ac3f4df309cd8acf", 1),
        ("info", "hamming-p2-m3", "ab74308419d9d626", "e3b0c44298fc1c14", 0),
        ("info", "hamming-p2-m3-cyclic", "c49283cd59e32d92", "e3b0c44298fc1c14", 0),
        ("info", "hamming-p3-m3", "a9fa4b5bf6f13e79", "e3b0c44298fc1c14", 0),
        ("info", "hamming-p3-m3-cyclic", "19ff7c208155fb61", "e3b0c44298fc1c14", 0),
        ("info", "golay-p2", "06c192ec5399fc46", "e3b0c44298fc1c14", 0),
        ("info", "golay-p2-cyclic", "2a66a96f97a675e7", "e3b0c44298fc1c14", 0),
        ("info", "golay-p3", "90eda8f02eb1bd96", "e3b0c44298fc1c14", 0),
        ("info", "golay-p3-cyclic", "9e1322d38b6e1cd9", "e3b0c44298fc1c14", 0),
        ("info", "golay-p3-extended", "1dd6c6908b8a0e33", "e3b0c44298fc1c14", 0),
        ("info", "control", "6a335bbd7cf58d1b", "e3b0c44298fc1c14", 0),
    ],
)
def test_small_selector_output_is_pinned(capsys, command, selector, out_digest, err_digest, status):
    got_status, out, err = run(capsys, command, *SMALL_SELECTORS[selector])
    digest = lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    assert (digest(out), digest(err), got_status) == (out_digest, err_digest, status), err


def _unable_to_allocate(*args):
    # numpy's own failure, as at N = 16383 under a 1 GB address-space limit: a
    # MemoryError whose message is one line
    raise _ArrayMemoryError((16369, 16383), np.dtype(np.int64))


@pytest.mark.parametrize(
    "command,owner,name,replacement",
    [
        ("verify", verify, "eigenspace_rows", _unable_to_allocate),  # the eigenspace's rows
        ("eigen", cli, "kernel_basis", _unable_to_allocate),
        ("gen", matrix.Factored, "dense", property(_unable_to_allocate)),  # the N x N view
    ],
    ids=["verify", "eigen", "gen"],
)
def test_an_allocation_failure_is_one_error_line(capsys, monkeypatch, command, owner, name, replacement):
    monkeypatch.setattr(owner, name, replacement)
    extra = ["--trials", "10"] if command == "verify" else []
    status, out, err = run(capsys, command, "--code", "hamming", "--p", "2", "--m", "4", *extra)
    assert status == 1
    assert err == (
        "error: Unable to allocate 2.00 GiB for an array with shape (16369, 16383)"
        " and data type int64\n"
    )
    assert command == "eigen" or out == ""  # eigen prints its lambda table first


def _child_env(**extra):
    """The environment of a child interpreter that imports perfectnt from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


@pytest.mark.parametrize(
    "argv", [["eigen", "--code", "golay", "--p", "3"], ["verify", "--trials", "10"]]
)
def test_cold_command_does_not_import_numpy_ma(argv):
    # numpy.ma is imported lazily by np.unique and np.setdiff1d, among others;
    # it costs several milliseconds of every cold start
    assert _cold_main([argv], "numpy.ma") == ([0], False)


def test_no_cold_command_imports_numpy_random():
    # numpy.random brings secrets, hashlib and hmac with it, about 6 MB of a
    # cold start; verify draws its trials from its own stream
    golay = ["--code", "golay", "--p", "3", "--form", "cyclic"]
    vector = ["--vector", "0,1,2,0,2,1,1,0,0,2,1"]
    argvs = [
        ["verify", "--code", "golay", "--trials", "5"],
        ["gen", *golay],
        ["eigen", *golay],
        ["apply", *golay, *vector],
        ["invert", *golay, *vector],
        ["info", *golay],
    ]
    assert _cold_main(argvs, "numpy.random") == ([0] * 6, False)


def _cold_main(argvs: list[list[str]], module: str) -> tuple[list[int], bool]:
    """Exit statuses of main(argv) for each argv in turn, in one fresh
    interpreter, and whether `module` was imported by then."""
    code = (
        "import contextlib, io, sys\n"
        "from perfectnt.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    statuses = [main(argv) for argv in {argvs!r}]\n"
        f"print(*statuses, {module!r} in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    *statuses, imported = done.stdout.split()
    return [int(s) for s in statuses], imported == "True"


@pytest.mark.parametrize(
    "m,trials,limit",
    [
        pytest.param(13, 1, 256 * 2**20, id="n8191-256mib"),
        pytest.param(14, 10, 2**30, id="n16383-1gib"),
    ],
)
def test_verify_at_large_n_runs_under_a_memory_cap(m, trials, limit):
    # no basis of the code is formed: codeword invariance is read off the
    # eigenspace's rows and rref(H), while the (8178, 8191) basis alone would
    # take 511 MiB. The limit is set on the child only
    argv = ["verify", "--code", "hamming", "--p", "2", "--m", str(m), "--form", "cyclic"]
    argv += ["--trials", str(trials)]
    done = subprocess.run(
        [sys.executable, "-m", "perfectnt.cli", *argv],
        env=_child_env(OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("all passed\n"), done.stdout


def test_bad_choice_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--code", "simplex"])
    assert exc.value.code == 2


def test_subcommand_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


SINGULAR = "7 3 3\n1 2 3\n2 4 6\n0 0 1\n"
NON_SQUARE = "7 2 3\n1 2 3\n2 4 6\n"


@pytest.mark.parametrize(
    "text,vector,line",
    [
        (SINGULAR, "1,2,3", "error: matrix is singular over GF(7) (determinant = 0)"),
        (NON_SQUARE, "1,2,3", "error: inverse needs a square matrix, got (2, 3)"),
        # a singular matrix is reported before a bad vector, a non-square one
        # before both
        (SINGULAR, "1,2,9", "error: matrix is singular over GF(7) (determinant = 0)"),
        (SINGULAR, "1,x", "error: matrix is singular over GF(7) (determinant = 0)"),
        (NON_SQUARE, "1,2", "error: inverse needs a square matrix, got (2, 3)"),
        ("7 2 2\n1 2\n3 4\n", "1,9", "error: vector entries must be residues in [0,7): offending [9]"),
        ("7 2 2\n1 2\n3 4\n", "1", "error: expected a length-2 vector, got 1 entries"),
    ],
    ids=["singular", "non-square", "singular-bad-entry", "singular-bad-token",
         "non-square-bad-vector", "bad-entry", "bad-length"],
)
def test_invert_file_refusals_in_order(capsys, tmp_path, text, vector, line):
    path = tmp_path / "t.txt"
    path.write_text(text)
    status, out, err = run(capsys, "invert", "--transform", str(path), "--vector", vector)
    assert (status, out, err) == (1, "", line + "\n")


def test_invert_file_solves_against_the_dense_inverse(capsys, tmp_path):
    # T^-1 v from one elimination of [T | v] equals the product with inverse(T)
    rng = np.random.default_rng(21)
    for p, n in ((7, 2), (2, 9), (5, 30)):
        while True:
            data = rng.integers(0, p, size=(n, n))
            try:
                inv = inverse(FieldMatrix(PrimeField(p), data))
                break
            except SingularMatrixError:
                continue
        path = tmp_path / f"t{p}.txt"
        path.write_text(format_matrix_text(FieldMatrix(PrimeField(p), data)))
        vec = rng.integers(0, p, size=n)
        status, out, err = run(
            capsys, "invert", "--transform", str(path), "--vector", ",".join(map(str, vec))
        )
        assert (status, err) == (0, "")
        assert out == ",".join(map(str, inv.mat_vec(vec))) + "\n"


def test_codeword_count_past_the_digit_limit_ends_all_passed(capsys):
    # 31^990 has 1477 digits: under a 640-digit limit its decimal cannot be made
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        status, out, err = run(capsys, "verify", "--code", "hamming", "--p", "31", "--m", "3", "--trials", "1")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (status, err) == (0, "")
    assert "CHECK codeword_invariance PASS expected=all 31^990 codewords fixed got=fixed" in out
    assert out.endswith("verified 1 target(s), 8 checks: all passed\n")
