"""End-to-end runs of the command line through main()."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfectnt import reference
from perfectnt.cli import main
from perfectnt.gf import PrimeField
from perfectnt.matrix import FieldMatrix, parse_matrix

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
    ],
)
def test_error_paths_exit_one(capsys, argv, needle):
    status, out, err = run(capsys, *argv)
    assert status == 1
    assert err.startswith("error:")
    assert out == "" and len(err.splitlines()) == 1
    assert needle in err


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


@pytest.mark.parametrize(
    "argv", [["eigen", "--code", "golay", "--p", "3"], ["verify", "--trials", "10"]]
)
def test_cold_command_does_not_import_numpy_ma(argv):
    # numpy.ma is imported lazily by np.unique and np.setdiff1d, among others;
    # it costs several milliseconds of every cold start
    code = (
        "import contextlib, io, sys\n"
        "from perfectnt.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = main({argv!r})\n"
        "print(status, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False"]


def test_bad_choice_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--code", "simplex"])
    assert exc.value.code == 2


def test_subcommand_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
