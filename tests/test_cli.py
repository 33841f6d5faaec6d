import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hlgysin
from hlgysin import Polynomial
from hlgysin.cli import main
from hlgysin.identities import VerificationReport


def run_cli(*argv):
    """Run the CLI module (``python -m hlgysin.cli``) in a subprocess."""
    return subprocess.run(
        [sys.executable, "-m", "hlgysin.cli", *argv],
        capture_output=True,
        text=True,
    )


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- compute ----------------------------------------------------------------


def test_compute_v(capsys):
    code, out, _ = run_main(capsys, "compute", "--kind", "v", "--m", "3")
    assert code == 0
    assert out == "1 + 2*t + 2*t^2 + t^3\n"


def test_compute_p(capsys):
    code, out, _ = run_main(
        capsys, "compute", "--kind", "p", "--n", "2", "--lambda", "1,1"
    )
    assert code == 0
    assert out == "1 * x1^1 x2^1\n"


def test_compute_gaussian(capsys):
    code, out, _ = run_main(capsys, "compute", "--kind", "gaussian", "--a", "1", "--b", "1")
    assert code == 0
    assert out == "1 + t\n"


def test_compute_is_deterministic():
    argv = ["compute", "--kind", "r", "--n", "3", "--lambda", "2,1,0"]
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip()


def test_compute_json_shape(capsys):
    code, out, _ = run_main(
        capsys,
        "compute", "--kind", "schur-s", "--n", "2", "--lambda", "1,1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"kind", "params", "terms"}
    assert payload["kind"] == "schur-s"
    assert payload["params"] == {"n": 2, "lambda": [1, 1]}
    assert payload["terms"] == [{"coeff": 1, "x_exponents": [1, 1], "t_exponent": 0}]


def test_compute_latex(capsys):
    code, out, _ = run_main(
        capsys, "compute", "--kind", "schur-p", "--n", "2", "--nu", "1",
        "--format", "latex",
    )
    assert code == 0
    assert out == "x_{1} + x_{2}\n"


def test_compute_writes_out_file(tmp_path, capsys):
    target = tmp_path / "poly.txt"
    code, out, _ = run_main(
        capsys, "compute", "--kind", "v", "--m", "2", "--out", str(target)
    )
    assert code == 0
    assert target.read_text() == "1 + t\n"
    assert out == "1 + t\n"


def test_compute_missing_flags_exit_2():
    result = run_cli("compute", "--kind", "r", "--n", "2")
    assert result.returncode == 2


def test_compute_malformed_sequence_exit_2():
    result = run_cli("compute", "--kind", "r", "--n", "2", "--lambda", "1,x")
    assert result.returncode == 2
    result = run_cli("compute", "--kind", "r", "--n", "2", "--lambda", "1,-1")
    assert result.returncode == 2


def test_compute_negative_n_exit_2(capsys):
    code, out, err = run_main(
        capsys, "compute", "--kind", "schur-s", "--n", "-1", "--lambda", "()"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_compute_interleaved_p_is_a_finding_exit_1():
    result = run_cli("compute", "--kind", "p", "--n", "4", "--lambda", "0,2,0,2")
    assert result.returncode == 1
    assert "not divisible" in result.stderr


def test_compute_over_bound_exit_3():
    result = run_cli(
        "compute", "--kind", "r", "--n", "9", "--lambda", "0,0,0,0,0,0,0,0,0"
    )
    assert result.returncode == 3
    assert "bound exceeded" in result.stderr


# --- verify -----------------------------------------------------------------


def test_verify_lemma_stdout(capsys):
    code, out, _ = run_main(
        capsys, "verify", "--identity", "lemma-sum", "--n-min", "1", "--n-max", "5"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert lines[0] == "lemma-sum, n=1, PASS"
    assert all(line.endswith("PASS") for line in lines)
    assert "ms" not in out  # stdout is byte-deterministic, no timings


def test_verify_unknown_identity_exit_2():
    result = run_cli("verify", "--identity", "bogus")
    assert result.returncode == 2
    assert "choose from" in result.stderr


def test_verify_writes_report_and_is_reproducible(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    argv = (
        "verify", "--identity", "theorem-main", "--n-min", "2", "--n-max", "3",
        "--entry-max", "1", "--out", str(out_dir),
    )
    code, out, _ = run_main(capsys, *argv)
    assert code == 0
    report = (out_dir / "report.txt").read_text()
    assert report.count("\n") == out.count("\n")
    assert "ms" in report  # timed lines live in the file
    rerun = run_cli(*argv)
    assert rerun.stdout == out


def test_verify_randomized_seed(capsys):
    argv = (
        "verify", "--identity", "prop-juxtaposition", "--n-min", "3", "--n-max", "3",
        "--mode", "randomized", "--count", "5", "--seed", "7",
    )
    code, first, _ = run_main(capsys, *argv)
    assert code == 0
    code, second, _ = run_main(capsys, *argv)
    assert first == second
    assert len(first.strip().split("\n")) == 5


def test_verify_failure_exit_1_and_witness_dump(tmp_path, capsys, monkeypatch):
    import hlgysin.identities as identities

    def broken_suite(family):
        yield VerificationReport(
            identity_name="broken",
            instance={"n": 1},
            passed=False,
            witness=Polynomial.one(1),
            elapsed=0.001,
            detail="synthetic",
        )

    monkeypatch.setitem(identities.IDENTITY_SUITES, "broken", broken_suite)
    out_dir = tmp_path / "bugs"
    code, out, _ = run_main(
        capsys, "verify", "--identity", "broken", "--out", str(out_dir)
    )
    assert code == 1
    assert "FAIL" in out
    witness = out_dir / "witness-broken-n1.txt"
    assert witness.exists()
    assert "witness = 1" in witness.read_text()


# --- table ------------------------------------------------------------------


def test_table_v(capsys):
    code, out, _ = run_main(capsys, "table", "--kind", "v", "--m-max", "0")
    assert code == 0
    assert out == "m=0: 1\n"


def test_table_gaussian_counts(capsys):
    code, out, _ = run_main(
        capsys, "table", "--kind", "gaussian", "--a-max", "2", "--b-max", "2"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 9
    assert lines[0] == "a=0 b=0: 1"
    assert "a=1 b=1: 1 + t" in lines


def test_table_p_json(capsys):
    code, out, _ = run_main(
        capsys, "table", "--kind", "p", "--n", "2", "--entry-max", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 4
    assert all(set(entry) == {"kind", "params", "terms"} for entry in payload)


def test_table_p_marks_undefined_entries(capsys):
    code, out, _ = run_main(
        capsys, "table", "--kind", "p", "--n", "4", "--entry-max", "2"
    )
    assert code == 0
    assert "lambda=(0,2,0,2): undefined (normalizer does not divide)" in out
    # JSON serialization uses null terms for the same rows
    code, out_json, _ = run_main(
        capsys, "table", "--kind", "p", "--n", "4", "--entry-max", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out_json)
    undefined = [e for e in payload if e["terms"] is None]
    assert {"n": 4, "lambda": [0, 2, 0, 2]} in [e["params"] for e in undefined]


def test_table_requires_kind_flags():
    assert run_cli("table", "--kind", "v").returncode == 2
    assert run_cli("table", "--kind", "gaussian", "--a-max", "1").returncode == 2
    assert run_cli("table", "--kind", "p").returncode == 2


def _declared_console_script(root):
    """The ``hlgysin`` entry of ``[project.scripts]`` in ``root/pyproject.toml``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(root / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["hlgysin"]


def _write_launcher(path, entry_point):
    """Write the launcher an installer generates for a ``console_scripts`` entry."""
    module, _, func = entry_point.partition(":")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    path.chmod(0o755)


def test_console_script_installed(tmp_path):
    # Checks the console script an install of this checkout provides, without
    # installing: the declared module:function must resolve, and main() must
    # read sys.argv itself and return the exit code.
    root = Path(hlgysin.__file__).resolve().parents[2]
    bin_dir = tmp_path / "bin"
    _write_launcher(bin_dir / "hlgysin", _declared_console_script(root))
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        ["hlgysin", "compute", "--kind", "v", "--m", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout == "1 + t\n"
