"""Command-line interface: exit codes, flag handling, and output files."""

import shutil
import subprocess

import pytest

from bicforge.cli import main

E0_N16 = -5.3787705124778187
SEED_ORIGIN = -262.40127491437283


def _lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def _fields(lines):
    out = {}
    for ln in lines:
        name, _, value = ln.partition(" = ")
        if value:
            out[name] = value
    return out


def test_bound_reports_the_seed_state(capsys, tmp_path):
    assert main(["--out", str(tmp_path), "--n", "16", "bound"]) == 0
    fields = _fields(_lines(capsys))
    assert fields["bound_states"] == "1"
    assert float(fields["state_0_fm2"]) == pytest.approx(E0_N16, rel=1e-12)


def test_flags_work_on_either_side_of_the_command(capsys, tmp_path):
    assert main(["--out", str(tmp_path), "--n", "16", "bound"]) == 0
    before = capsys.readouterr().out
    assert main(["bound", "--out", str(tmp_path), "--n", "16"]) == 0
    assert capsys.readouterr().out == before


def test_mev_flag_adds_converted_lines(capsys, tmp_path):
    assert main(["--out", str(tmp_path), "--n", "16", "--mev", "bound"]) == 0
    fields = _fields(_lines(capsys))
    assert float(fields["state_0_MeV"]) == pytest.approx(E0_N16 * 41.47, rel=1e-12)


def test_unknown_command_is_a_usage_error(capsys, tmp_path):
    assert main(["resonate", "--out", str(tmp_path)]) == 2


def test_bad_grid_size_fails_cleanly(capsys, tmp_path):
    assert main(["--out", str(tmp_path), "--n", "4", "bound"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_missing_input_file_fails_cleanly(capsys, tmp_path):
    missing = str(tmp_path / "no_such.bk")
    assert main(["census", "--in", missing, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_input_file_fails_cleanly(capsys, tmp_path):
    bad = tmp_path / "bad.bk"
    bad.write_text("#grid 2 1 10\n#space momentum\n#symmetry symmetric\n"
                   "0.1,0.2\n0.3,0.4\n1 2\n3 oops\n")
    assert main(["census", "--in", str(bad), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_seed_writes_kernel_with_analytic_origin(capsys, tmp_path):
    assert main(["--out", str(tmp_path), "--n", "16", "seed"]) == 0
    fields = _fields(_lines(capsys))
    assert (tmp_path / "seed.bk").is_file()
    assert float(fields["kernel_origin_fm"]) == pytest.approx(SEED_ORIGIN, rel=1e-12)


def test_shift_reports_an_embedded_state(capsys, tmp_path):
    assert main(["--out", str(tmp_path), "shift", "--E", "4.0"]) == 0
    lines = _lines(capsys)
    fields = _fields(lines)
    assert float(fields["residual_E+4.0"]) <= 1e-10
    assert "census_E+4.0 = N=1 Nminus=0 Nplus=1" in lines
    assert (tmp_path / "shift_E+4.0.bk").is_file()


def test_census_counts_the_seed(capsys, tmp_path):
    assert main(["--out", str(tmp_path), "census"]) == 0
    assert "census_seed = N=1 Nminus=1 Nplus=0" in _lines(capsys)


def test_threshold_state_census(capsys, tmp_path):
    assert main(["--out", str(tmp_path), "shift", "--E", "0.0"]) == 0
    assert any("indeterminate" in ln for ln in _lines(capsys))
    kernel_file = tmp_path / "shift_E+0.0.bk"
    assert kernel_file.is_file()
    assert main(["census", "--in", str(kernel_file), "--out", str(tmp_path)]) == 1
    assert "threshold" in capsys.readouterr().err


def test_structured_text_format(capsys, tmp_path):
    assert main(["--out", str(tmp_path), "--format", "structured-text",
                 "--n", "16", "phase", "--samples", "16"]) == 0
    path = tmp_path / "phase.txt"
    assert path.is_file()
    assert not (tmp_path / "phase.csv").exists()
    assert path.read_text().splitlines()[0] == "# k delta_rad"


def test_output_directory_from_environment(capsys, tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("BIC_FORGE_OUTDIR", str(env_dir))
    assert main(["--n", "16", "seed"]) == 0
    assert (env_dir / "seed.bk").is_file()

    flag_dir = tmp_path / "from_flag"
    assert main(["--n", "16", "--out", str(flag_dir), "seed"]) == 0
    assert (flag_dir / "seed.bk").is_file()
    assert not (env_dir / "from_flag").exists()


def test_vnw_benchmark_solves_its_own_potential(capsys, tmp_path):
    assert main(["--out", str(tmp_path), "vnw"]) == 0
    fields = _fields(_lines(capsys))
    assert float(fields["residual"]) <= 1e-6
    assert float(fields["E_fm2"]) == 1.0
    assert (tmp_path / "vnw_v.csv").is_file()


def test_console_script_prints_usage():
    exe = shutil.which("bic-forge")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage:")
