"""Command-line interface: exit codes, flag handling, and output files."""

import shutil
import subprocess

import pytest

from bicforge import cli, kernels, sbdecomp, spectral, write_kernel
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


def test_vnw_rejects_a_non_positive_momentum(capsys, tmp_path):
    assert main(["--out", str(tmp_path), "vnw", "--k", "0"]) == 1
    assert capsys.readouterr().err.startswith("error:")


# the report keys and output files of the subcommands no other test runs
REPORTS = {
    "perturb": (("kernel_file", "strength", "phi_residual",
                 "max_delta_change_rad", "kept_state_fm2"),
                {"perturbed.bk", "phase_seed.csv", "phase_perturbed.csv"}),
    "extract": (("negative_states", "embedded_states", "factorization_ratio",
                 "bic_0_Ksq_fm2"), set()),
    "separable": (("coupling_critical", "Ksq_fm2", "residual", "phi_file",
                   "census_separable"), {"separable_phi.csv"}),
    "verify-ab": (("residual_A", "residual_B"), set()),
}


@pytest.mark.parametrize("command", REPORTS)
def test_subcommand_reports_its_keys_and_writes_its_files(capsys, tmp_path, command):
    keys, files = REPORTS[command]
    assert main(["--out", str(tmp_path), command]) == 0
    assert set(keys) <= _fields(_lines(capsys)).keys()
    assert {p.name for p in tmp_path.iterdir()} == files


def _count(monkeypatch, fn, *modules):
    """A list that grows by one entry per call of fn made through the modules."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, fn.__name__, counted, raising=False)
    return calls


def test_extract_reads_the_spectrum_from_the_decomposition(capsys, tmp_path,
                                                          monkeypatch):
    # the seed's ground state is solved inside spectral, on the seed kernel,
    # and is not counted here
    solves = _count(monkeypatch, spectral.negative_energy_states, cli, sbdecomp)
    extracts = _count(monkeypatch, sbdecomp.extract_bics, cli, sbdecomp)
    assert main(["--out", str(tmp_path), "extract"]) == 0
    assert (len(solves), len(extracts)) == (1, 1)
    assert _fields(_lines(capsys))["embedded_states"] == "1"


def test_sbdecomp_of_a_file_builds_no_seed(capsys, tmp_path, monkeypatch, v0):
    path = tmp_path / "v0.bk"
    write_kernel(v0, path)
    seeds = _count(monkeypatch, kernels.gaussian_momentum_kernel, cli)
    assert main(["--out", str(tmp_path), "sbdecomp", "--in", str(path)]) == 0
    assert seeds == []
    assert _fields(_lines(capsys))["bound_states"] == "1"


def test_failing_reproduce_writes_nothing(capsys, tmp_path):
    # at n = 16 the seed's V_S + V_B split fails after most stages succeed
    out = tmp_path / "tree"
    assert main(["--out", str(out), "--n", "16", "reproduce-paper"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_reproduce_tree_is_built_from_the_subcommands(capsys, tmp_path):
    text = ["--format", "structured-text"]
    assert main(["--out", str(tmp_path / "tree"), *text, "reproduce-paper"]) == 0
    for command in ("tmatrix", "sbdecomp", "vnw", "coord"):
        assert main(["--out", str(tmp_path / command), *text, command]) == 0
    tree = _tree(tmp_path / "tree")
    shared = {"t-matrix": ("tmatrix", "tmatrix_*.bk"),
              "sbdecomp": ("sbdecomp", "v_*.bk"),
              "benchmark": ("vnw", "vnw_*.txt"),
              "coordinate": ("coord", "vb_coord_*.bk")}
    for sub, (command, pattern) in shared.items():
        files = sorted((tmp_path / command).glob(pattern))
        assert len(files) == (5 if command == "coord" else 2)
        for path in files:
            assert tree[f"{sub}/{path.name}"] == path.read_bytes(), path.name
    reports = {"summary.txt", "census/census.txt", "coordinate/nodes.txt"}
    assert not [name for name in tree if name.endswith(".csv")]
    curves = [name for name in tree if name.endswith(".txt") and name not in reports]
    assert len(curves) == 11
    for name in curves:
        assert tree[name].startswith(b"# "), name


def test_console_script_prints_usage():
    exe = shutil.which("bic-forge")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage:")
