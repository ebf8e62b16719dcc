"""Command-line behaviour: exit codes, documented examples, determinism."""

import json
import pathlib
import time

import numpy as np
import pytest

from berglab import (
    BallGeometry,
    QuadratureSpec,
    WeightedSpace,
    parse_symbol,
    toeplitz_matrix,
)
from berglab.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma_example(capsys):
    code, out, err = run(
        capsys, ["gamma", "--k", "2", "--lambda", "0", "--profile", "r1^2", "--rmax", "5"]
    )
    assert code == 0 and err == ""
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "rho,gamma"
    values = [float(r.split(",")[1]) for r in rows[1:]]
    # (rho + 2) / (rho + 3): 2/3, 3/4, 4/5, ...
    for rho, v in enumerate(values):
        assert v == pytest.approx((rho + 2) / (rho + 3), abs=1e-10)


def test_norm_example(capsys):
    code, out, err = run(
        capsys, ["norm", "--symbol", "1-abs2(z)", "--d", "1", "--mu", "0", "--D", "8"]
    )
    assert code == 0
    value = float([l for l in out.splitlines() if not l.startswith("#")][-1])
    assert value == pytest.approx(0.5, abs=1e-10)


def test_parse_example(capsys):
    code, out, err = run(capsys, ["parse", "--symbol", "prod(a=r1^2, c=1-abs2(zc))"])
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body[0] == "prod(a = r1^2, c = 1 - abs2(zc))"
    assert body[1] == "class: Product"


def test_parse_error_is_exit_one(capsys):
    code, out, err = run(capsys, ["parse", "--symbol", "1 + + 2"])
    assert code == 1
    assert err.startswith("error:")


def test_bad_flag_is_exit_one(capsys):
    code, out, err = run(capsys, ["norm", "--symbol", "1", "--d", "1", "--mu", "0"])
    assert code == 1
    assert "error:" in err


def test_flag_on_a_command_that_ignores_it_is_exit_one(capsys):
    code, out, err = run(
        capsys,
        ["norm", "--symbol", "1", "--d", "1", "--mu", "0", "--D", "4", "--threads", "2"],
    )
    assert code == 1
    assert "error:" in err


def test_gamma_refuses_complex_profile(capsys):
    code, out, err = run(
        capsys, ["gamma", "--k", "1,1", "--profile", "i*r1^2", "--rmax", "2"]
    )
    assert code == 1
    assert err.startswith("error:")


def test_unknown_command_is_exit_one(capsys):
    code, out, err = run(capsys, ["frobnicate"])
    assert code == 1


def test_domain_error_is_exit_one(capsys):
    # weight at the boundary of admissibility
    code, out, err = run(
        capsys, ["norm", "--symbol", "1", "--d", "1", "--mu", "-1", "--D", "4"]
    )
    assert code == 1
    assert err.startswith("error:")


def test_failing_tolerance_is_exit_two(capsys):
    code, out, err = run(
        capsys,
        [
            "decompose",
            "--a", "r1^2", "--c", "1-abs2(zc)",
            "--n", "2", "--ell", "1", "--k", "1",
            "--D", "4", "--R", "1",
            "--tol", "1e-18",
        ],
    )
    assert code == 2


def test_decompose_passes_at_documented_tolerance(capsys):
    code, out, err = run(
        capsys,
        [
            "decompose",
            "--a", "r1^2", "--c", "1-abs2(zc)",
            "--n", "2", "--ell", "1", "--k", "1",
            "--D", "4", "--R", "2",
        ],
    )
    assert code == 0
    assert "[ok]" in out


def test_dry_run_prints_plan_without_computing(capsys, tmp_path):
    out_file = tmp_path / "m.csv"
    code, out, err = run(
        capsys,
        [
            "matrix", "--symbol", "1-abs2(z)", "--d", "2", "--mu", "1",
            "--D", "6", "--out", str(out_file), "--dry-run",
        ],
    )
    assert code == 0
    assert "plan:" in out
    assert not out_file.exists()


def test_effective_settings_echoed(capsys):
    code, out, err = run(
        capsys, ["norm", "--symbol", "1", "--d", "1", "--mu", "0", "--D", "4"]
    )
    assert code == 0
    assert any(line.startswith("# symbol = ") for line in out.splitlines())


def test_matrix_csv_byte_identical(capsys, tmp_path):
    args = [
        "matrix", "--symbol", "2-abs2(z)", "--d", "2", "--mu", "1", "--D", "4"
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, args + ["--out", str(p1)])[0] == 0
    assert run(capsys, args + ["--out", str(p2)])[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_gamma_writes_csv(capsys, tmp_path):
    p = tmp_path / "g.csv"
    code, out, err = run(
        capsys,
        ["gamma", "--k", "1,1", "--profile", "r1^2", "--rmax", "3", "--out", str(p)],
    )
    assert code == 0
    lines = p.read_text().splitlines()
    assert lines[0] == "rho,gamma"
    assert lines[1].startswith("0 0,")


def test_fredholm_refusal_is_exit_one(capsys):
    code, out, err = run(capsys, ["fredholm", "--symbol", "zc1", "--d", "2"])
    assert code == 1
    assert err.startswith("error:")


def test_spectrum_weighted_flag(capsys):
    code, out, err = run(
        capsys,
        [
            "spectrum", "--symbol", "2-abs2(zc)", "--d", "2", "--R", "2",
            "--weight-profile", "r1^2", "--weight-k", "1",
        ],
    )
    assert code == 0
    assert "verdict: Fredholm" in out


def test_suite_runs_and_reports(capsys, tmp_path):
    out_dir = tmp_path / "runs"
    code, out, err = run(
        capsys, ["suite", "--only", "norm_identity", "--out", str(out_dir)]
    )
    assert code == 0
    assert "OVERALL PASS" in out
    assert (out_dir / "summary.txt").exists()
    assert (out_dir / "config.txt").exists()


def test_suite_dry_run(capsys, tmp_path):
    out_dir = tmp_path / "runs"
    code, out, err = run(capsys, ["suite", "--dry-run", "--out", str(out_dir)])
    assert code == 0
    assert "plan:" in out
    assert not out_dir.exists()


def test_suite_bad_config_is_exit_one(capsys, tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("nonsense.key = 1\n")
    code, out, err = run(capsys, ["suite", "--config", str(p)])
    assert code == 1
    assert err.startswith("error:")


def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["matrix", "--help"])[0] == 0


def test_matrix_sidecar_records_resolved_orders(capsys, tmp_path):
    text = "re(z1) / (2 - abs2(z))"
    p = tmp_path / "m.csv"
    code, out, err = run(
        capsys,
        ["matrix", "--symbol", text, "--n", "2", "--ell", "2", "--k", "2",
         "--mu", "0.5", "--D", "4", "--out", str(p)],
    )
    assert code == 0
    quad = json.loads((tmp_path / "m.csv.meta.json").read_text())["quadrature"]
    assert quad["q"] > 0 and quad["angular"] > 0
    assert f"# q = {quad['q']}" in out and f"# angular = {quad['angular']}" in out
    rows = np.loadtxt(p, delimiter=",", skiprows=1)
    k = int(rows[:, 0].max()) + 1
    written = np.zeros((k, k), dtype=complex)
    written[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2] + 1j * rows[:, 3]
    geo = BallGeometry(2, 2, (2,))
    again = toeplitz_matrix(
        parse_symbol(text, geo),
        WeightedSpace(2, 0.5, geometry=geo),
        4,
        QuadratureSpec(q=quad["q"], angular=quad["angular"]),
    )
    assert np.array_equal(again.entries, written)


def test_oversized_matrix_is_refused_before_allocating(capsys):
    # d = 4, D = 40: K = 135,751, a 295 GB dense matrix on the radial path
    start = time.perf_counter()
    code, out, err = run(
        capsys, ["matrix", "--symbol", "abs2(z)", "--d", "4", "--mu", "0", "--D", "40"]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err.startswith("error:") and "desk budget" in err


@pytest.mark.parametrize(
    "text, record",
    [
        ("1/(2-abs2(z))", {"path": "radial", "q": 48}),
        ("z1*conj(z2) + 1", {"path": "torus", "q": 8, "angular": 11}),
    ],
)
def test_matrix_sidecar_records_the_assembly_path(capsys, tmp_path, text, record):
    p = tmp_path / "m.csv"
    code, out, err = run(
        capsys,
        ["matrix", "--symbol", text, "--d", "2", "--mu", "1", "--D", "4", "--out", str(p)],
    )
    assert code == 0
    meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
    assert meta["assembly"] == record


def test_group_radius_on_part_of_the_ball_takes_the_torus_path(capsys, tmp_path):
    p = tmp_path / "m.csv"
    geometry = ["--n", "2", "--ell", "1"]
    code, out, err = run(
        capsys,
        ["matrix", "--symbol", "r1^2", *geometry, "--mu", "0", "--D", "3", "--out", str(p)],
    )
    assert code == 0
    meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
    assert meta["assembly"]["path"] == "torus"
    code, out, err = run(capsys, ["parse", "--symbol", "r1^2", *geometry])
    assert code == 0 and "class: QuasiRadial(1,)" in out.splitlines()


def test_bare_tuple_outside_abs2_is_a_parse_error(capsys):
    code, out, err = run(capsys, ["parse", "--symbol", "re(z) + 1"])
    assert code == 1 and out == ""
    assert err.startswith("error: line 1, column 4:") and "abs2" in err


def test_bad_partition_is_exit_one(capsys):
    code, out, err = run(capsys, ["gamma", "--k", "1,x", "--profile", "r1^2"])
    assert code == 1
    assert err.startswith("error:") and "partition" in err


def test_overflowing_literal_is_exit_one(capsys):
    code, out, err = run(capsys, ["parse", "--symbol", "1e999"])
    assert code == 1
    assert err.startswith("error:") and "overflows" in err


def test_geometry_of_another_dimension_is_exit_one(capsys):
    argv = ["matrix", "--symbol", "zc1", "--d", "1", "--n", "2", "--ell", "1",
            "--mu", "0", "--D", "2"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("error:")
    assert "d = 1" in err and "n = 2" in err


def test_norm_reads_group_radii_on_its_one_group(capsys):
    """norm parses and assembles under one geometry: r1 is |z| there."""
    values = []
    for text in ("r1^2", "abs2(z)"):
        code, out, err = run(
            capsys, ["norm", "--symbol", text, "--d", "2", "--mu", "0", "--D", "4"]
        )
        assert code == 0 and err == ""
        values.append(float(out.splitlines()[-1]))
    assert abs(values[0] - values[1]) <= 1e-14


@pytest.mark.parametrize("mus", ["1,x", "", "2.5"])
def test_bad_weight_list_is_exit_one(capsys, mus):
    code, out, err = run(capsys, ["quantize", "--symbol", "1-abs2(z)", "--d", "1",
                                  "--mus", mus])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--mus" in err


@pytest.mark.parametrize(
    "flag, value, word",
    [("--grid-points", "0", "point"), ("--grid-points", "-2", "point"),
     ("--tmax", "-0.5", "tmax"), ("--tmax", "1", "tmax")],
)
def test_bad_quantization_grid_is_exit_one(capsys, flag, value, word):
    # a sup over no points is not an error bound
    code, out, err = run(capsys, ["quantize", "--symbol", "1-abs2(z)", "--d", "1",
                                  "--mus", "1,2", flag, value])
    assert code == 1 and out == ""
    assert err.startswith("error:") and word in err


def test_quantize_parses_its_weight_list(capsys):
    code, out, err = run(capsys, ["quantize", "--symbol", "1-abs2(z)", "--d", "1",
                                  "--mus", "1 2,4", "--grid-points", "3", "--tmax", "0.5"])
    assert code == 0 and err == ""
    assert "# mus = 1 2 4" in out.splitlines()
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "mu,sup_error" and [r.split(",")[0] for r in rows[1:]] == ["1.0", "2.0", "4.0"]


def test_non_finite_berezin_point_is_exit_one(capsys):
    argv = ["berezin", "--symbol", "re(z1)", "--d", "1", "--mu", "1", "--D", "5",
            "--z", "nan"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and "interior point" in err
