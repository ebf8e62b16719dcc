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
    diagonal_values,
    enumerate_basis,
    level_layout,
    operator_norm,
    parse_symbol,
    toeplitz_matrix,
)
from berglab import quadrature, suites, toeplitz
from berglab.core import format_float
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


def test_thread_flag_zero_overrides_the_config(capsys, tmp_path):
    # 0 (all cores) is a value to pass on, not a missing flag
    cfg = tmp_path / "t.cfg"
    cfg.write_text("threads = 2\n")
    code, out, err = run(capsys, ["suite", "--config", str(cfg), "--dry-run"])
    assert code == 0 and "threads = 2" in out.splitlines()
    code, out, err = run(
        capsys, ["suite", "--config", str(cfg), "--threads", "0", "--dry-run"]
    )
    assert code == 0 and "threads = 0" in out.splitlines()


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


@pytest.mark.parametrize("profile", ["r1^2", "1/(2-r1^2)"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--k", "1", "--lambda", "-2", "--rmax", "3"],
        ["gamma", "--k", "1", "--lambda", "-1", "--rmax", "3"],
        ["gamma", "--k", "1", "--lambda", "0", "--rmax", "-2"],
        ["spectrum", "--symbol", "2 - abs2(zc)", "--d", "2", "--lambda", "-3"],
    ],
)
def test_gamma_outside_the_weight_and_level_envelope_is_exit_one(capsys, profile, argv):
    # the exact route (a polynomial profile) is refused as the rule route is
    flag = "--profile" if argv[0] == "gamma" else "--weight-profile"
    code, out, err = run(capsys, argv + [flag, profile])
    assert code == 1
    assert err.startswith("error:")
    assert "verdict" not in out and "rho" not in out


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


@pytest.mark.parametrize("mu", ["inf", "nan"])
def test_a_non_finite_weight_is_exit_one(capsys, mu):
    code, out, err = run(
        capsys, ["norm", "--symbol", "re(z1)", "--d", "1", "--mu", mu, "--D", "2"]
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


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
    assert "max |full - levels|" in out


def test_decompose_takes_a_torus_invariant_a_factor(capsys):
    # abs2(z1) is invariant under the torus of its one-axis group but not
    # quasi-radial: its level factor is T_a on the z'-disk
    code, out, err = run(
        capsys,
        [
            "decompose",
            "--a", "abs2(z1)", "--c", "1 - abs2(zc)",
            "--n", "2", "--D", "4", "--R", "2",
        ],
    )
    assert code == 0 and err == ""
    reports = [line for line in out.splitlines() if line.startswith("rho=")]
    assert len(reports) == 3 and all(line.endswith("[ok]") for line in reports)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--a", "re(z1)", "--n", "3", "--ell", "2", "--k", "2", "--D", "4", "--R", "2"],
         "invariant under the group torus action"),
        # the honest full route of r1^2 | 1 on the 3-ball
        (["--a", "r1^2", "--n", "3", "--D", "8", "--R", "2"], "34012224 nodes"),
    ],
    ids=["turning_a", "full_route_budget"],
)
@pytest.mark.parametrize("extra", [[], ["--dry-run"]], ids=["run", "dry_run"])
def test_decompose_plans_both_routes_before_its_echo(capsys, monkeypatch, argv, message, extra):
    def refuse(*args, **kwargs):
        raise AssertionError("a rule was built")

    monkeypatch.setattr(toeplitz, "ball_rule", refuse)
    code, out, err = run(capsys, ["decompose", "--c", "1"] + argv + extra)
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("extra", [[], ["--dry-run"]], ids=["run", "dry_run"])
def test_decompose_refuses_a_negative_level_range(capsys, extra):
    # no level has a negative total: a check of none would pass vacuously
    code, out, err = run(
        capsys,
        ["decompose", "--a", "r1^2", "--c", "re(zc1)", "--n", "2", "--D", "4",
         "--R", "-1"] + extra,
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "R=-1" in err


@pytest.mark.parametrize("extra", [[], ["--dry-run"]], ids=["run", "dry_run"])
def test_matrix_refuses_a_negative_cutoff(capsys, extra):
    code, out, err = run(
        capsys, ["matrix", "--symbol", "z1", "--d", "1", "--mu", "0", "--D", "-2"] + extra
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "cutoff must be nonnegative, got -2" in err


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


def test_oversized_matrix_is_refused_before_allocating(capsys, tmp_path):
    # d = 4, D = 40: K = 135,751, a 295 GB dense matrix
    argv = ["--d", "4", "--mu", "0", "--D", "40"]
    out_csv = ["--out", str(tmp_path / "m.csv")]
    berezin = ["berezin", "--symbol", "abs2(z)", "--z", "0,0,0,0"]
    for cmd in (["matrix", "--symbol", "re(z1)"], ["matrix", "--symbol", "abs2(z)"] + out_csv,
                ["matrix", "--symbol", "abs2(z)", "--dry-run"] + out_csv,
                berezin, berezin + ["--dry-run"]):
        start = time.perf_counter()
        code, out, err = run(capsys, cmd + argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error:") and "desk budget" in err
    assert not list(tmp_path.iterdir())
    # a radial symbol answers from its 41 per-degree values
    norm = format_float(operator_norm(toeplitz_matrix(
        parse_symbol("abs2(z)", None), WeightedSpace(4, 0.0), 40, QuadratureSpec())))
    for cmd in (["matrix", "--symbol", "abs2(z)"] + argv,
                ["norm", "--symbol", "abs2(z)"] + argv):
        code, out, err = run(capsys, cmd)
        assert code == 0 and err == ""
        last = out.splitlines()[-1]
        assert last == (f"size = 135751, norm = {norm}" if cmd[0] == "matrix" else norm)


@pytest.mark.parametrize(
    "text, record",
    [
        ("1/(2-abs2(z))", {"path": "radial", "q": 48}),
        # the phase band [0, 1] x [-1, 0] sets angular = D + 1 + 1
        ("z1*conj(z2) + 1",
         {"path": "torus", "q": 8, "angular": 6, "band": [[0, 1], [-1, 0]]}),
        # a polynomial diagonal is exact: no rule is built, so no order
        ("2 - abs2(z)", {"path": "radial", "exact": True}),
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


def _read_matrix_csv(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    k = int(rows[:, 0].max()) + 1
    out = np.zeros((k, k), dtype=complex)
    out[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2] + 1j * rows[:, 3]
    return out


def test_matrix_sidecar_block_orders_reproduce_each_level(capsys, tmp_path):
    """Each level's record names the orders its written block was built
    with: gamma(rho) times the inner matrix at those orders, bitwise."""
    p = tmp_path / "m.csv"
    code, out, err = run(
        capsys,
        ["matrix", "--symbol", "prod(a = 1 - r1^2, c = re(zc1))", "--n", "2", "--ell", "1",
         "--k", "1", "--mu", "0", "--D", "6", "--out", str(p)],
    )
    assert code == 0
    record = json.loads((tmp_path / "m.csv.meta.json").read_text())["assembly"]
    written = _read_matrix_csv(p)
    geo = BallGeometry(2, 1, (1,))
    layout = level_layout(enumerate_basis(2, 6, 0.0), geo)
    assert record["path"] == "levels" and len(record["blocks"]) == len(layout)
    gammas = diagonal_values(parse_symbol("1 - r1^2", geo), (1,), 0.0, list(layout))
    c = parse_symbol("re(z1)", None)
    for (rho, rows), gamma, block in zip(layout.items(), gammas, record["blocks"]):
        assert block["path"] == "torus"
        inner = toeplitz_matrix(c, geo.level_space(0.0, rho), 6 - sum(rho),
                                QuadratureSpec(q=block["q"], angular=block["angular"]))
        (row,) = rows
        assert np.array_equal(written[np.ix_(row, row)], gamma * inner.entries), rho


def test_matrix_run_assembles_the_plan_its_dry_run_accepted(capsys, tmp_path):
    """The run assembles the request its dry run planned, so it meets no
    inner rule the plan did not check (the resolved full-ball orders,
    passed on to every level, would need 21,952,000 nodes here)."""
    argv = ["matrix", "--symbol", "prod(a = r1^2, c = re(zc1))", "--n", "4", "--ell", "1",
            "--k", "1", "--mu", "0", "--D", "6", "--out", str(tmp_path / "m.csv")]
    for extra in (["--dry-run"], []):
        code, out, err = run(capsys, argv + extra)
        assert code == 0 and err == ""
    assert (tmp_path / "m.csv").exists()


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


@pytest.mark.parametrize(
    "argv",
    [
        ["berezin", "--d", "2", "--mu", "1", "--z", "0.3,0.1"],
        ["quantize", "--d", "2", "--mus", "1,2", "--grid-points", "3"],
    ],
    ids=["berezin", "quantize"],
)
def test_group_radius_spanning_the_ball_reads_as_abs2(capsys, argv):
    # under the one-group geometry of these commands r1 is |z|
    outs = []
    for symbol in ("abs2(z)", "r1^2"):
        code, out, err = run(capsys, argv + ["--symbol", symbol])
        assert code == 0 and err == ""
        outs.append([l for l in out.splitlines() if not l.startswith("# symbol = ")])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_non_positive_sample_count_is_exit_one(capsys, samples):
    argv = ["matrix", "--symbol", "re(z1)", "--d", "1", "--mu", "0", "--D", "2",
            "--scheme", "monte_carlo", "--samples", samples]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_an_oversized_sample_count_is_exit_one_before_any_draw(
    capsys, monkeypatch, tmp_path
):
    # a billion samples would be a 16 GB draw on the disk: refused by name
    def refuse(*args):
        raise AssertionError("samples drawn")

    monkeypatch.setattr(quadrature, "monte_carlo_points", refuse)
    monkeypatch.setattr(toeplitz, "monte_carlo_points", refuse)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("quad.scheme = monte_carlo\nquad.samples = 1000000000\n")
    matrix = ["matrix", "--symbol", "re(z1)", "--d", "1", "--mu", "0", "--D", "2",
              "--scheme", "monte_carlo", "--samples", "1000000000"]
    for argv, key in ((matrix, "--samples"),
                      (["suite", "--config", str(cfg), "--dry-run"], "quad.samples")):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and key in err and "20000000" in err


def test_negative_thread_count_is_exit_one(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = -2\n")
    for argv in (["suite", "--threads", "-3", "--dry-run"],
                 ["suite", "--config", str(cfg), "--dry-run"]):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "threads" in err


@pytest.mark.parametrize(
    "line, key",
    [
        ("truncation.D_eval = -1", "truncation.D_eval"),
        ("truncation.D_remainder = -1", "truncation.D_remainder"),
        ("schedule.eval_levels = 32 -2", "schedule.eval_levels"),
        ("schedule.remainder_levels = -2 32", "schedule.remainder_levels"),
        ("schedule.mu = 1 -1", "schedule.mu"),
        ("space.lambda = inf", "space.lambda"),
        ("truncation.R = -1", "truncation.R"),
    ],
    ids=["D_eval", "D_remainder", "eval_levels", "remainder_levels", "mu", "lambda", "R"],
)
def test_suite_refuses_at_config_time_what_a_suite_would_stop_on(
    capsys, tmp_path, line, key
):
    # each of these once passed the dry run and stopped the quantization
    # suite halfway
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, ["suite", "--config", str(cfg), "--dry-run"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and key in err


def _refuse_every_suite_run(monkeypatch):
    """Each suite's plan step still plans, but the run it returns fails
    the test: a refusal must come before any suite runs."""

    def refusing(plan):
        def step(cfg):
            plan(cfg)
            return lambda: pytest.fail("a suite ran before the selection was checked")

        return step

    monkeypatch.setattr(
        suites, "_ALL_SUITES", tuple((name, refusing(plan)) for name, plan in suites._ALL_SUITES)
    )


def test_suite_refuses_a_factorization_over_the_rule_budget(capsys, tmp_path, monkeypatch):
    # on the 3-ball the honest full route of r1^2 | 1 needs 34 M nodes, at
    # the phase count D + 1 of its invariant band
    cfg = tmp_path / "n3.cfg"
    cfg.write_text("geometry.n = 3\n")
    out_dir = tmp_path / "runs"

    _refuse_every_suite_run(monkeypatch)
    for extra in ([], ["--only", "factorization"], ["--dry-run"]):
        code, out, err = run(
            capsys, ["suite", "--config", str(cfg), "--out", str(out_dir)] + extra
        )
        assert code == 1 and out == ""
        assert "suite factorization" in err and "(r1^2 | 1)" in err
        assert "34012224 nodes" in err
    assert not out_dir.exists()
    code, out, err = run(
        capsys,
        ["suite", "--config", str(cfg), "--only", "norm_identity,quantization", "--dry-run"],
    )
    assert code == 0 and "plan: run norm_identity, quantization" in out


def test_suite_refuses_a_factorization_the_level_route_does_not_take(
    capsys, tmp_path, monkeypatch
):
    # re(z1) turns under the group torus: the check would refuse it only
    # after the suites before it had run
    cfg = tmp_path / "turning.cfg"
    cfg.write_text("symbol.a = re(z1)\n")

    _refuse_every_suite_run(monkeypatch)
    out_dir = tmp_path / "runs"
    for extra in ([], ["--dry-run"]):
        code, out, err = run(
            capsys, ["suite", "--config", str(cfg), "--out", str(out_dir)] + extra
        )
        assert code == 1 and out == ""
        assert "suite factorization: the level route of pair (re(z1) | 1 - abs2(zc))" in err
        assert "invariant under the group torus action" in err
    assert not out_dir.exists()


def test_suite_refuses_a_non_radial_recovery_block_over_the_budget(
    capsys, tmp_path, monkeypatch
):
    # on the inner 2-ball a dense recovery block at D_eval = 1800 has
    # 1,622,701 rows; a radial c's blocks are their 1801 eigenvalues
    cfg = tmp_path / "n3.cfg"
    cfg.write_text("geometry.n = 3\nsymbol.c = 1 - abs2(zc) + re(zc1)\n")
    out_dir = tmp_path / "runs"

    _refuse_every_suite_run(monkeypatch)
    for extra in ([], ["--dry-run"]):
        code, out, err = run(
            capsys,
            ["suite", "--config", str(cfg), "--only", "norm_identity,quantization",
             "--out", str(out_dir)] + extra,
        )
        assert code == 1 and out == ""
        assert "suite quantization" in err and "truncation.D_eval = 1800" in err
        assert "1622701 x 1622701 matrix" in err
    assert not out_dir.exists()
    cfg.write_text("geometry.n = 3\n")
    code, out, err = run(
        capsys, ["suite", "--config", str(cfg), "--only", "quantization", "--dry-run"]
    )
    assert code == 0 and "truncation.D_eval = 1800" in out.splitlines()


@pytest.mark.parametrize(
    "text, refusal",
    [
        # a rule-route c: each block's moment table at D_eval
        ("symbol.c = 1/(2 - abs2(zc))\ntruncation.D_eval = 12000\n",
         "the recovery block of level 32 at truncation.D_eval = 12000: the radial "
         "moment table for degrees <= 12000 needs 72054004 entries"),
        # the default c's exact blocks: the estimate's table at D_remainder
        ("truncation.D_remainder = 12000\n",
         "the recovery remainder of level 32 at truncation.D_remainder = 12000: the "
         "radial moment table for degrees <= 12000 needs 72150012 entries"),
    ],
)
def test_suite_refuses_a_radial_recovery_table_over_the_budget(
    capsys, tmp_path, monkeypatch, text, refusal
):
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(text)
    out_dir = tmp_path / "runs"

    def refuse(*args):
        raise AssertionError("a radial moment table was summed before the plan refused it")

    monkeypatch.setattr(toeplitz, "_radial_diagonal", refuse)
    for extra in ([], ["--dry-run"]):
        code, out, err = run(
            capsys, ["suite", "--config", str(cfg), "--out", str(out_dir)] + extra
        )
        assert code == 1 and out == ""
        assert f"suite quantization: {refusal} (over the" in err and "desk budget" in err
    assert not out_dir.exists()


def test_suite_refuses_a_berezin_probe_over_the_rule_budget(capsys, tmp_path, monkeypatch):
    # at geometry.n = 4 the Berezin-consistency probe integrates the Mobius
    # pullback of re(z1) on the inner 3-ball with a 584,277,056-node rule
    cfg = tmp_path / "n4.cfg"
    cfg.write_text("geometry.n = 4\n")
    out_dir = tmp_path / "runs"

    _refuse_every_suite_run(monkeypatch)
    for extra in ([], ["--dry-run"]):
        code, out, err = run(
            capsys,
            ["suite", "--config", str(cfg), "--only", "quantization", "--out", str(out_dir)]
            + extra,
        )
        assert code == 1 and out == ""
        assert "suite quantization: the Berezin-consistency probe of re(z1)" in err
        assert "584277056 nodes" in err and err.rstrip().endswith("--only")
    assert not out_dir.exists()
    code, out, err = run(
        capsys, ["suite", "--config", str(cfg), "--only", "norm_identity", "--dry-run"]
    )
    assert code == 0 and "plan: run norm_identity" in out


@pytest.mark.parametrize("extra", [[], ["--dry-run"]], ids=["run", "dry_run"])
def test_decompose_refuses_levels_past_the_cutoff(capsys, extra):
    code, out, err = run(
        capsys,
        [
            "decompose",
            "--a", "r1^2", "--c", "re(zc1)",
            "--n", "2", "--ell", "1", "--k", "1",
            "--D", "4", "--R", "6",
        ] + extra,
    )
    assert code == 1
    assert err.startswith("error:") and "R=6 > D=4" in err
    assert "rho=" not in out


@pytest.mark.parametrize(
    "argv, nodes",
    [
        (["--symbol", "re(z1)", "--d", "4"], "16796160000 nodes"),
        # a product's inner plan on the 3-ball at level (0,)
        (["--symbol", "prod(a = r1^2, c = re(zc1))", "--n", "4", "--ell", "1",
          "--k", "1"], "46656000 nodes"),
        # a torus-invariant a's plan of T_a on the z'-ball, the 3-ball
        (["--symbol", "prod(a = re(z1*conj(z2)), c = 1 - abs2(zc))", "--n", "4",
          "--ell", "3", "--k", "3"], "46656000 nodes"),
    ],
    ids=["torus", "inner_torus", "factor_torus"],
)
@pytest.mark.parametrize("extra", [[], ["--dry-run"]], ids=["run", "dry_run"])
def test_matrix_refuses_a_product_rule_over_the_budget_in_its_plan(
    capsys, monkeypatch, argv, nodes, extra
):
    def refuse(*args, **kwargs):
        raise AssertionError("a rule was built")

    monkeypatch.setattr(toeplitz, "ball_rule", refuse)
    code, out, err = run(capsys, ["matrix"] + argv + ["--mu", "0", "--D", "16"] + extra)
    assert code == 1 and out == ""
    assert err.startswith("error: the product rule needs") and nodes in err


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "--symbol", "((("],
        ["gamma", "--k", "1", "--profile", "((("],
        ["norm", "--symbol", "(((", "--d", "1", "--mu", "0", "--D", "4"],
        ["berezin", "--symbol", "(((", "--d", "1", "--mu", "0", "--z", "0.1"],
        ["quantize", "--symbol", "(((", "--d", "1"],
        ["spectrum", "--symbol", "(((", "--d", "2"],
        ["fredholm", "--symbol", "(((", "--d", "2"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("extra", [[], ["--dry-run"]], ids=["run", "dry_run"])
def test_dry_run_refuses_a_symbol_the_run_refuses(capsys, argv, extra):
    code, out, err = run(capsys, argv + extra)
    assert code == 1 and out == ""
    assert err.startswith("error: line 1, column 4:")


@pytest.mark.parametrize("extra", [[], ["--dry-run"]], ids=["run", "dry_run"])
def test_norm_refuses_a_matrix_over_the_budget_in_its_plan(capsys, extra):
    code, out, err = run(
        capsys,
        ["norm", "--symbol", "re(z1)", "--d", "4", "--mu", "0", "--D", "40"] + extra,
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "135751 x 135751 matrix" in err



# the README's example of each subcommand but ``suite``
_README_EXAMPLES = [
    ["gamma", "--k", "2", "--lambda", "0", "--profile", "r1^2", "--rmax", "5"],
    ["norm", "--symbol", "1 - abs2(z)", "--d", "1", "--mu", "0", "--D", "8"],
    ["parse", "--symbol", "prod(a=r1^2, c=1-abs2(zc))"],
    ["matrix", "--symbol", "1 - abs2(z)", "--d", "1", "--mu", "0", "--D", "8", "--out", "m.csv"],
    ["decompose", "--a", "r1^2", "--c", "1 - abs2(zc)", "--n", "2", "--ell", "1", "--D", "6"],
    ["berezin", "--symbol", "1 - abs2(z)", "--d", "1", "--mu", "2", "--z", "0.4"],
    ["quantize", "--symbol", "1 - abs2(z)", "--d", "1", "--mus", "1,2,4,8,16,32"],
    ["spectrum", "--symbol", "2 - abs2(zc)", "--d", "2", "--R", "4"],
    ["fredholm", "--symbol", "2 - abs2(zc)", "--d", "2"],
]


@pytest.mark.parametrize("argv", _README_EXAMPLES, ids=lambda argv: argv[0])
def test_a_dry_run_prints_the_runs_echo_and_one_plan_line(capsys, tmp_path, monkeypatch, argv):
    """One protocol for every subcommand but ``suite``: the run prints its
    '#' echo first, then its output; the dry run prints the same echo and
    one plan line, and writes nothing."""
    monkeypatch.chdir(tmp_path)
    code, dry, err = run(capsys, argv + ["--dry-run"])
    assert code == 0 and err == ""
    assert not (tmp_path / "m.csv").exists()
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    lines = out.splitlines()
    echo = [line for line in lines if line.startswith("# ")]
    assert echo and lines[: len(echo)] == echo and len(lines) > len(echo)
    *dry_echo, plan = dry.splitlines()
    assert dry_echo == echo and plan.startswith("plan: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["berezin", "--symbol", "re(z1)", "--d", "3", "--mu", "0", "--D", "4", "--z", "0,0,0"],
        ["quantize", "--symbol", "re(z1)", "--d", "3", "--mus", "1,2", "--grid-points", "2",
         "--tmax", "0.1"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("extra", [[], ["--dry-run"]], ids=["run", "dry_run"])
def test_the_symbol_side_is_planned_before_any_output(capsys, monkeypatch, argv, extra):
    # on the 3-ball the Mobius pullback of re(z1) needs 584,277,056 nodes
    # at the centre; berezin once built its operator-side matrix first
    def refuse(*args, **kwargs):
        raise AssertionError("a rule was built")

    monkeypatch.setattr(toeplitz, "ball_rule", refuse)
    code, out, err = run(capsys, argv + extra)
    assert code == 1 and out == ""
    assert err.startswith("error: the product rule needs 584277056 nodes")


@pytest.mark.parametrize("extra", [[], ["--dry-run"]], ids=["run", "dry_run"])
def test_suite_refuses_a_radial_berezin_point_over_the_budget(capsys, tmp_path, monkeypatch, extra):
    # at |z|^2 = 0.995 and mu = 16 the radial expansion of the default c
    # needs a 93,879,187-entry eigenvalue table; the run once stopped there,
    # after norm_identity and factorization had run
    cfg = tmp_path / "edge.cfg"
    cfg.write_text("grid.tmax = 0.995\n")

    _refuse_every_suite_run(monkeypatch)
    out_dir = tmp_path / "runs"
    code, out, err = run(capsys, ["suite", "--config", str(cfg), "--out", str(out_dir)] + extra)
    assert code == 1 and out == ""
    assert "suite quantization: the Berezin error probe of 1 - abs2(z)" in err
    assert "mu = 16" in err and "93879187 entries" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("extra", [[], ["--dry-run"]], ids=["run", "dry_run"])
def test_suite_refuses_a_recovery_remainder_over_the_rule_budget(
    capsys, tmp_path, monkeypatch, extra
):
    # each remainder block of re(zc1) plans at 15,745,024 nodes, but the
    # remainder subtracts the matrix of the recovered estimate, a callable
    # whose orders at D_remainder = 60 need 74,701,449
    cfg = tmp_path / "n3.cfg"
    cfg.write_text("geometry.n = 3\nsymbol.c = re(zc1)\ntruncation.D_eval = 40\n"
                   "grid.tmax = 0.3\nschedule.radii = 1\n")

    def refuse(*args, **kwargs):
        raise AssertionError("a rule was built")

    monkeypatch.setattr(toeplitz, "ball_rule", refuse)
    code, out, err = run(capsys, ["suite", "--config", str(cfg), "--only", "quantization",
                                  "--out", str(tmp_path / "runs")] + extra)
    assert code == 1 and out == ""
    assert "suite quantization: the recovery remainder of level 32" in err
    assert "truncation.D_remainder = 60" in err and "74701449 nodes" in err


@pytest.mark.parametrize(
    "text, only, refusal",
    [
        # T_(c c) of re(z1)^40 on the inner 2-ball at D = 12
        ("geometry.n = 3\nsymbol.c = re(zc1)^40\ntruncation.D = 12\ntruncation.R = 2\n"
         "truncation.D_eval = 30\ntruncation.D_remainder = 30\nschedule.radii = 1\n"
         "schedule.eval_levels = 8 16\nschedule.remainder_levels = 8\ngrid.tmax = 0.2\n"
         "grid.points = 3\n",
         "quantization", "suite quantization: the semicommutator at mu = 1.0, D = 12, its "
         "matrix of re(z1)^40 * re(z1)^40: the product rule needs 26163225 nodes"),
        # the quadrature route of 1 - abs2(z) on the inner 3-ball at q = 40
        ("geometry.n = 4\nquad.q = 40\n", "norm_identity",
         "suite norm_identity: the quadrature route of c at mu = 1.0: the product rule "
         "needs 46656000 nodes"),
    ],
    ids=["semicommutator", "norm_quadrature"],
)
@pytest.mark.parametrize("extra", [[], ["--dry-run"]], ids=["run", "dry_run"])
def test_suite_plans_every_matrix_its_run_assembles(
    capsys, tmp_path, monkeypatch, text, only, refusal, extra
):
    # each of these passed the dry run and stopped its suite with an
    # unnamed refusal, once the suites' plans were kept apart from the runs
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out_dir = tmp_path / "runs"
    _refuse_every_suite_run(monkeypatch)
    code, out, err = run(capsys, ["suite", "--config", str(cfg), "--only", only,
                                  "--out", str(out_dir)] + extra)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {refusal}")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--symbol", "prod(a = 1 - r1^2, c = re(zc1))", "--n", "2", "--ell", "1",
         "--k", "1", "--mu", "0", "--D", "6"],
        ["norm", "--symbol", "re(z1)", "--d", "2", "--mu", "1", "--D", "8"],
        ["decompose", "--a", "1 - r1^2", "--c", "re(zc1)", "--n", "2"],
        ["berezin", "--symbol", "1 - abs2(z)", "--d", "2", "--mu", "1", "--D", "12",
         "--z", "0.3+0.1i,0.2"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_run_assembles_only_the_paths_its_plan_step_made(plan_recorder, tmp_path, argv):
    from berglab.cli import build_parser

    args = build_parser().parse_args(argv + (["--out", str(tmp_path / "m.csv")]
                                             if argv[0] == "matrix" else []))
    _, _, run_step = args.func(args)
    plan_recorder.phase = "run"
    _, code = run_step()
    assert code == 0 and plan_recorder.stray == []
    assert "plan" in plan_recorder.planned and plan_recorder.assembled
