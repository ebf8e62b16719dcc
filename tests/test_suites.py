"""Experiment configuration, suite execution and output layout."""

from pathlib import Path

import numpy as np
import pytest

from berglab import (
    BallGeometry,
    DomainError,
    QuadratureSpec,
    count_basis,
    default_config,
    load_config,
    off_block_mass,
    parse_config_text,
    parse_symbol,
    resolve_assembly_spec,
    run_all,
    summary_lines,
    verify_tensor_factorization,
    write_outputs,
)
from berglab import berezin, levels, quadrature, suites, toeplitz
from berglab.quadrature import _MAX_RULE_NODES, ball_rule_size
from berglab.suites import (
    _KNOWN_KEYS,
    ExperimentConfig,
    _canned_pairs,
    _probe_cutoff,
    plan_norm_identity,
    plan_quantization_suite,
    plan_suites,
)
from berglab.symbols import Const


def test_parse_config_text_basics():
    raw = parse_config_text(
        """
        # comment
        geometry.n = 2

        truncation.D = 6
        symbol.a = r1^2
        """
    )
    assert raw["geometry.n"] == "2"
    assert raw["symbol.a"] == "r1^2"


def test_parse_config_rejects_duplicates_and_junk():
    with pytest.raises(DomainError):
        parse_config_text("geometry.n = 2\ngeometry.n = 3\n")
    with pytest.raises(DomainError):
        parse_config_text("geometry.n 2\n")


def test_unknown_keys_rejected():
    with pytest.raises(DomainError) as exc:
        ExperimentConfig.from_mapping({"geometry.q": "3"})
    assert "geometry.q" in str(exc.value)


def test_envelope_limits_enforced():
    with pytest.raises(DomainError):
        ExperimentConfig.from_mapping({"geometry.n": "5", "geometry.ell": "1"})
    with pytest.raises(DomainError):
        ExperimentConfig.from_mapping({"truncation.D": "13"})
    with pytest.raises(DomainError):
        ExperimentConfig.from_mapping({"truncation.R": "9", "truncation.D": "8"})
    with pytest.raises(DomainError):
        ExperimentConfig.from_mapping(
            {"geometry.n": "3", "geometry.ell": "3", "geometry.k": "1 1 1"}
        )


def test_symbols_validated_at_config_time():
    with pytest.raises(DomainError):
        ExperimentConfig.from_mapping({"symbol.a": "r7^2"})
    with pytest.raises(DomainError):
        ExperimentConfig.from_mapping({"symbol.c": "1 +"})


@pytest.mark.parametrize(
    "overrides, shown",
    [
        ({}, "quad.seed = 20260813"),
        # radial recovery blocks are per-degree values at any cutoff
        ({"geometry.n": "3"}, "truncation.D_eval = 1800"),
        ({"geometry.n": "4", "geometry.ell": "2", "geometry.k": "1 1"}, "geometry.k = 1 1"),
        ({"schedule.mu": "1,2, 3"}, "schedule.mu = 1 2 3"),
        ({"grid.tmax": "0.5"}, "grid.tmax = 0.5"),
    ],
    ids=["default", "n3", "n4_ell2", "mu_list", "tmax"],
)
def test_echo_roundtrips_through_parser(overrides, shown):
    cfg = default_config(overrides)
    assert shown in cfg.echo().splitlines()
    raw = parse_config_text(cfg.echo())
    again = ExperimentConfig.from_mapping(raw)
    assert again.echo() == cfg.echo()


# a valid request, other than the default, for every config key, on an
# inner 2-ball, where the evaluation cutoff's basis has 2,883,601 rows
_EVERY_KEY = {
    "geometry.n": "4",
    "geometry.ell": "2",
    "geometry.k": "1 1",
    "space.lambda": "0.5",
    "truncation.D": "7",
    "truncation.R": "5",
    "truncation.D_eval": "2400",
    "truncation.D_remainder": "50",
    "symbol.a": "1 - r1^2",
    "symbol.c": "2 - abs2(zc)",
    "symbol.f": "3 - abs2(zc)",
    "quad.scheme": "monte_carlo",
    "quad.q": "12",
    "quad.angular": "10",
    "quad.samples": "5000",
    "quad.seed": "3",
    "schedule.mu": "2 4",
    "schedule.eval_levels": "40 80",
    "schedule.remainder_levels": "40",
    "schedule.radii": "5",
    "grid.points": "9",
    "grid.tmax": "0.5",
    "tol.norm": "2e-10",
    "tol.norm_quadrature": "2e-06",
    "tol.factorization": "2e-05",
    "tol.commutator": "2e-08",
    "tol.offblock": "2e-08",
    "tol.berezin": "2e-06",
    "tol.remainder": "2e-06",
    "tol.spectrum": "2e-06",
    "out.dir": "runs/elsewhere",
    "threads": "1",
}


def test_every_config_key_echoes_the_value_requested():
    """``from_mapping`` rewrites no setting: every key reads back, typed
    and in the echo, as the value requested."""
    assert set(_EVERY_KEY) == set(_KNOWN_KEYS)
    requested = {key: cast(_EVERY_KEY[key]) for key, (cast, _) in _KNOWN_KEYS.items()}
    assert all(requested[key] != default for key, (_, default) in _KNOWN_KEYS.items())
    cfg = ExperimentConfig.from_mapping(dict(_EVERY_KEY))
    assert cfg.settings == requested
    assert cfg.D_eval == 2400
    echoed = parse_config_text(cfg.echo())
    assert {key: cast(echoed[key]) for key, (cast, _) in _KNOWN_KEYS.items()} == requested


def test_negative_thread_count_is_refused():
    assert default_config({"threads": 2}).worker_count() == 2
    for value in ("-1", "-2"):
        with pytest.raises(DomainError, match="threads"):
            ExperimentConfig.from_mapping({"threads": value})


def test_an_oversized_sample_count_is_refused_before_any_draw(monkeypatch):
    def refuse(*args):
        raise AssertionError("samples drawn")

    monkeypatch.setattr(quadrature, "monte_carlo_points", refuse)
    monkeypatch.setattr(toeplitz, "monte_carlo_points", refuse)
    for value in (_MAX_RULE_NODES + 1, 10**9):
        raw = {"quad.scheme": "monte_carlo", "quad.samples": str(value)}
        with pytest.raises(DomainError, match="quad.samples"):
            ExperimentConfig.from_mapping(raw)
        with pytest.raises(DomainError, match="n_samples"):
            QuadratureSpec(scheme="monte_carlo", n_samples=value)


def test_default_config_overrides():
    cfg = default_config({"truncation.D": 6, "quad.seed": 99})
    assert cfg.D == 6
    assert cfg.spec.seed == 99


def test_load_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("truncation.D = 7\nsymbol.c = 1 - abs2(zc)\n")
    cfg = load_config(str(p))
    assert cfg.D == 7


def test_run_all_unknown_suite():
    with pytest.raises(DomainError):
        run_all(default_config(), only=["nope"])


def test_norm_suite_passes_and_writes(tmp_path):
    cfg = default_config({"out.dir": str(tmp_path / "out")})
    results = run_all(cfg, only=["norm_identity"])
    assert all(c.passed for r in results for c in r.checks)
    ok = write_outputs(results, cfg.out_dir, cfg)
    assert ok
    out = tmp_path / "out"
    names = {p.name for p in out.iterdir()}
    assert {"summary.txt", "config.txt", "norm_identity.csv"} <= names
    summary = (out / "summary.txt").read_text()
    assert "OVERALL PASS" in summary
    assert summary.count("PASS norm_identity.") == 4
    # the effective configuration is logged with the run
    assert "quad.seed" in (out / "config.txt").read_text()


def test_summary_lines_format():
    cfg = default_config()
    results = run_all(cfg, only=["norm_identity"])
    lines = summary_lines(results)
    assert lines[-1].startswith("OVERALL")
    for line in lines[:-1]:
        assert line.startswith(("PASS ", "FAIL "))
        assert ":" in line


def test_outputs_overwrite_atomically(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    stale = out / "leftover.csv"
    stale.write_text("junk\n")
    cfg = default_config({"out.dir": str(out)})
    results = run_all(cfg, only=["norm_identity"])
    write_outputs(results, cfg.out_dir, cfg)
    assert not stale.exists()
    assert (out / "summary.txt").exists()


def test_outputs_byte_identical_across_runs(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        cfg = default_config({"out.dir": str(d)})
        write_outputs(run_all(cfg, only=["norm_identity"]), cfg.out_dir, cfg)
    # config echoes differ only in the out.dir line; compare the tables
    t1 = (d1 / "norm_identity.csv").read_bytes()
    t2 = (d2 / "norm_identity.csv").read_bytes()
    assert t1 == t2
    s1 = (d1 / "summary.txt").read_bytes()
    assert s1 == (d2 / "summary.txt").read_bytes()


def test_boundary_schedule_is_refused_past_the_expansion_budget():
    # r = 1 - 2^-9 needs ~10,000 degrees on the disk at mu = 2; 1 - 2^-10
    # would need a 20,000 x 10,000 eigenvalue table
    assert ExperimentConfig.from_mapping({"schedule.radii": "9"}).radii_count == 9
    for radii in ("10", "60", "0"):
        with pytest.raises(DomainError, match="schedule.radii"):
            ExperimentConfig.from_mapping({"schedule.radii": radii})


def test_radial_grid_is_validated_at_config_time():
    # an empty grid would make the quantization suite die after its
    # semicommutator stage; a tmax on or past the sphere has no transform
    assert ExperimentConfig.from_mapping({"grid.points": "1", "grid.tmax": "0"}).grid_points == 1
    for key, value in (("grid.points", "0"), ("grid.points", "-4"),
                       ("grid.tmax", "1"), ("grid.tmax", "-0.1"), ("grid.tmax", "nan")):
        with pytest.raises(DomainError, match=key):
            ExperimentConfig.from_mapping({key: value})


_N3_NON_RADIAL = {
    "geometry.n": 3,
    "symbol.c": "re(zc2)",
    "truncation.D_eval": 12,
    "truncation.D_remainder": 8,
    "truncation.D": 4,
    "truncation.R": 2,
}


@pytest.mark.parametrize(
    "extra, probe, mu",
    [({}, "Berezin error probe", "1"),
     ({"grid.tmax": 0.5, "grid.points": 5}, "boundary probe", "2.0")],
    ids=["grid", "boundary"],
)
def test_plan_refuses_every_berezin_point_of_a_non_radial_c(extra, probe, mu):
    # on the inner 2-ball the Mobius pullback of re(z2) at |z|^2 = 0.5625
    # needs a 21,233,664-node rule: the error grid reaches it at
    # grid.tmax = 0.9, the boundary table's second radius r = 3/4 always;
    # the probe's points are planned at once, and the refusal names the point
    cfg = default_config({**_N3_NON_RADIAL, **extra})
    with pytest.raises(DomainError) as info:
        plan_suites(cfg, ["quantization"])
    message = str(info.value)
    assert f"suite quantization: the {probe} of re(z2) at mu = {mu}: " in message
    assert "the Mobius pullback at |z|^2 = 0.5625" in message
    assert "21233664 nodes" in message
    assert [name for name, _ in plan_suites(cfg, ["norm_identity"])] == ["norm_identity"]


def test_sup_over_blocks_fails_on_a_faulty_level_route(monkeypatch):
    # the full side is the closed form of the norm, so a fault of the level
    # route no longer moves both sides alike
    assemble = toeplitz._assemble_by_levels
    monkeypatch.setattr(toeplitz, "_assemble_by_levels",
                        lambda *args: assemble(*args) * (1.0 + 1e-9))
    checks = {c.label: c for c in plan_norm_identity(default_config())().checks}
    assert not checks["sup_over_blocks"].passed
    assert checks["closed_form"].passed and checks["quadrature"].passed


def test_single_generator_fails_on_a_t1_one_ulp_off(monkeypatch):
    # ||T_c T_1 - T_c|| = 0.0 is bitwise: T_1 one ulp off the identity fails it
    assemble = toeplitz.assemble

    def one_ulp_off(path):
        mat = assemble(path)
        return mat * np.nextafter(1.0, 2.0) if path.symbol == Const(1.0) else mat

    monkeypatch.setattr(toeplitz, "assemble", one_ulp_off)
    checks = {c.label: c for c in plan_quantization_suite(default_config())().checks}
    assert not checks["single_generator"].passed
    assert checks["semicommutator_decay"].passed


def test_recovery_remainders_fails_without_the_extrapolation(monkeypatch):
    # the largest usable weight's value in place of the extrapolation to
    # u = 0 leaves remainders of about 7.4e-03 against the 1e-6 bound
    monkeypatch.setattr(levels, "_neville_to_zero",
                        lambda us, values: np.asarray(values[np.argmin(us)], dtype=complex))
    checks = {c.label: c for c in plan_quantization_suite(default_config())().checks}
    assert not checks["recovery_remainders"].passed
    assert checks["single_generator"].passed


def test_berezin_probe_cutoff_fits_the_rule_budget():
    spec = QuadratureSpec()
    # the 1-ball keeps the full cutoff
    disk = BallGeometry(1, 1, (1,))
    assert _probe_cutoff([parse_symbol("re(z1)", disk)], 1, spec) == 60
    # geometry.n = 3 leaves an inner 2-ball; re(z1) has the phase band
    # [-1, 1] x {0}, so D = 60 (K = 1891) takes 62 phases per axis and a
    # 15,745,024-node rule, under the budget
    inner = BallGeometry(2, 2, (2,))
    probe = [parse_symbol("1 - abs2(z)", inner), parse_symbol("re(z1)", inner)]

    def rule_nodes(sym, D):
        resolved = resolve_assembly_spec(sym, 2, D, spec)
        return ball_rule_size(2, resolved.q, resolved.angular)

    assert rule_nodes(probe[1], 60) == 15_745_024
    assert _probe_cutoff(probe, 2, spec) == 60 and count_basis(2, 60) == 1891
    # a symbol with no band keeps 2D + deg + 1 phases: at D = 60 its rule
    # would have 110,817,729 nodes, so the cutoff shrinks until it fits
    probe[1] = parse_symbol("1/(2 - z1)", inner)
    assert rule_nodes(probe[1], 60) == 110_817_729
    D = _probe_cutoff(probe, 2, spec)
    assert 4 < D < 60 and count_basis(2, D) <= 2000
    assert rule_nodes(probe[1], D) <= _MAX_RULE_NODES < rule_nodes(probe[1], D + 1)


def test_honest_off_block_mass_is_roundoff_not_zero_by_construction():
    # the honest route integrates every pair, so the suite's off_block_mass
    # check still measures quadrature roundoff on the default config
    cfg = default_config()
    geo = cfg.geometry
    a_text, c_text = _canned_pairs(cfg)[-1]
    composite = parse_symbol(f"prod(a = {a_text}, c = {c_text})", geo)
    full, _ = verify_tensor_factorization(
        composite.a, composite.c, geo, cfg.lam, [], cfg.D, cfg.spec
    )
    off, total = off_block_mass(full, geo)
    assert 0.0 < off / total < 1e-15


@pytest.fixture(scope="module")
def default_csv_tables():
    """Every CSV table of one run of all suites on the default config."""
    results = run_all(default_config())
    return {
        name: lines
        for r in results
        for name, lines in r.tables.items()
        if name.endswith(".csv")
    }


def test_every_csv_row_has_a_cell_per_column(default_csv_tables):
    assert len(default_csv_tables) == 13
    for name, lines in default_csv_tables.items():
        assert len(lines) > 1, name
        assert {len(line.split(",")) for line in lines} == {len(lines[0].split(","))}, name


def test_every_csv_header_is_documented(default_csv_tables):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schemas = readme.split("## CSV schemas", 1)[1].split("\n## ", 1)[0]
    for name, lines in default_csv_tables.items():
        header = lines[0]
        if name == "recovery_grid.csv":
            # the default inner ball is the disk; README writes the
            # coordinate columns of any dimension
            assert header == "re_z1,im_z1,re_c,im_c"
            header = "re_z1,im_z1,...,re_c,im_c"
        assert f"`{header}`" in schemas, name


def test_each_suite_run_assembles_only_what_its_plan_step_planned(plan_recorder, monkeypatch):
    # the plan is the thing that runs: a run plans no matrix and no Berezin
    # transform again, the pullbacks of the consistency probe's re(z1) included
    transforms = []
    real = berezin.berezin_plan

    def berezin_plan(*args, **kwargs):
        transforms.append(plan_recorder.phase)
        return real(*args, **kwargs)

    for module in (berezin, suites):
        monkeypatch.setattr(module, "berezin_plan", berezin_plan)
    cfg = default_config({"threads": 2})
    runs = plan_suites(cfg)
    plan_recorder.phase = "run"
    assert all(run().passed for _, run in runs)
    assert plan_recorder.stray == [] and plan_recorder.planned.count("run") == 0
    assert "plan" in plan_recorder.planned and plan_recorder.assembled
    # 6 error-probe weights, 2 x 2 consistency probes, 1 boundary probe
    assert transforms == ["plan"] * 11
