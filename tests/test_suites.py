"""Experiment configuration, suite execution and output layout."""

import pytest

from berglab import (
    BallGeometry,
    DomainError,
    QuadratureSpec,
    count_basis,
    default_config,
    load_config,
    parse_config_text,
    parse_symbol,
    resolve_assembly_spec,
    run_all,
    summary_lines,
    write_outputs,
)
from berglab.quadrature import _MAX_RULE_NODES, ball_rule_size
from berglab.suites import ExperimentConfig, _probe_cutoff


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


def test_eval_cutoff_shrinks_to_matrix_budget():
    cfg = ExperimentConfig.from_mapping(
        {"geometry.n": "3", "geometry.ell": "1", "geometry.k": "1", "truncation.D_eval": "1800"}
    )
    # inner dimension 2: the basis count at the configured cutoff must fit
    from berglab import count_basis

    assert count_basis(cfg.geometry.d_inner, cfg.D_eval) <= 2000


def test_echo_roundtrips_through_parser():
    cfg = default_config()
    raw = parse_config_text(cfg.echo())
    again = ExperimentConfig.from_mapping(raw)
    assert again.echo() == cfg.echo()


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


def test_berezin_probe_cutoff_fits_the_rule_budget():
    spec = QuadratureSpec()
    # the 1-ball keeps the full cutoff
    disk = BallGeometry(1, 1, (1,))
    assert _probe_cutoff([parse_symbol("re(z1)", disk)], 1, spec) == 60
    # geometry.n = 3 leaves an inner 2-ball, where D = 60 would ask for a
    # 60,964,864-node rule; the cutoff shrinks until the rule fits
    inner = BallGeometry(2, 2, (2,))
    probe = [parse_symbol("1 - abs2(z)", inner), parse_symbol("re(z1)", inner)]

    def rule_nodes(D):
        resolved = resolve_assembly_spec(probe[1], 2, D, spec)
        return ball_rule_size(2, resolved.q, resolved.angular)

    assert rule_nodes(60) == 60_964_864
    D = _probe_cutoff(probe, 2, spec)
    assert 4 < D < 60 and count_basis(2, D) <= 2000
    assert rule_nodes(D) <= _MAX_RULE_NODES < rule_nodes(D + 1)
