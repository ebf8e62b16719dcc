"""The benchmark tracer's reads of package results.

``perfbench/tracer.py`` reads counts off the arguments and the result of
each function it wraps (its ``COUNTERS``).  Every counter whose function
still exists runs here on a small real call, made with the positional
arguments the package passes, so a change of a result's fields that
would break ``--trace 1`` fails a test.  The tracer is compiled from its
source and run in a fresh module: nothing is written next to it.
"""

import importlib
import types
from pathlib import Path

import numpy as np

from berglab import (
    BallGeometry,
    QuadratureSpec,
    SuiteResult,
    WeightedSpace,
    default_config,
    parse_symbol,
    toeplitz_matrix,
)
from berglab.quadrature import MONTE_CARLO

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _function(name):
    layer, fn = name.split(".")
    return getattr(importlib.import_module(f"berglab.{layer}"), fn, None)


def _calls(tmp_path):
    """(args, kwargs) of one or more small calls per counted function."""
    geo = BallGeometry(2, 1, (1,))
    disk = WeightedSpace(1, 0.5)
    spec = QuadratureSpec()
    mc = QuadratureSpec(scheme=MONTE_CARLO, n_samples=500, seed=3)
    radial = parse_symbol("1 - abs2(z)", None)
    general = parse_symbol("re(z1) + 1 - abs2(z)", None)
    return {
        "quadrature.ball_rule": [((2, 0.5, 4, 5), {})],
        "quadrature.monte_carlo_points": [((2, 0.5, 100, 7), {})],
        "symbols.eval_on_points": [
            ((radial, np.array([[0.1, 0.2j], [0.3, 0.0]])), {}),
            ((radial, np.array([0.1, 0.2j])), {}),
        ],
        "toeplitz.toeplitz_matrix": [
            ((radial, disk, 4, spec), {}),
            ((general, disk, 4, spec), {"use_fast_paths": False}),
        ],
        "toeplitz.toeplitz_matrix_with_stderr": [((general, disk, 3, mc), {})],
        "toeplitz.operator_norm": [
            ((toeplitz_matrix(general, disk, 3, spec),), {}),
            ((np.eye(3),), {}),
        ],
        "levels.level_block_direct": [
            ((parse_symbol("1 - abs2(zc)", None), geo, 0.0, (2,), 4, spec), {}),
            ((parse_symbol("re(zc1)", None), geo, 0.0, (2,), 4, spec), {}),
        ],
        "suites.write_outputs": [
            (([SuiteResult("probe", tables={"probe.csv": ["a,b", "1,2"]})],
              tmp_path / "out", default_config()), {}),
        ],
    }


def test_every_live_tracer_counter_reads_a_real_result(tmp_path):
    tracer = _load_tracer()
    calls = _calls(tmp_path)
    live = {name for name in tracer.COUNTERS if _function(name) is not None}
    # a counter of a function that exists needs a call here, and each
    # call here is of a counted function
    assert live == set(calls)
    for name, cases in calls.items():
        for args, kwargs in cases:
            result = _function(name)(*args, **kwargs)
            counts = tracer.COUNTERS[name](args, kwargs, result)
            assert counts, name
            for key, value in counts.items():
                assert np.isfinite(value) and value >= 0, (name, key, value)
