import sys
import traceback

import numpy as np
import pytest

from berglab import BallGeometry, QuadratureSpec


@pytest.fixture
def disk_geometry():
    return BallGeometry(1, 1, (1,))


@pytest.fixture
def split_geometry():
    # n=2 split 1+1: the smallest geometry with a nonempty inner ball
    return BallGeometry(2, 1, (1,))


@pytest.fixture
def gj_spec():
    return QuadratureSpec()


@pytest.fixture
def mc_spec():
    return QuadratureSpec(scheme="monte_carlo", n_samples=100_000, seed=20_260_813)


@pytest.fixture(autouse=True)
def _seed_numpy():
    # tests that use raw numpy randomness stay reproducible
    np.random.seed(0)
    yield


class _PlanRecorder:
    """Every ``assembly_path`` call, by phase: ``phase`` is "plan" or "run",
    and a call in the run phase is ``stray`` (its caller's name).
    ``assembled`` lists the kind of each plan the run assembles.  Lists
    only, appended to from the suite's pool threads too."""

    def __init__(self):
        self.phase = "plan"
        self.planned = []
        self.stray = []
        self.assembled = []


@pytest.fixture
def plan_recorder(monkeypatch):
    """Wraps ``assembly_path`` and ``assemble`` in every module that binds
    them into one ``_PlanRecorder``."""
    from berglab import toeplitz

    rec = _PlanRecorder()
    real_path, real_assemble = toeplitz.assembly_path, toeplitz.assemble

    def assembly_path(*args, **kwargs):
        rec.planned.append(rec.phase)
        if rec.phase == "run":
            rec.stray.append(traceback.extract_stack(limit=2)[0].name)
        return real_path(*args, **kwargs)

    def assemble(path):
        if rec.phase == "run":
            rec.assembled.append(path.kind)
        return real_assemble(path)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "berglab" or module is None:
            continue
        for attr, old, new in (("assembly_path", real_path, assembly_path),
                               ("assemble", real_assemble, assemble)):
            if getattr(module, attr, None) is old:
                monkeypatch.setattr(module, attr, new)
    return rec
