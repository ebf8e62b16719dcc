import sys
import threading
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
    and a call in the run phase is ``stray`` (its caller's name) unless it
    comes from the ``berezin_plan`` that ``berezin_of_symbol`` makes of its
    own.  ``assembled`` lists the kind of each plan the run assembles.
    Lists only, appended to from the suite's pool threads too."""

    def __init__(self):
        self.phase = "plan"
        self.planned = []
        self.stray = []
        self.assembled = []
        self._local = threading.local()


@pytest.fixture
def plan_recorder(monkeypatch):
    """Wraps ``assembly_path`` and ``assemble`` in every module that binds
    them, and the ``berezin_plan`` the package calls through the berezin
    module's globals, into one ``_PlanRecorder``."""
    from berglab import berezin, toeplitz

    rec = _PlanRecorder()
    real_path, real_plan, real_assemble = (
        toeplitz.assembly_path, berezin.berezin_plan, toeplitz.assemble)

    def assembly_path(*args, **kwargs):
        rec.planned.append(rec.phase)
        if rec.phase == "run" and not getattr(rec._local, "berezin", False):
            rec.stray.append(traceback.extract_stack(limit=2)[0].name)
        return real_path(*args, **kwargs)

    def berezin_plan(*args, **kwargs):
        rec._local.berezin = True
        try:
            return real_plan(*args, **kwargs)
        finally:
            rec._local.berezin = False

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
    monkeypatch.setattr(berezin, "berezin_plan", berezin_plan)
    return rec
