"""The benchmark's workloads: seeded inputs, one pass, output checks.

Each workload has three steps.  ``setup(seed, work)`` validates its
configuration and generates the inputs from the seed; it is part of the
measured set-up time.  ``run(inputs)`` is the timed pass through the
public API.  ``check(inputs, outputs)`` returns the check lines (label,
passed, detail) and a digest of the outputs, which must be the same for
every pass of one seed.

The pass calls the package through module attributes (``bl.toeplitz_matrix``,
``cli.main``) so the traced run sees the wrapped functions.

Why these workloads (the prediction table is in NOTES.md):

* ``suite_default`` is the run users make: ``berglab suite`` on the
  default config.  General full-ball assembly is about 3/4 of it.
* ``assembly_stress`` is general symbols on the full 3-ball with the
  fast paths off: nearly all of its time is the dense Vandermonde and
  contraction.  It exercises a faster Gauss-Jacobi assembly.
* ``recovery_deep`` is the quantization pipeline on radial profiles:
  level blocks, Berezin transforms and diagonal fast paths, with almost
  no general assembly.  It bypasses a faster general assembly.
* ``assembly_mc`` is Monte Carlo assembly with standard errors: sample
  points and the dense contraction that a torus FFT cannot replace.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

import berglab as bl
from berglab import cli

Check = Tuple[str, bool, str]

# suite calls pass the machine's core count explicitly; 0 would mean "all cores"
THREADS = len(os.sched_getaffinity(0))

FULL_BALL = bl.BallGeometry(3, 1, (1,))
MC_SAMPLES = 400_000


class Workload(NamedTuple):
    setup: Callable
    run: Callable
    check: Callable


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Seeded symbols and the exact monomial-moment oracle


def _sign(x: float) -> str:
    return "-" if x < 0 else "+"


def _poly_symbol(rng: np.random.Generator, max_degree: int, n_terms: int = 3):
    """Sum of c*z_i^a*conj(z_j)^b terms on the full 3-ball.

    The first term has total degree ``max_degree`` and the others a seeded
    lower degree, so the quadrature order (set by the largest degree) and
    with it the work per pass do not depend on the seed.
    """
    terms = []
    texts = []
    for n in range(n_terms):
        deg = max_degree if n == 0 else int(rng.integers(0, max_degree + 1))
        a = int(rng.integers(0, deg + 1))
        i, j = (int(v) for v in rng.integers(0, FULL_BALL.n, size=2))
        re, im = (float(v) for v in np.round(rng.uniform(-1.0, 1.0, size=2), 3))
        p = [0] * FULL_BALL.n
        q = [0] * FULL_BALL.n
        p[i] += a
        q[j] += deg - a
        terms.append((complex(re, im), tuple(p), tuple(q)))
        factors = [f"({re!r} {_sign(im)} {abs(im)!r}*i)"]
        if a:
            factors.append(f"z{i + 1}^{a}")
        if deg - a:
            factors.append(f"conj(z{j + 1})^{deg - a}")
        texts.append("*".join(factors))
    return " + ".join(texts), tuple(terms)


def _oracle(terms, basis) -> np.ndarray:
    """Entry (beta, alpha) = sum c [alpha+p = beta+q] moment(alpha+p) n_alpha n_beta."""
    out = np.zeros((basis.count, basis.count), dtype=complex)
    for c, p, q in terms:
        for j, alpha in enumerate(basis.indices):
            s = tuple(x + y for x, y in zip(alpha, p))
            i = basis.position.get(tuple(x - y for x, y in zip(s, q)))
            if i is not None:
                out[i, j] += (
                    c
                    * bl.monomial_moment(s, basis.d, basis.lam)
                    * basis.norms[i]
                    * basis.norms[j]
                )
    return out


def _full_space():
    return bl.WeightedSpace(FULL_BALL.n, 0.0, geometry=FULL_BALL)


# ---------------------------------------------------------------------------
# suite_default


def _suite_setup(seed: int, work: Path):
    bl.default_config()
    out = work / "suite_out"
    argv = ["suite", "--seed", str(seed), "--threads", str(THREADS), "--out", str(out)]
    return argv, out


def _suite_run(inputs):
    argv, _ = inputs
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _suite_check(inputs, rc) -> Tuple[List[Check], str]:
    _, out = inputs
    checks: List[Check] = [("exit code", rc == 0, f"berglab suite returned {rc}")]
    for line in (out / "summary.txt").read_text().splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASS", "FAIL"):
            checks.append((rest.split(":", 1)[0], word == "PASS", rest))
    files = sorted(p for p in out.rglob("*") if p.is_file())
    digest = _digest(*[(p.relative_to(out).as_posix(), p.read_bytes()) for p in files])
    return checks, digest


# ---------------------------------------------------------------------------
# assembly_stress

# (kind, cutoff D, largest term degree)
STRESS_CASES = (("poly", 3, 4), ("poly", 4, 2), ("rational", 2, 0))


def _stress_setup(seed: int, work: Path):
    rng = np.random.default_rng([seed, 1])
    cases = []
    for kind, D, deg in STRESS_CASES:
        if kind == "poly":
            text, terms = _poly_symbol(rng, deg)
            cases.append((text, D, terms, None))
        else:
            s = float(np.round(rng.uniform(1.6, 3.0), 3))
            cases.append((f"1/({s!r} - abs2(z))", D, None, s))
    return cases


def _stress_run(cases):
    space = _full_space()
    spec = bl.QuadratureSpec()
    out = []
    for text, D, _, _ in cases:
        f = bl.parse_symbol(text, FULL_BALL)
        m = bl.toeplitz_matrix(f, space, D, spec, use_fast_paths=False)
        out.append((m, bl.operator_norm(m)))
    return out


def _stress_check(cases, outputs) -> Tuple[List[Check], str]:
    checks: List[Check] = []
    for (text, D, terms, s), (m, norm) in zip(cases, outputs):
        a = m.entries
        if terms is not None:
            ref = _oracle(terms, m.basis)
            dev = float(np.max(np.abs(a - ref)))
            scale = max(1.0, float(np.max(np.abs(ref))))
            checks.append((f"oracle {text} D={D}", dev <= 1e-12 * scale, f"max dev {dev:.2e}"))
            ref_norm = float(np.linalg.svd(ref, compute_uv=False)[0])
            checks.append(
                (f"norm {text} D={D}", abs(norm - ref_norm) <= 1e-12, f"{norm!r} vs {ref_norm!r}")
            )
            continue
        # real, radial, with values in [1/s, 1/(s-1)] on the ball
        scale = float(np.max(np.abs(a)))
        herm = float(np.max(np.abs(a - a.conj().T))) / scale
        checks.append((f"hermitian {text}", herm <= 1e-12, f"relative asymmetry {herm:.2e}"))
        eig = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
        lo, hi = 1.0 / s, 1.0 / (s - 1.0)
        checks.append(
            (
                f"spectrum {text}",
                lo - 1e-10 <= eig[0] and eig[-1] <= hi + 1e-10,
                f"eigenvalues in [{eig[0]:.6f}, {eig[-1]:.6f}], symbol range [{lo:.6f}, {hi:.6f}]",
            )
        )
        checks.append(
            (f"norm {text}", abs(norm - eig[-1]) <= 1e-12, f"{norm!r} vs {eig[-1]!r}")
        )
        f = bl.parse_symbol(text, FULL_BALL)
        diag = bl.toeplitz_matrix(f, _full_space(), D, bl.QuadratureSpec()).entries
        dev = float(np.max(np.abs(a - diag)))
        checks.append((f"radial diagonal {text}", dev <= 1e-10, f"max dev {dev:.2e}"))
    digest = _digest(*[x for m, norm in outputs for x in (m.entries, norm)])
    return checks, digest


# ---------------------------------------------------------------------------
# recovery_deep

RECOVERY_PROFILES = 4


def _recovery_setup(seed: int, work: Path):
    cfg = bl.default_config()
    rng = np.random.default_rng([seed, 2])
    coefs = np.round(rng.uniform(-1.0, 1.0, size=(RECOVERY_PROFILES, 3)), 3)
    d_in = cfg.geometry.d_inner
    ts = np.linspace(0.0, cfg.grid_tmax, cfg.grid_points)
    grid = np.zeros((cfg.grid_points, d_in), dtype=complex)
    grid[:, 0] = np.sqrt(ts)
    profiles = [
        (
            f"{a0!r} {_sign(a1)} {abs(a1)!r}*abs2(zc) {_sign(a2)} {abs(a2)!r}*abs2(zc)^2",
            (a0, a1, a2),
        )
        for a0, a1, a2 in coefs.tolist()
    ]
    return cfg, grid, profiles


def _recovery_run(inputs):
    cfg, grid, profiles = inputs
    geo = cfg.geometry
    spec = cfg.spec
    d_in = geo.d_inner
    mus = cfg.mu_schedule
    radii = bl.default_radius_schedule(cfg.radii_count, include_terminal=False)
    # Berezin consistency is probed where the cutoff holds the kernel mass
    keep = np.sum(np.abs(grid) ** 2, axis=1) <= 0.5
    probe_pts = grid[keep][:: max(1, int(np.count_nonzero(keep)) // 4)]
    pad = (0,) * (geo.m - 1)
    out = []
    for text, _ in profiles:
        c = bl.rebase_inner(bl.parse_symbol(f"prod(a = 1, c = {text})", geo).c)
        semi = [
            bl.operator_norm(
                bl.semicommutator(c, c, bl.WeightedSpace(d_in, float(mu)), cfg.D, spec)
            )
            for mu in mus
        ]
        decay = bl.quantization_probe(c, mus, grid, spec)
        boundary = bl.boundary_vanishing_probe(c, 2.0, radii, spec=spec)
        worst = 0.0
        for mu in sorted(set(mus))[:2]:
            t_c = bl.toeplitz_matrix(c, bl.WeightedSpace(d_in, float(mu)), 60, spec)
            for z in probe_pts:
                lhs = bl.berezin_of_operator(t_c, float(mu), z)
                rhs = bl.berezin_of_symbol(c, float(mu), z, spec)
                worst = max(worst, abs(lhs - rhs))
        eval_blocks = [
            bl.level_block_direct(c, geo, cfg.lam, (tot,) + pad, cfg.D_eval, spec)
            for tot in cfg.eval_levels
        ]
        rem_blocks = [
            bl.level_block_direct(c, geo, cfg.lam, (tot,) + pad, cfg.D_remainder, spec)
            for tot in cfg.remainder_levels
        ]
        recovery = bl.recover_symbol_and_remainder(
            eval_blocks, grid, spec, remainder_blocks=rem_blocks
        )
        mu_max = max(b.mu for b in eval_blocks)
        out.append((semi, decay.rows, boundary.rows, worst, recovery, mu_max))
    return out


def _recovery_check(inputs, outputs) -> Tuple[List[Check], str]:
    cfg, grid, profiles = inputs
    tol = cfg.tolerances
    t = np.sum(np.abs(grid) ** 2, axis=1)
    checks: List[Check] = []
    parts = []
    for (text, (a0, a1, a2)), (semi, decay, boundary, worst, rec, mu_max) in zip(
        profiles, outputs
    ):
        exact = a0 + a1 * t + a2 * t**2
        err = float(np.max(np.abs(rec.values - exact)))
        checks.append(
            (f"recovery {text}", err <= 2.0 / mu_max, f"sup err {err:.2e} (allowed {2.0 / mu_max:.2e})")
        )
        rem = rec.max_remainder()
        checks.append(
            (f"remainders {text}", rem <= tol["remainder"], f"max ||N_rho|| {rem:.2e}")
        )
        checks.append(
            (f"berezin consistency {text}", worst <= tol["berezin"], f"max dev {worst:.2e}")
        )
        last = boundary[-1][1]
        checks.append((f"boundary {text}", last < 0.05, f"last error {last:.2e}"))
        parts.extend([semi, decay, boundary, worst, rec.values, rec.by_level])
    return checks, _digest(*parts)


# ---------------------------------------------------------------------------
# assembly_mc

MC_CASES = (4, 4, 4)  # cutoff D per symbol, each of largest term degree 3


def _mc_setup(seed: int, work: Path):
    rng = np.random.default_rng([seed, 3])
    spec = bl.QuadratureSpec(scheme=bl.MONTE_CARLO, n_samples=MC_SAMPLES, seed=seed)
    return spec, [(D,) + _poly_symbol(rng, 3) for D in MC_CASES]


def _mc_run(inputs):
    spec, cases = inputs
    space = _full_space()
    out = []
    for D, text, _ in cases:
        f = bl.parse_symbol(text, FULL_BALL)
        m, se = bl.toeplitz_matrix_with_stderr(f, space, D, spec)
        out.append((m, se, bl.operator_norm(m)))
    return out


def _mc_check(inputs, outputs) -> Tuple[List[Check], str]:
    _, cases = inputs
    checks: List[Check] = []
    for (D, text, terms), (m, se, _) in zip(cases, outputs):
        ok_se = bool(np.all(np.isfinite(se)) and np.all(se > 0))
        checks.append((f"stderr {text}", ok_se, "standard errors finite and positive"))
        # deviation from the exact entries in units of the reported error:
        # mean square near 1 when the errors are honest
        z = np.abs(m.entries - _oracle(terms, m.basis)) / np.where(se > 0, se, np.inf)
        msz = float(np.mean(z**2))
        checks.append(
            (
                f"oracle {text} D={D}",
                msz <= 2.0 and z.max() <= 6.0,
                f"mean (dev/SE)^2 {msz:.3f}, max dev/SE {z.max():.2f}",
            )
        )
    digest = _digest(*[x for m, se, norm in outputs for x in (m.entries, se, norm)])
    return checks, digest


WORKLOADS: Dict[str, Workload] = {
    "suite_default": Workload(_suite_setup, _suite_run, _suite_check),
    "assembly_stress": Workload(_stress_setup, _stress_run, _stress_check),
    "recovery_deep": Workload(_recovery_setup, _recovery_run, _recovery_check),
    "assembly_mc": Workload(_mc_setup, _mc_run, _mc_check),
}
