"""The numrad benchmark's workloads and their correctness checks.

Every workload is built from the seed alone and hands numrad only a
campaign config or explicit matrices. One unit of work is repeated
unchanged for the whole run, so every unit of a run must produce the same
bytes; that repetition is the determinism check.

* ``campaign_bounds``: the 11 bound ids whose contract side is ``omega``
  or a norm, one trial per parameter combination at the default dims.
  Short trials, so per-call overhead in ``omega``, ``linalg`` and the
  ``harness`` weighs most. ``omega_p`` is never called.
* ``campaign_omega_p``: ``main4.v1``, ``main4.v2`` and ``th1``. Long
  trials dominated by ``radius.omega_p``.
* ``certify_hard``: direct ``omega`` calls on Ginibre matrices and on
  matrices whose field of values is a disk, where the branch-and-bound
  cost grows like tol**-1/2.
* ``campaign_parallel``: a mixed slice of both campaign families at
  ``jobs = nproc``, the only workload that runs the harness's parallel
  path; its reports must equal the serial reports byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import numrad
from numrad.errors import NumradError
from tracer import replace_everywhere, restore

OMEGA_SIDE_IDS = ("main1.v1", "main1.v2", "product_xy", "sum_norm", "sum_norm.normal",
                  "main11.v1", "main11.v2", "main11.young.v1", "main11.young.v2",
                  "main3.v1", "main3.v2")
OMEGA_P_IDS = ("main4.v1", "main4.v2", "th1")
PARALLEL_IDS = ("main1.v1", "product_xy", "sum_norm", "main11.young.v1", "main3.v1",
                "main4.v1", "th1")

CERTIFY_SIDES = (2, 8, 32)
CERTIFY_TOLS = (1e-6, 1e-8, 1e-10)
# At side 32 a disk-class matrix alone takes about 30 s at 1e-10.
CERTIFY_SIDE32_MIN_TOL = 1e-8
# Ginibre matrices per side, each certified at every tolerance. Sorted op
# times come in clusters of like cases; with these counts the median op
# lies among the 20 side-32 Ginibre calls at 1e-8 and 1e-10 (12-14 ms),
# 4.5 places above the faster ones at 1e-6, and the 95th percentile among
# the four calls near 3 s (side-8 disks at 1e-10, side-32 disks at 1e-8),
# so neither sits on a seam between two clusters.
CERTIFY_GINIBRE = {2: 2, 8: 2, 32: 10}
CHECK_ANGLES = 360

# Rounding allowance for comparing eigenvalues computed by two LAPACK
# drivers: a backward error of order n * u * ||M|| for each of them.
_U = np.finfo(np.float64).eps / 2


def rounding_slack(n: int, norm: float) -> float:
    return 32.0 * n * _U * max(1.0, norm)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


@dataclass
class Unit:
    """One timed unit of work and what it produced."""

    wall_s: float
    op_s: list
    digest: str
    failures: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    estimates: int = 0
    unconverged: int = 0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class CampaignWorkload:
    """A seeded campaign with one trial per parameter combination."""

    def __init__(self, seed: int, bound_ids: tuple, jobs: int = 1, **grid):
        self.jobs = jobs
        self._args = (seed, bound_ids, grid)
        self.config = numrad.default_config(master_seed=seed, bound_ids=bound_ids,
                                            trials=1, jobs=jobs, **grid)
        self._warm = numrad.default_config(
            master_seed=seed, bound_ids=bound_ids, trials=1, jobs=jobs,
            dims=((2, 2),), r_values=(2.0,), alpha_values=(0.5,),
            holder_p_values=(2.0,), omega_p_p_values=(2.0,), n_operators_values=(2,))
        self._captured: list = []
        self.serial_wall_s = None

    def warm_up(self) -> None:
        numrad.run_campaign(self._warm)

    def run_unit(self, capture: bool = False, between=None) -> Unit:
        """Run the campaign and serialise both reports.

        With `capture`, every ``omega_p`` call's operators and estimate are
        kept for :meth:`check`. `between` is not called: a campaign runs as
        one call, so the caller can act only between units.
        """
        patches = []
        if capture:
            orig = numrad.radius.omega_p

            def recording(ops, p, *args, **kwargs):
                est = orig(ops, p, *args, **kwargs)
                self._captured.append((list(ops), float(p), est.value))
                return est

            patches = replace_everywhere(orig, recording)
        try:
            t0 = perf_counter()
            report = numrad.run_campaign(self.config)
            json_text = numrad.report_to_json(report)
            csv_text = numrad.report_to_csv(report)
            wall = perf_counter() - t0
        finally:
            restore(patches)
        unit = Unit(wall_s=wall, op_s=[rec.wall_time for rec in report.records],
                    digest=f"json:{_sha256(json_text)} csv:{_sha256(csv_text)}")
        for rec in report.records:
            if rec.error is not None:
                unit.failures.append(f"trial {rec.seed_path} {rec.bound_id}: {rec.error}")
            elif rec.violation:
                unit.failures.append(f"trial {rec.seed_path} {rec.bound_id}: violation")
            if rec.ratio is not None:
                unit.ratios.append(rec.ratio)
            if "estimate_converged" in rec.params:
                unit.estimates += 1
                unit.unconverged += rec.params["estimate_converged"] is False
        return unit

    def check(self, first: Unit) -> list[str]:
        """omega_p estimates never exceed (sum_i ||T_i||^p)^(1/p); with
        jobs > 1, the reports equal the serial reports byte for byte."""
        failures = []
        for ops, p, value in self._captured:
            cap = sum(np.linalg.norm(t, 2) ** p for t in ops) ** (1.0 / p)
            if not value <= cap * (1.0 + 1e-12):
                failures.append(f"omega_p estimate {value!r} above norm cap {cap!r}")
        if self.jobs > 1:
            seed, bound_ids, grid = self._args
            ref = CampaignWorkload(seed, bound_ids, **grid).run_unit()
            self.serial_wall_s = ref.wall_s
            if ref.digest != first.digest:
                failures.append("parallel reports differ from the serial reports")
        return failures

    def layer_metrics(self, omega_evals: list) -> dict:
        return {}


@dataclass
class Case:
    kind: str
    side: int
    tol: float
    matrix: np.ndarray
    norm: float
    exact: float | None

    @property
    def tol_abs(self) -> float:
        return self.tol * max(1.0, self.norm)


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * math.sqrt(0.5)


class CertifyWorkload:
    """Certified radii of easy (Ginibre) and disk-class matrices."""

    jobs = 1
    serial_wall_s = None

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed & (2 ** 64 - 1), 0x1706])
        ginibre, disks = [], []
        for n in CERTIFY_SIDES:
            gins = [_ginibre(rng, n) for _ in range(CERTIFY_GINIBRE[n])]
            x = _ginibre(rng, n // 2)
            x /= np.linalg.norm(x, 2)
            zero = np.zeros_like(x)
            shapes = (
                # nilpotent shift: field of values is the disk of radius cos(pi/(n+1))
                ("shift", np.eye(n, k=1, dtype=np.complex128), math.cos(math.pi / (n + 1))),
                # [[0, X], [0, 0]]: the disk of radius ||X||/2
                ("offdiag", np.block([[zero, x], [zero, zero]]), np.linalg.norm(x, 2) / 2),
            )
            for tol in CERTIFY_TOLS:
                ginibre += [Case("ginibre", n, tol, g, np.linalg.norm(g, 2), None)
                            for g in gins]
                if n == 32 and tol < CERTIFY_SIDE32_MIN_TOL:
                    continue
                for kind, m, exact in shapes:
                    disks.append(Case(kind, n, tol, m, np.linalg.norm(m, 2), exact))
        # Each disk case is followed by every len(disks)-th Ginibre case, so
        # the short side-32 calls are timed all through a unit and not in
        # one burst that a slow moment of a shared host would cover whole.
        k = len(disks)
        self.cases: list[Case] = [c for i, disk in enumerate(disks)
                                  for c in (disk, *ginibre[i::k])]
        self._first: list = []

    def warm_up(self) -> None:
        numrad.omega(self.cases[0].matrix, self.cases[0].tol_abs)

    def run_unit(self, capture: bool = False, between=None) -> Unit:
        """Certify every case once. `between`, when given, is called after
        each case, and its time is not part of the unit's."""
        results, op_s, failures = [], [], []
        for case in self.cases:
            t = perf_counter()
            try:
                cert = numrad.omega(case.matrix, case.tol_abs)
                results.append((cert.lo, cert.hi, cert.witness_theta))
            except NumradError as exc:
                results.append(None)
                failures.append(f"{case.kind} n={case.side} tol={case.tol:g}: "
                                f"{type(exc).__name__}: {exc}")
            op_s.append(perf_counter() - t)
            if between is not None:
                between()
        wall = sum(op_s)
        if capture:
            self._first = results
        ratios = [r[0] / r[1] for r in results if r is not None and r[1] > 0.0]
        return Unit(wall_s=wall, op_s=op_s, digest=_sha256(repr(results)),
                    failures=failures, ratios=ratios)

    def check(self, first: Unit) -> list[str]:
        """Width, attained lower end, upper end over an angle grid, and the
        closed-form radius of the disk classes, all recomputed with scipy's
        eigensolver rather than the batched numpy one numrad uses."""
        from scipy.linalg import eigvalsh

        def h(m, theta):
            z = np.exp(1j * theta)
            return float(eigvalsh(0.5 * (z * m + np.conj(z) * m.conj().T))[-1])

        grid = np.linspace(0.0, 2.0 * math.pi, CHECK_ANGLES, endpoint=False)
        failures = []
        for case, res in zip(self.cases, self._first):
            if res is None:
                continue
            lo, hi, theta = res
            slack = rounding_slack(case.side, case.norm)
            name = f"{case.kind} n={case.side} tol={case.tol:g}"
            if not hi - lo <= case.tol_abs:
                failures.append(f"{name}: width {hi - lo!r} above tol {case.tol_abs!r}")
            if not abs(lo - h(case.matrix, theta)) <= slack:
                failures.append(f"{name}: lo {lo!r} is not h at the witness angle")
            top = max(h(case.matrix, t) for t in grid)
            if not hi >= top - slack:
                failures.append(f"{name}: hi {hi!r} below grid maximum {top!r}")
            if case.exact is not None and not lo - slack <= case.exact <= hi + slack:
                failures.append(f"{name}: [{lo!r}, {hi!r}] misses {case.exact!r}")
        return failures


    def layer_metrics(self, omega_evals: list) -> dict:
        """Largest eigen-evaluation count of one omega call per disk
        tolerance, and the largest and mean count for the Ginibre class;
        `omega_evals` holds one count per case, in case order."""
        out = {}
        ginibre = []
        for case, evals in zip(self.cases, omega_evals):
            if case.kind == "ginibre":
                ginibre.append(evals)
            else:
                key = f"radius.omega.disk_evals.tol1e-{round(-math.log10(case.tol))}"
                out[key] = max(out.get(key, 0), evals)
        if ginibre:
            out["radius.omega.ginibre_evals.max"] = max(ginibre)
            out["radius.omega.ginibre_evals.mean"] = sum(ginibre) / len(ginibre)
        return out


WORKLOADS = ("campaign_bounds", "campaign_omega_p", "certify_hard", "campaign_parallel")


def make(name: str, seed: int):
    # The grids are cut below the defaults so that one unit takes a few
    # seconds and a run's median is taken over several units.
    if name == "campaign_bounds":
        return CampaignWorkload(seed, OMEGA_SIDE_IDS, alpha_values=(0.25, 0.75))
    if name == "campaign_omega_p":
        return CampaignWorkload(seed, OMEGA_P_IDS, alpha_values=(0.5,))
    if name == "certify_hard":
        return CertifyWorkload(seed)
    if name == "campaign_parallel":
        return CampaignWorkload(seed, PARALLEL_IDS, jobs=min(nproc(), 4),
                                alpha_values=(0.5,), holder_p_values=(2.0,),
                                n_operators_values=(1, 2))
    raise ValueError(f"unknown workload {name!r}")
