"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The campaign-backed criteria share one default-campaign run via a
module-scoped fixture; the determinism criterion re-runs it on a thread
pool and compares the serialized reports byte for byte.
"""

import math
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from numrad.bounds import (
    bound_main1,
    bound_main3,
    bound_main11,
    bound_main11_young,
    bound_sum_norm,
    bound_th1,
    refined_young,
)
from numrad.ensembles import RngStream
from numrad.funcpair import HolderPair, power_pair, pow_of_pair
from numrad.harness import (
    default_config,
    report_to_csv,
    report_to_json,
    run_campaign,
)
from numrad.linalg import (
    OffDiagPair,
    adjoint,
    embed_offdiag,
    spectral_norm,
)
from numrad.radius import (
    omega,
    omega_p,
    omega_p_bruteforce,
    omega_p_gradient,
    omega_p_objective,
)
from reference import abs_op, fn_of_abs, fn_of_psd, omega_offdiag_symmetric_check

CAMPAIGN_SEED = 20240819


def _announce(line):
    # write past pytest's capture so the line lands in plain `pytest -v` output
    print(line)
    stream = getattr(sys, "__stdout__", None)
    if stream is not None and stream is not sys.stdout:
        print(line, file=stream)


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        _announce(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    _announce(f"ACCEPTANCE {num:02d} {name}: PASS")


def rand_complex(g, m, n=None):
    n = m if n is None else n
    return (g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))) / np.sqrt(2)


@pytest.fixture(scope="module")
def campaign():
    config = default_config(master_seed=CAMPAIGN_SEED)
    report = run_campaign(config)
    return config, report


def test_criterion_01_certified_radius_hermitian():
    with criterion(1, "certified-omega-hermitian-and-shift"):
        g = np.random.default_rng(101)
        for k in range(200):
            n = 2 + k % 7
            z = rand_complex(g, n)
            h = (z + adjoint(z)) / 2
            top = float(np.abs(np.linalg.eigvalsh(h)).max())
            scale = max(1.0, top)
            cert = omega(h, tol=1e-9 * scale)
            assert abs(cert.lo - top) <= 1e-8 * scale
            assert abs(cert.hi - top) <= 1e-8 * scale
        cert = omega([[0, 1], [0, 0]], tol=1e-9)
        assert abs(cert.lo - 0.5) <= 1e-8
        assert abs(cert.hi - 0.5) <= 1e-8


def test_criterion_02_symmetric_embedding_overlap():
    with criterion(2, "offdiag-symmetric-embedding-overlap"):
        g = np.random.default_rng(102)
        for k in range(200):
            n = 2 + k % 5
            x = rand_complex(g, n)
            c1, c2 = omega_offdiag_symmetric_check(x, tol=1e-9 * max(1.0, spectral_norm(x)))
            w = 1e-9 * max(1.0, spectral_norm(x))
            assert c1.lo <= c2.hi + w
            assert c2.lo <= c1.hi + w


def test_criterion_03_norm_sandwich_and_power():
    with criterion(3, "norm-sandwich-and-power-inequality"):
        g = np.random.default_rng(103)
        for k in range(200):
            n = 2 + k % 7
            t = rand_complex(g, n)
            nrm = spectral_norm(t)
            cert = omega(t, tol=1e-9 * max(1.0, nrm))
            assert nrm / 2.0 <= cert.hi
            assert cert.lo <= nrm
            cert_sq = omega(t @ t, tol=1e-9 * max(1.0, nrm * nrm))
            scale = max(1.0, cert.hi ** 2)
            assert cert_sq.hi <= cert.hi ** 2 + 1e-8 * scale


def test_criterion_04_master_validity_campaign(campaign):
    with criterion(4, "master-validity-campaign"):
        config, report = campaign
        assert len(report.errors) == 0
        assert len(report.violations) == 0
        for bound_id in config.bound_ids:
            entry = report.summary[bound_id]
            assert entry["count"] >= 500
            assert entry["violations"] == 0


def test_criterion_05_tight_cases():
    with criterion(5, "tight-cases-reach-equality"):
        one = [[1.0]]
        half = power_pair(0.5)
        out = bound_main1(OffDiagPair(one, one), half, 1.0, 1)
        lo = omega(embed_offdiag(one, one), tol=1e-10).lo
        assert abs(lo ** out.exponent / out.value - 1.0) <= 1e-9

        out = bound_th1([([[0.0]], one, one, [[0.0]])], 1.0)
        lo = omega([[0, 1], [1, 0]], tol=1e-10).lo
        assert abs(lo ** out.exponent / out.value - 1.0) <= 1e-9

        out = bound_sum_norm(one, one, 1.0, "+")
        lhs = spectral_norm(np.array(one) + adjoint(one))
        assert abs(out.value - 2.0) <= 1e-9 and abs(lhs - 2.0) <= 1e-9

        out = bound_main11_young(OffDiagPair(one, one), half, 1.0,
                                 HolderPair(2.0, 2.0), 1)
        lo = omega(embed_offdiag(one, one), tol=1e-10).lo
        assert abs(lo ** out.exponent / out.value - 1.0) <= 1e-9


def test_criterion_06_constant_discrepancy():
    with criterion(6, "holder-constant-discrepancy"):
        one = [[1.0]]
        half = power_pair(0.5)
        hp = HolderPair(2.0, 2.0)
        lo = omega(embed_offdiag(one, one), tol=1e-10).lo

        stated = bound_main11(OffDiagPair(one, one), half, 1.0, hp, 1, "as_stated")
        assert stated.value == pytest.approx(0.5, abs=1e-12)
        assert stated.value < lo ** stated.exponent  # violation on record

        proved = bound_main11(OffDiagPair(one, one), half, 1.0, hp, 1, "as_proved")
        assert proved.value == pytest.approx(2.0, abs=1e-12)
        assert proved.value >= lo ** proved.exponent

        g = np.random.default_rng(106)
        for k in range(100):
            x = rand_complex(g, 2 + k % 3)
            r = (1.0, 1.5, 2.0, 3.0)[k % 4]
            pair = power_pair((0.0, 0.25, 0.5, 0.75, 1.0)[k % 5])
            out = bound_main11(OffDiagPair(x, x), pair, r, hp, 1, "as_proved")
            fe, ge = pow_of_pair(pair, 2 * r)
            s = fn_of_abs(x, fe) + fn_of_abs(adjoint(x), ge)
            direct = 2.0 ** (2 * r - 3) * spectral_norm(
                fn_of_psd(s, lambda t: np.asarray(t) ** 2))
            assert abs(out.value - direct) <= 1e-10 * max(1.0, direct)


def test_criterion_07_specialization_identities():
    with criterion(7, "offdiag-specialization-identities"):
        g = np.random.default_rng(107)
        half = power_pair(0.5)
        for k in range(100):
            m, n = 2 + k % 3, 2 + (k + 1) % 3
            x, y = rand_complex(g, m, n), rand_complex(g, n, m)
            out = bound_main1(OffDiagPair(x, y), half, 1.0, 1)
            direct = 0.5 * math.sqrt(
                spectral_norm(abs_op(x) + abs_op(adjoint(y)))
            ) * math.sqrt(spectral_norm(abs_op(y) + abs_op(adjoint(x))))
            assert abs(out.value - direct) <= 1e-10 * max(1.0, direct)
        for k in range(50):
            x = rand_complex(g, 2 + k % 3)
            out = bound_main1(OffDiagPair(x, x), half, 1.0, 1)
            direct = 0.5 * spectral_norm(abs_op(x) + abs_op(adjoint(x)))
            assert abs(out.value - direct) <= 1e-10 * max(1.0, direct)


def test_criterion_08_omega_p_estimator():
    with criterion(8, "omega-p-estimator-accuracy"):
        g = np.random.default_rng(108)
        for k in range(100):
            n = 2 + k % 5
            m = rand_complex(g, n)
            cert = omega(m, tol=1e-10 * max(1.0, spectral_norm(m)))
            est = omega_p([m], p=float(1 + k % 3))
            assert abs(est.value - cert.lo) <= 1e-6

        for k in range(50):
            n = 2 + k % 2
            n_ops = 1 + k % 3
            p = float(1 + k % 3)
            ops = [rand_complex(g, n) for _ in range(n_ops)]
            bf = omega_p_bruteforce(ops, p, grid_density=4096)
            est = omega_p(ops, p, restarts=24, stream=RngStream(800 + k))
            assert abs(bf - est.value) <= 1e-4

        step = 1e-6
        for k in range(100):
            n = 2 + k % 3
            ops = [rand_complex(g, n) for _ in range(1 + k % 3)]
            p = float(1 + k % 3)
            x = g.standard_normal(n) + 1j * g.standard_normal(n)
            x /= np.linalg.norm(x)
            d = g.standard_normal(n) + 1j * g.standard_normal(n)
            d /= np.linalg.norm(d)
            analytic = float(np.real(np.vdot(d, omega_p_gradient(ops, p, x))))
            fd = (omega_p_objective(ops, p, x + step * d)
                  - omega_p_objective(ops, p, x - step * d)) / (2 * step)
            assert abs(analytic - fd) <= 1e-5 * max(1.0, abs(fd))


def test_criterion_09_refined_young():
    with criterion(9, "refined-scalar-young"):
        g = np.random.default_rng(109)
        for _ in range(10000):
            a, b = g.uniform(0.0, 20.0, size=2)
            m = int(g.integers(1, 7))
            lhs, rhs = refined_young(a, b, m)
            assert lhs <= rhs + 1e-12 * max(1.0, rhs)
        for _ in range(500):
            a, b = g.uniform(0.0, 20.0, size=2)
            lhs, rhs = refined_young(a, b, 2)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_criterion_10_zeta_behavior():
    with criterion(10, "zeta-gap-estimates"):
        g = np.random.default_rng(110)
        small_count = 0
        for k in range(200):
            m, n = 2 + k % 2, 3 - k % 2
            x = rand_complex(g, m, n)
            y = rand_complex(g, n, m)
            pair = power_pair((0.25, 0.5, 0.75)[k % 3])
            r = (1.0, 1.5, 2.0)[k % 3]
            guaranteed, refined, zeta = bound_main3(OffDiagPair(x, y), pair, r, 1 + k % 2)
            if zeta.value < 1e-4:
                small_count += 1
            assert zeta.value >= 0.0
            assert refined.value <= guaranteed.value
            t = embed_offdiag(x, y)
            lo = omega(t, tol=1e-8 * max(1.0, spectral_norm(t))).lo
            assert lo ** r <= guaranteed.value + 1e-8 * max(1.0, guaranteed.value)
        assert small_count >= 190  # 95% of 200


def test_criterion_11_report_determinism(campaign):
    with criterion(11, "report-determinism-across-jobs"):
        config, report = campaign
        json_one = report_to_json(report)
        csv_one = report_to_csv(report)
        parallel = default_config(master_seed=CAMPAIGN_SEED, jobs=2)
        report_two = run_campaign(parallel)
        assert report_to_json(report_two) == json_one
        assert report_to_csv(report_two) == csv_one
