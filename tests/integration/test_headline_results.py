"""The paper's headline claims, asserted end-to-end (Section 6.2).

A representative subset of the 24x3 matrix runs here (the full matrix is
the Fig. 5 benchmark); the claims checked:

* precise-mode colocation always violates QoS, within the per-service bands;
* Pliant restores QoS for every colocation;
* output quality loss stays near 2% on average, bounded by ~5.5%;
* approximate apps keep (or improve) their precise-mode execution time,
  with water_spatial the known exception.
"""

import numpy as np
import pytest

from repro.sweep import Scenario, run_scenario

#: Subset spanning suites, services, and contention behaviors.
PAIRS = [
    ("nginx", "canneal"),
    ("nginx", "bayesian"),
    ("nginx", "kmeans"),
    ("nginx", "water_spatial"),
    ("memcached", "canneal"),
    ("memcached", "snp"),
    ("memcached", "plsa"),
    ("memcached", "raytrace"),
    ("mongodb", "canneal"),
    ("mongodb", "snp"),
    ("mongodb", "streamcluster"),
    ("mongodb", "hmmer"),
]


@pytest.fixture(scope="module")
def matrix():
    return {
        (service, app): {
            policy: run_scenario(Scenario(service, app, policy=policy, seed=7))
            for policy in ("precise", "pliant")
        }
        for service, app in PAIRS
    }


class TestPreciseViolations:
    def test_every_pair_violates(self, matrix):
        for key, results in matrix.items():
            assert results["precise"].qos_ratio > 1.0, key

    def test_nginx_band(self, matrix):
        ratios = [r["precise"].qos_ratio for k, r in matrix.items() if k[0] == "nginx"]
        assert max(ratios) > 5.0  # paper: up to 9.8x
        assert min(ratios) > 1.0

    def test_memcached_band(self, matrix):
        ratios = [
            r["precise"].qos_ratio for k, r in matrix.items() if k[0] == "memcached"
        ]
        assert all(1.3 < ratio < 4.5 for ratio in ratios)  # paper: 1.46-3.8x


class TestPliantRestoresQos:
    def test_every_pair_meets(self, matrix):
        for key, results in matrix.items():
            assert results["pliant"].qos_met, (
                key,
                results["pliant"].qos_ratio,
            )

    def test_most_intervals_met(self, matrix):
        fractions = [r["pliant"].qos_met_fraction() for r in matrix.values()]
        assert np.mean(fractions) > 0.75


class TestQualityLoss:
    def test_bounded(self, matrix):
        for (service, app), results in matrix.items():
            inacc = results["pliant"].app_outcome(app).inaccuracy_pct
            assert inacc <= 6.0, (service, app, inacc)

    def test_average_near_paper(self, matrix):
        values = [
            r["pliant"].app_outcome(app).inaccuracy_pct
            for (service, app), r in matrix.items()
        ]
        assert np.mean(values) < 4.0  # paper: 2.1% average

    def test_precise_baseline_exact(self, matrix):
        for (service, app), results in matrix.items():
            assert results["precise"].app_outcome(app).inaccuracy_pct == 0.0


class TestExecutionTime:
    def test_apps_keep_nominal_performance(self, matrix):
        for (service, app), results in matrix.items():
            precise_t = results["precise"].app_outcome(app).finish_time
            pliant_t = results["pliant"].app_outcome(app).finish_time
            assert precise_t is not None and pliant_t is not None
            relative = pliant_t / precise_t
            if app == "water_spatial":
                # The paper's known exception: its variants barely shorten
                # execution, so reclaimed cores cost it real time.
                assert relative < 1.35
            else:
                assert relative < 1.15, (service, app, relative)

    def test_memcached_needs_cores(self, matrix):
        for (service, app), results in matrix.items():
            if service != "memcached":
                continue
            assert results["pliant"].max_cores_reclaimed() >= 1, app

    def test_canneal_needs_more_cores_than_snp_on_memcached(self, matrix):
        canneal = matrix[("memcached", "canneal")]["pliant"].max_cores_reclaimed()
        snp = matrix[("memcached", "snp")]["pliant"].max_cores_reclaimed()
        assert canneal >= snp
