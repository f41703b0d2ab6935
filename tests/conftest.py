"""Shared fixtures."""

from __future__ import annotations

import pytest

from repro.apps import make_app

#: Apps with sub-100ms kernels, safe for use in per-test exploration.
FAST_APPS = ("water_spatial", "kmeans", "semphy", "raytrace", "bayesian")


@pytest.fixture()
def kmeans_app():
    return make_app("kmeans")


@pytest.fixture()
def raytrace_app():
    return make_app("raytrace")
