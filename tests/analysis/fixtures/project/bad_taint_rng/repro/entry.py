"""Deterministic entrypoint reaching the global RNG through a call."""

from repro.viz.noise import jitter


def plan(n):
    return jitter(n)
