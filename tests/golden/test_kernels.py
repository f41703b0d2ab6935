"""Kernel digests: the hot exploration kernels stay bit-identical.

A failure here means a change altered a kernel's output or counters,
and with them every ladder explored from it.  If that was the point,
re-pin with ``python scripts/pin_golden.py --reason "..."``; if it was
not, the change broke behaviour it meant to keep.
"""

import json

import pytest

from repro.apps import make_app
from tests.golden.kernels import (
    KERNEL_DIGESTS_PATH,
    kernel_digest,
    kernel_panel,
)

KERNELS = kernel_panel()
PINNED = json.loads(KERNEL_DIGESTS_PATH.read_text())


def test_pin_states_a_reason():
    assert PINNED["reason"].strip()


def test_every_label_is_pinned():
    assert set(PINNED["digests"]) == set(KERNELS)


@pytest.mark.parametrize("label", sorted(KERNELS))
def test_kernel_digest_unchanged(label):
    name, seed, spec = KERNELS[label]
    run = make_app(name).run(spec, seed=seed)
    assert kernel_digest(run) == PINNED["digests"][label]
