#!/usr/bin/env python3
"""Regenerate the pinned golden digests under ``tests/golden/``.

Runs every colocation of the golden panel (``tests/golden/panel.py``)
and every kernel run of the kernel panel (``tests/golden/kernels.py``),
and writes one :func:`repro.sweep.digest.result_digest` per label into
``digests.json`` and ``kernel_digests.json``.  The digests are what
"same behaviour" means for a refactor, so re-pinning is for a change
meant to alter results, and it must say why::

    PYTHONPATH=src python scripts/pin_golden.py --reason "retuned the LLC model"

The reason is stored in the file next to the digests, so the diff of a
re-pin carries its justification.  A file whose digests did not change
is left as it is, reason included.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from repro.sweep.digest import result_digest  # noqa: E402
from tests.golden.kernels import KERNEL_DIGESTS_PATH, run_kernel_panel  # noqa: E402
from tests.golden.panel import DIGESTS_PATH, run_panel  # noqa: E402


def _pin(path: Path, digests: dict[str, str], reason: str) -> None:
    digests = dict(sorted(digests.items()))
    rel = path.relative_to(ROOT)
    if path.is_file() and json.loads(path.read_text()).get("digests") == digests:
        print(f"{rel}: {len(digests)} digests unchanged")
        return
    payload = {"reason": reason, "digests": digests}
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"pinned {len(digests)} digests into {rel}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reason", required=True, help="why the results are meant to change")
    args = parser.parse_args(argv)
    if not args.reason.strip():
        parser.error("--reason must not be empty")
    reason = args.reason.strip()
    _pin(
        DIGESTS_PATH,
        {label: result_digest(result) for label, result in run_panel().items()},
        reason,
    )
    _pin(KERNEL_DIGESTS_PATH, run_kernel_panel(), reason)
    return 0


if __name__ == "__main__":
    sys.exit(main())
