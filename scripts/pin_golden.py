#!/usr/bin/env python3
"""Regenerate ``tests/golden/digests.json``, the pinned result digests.

Runs every colocation of the golden panel (``tests/golden/panel.py``)
and writes one :func:`repro.sweep.digest.result_digest` per label.  The
digests are what "same behaviour" means for a refactor, so re-pinning
is for a change meant to alter results, and it must say why::

    PYTHONPATH=src python scripts/pin_golden.py --reason "retuned the LLC model"

The reason is stored in the file next to the digests, so the diff of a
re-pin carries its justification.
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
from tests.golden.panel import DIGESTS_PATH, run_panel  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reason", required=True, help="why the results are meant to change")
    args = parser.parse_args(argv)
    if not args.reason.strip():
        parser.error("--reason must not be empty")
    digests = {label: result_digest(result) for label, result in run_panel().items()}
    payload = {"reason": args.reason.strip(), "digests": dict(sorted(digests.items()))}
    DIGESTS_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"pinned {len(digests)} digests into {DIGESTS_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
