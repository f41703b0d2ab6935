"""The claim rule and the ladder-store sharing of ``scripts/perfbench_pairs.py``.

A gain may be claimed only when the change wins at least nine tenths of
the pairs, ties counting for neither side, and the medians differ by more
than the parent's interquartile range, in the direction the metric's
``better`` names.  The parent's export gets the working tree's explored
ladders only when every file they are measured from is the same.
"""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

from repro.search.variants import LADDER_SOURCES

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perfbench_pairs.py"
_spec = importlib.util.spec_from_file_location("perfbench_pairs", SCRIPT)
pairs_script = importlib.util.module_from_spec(_spec)
sys.modules.setdefault(_spec.name, pairs_script)  # dataclasses look it up
_spec.loader.exec_module(pairs_script)


def pairs_of(parent, change, name="epoch_us_p50"):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def comparison(parent, change, better="lower", name="epoch_us_p50"):
    (row,) = pairs_script.compare(pairs_of(parent, change, name), {name: better})
    return row


#: Ten parent runs with quartiles 10.2 and 10.6 (an IQR of 0.4).
PARENT = [10.0, 10.2, 10.4, 10.6, 10.8, 10.0, 10.2, 10.4, 10.6, 10.8]


def test_a_clear_gain_is_claimed():
    row = comparison(PARENT, [p - 3.0 for p in PARENT])
    assert row.wins == 10 and row.pairs == 10
    assert row.parent == (10.2, 10.4, 10.6)
    assert row.claim


@pytest.mark.parametrize("pairs, needed", [(10, 9), (11, 10), (9, 9), (5, 5), (20, 18)])
def test_a_claim_needs_ceil_nine_tenths_of_the_pairs(pairs, needed):
    parent = [10.0 + 0.01 * (i % 3) for i in range(pairs)]
    losses = pairs - needed
    change = [p - 5.0 for p in parent[losses:]]
    won = comparison(parent, parent[:losses] + change)
    assert won.wins == needed and won.claim
    # One more loss (a worse run) and the claim is gone.
    change[0] = parent[losses] + 1.0
    lost = comparison(parent, parent[:losses] + change)
    assert lost.wins == needed - 1 and not lost.claim


def test_ties_count_for_neither_side():
    change = [p - 3.0 for p in PARENT]
    change[0] = PARENT[0]  # a tie
    row = comparison(PARENT, change)
    assert row.wins == 9 and row.claim
    change[1] = PARENT[1]  # a second tie is a second pair not won
    row = comparison(PARENT, change)
    assert row.wins == 8 and not row.claim


def test_the_median_gap_must_exceed_the_parents_iqr():
    # Every pair won, by less than the parent's spread of 0.4 (q1 10.2,
    # q3 10.6): no claim.
    assert not comparison(PARENT, [p - 0.3 for p in PARENT]).claim
    # A gap equal to the IQR is not enough either; a larger one is.
    parent = [10.0, 10.0, 10.0, 10.0, 11.0, 11.0, 12.0, 12.0, 12.0, 12.0]
    q1, median, q3 = pairs_script.quartiles(parent)
    assert (q1, median, q3) == (10.0, 11.0, 12.0)
    assert not comparison(parent, [p - 2.0 for p in parent]).claim
    assert comparison(parent, [p - 2.5 for p in parent]).claim


@pytest.mark.parametrize("better, shift, claimed", [
    ("lower", -3.0, True),
    ("lower", 3.0, False),
    ("higher", 3.0, True),
    ("higher", -3.0, False),
])
def test_the_direction_is_respected(better, shift, claimed):
    row = comparison(PARENT, [p + shift for p in PARENT], better=better)
    assert row.claim is claimed
    assert row.wins == (10 if claimed else 0)


def test_only_metrics_the_runs_report_are_compared(capsys):
    pairs = [({"a": 1.0, "b": 2.0}, {"a": 0.5, "b": 2.0})] * 10
    rows = pairs_script.compare(pairs, {"a": "lower", "c": "lower", "b": "higher"})
    assert [(row.name, row.wins, row.claim) for row in rows] == [
        ("a", 10, True),
        ("b", 0, False),
    ]
    pairs_script.summarize(pairs, {"a": "lower", "b": "higher"})
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("a ") and lines[1].endswith("10/10  yes")
    assert lines[2].startswith("b ") and lines[2].endswith(" 0/10  no")



def checkout(root, core="engine = 1\n", kernel="work = 1\n"):
    """A tree with ``perfbench/run.py`` and a small ``src/repro``."""
    files = {
        "apps/kmeans.py": kernel,
        "search/variants.py": "explore = 1\n",
        "rng.py": "seed = 1\n",
        "units.py": "mb = 1\n",
        "core/runtime.py": core,
    }
    for name, text in files.items():
        path = root / "src" / "repro" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    (root / "perfbench").mkdir()
    shutil.copy(SCRIPT.parent.parent / "perfbench" / "run.py", root / "perfbench")
    return root


def with_store(root):
    store = root / ".perfbench_state" / f"ladders-{pairs_script.fingerprint(root)}"
    store.mkdir(parents=True)
    (store / "kmeans.json").write_text("{}")
    return root


def test_identical_ladder_sources_share_the_store(tmp_path):
    source = with_store(checkout(tmp_path / "change", core="engine = 2\n"))
    target = checkout(tmp_path / "parent")
    assert pairs_script.fingerprint(source) != pairs_script.fingerprint(target)
    copy = pairs_script.share_ladder_store(source, target, LADDER_SOURCES)
    assert copy == target / ".perfbench_state" / f"ladders-{pairs_script.fingerprint(target)}"
    assert (copy / "kmeans.json").read_text() == "{}"
    assert [p.name for p in copy.parent.iterdir()] == [copy.name]


@pytest.mark.parametrize("edit", ["changed kernel", "added kernel"])
def test_a_changed_kernel_shares_nothing(tmp_path, edit):
    source = with_store(checkout(tmp_path / "change"))
    if edit == "changed kernel":
        target = checkout(tmp_path / "parent", kernel="work = 2\n")
    else:
        target = checkout(tmp_path / "parent")
        (target / "src" / "repro" / "apps" / "blast.py").write_text("work = 3\n")
    assert pairs_script.share_ladder_store(source, target, LADDER_SOURCES) is None
    assert not (target / ".perfbench_state").exists()
