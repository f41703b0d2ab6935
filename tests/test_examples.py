"""Every example imports cleanly.

Each example guards ``main()`` behind ``if __name__ == "__main__"``, so
running it under another name executes only its imports and module-level
definitions.  An example left importing a removed module fails here, not
when a user first runs it.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports(path):
    namespace = runpy.run_path(str(path), run_name="example_import_check")
    assert callable(namespace["main"])
