"""Every test, benchmark and example file a CI step names exists.

CI runs only after a push, so a step that still names a deleted file
fails there and nowhere earlier.  This scans the workflow as text (no
YAML parser: PyYAML is not a dev dependency) for ``tests/``,
``benchmarks/`` and ``examples/`` Python paths, globs included, and
checks that each one matches a file in the repository.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: A repo-relative Python path under one of the three trees; glob
#: characters (``*``, ``?``, ``[...]``) may appear in it.
CI_PATH = re.compile(
    r"(?<![\w/.-])(?:tests|benchmarks|examples)/[\w*?\[\]/.-]*\.py\b"
)


def test_every_ci_path_matches_a_file():
    paths = sorted(set(CI_PATH.findall(WORKFLOW.read_text())))
    assert paths, f"no test, benchmark or example path in {WORKFLOW}"
    missing = [path for path in paths if not any(ROOT.glob(path))]
    assert missing == []
