"""Make `src/` importable in child processes too.

pyproject's `pythonpath` setting puts `src/` on this process's sys.path
only; the CLI tests start `python -m privcache` as a subprocess, which
finds the package through PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_PATHS = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if _SRC not in _PATHS:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC, *_PATHS])
