"""Child interpreters that the tests start (`python -m tensec.cli`) import
the same tensec as the tests: its source root goes first on PYTHONPATH."""

import os
from pathlib import Path

import tensec

os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(tensec.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))))
