"""Tests of the benchmark's own code import qomin from the repository's src/."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
