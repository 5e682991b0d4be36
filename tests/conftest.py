"""Puts perfbench/ on the import path, so tests check against the same
reference values as the benchmark (`import oracles`)."""
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
