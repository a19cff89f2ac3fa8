"""Locate the taraarch sources in the checkout that holds this benchmark.

The benchmark measures the program in its own checkout, never an installed
copy, so it puts ``<root>/src`` first on ``sys.path`` and refuses to run when
the sources or the committed plans are missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PLANS = ROOT / "plans"
OUT = Path(__file__).resolve().parent / "_out"


class MissingProgram(RuntimeError):
    """The checkout does not hold the program or its plans."""


def locate() -> Path:
    """Make ``import taraarch`` load ``<root>/src/taraarch``; return the root."""
    package = SRC / "taraarch" / "__init__.py"
    if not package.is_file():
        raise MissingProgram(f"no taraarch sources at {package.parent}")
    if not PLANS.is_dir():
        raise MissingProgram(f"no committed plans at {PLANS}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import taraarch

    loaded = Path(taraarch.__file__).resolve()
    if loaded != package.resolve():
        raise MissingProgram(f"taraarch was imported from {loaded}, not {package}")
    return ROOT
