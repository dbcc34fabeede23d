"""Locate the checkout's own sccforge source and put it first on sys.path."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source() -> bool:
    """False when the checkout has no src/sccforge; never falls back to an installed copy."""
    if not (SRC / "sccforge" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True
