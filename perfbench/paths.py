"""Locations inside the checkout; importing this puts its src/ first on sys.path."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "goldens"
# Instance files, span dumps and scratch output; listed in .gitignore.
OUT_DIR = BENCH_DIR / "_out"

if not (SRC / "matchforce" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no matchforce package under {SRC}; run from a full checkout")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
