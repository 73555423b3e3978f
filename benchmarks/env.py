"""Process set-up shared by the benchmark entry points.

``prepare()`` must run before numpy is first imported: OpenBLAS and OpenMP
read their thread counts once, when the library loads. It also puts this
checkout's ``src/`` first on the import path, so the benchmark always measures
the sources next to it and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def prepare() -> None:
    """Pin BLAS/OpenMP threads to 1 and import analogopt from ``src/``."""
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    if not (SOURCE / "analogopt" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no analogopt sources under {SOURCE}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # Child processes (the set-up probes) inherit both settings.
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), inherited]))
    sys.path.insert(0, str(SOURCE))
