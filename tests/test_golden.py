"""Golden outputs: the shipped-config CSVs and ``check`` report keep their exact bytes.

Refactors of the engine are meant to leave every number unchanged, so the
sha256 of each CSV (of stdout for ``check``, which writes no CSV) is
compared with the digest in ``golden_outputs.json``.  Float results can move
in the last bit across numpy/scipy releases, so the test skips when the
installed versions differ from the ones the digests were recorded with.
Each run is a fresh process with BLAS pinned to one thread, as the digests
were recorded; the rule-weighted sums behind ``dual`` are fixed-order
reductions, so its bytes must also match at two threads.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden_outputs.json").read_text())
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

RUNS = {
    "converge": ["converge", "--config", "configs/converge_atm.cfg", "--paths", "2000"],
    "hedge": ["hedge", "--config", "configs/hedge_atm.cfg"],
    "dual": ["dual", "--config", "configs/dual_atm.cfg"],
    "figure": ["figure", "--config", "configs/figure1.cfg"],
    "price": ["price", "--config", "configs/figure1.cfg"],
    "check": ["check", "--config", "configs/check_default.cfg"],
}


def _run(name: str, out: Path, threads: int = 1) -> bytes:
    """Output bytes of one shipped run in a fresh process with BLAS at ``threads``."""
    env = {**os.environ, **{k: str(threads) for k in THREAD_VARS}}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bachimpact.cli", *RUNS[name], "--out", str(out), "--quiet"],
        cwd=ROOT, env=env, check=True, stdout=subprocess.PIPE,
    )
    # check prints its report and writes no CSV
    return proc.stdout if name == "check" else out.read_bytes()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_csv_bytes_match_golden(name, tmp_path):
    versions = (np.__version__, scipy.__version__)
    if versions != (GOLDEN["numpy"], GOLDEN["scipy"]):
        pytest.skip(
            f"digests recorded with numpy {GOLDEN['numpy']} / scipy {GOLDEN['scipy']}, "
            f"running numpy {versions[0]} / scipy {versions[1]}"
        )
    digest = hashlib.sha256(_run(name, tmp_path / f"{name}.csv")).hexdigest()
    assert digest == GOLDEN["sha256"][name], f"{name} output bytes changed"


def test_dual_bytes_independent_of_blas_threads(tmp_path):
    # the rule-weighted sums are fixed-order reductions, not BLAS dots
    assert _run("dual", tmp_path / "one.csv") == _run("dual", tmp_path / "two.csv", threads=2)
