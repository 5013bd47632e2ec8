"""Process set-up shared by the benchmark's scripts.

Call `prepare()` before anything imports NumPy: OpenBLAS reads its thread
count once, when the library loads, and child processes inherit the
environment set here.
"""

from __future__ import annotations

import ctypes
import os
import sys
from pathlib import Path

# One BLAS thread: step times are steadier than at the default thread
# count, and the loss bytes differ between thread counts.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc's mmap threshold, fixed at 32 MiB, the highest value glibc's
# dynamic threshold reaches on 64-bit Linux. Left dynamic, it rises to the
# size of the largest array freed so far, and arrays below it stay on the
# heap: the peak RSS of one pretrain_hot pass then moved between 126 MB and
# 173 MB across seeds whose scenes differ by a few voxels; fixed, it stays
# within 147-150 MB. The heap trim threshold is left alone, so the
# program's allocation churn still shows: a `pointvb run` child of cli_run
# takes 1.73 M minor page faults with the fixed threshold and 1.72 M with
# the dynamic one. (At its 128 KiB starting value, every array over 128 KiB
# would be mapped and unmapped, and a pretrain step took 1.5x as long.)
MMAP_THRESHOLD = 32 * 1024 * 1024
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def prepare() -> None:
    """Pin the BLAS threads and the mmap threshold, and import pointvb from
    this checkout's src/.

    Exits with status 2 when the checkout holds no pointvb sources, so the
    benchmark never measures an installed copy by accident.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)  # children
    ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)  # this process
    if not (SRC / "pointvb" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'pointvb'} not found; run from the root "
              "of a pointvb checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
