"""Run one caralloc benchmark workload.

    python3 perfbench/run.py --workload sgpa_massive --seed 1 --seconds 20 --trace 0

Prints an environment record, every metric by name with its unit and sample
count, and last a JSON line {"correct", "attempted", "failed", "metrics"}:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Exit status 0 when every output passed its checks, 1 when any failed, 2 when
the caralloc sources are not found beside the benchmark.
"""

import os
import sys
from pathlib import Path

# Pinned before numpy is first imported; BLAS reads them once, at load.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main() -> int:
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "caralloc" / "__init__.py").is_file():
        print(f"caralloc sources not found in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
