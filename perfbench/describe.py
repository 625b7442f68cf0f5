"""Print the sample environment as JSON, and compile the package's bytecode.

run.py starts this once per invocation, with the same environment as the
samples, before anything is timed: users run an installed package whose
bytecode is already compiled, so the samples should not pay for compiling.
"""

import json
import os
import platform
import sys


def main() -> int:
    import mpmath
    import numpy

    import fracwave
    import fracwave.cli
    import fracwave.validation  # noqa: F401  (imported lazily by `validate`)

    try:
        build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: build.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "fracwave": fracwave.__version__,
        "fracwave_path": os.path.dirname(fracwave.__file__),
    }
    json.dump(info, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
