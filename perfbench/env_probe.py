"""Print the numeric stack the CLI children run on, as one JSON line.

Run with the interpreter and environment the children get, so the record
describes them: numpy version, its BLAS library and that library's thread
count.
"""

import ctypes
import glob
import json
import os

import numpy

# Thread-count getters exported by OpenBLAS builds, newest naming first.
_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads():
    """Threads the BLAS library numpy loaded will use, or None if unknown."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in _GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def main():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": {key: os.environ[key] for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ},
    }))


if __name__ == "__main__":
    main()
