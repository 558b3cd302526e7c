"""The environment a result was measured in, stamped on every result."""

import ctypes
import glob
import os
import platform
import subprocess

import numpy as np

import workloads

_BLAS_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches():
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                caches["L%s %s" % (level, kind)] = fh.read().strip()
        except OSError:
            continue
    return caches


def _blas():
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREADS:
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _git_commit():
    # The ceiling keeps git from finding a repository above this checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(workloads.ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed):
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "caches": _caches(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "git_commit": _git_commit(), "seed": seed}
