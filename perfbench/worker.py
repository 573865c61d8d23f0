"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py JOB.json RESULT.json
    python3 perfbench/worker.py --probe

Imports ``semiprop.cli``, prints ``ready`` (the parent times set-up up to
that line), then runs the job's CLI invocations back to back in this
process and writes wall times, exit codes, CPU time, peak memory and the
library environment to RESULT.json.  With ``"trace": true`` in the job
the layers are wrapped first and the spans are summarized into RESULT.json;
without it nothing is wrapped.  ``--probe`` only imports and prints
``ready``: a set-up sample.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "thread_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv: list[str]) -> int:
    from semiprop import cli

    print("ready", flush=True)
    if argv == ["--probe"]:
        return 0
    job_path, result_path = argv
    job = json.loads(Path(job_path).read_text())
    tracer = None
    if job["trace"]:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)

    invocations = []
    cpu0 = os.times()
    started = time.perf_counter()
    for inv in job["invocations"]:
        sink, errors = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
                if tracer is None:
                    code = cli.main(inv["argv"])
                else:
                    tracer.invocation = inv["name"]
                    code = tracer.call("cli.main", cli.main, (inv["argv"],), {})
        except Exception:
            code = None
            errors.write(traceback.format_exc())
        invocations.append(
            {
                "name": inv["name"],
                "wall_s": time.perf_counter() - t0,
                "exit": code,
                "stderr": errors.getvalue()[-2000:],
            }
        )
    wall = time.perf_counter() - started
    cpu1 = os.times()

    result = {
        "wall_s": wall,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "invocations": invocations,
        "environment": environment(),
    }
    if tracer is not None:
        result["trace"] = layers.summarize(tracer.spans)
        result["spans"] = layers.records(tracer.spans)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
