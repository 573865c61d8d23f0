"""Run a probe script in a fresh process: one launcher for the tests that
need a module state this test process no longer has.

Each probe runs in a child of a ``multiprocessing`` forkserver whose only
preload is numpy, so a probe starts with no ``semiprop`` module and no
scipy loaded, and pays neither for an interpreter start nor for numpy's
import. Under ``python -m pytest`` no pytest is loaded either; the
``pytest`` script is re-run in each child as its main module. ``run`` mirrors ``python -c script args...``: the script
runs as ``__main__`` with ``sys.argv == ["-c", *args]``, and its exit
code (1, with the traceback on stderr, if it raises), stdout and stderr
come back as a ``Done``.

A test of what an interpreter's start does (``python -m``, or a variable
numpy reads when it loads) must still spawn one; this launcher cannot
show it.
"""

import contextlib
import io
import multiprocessing
import sys
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_CONTEXT = multiprocessing.get_context("forkserver")
_CONTEXT.set_forkserver_preload(["numpy"])


class Done(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def _probe(script, argv, path, result):
    sys.argv = ["-c", *argv]
    sys.path[:0] = path
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            exec(compile(script, "<probe>", "exec"), {"__name__": "__main__"})
        except Exception:
            traceback.print_exc()
            code = 1
    result.send(Done(code, out.getvalue(), err.getvalue()))


def run(script, *args, path=(), timeout=120) -> Done:
    """``python -c script args...`` in a fresh child that finds this checkout's
    ``src``, and then each directory of ``path``, first."""
    receive, send = _CONTEXT.Pipe(duplex=False)
    child = _CONTEXT.Process(
        target=_probe,
        args=(script, [str(a) for a in args], [str(SRC), *map(str, path)], send),
    )
    child.start()
    send.close()
    try:
        if not receive.poll(timeout):
            raise TimeoutError("probe still running after {} s".format(timeout))
        return receive.recv()
    finally:
        receive.close()
        child.join(timeout=5)
        if child.exitcode is None:
            child.kill()
            child.join()
