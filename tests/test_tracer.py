"""The benchmark's layer tracer still finds every function it wraps.

``perfbench/layers.py`` binds the traced functions by module and name.
Renaming or deleting one breaks ``perfbench/run.py --trace 1``; this test
installs the tracer in a fresh interpreter and runs one small command per
traced layer, so such a change fails here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = [
    "oracle kernel-vs-grid --n_x 256 --dt 1e-2",
    "lattice greens",
    "lattice kg-wave",
    "lattice hj-positivity --draws 2",
    "cosmo de-sitter --t_end 0.1",
    "quadratic schrodinger-order",
    "general-hj decoupling",
    "general-hj hbar-slope",
]

SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
import layers
from semiprop import cli

tracer = layers.Tracer()
layers.install(tracer)
out, commands = Path(sys.argv[1]), json.loads(sys.argv[2])
exits = []
for n, command in enumerate(commands):
    with contextlib.redirect_stdout(io.StringIO()):
        exits.append(cli.main(command.split() + ["--out", str(out / str(n))]))
print(json.dumps({"exits": exits, "spans": sorted({s.name for s in tracer.spans})}))
"""


def test_tracer_installs_and_records_each_layer(tmp_path):
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(COMMANDS)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["exits"] == [0] * len(COMMANDS)
    for name in (
        "oracle.cn_evolve",
        "oracle.kernel_propagate",
        "report.write_csv",
        "lattice.lattice_greens_function",
        "lattice.functional_hj_residual",
        "lattice.lattice_klein_gordon_check",
        "cosmo.evolve_classical",
        "core.rk4_solve",
        "core.assemble_propagator",
        "general_hj",
    ):
        assert name in result["spans"], name
