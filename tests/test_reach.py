"""``src/semiprop`` holds only what a check runs.

A fresh process installs a profiler before ``import semiprop`` and runs
every check at its defaults and in each family or signature, every
``PARAMETER_ERRORS`` row, one ``--config`` run and one ``--sweep`` run.
Every module-level function, and every method of a module-level class,
under ``src/semiprop`` must then have been entered, or be allowed. The
allowlist is derived, never written out:

- roots: the names ``tests/test_acceptance.py`` imports from ``semiprop``,
  and the (module, attribute) pairs ``perfbench/layers.py::_targets()``
  traces, both read by AST, so perfbench is never imported;
- the methods of a root class;
- helpers: an unreached function that ``src`` refers to (by a name or an
  attribute) only inside allowed functions. A function a check enters
  allows nothing it calls, so an unreached branch of a check is reported.

Code that only a unit test calls belongs beside that test.
"""

import ast
import json

import pytest

import fresh

PACKAGE = fresh.SRC / "semiprop"
TESTS = fresh.ROOT / "tests"

PROBE = """
import contextlib, io, json, sys
from pathlib import Path

codes = set()


def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)


sys.setprofile(profile)

import semiprop
from semiprop.cli import CHECKS, main
from cases import PARAMETER_ERRORS

tmp = Path(sys.argv[1])
runs = []
for (scenario, check), (declared, *_) in CHECKS.items():
    choices = [[]]
    for key in ("family", "signature"):
        if key in declared:
            choices = [["--" + key, choice] for choice in declared[key][1]]
    runs += [([scenario, check] + choice, 0) for choice in choices]
runs.append((["lattice", "greens", "--signature", "lorentzian", "--use_regulator", "true"], 0))
runs += [(argv, 2) for argv, _ in PARAMETER_ERRORS]
(tmp / "config.txt").write_text("hbar=2.0\\n")
runs.append((["general-hj", "decoupling", "--config", str(tmp / "config.txt")], 0))


def run(argv, expected, out):
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        code = main(argv + ["--out", str(tmp / out)])
    assert code == expected, (argv, code, text.getvalue())


for n, (argv, expected) in enumerate(runs):
    run(argv, expected, str(n))
without_sweep = set(codes)
(tmp / "sweep.txt").write_text("hbar=2.0\\n")
run(["general-hj", "decoupling", "--sweep", str(tmp / "sweep.txt")], 0, "sweep")
sys.setprofile(None)


def located(entered):
    root = Path(semiprop.__file__).parent
    return sorted(
        [Path(code.co_filename).relative_to(root).as_posix(), code.co_firstlineno]
        for code in entered
        if Path(code.co_filename).is_relative_to(root)
    )


(tmp / "entered.json").write_text(
    json.dumps({"all": located(codes), "without_sweep": located(without_sweep)})
)
"""


def _module_name(path):
    parts = path.relative_to(fresh.SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _first_line(node):
    """The line a function's code object starts on: its first decorator's."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _referenced(node):
    """Every name and attribute a node refers to."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


class Package:
    """The functions and methods under ``src/semiprop``, each keyed by
    ``module.qualname``, with where each starts and what each refers to."""

    def __init__(self):
        self.located, self.references, self.classes = {}, {}, {}
        # names referred to outside any function, by module-level code
        self.module_level = set()
        for path in sorted(PACKAGE.rglob("*.py")):
            module = _module_name(path)
            where = path.relative_to(PACKAGE).as_posix()
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.FunctionDef):
                    self._add(module, where, node, node.name)
                    continue
                outside = [node]
                if isinstance(node, ast.ClassDef):
                    methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
                    self.classes["{}.{}".format(module, node.name)] = [
                        self._add(module, where, item, "{}.{}".format(node.name, item.name))
                        for item in methods
                    ]
                    outside = node.decorator_list + node.bases + [
                        item for item in node.body if item not in methods
                    ]
                for part in outside:
                    self.module_level.update(_referenced(part))

    def _add(self, module, where, node, qualname):
        key = "{}.{}".format(module, qualname)
        self.located[(where, _first_line(node))] = key
        self.references[key] = set(_referenced(node))
        return key

    def unreached(self, entered, roots):
        """The functions neither entered nor allowed, sorted. Of those not
        entered, a root, a method of a root class, and a function referred to
        (and it is) only in allowed ones and never at module level are allowed."""
        entered = {self.located.get(tuple(at)) for at in entered}
        unreached = set(self.references) - entered
        methods = {m for root in roots for m in self.classes.get(root, ())}
        allowed = unreached & (set(roots) | methods)
        grown = True
        while grown:
            grown = False
            for key in unreached - allowed:
                name = key.rsplit(".", 1)[1]
                referrers = {k for k, refs in self.references.items() if name in refs and k != key}
                if referrers and referrers <= allowed and name not in self.module_level:
                    allowed.add(key)
                    grown = True
        return sorted(unreached - allowed)


def acceptance_roots():
    """``module.name`` of each name ``tests/test_acceptance.py`` imports from semiprop."""
    tree = ast.parse((TESTS / "test_acceptance.py").read_text())
    return {
        "{}.{}".format(node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "semiprop"
        for alias in node.names
    }


def traced_roots():
    """``module.attribute`` of each (module, "attribute") pair ``_targets()`` returns."""
    tree = ast.parse((fresh.ROOT / "perfbench" / "layers.py").read_text())
    (targets,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_targets"
    ]
    modules = {
        alias.asname or alias.name: "{}.{}".format(node.module, alias.name)
        for node in ast.walk(targets)
        if isinstance(node, ast.ImportFrom) and node.module == "semiprop"
        for alias in node.names
    }
    return {
        "{}.{}".format(modules[pair.elts[0].id], pair.elts[1].value)
        for pair in ast.walk(targets)
        if isinstance(pair, ast.Tuple)
        and len(pair.elts) >= 2
        and isinstance(pair.elts[0], ast.Name)
        and pair.elts[0].id in modules
        and isinstance(pair.elts[1], ast.Constant)
        and isinstance(pair.elts[1].value, str)
    }


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reach")
    done = fresh.run(PROBE, tmp, path=[TESTS])
    assert done.returncode == 0, done.stderr
    return json.loads((tmp / "entered.json").read_text())


@pytest.fixture(scope="module")
def package():
    return Package()


def test_every_function_in_src_is_entered_by_a_check_or_allowed(entered, package):
    unreached = package.unreached(entered["all"], acceptance_roots() | traced_roots())
    assert not unreached, "no check enters, and no root allows: " + ", ".join(unreached)


def test_the_gate_fails_without_the_sweep_run(entered, package):
    # the same child's entered set, taken before its --sweep run
    roots = acceptance_roots() | traced_roots()
    assert package.unreached(entered["without_sweep"], roots) == ["semiprop.cli._read_sweep"]
