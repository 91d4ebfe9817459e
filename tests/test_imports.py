"""Every name a package module imports is read somewhere in that module,
every parameter of every function is read in that function's body, every
public module-level function or class and every public method is read
somewhere in the package, and every defaulted parameter is passed by some
call in the package.

No linter runs on this repository, so these scans keep dead imports,
unread parameters, orphan public API and settings that nothing varies out
of src/reupsim; the import scan also reads tests/ and tools/.  The import,
orphan and default scans skip `__init__.py`: it imports names to re-export
them, which is not a use.  A fifth scan keeps
scipy out of the package: no module imports it anywhere, function bodies
included, so the runtime needs only numpy and PyYAML (tests/test_startup.py
checks that no run loads it).  A sixth keeps the layers apart: the backend
samples and charges, and imports neither the circuits nor the costs.  A
seventh keeps one writer: only data.rewrite opens a file for writing, so every
output is overwritten in place.  An eighth keeps one readout: outside circuits
and costs no module calls the kernel's readouts (measure_batch,
measure_groups) or a backend's sample, so every estimate goes through
costs.measured_groups or costs.measured_values.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reupsim"
MODULES = sorted(PACKAGE.glob("*.py"))
# the test and tool scripts, whose imports are scanned as the package's are
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")])
# IdealBackend.sample takes the labels only to match NoisyBackend.sample
UNREAD_BY_DESIGN = ["IdealBackend.sample(y)"]
# the single-point circuit evaluation, the objective of one theta and the
# split generator that the acceptance criteria in tests/test_acceptance.py call
CALLED_BY_THE_CRITERIA = ["evaluate", "evaluate_circuit", "generate_splits"]
# the noise model's config reader and the trace's CSV reader, which bench/ calls
# (ROADMAP item 5 ports bench/'s from_config call to config._build)
READ_BY_THE_BENCH = ["NoiseModel.from_config", "TrainingTrace.read_csv"]
# main's argv is for callers outside the package; the acceptance criteria, not
# the package, call the split generator with a train size
SET_FROM_OUTSIDE = ["generate_splits(train_size)", "main(argv)"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def imported_packages(source: str) -> list[str]:
    """Top-level package of each absolute import anywhere in the module:
    at module level, in a class body or inside a function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module.split(".")[0])
    return found


def orphans(sources: list[str]) -> list[str]:
    """Public module-level functions and classes of `sources`, and public
    methods of their classes (named `Class.method`), that none of them reads,
    as a name or as an attribute."""
    trees = [ast.parse(source) for source in sources]
    read = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = []    # (reported name, name a reader reads)
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_"):
            defined.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            defined += [(f"{node.name}.{m.name}", m.name) for m in node.body
                        if isinstance(m, functions) and not m.name.startswith("_")]
    return sorted(name for name, read_as in defined if read_as not in read)


def unread_parameters(source: str) -> list[str]:
    """`function(parameter)` for each parameter that its function's body, nested
    functions included, never reads; methods are named `Class.method`.  Dunder
    methods are skipped: their signatures are fixed by the protocol."""
    found = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, prefix)
                continue
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef) and not (
                    child.name.startswith("__") and child.name.endswith("__")):
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs,
                                          a.kwarg) if p is not None]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend(f"{name}({p})" for p in params if p not in read)
            visit(child, name + ".")

    visit(ast.parse(source), "")
    return found


def unpassed_defaults(sources: list[str]) -> list[str]:
    """`function(parameter)` for each defaulted parameter of a function in
    `sources` that no call there passes; methods are named `Class.method`.

    Calls match definitions by name alone, and a call of a class counts for
    its `__init__`.  A call that unpacks `*args` or `**kwargs` counts as
    passing every parameter; a call through `super()` counts for none, since
    the name alone cannot tell which class's method it reaches.
    """
    defined = []     # (names that call it, qualified name, positional, one defaulted)

    def visit(node, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = [p.arg for p in (*a.posonlyargs, *a.args)]
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                              if d is not None]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                if cls is not None and not static:
                    positional = positional[1:]          # self or cls
                names = {child.name} | ({cls} if child.name == "__init__" else set())
                qualified = child.name if cls is None else f"{cls}.{child.name}"
                defined.extend((names, qualified, positional, p) for p in defaulted)
                visit(child, None)
            else:
                visit(child, cls)

    trees = [ast.parse(source) for source in sources]
    for tree in trees:
        visit(tree, None)
    passed = set()
    for call in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        func = call.func
        if isinstance(func, ast.Attribute):
            through = func.value
            if isinstance(through, ast.Call) and getattr(through.func, "id", None) == "super":
                continue
            callee = func.attr
        elif isinstance(func, ast.Name):
            callee = func.id
        else:
            continue
        unpacks = (any(isinstance(a, ast.Starred) for a in call.args)
                   or any(k.arg is None for k in call.keywords))
        keywords = {k.arg for k in call.keywords}
        for names, qualified, positional, param in defined:
            if callee in names and (unpacks or param in keywords
                                    or param in positional[:len(call.args)]):
                passed.add((qualified, param))
    return sorted({f"{q}({p})" for _, q, _, p in defined if (q, p) not in passed})


def file_writers(source: str) -> list[str]:
    """The functions (`Class.method` for methods, `<module>` for module level)
    that open a file for writing: open, io.open or an `.open` method with a
    mode that writes or is not a string literal, os.open with a flag other
    than os.O_RDONLY, or a write_text, write_bytes, fdopen or temporary-file call."""
    found = set()

    def writes(call: ast.Call) -> bool:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes", "fdopen", "mkstemp", "NamedTemporaryFile",
                    "TemporaryFile"):
            return True
        if name != "open":
            return False
        owner = getattr(getattr(func, "value", None), "id", None)
        if owner == "os":
            flags = call.args[1] if len(call.args) > 1 else None
            return not (isinstance(flags, ast.Attribute) and flags.attr == "O_RDONLY")
        at = 1 if isinstance(func, ast.Name) or owner == "io" else 0    # Path.open(mode)
        mode = call.args[at] if len(call.args) > at else next(
            (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
        return not isinstance(mode, ast.Constant) or bool(set("wax+") & set(mode.value))

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call) and writes(child):
                found.add(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"] + SCRIPTS,
                         ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_reports_each_unread_name():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from x import a, b as c\nprint(c, np.pi)\n")
    assert unused_imports(source) == ["a", "os"]


def test_every_public_function_and_class_is_read_in_the_package():
    sources = [p.read_text() for p in MODULES if p.name != "__init__.py"]
    assert orphans(sources) == sorted(CALLED_BY_THE_CRITERIA + READ_BY_THE_BENCH)


def test_the_orphan_scan_reports_each_unread_definition():
    sources = ["import m\ndef used():\n    pass\ndef _private():\n    pass\n"
               "class Orphan:\n    def method(self):\n        return used\n"
               "    def called(self):\n        return self.method\n"
               "    def _hidden(self):\n        pass\n    def __len__(self):\n        return 0\n"
               "def also_orphan():\n    pass\n",
               "from . import a\na.attr_read()\ndef attr_read():\n    pass\n"
               "def written():\n    pass\nm.written = 2\n"]
    assert orphans(sources) == ["Orphan", "Orphan.called", "also_orphan", "written"]


def test_no_module_imports_scipy():
    importers = [p.name for p in MODULES if "scipy" in imported_packages(p.read_text())]
    assert importers == []


def test_only_the_in_place_writer_opens_a_file_for_writing():
    writers = [f"{p.stem}.{name}" for p in MODULES for name in file_writers(p.read_text())]
    assert writers == ["data.rewrite"]


def test_the_writer_scan_reads_every_open_form():
    source = ("import io, os\nfrom pathlib import Path\n"
              "def reads(p):\n    open(p)\n    open(p, 'rb')\n    p.open()\n"
              "    io.open(p, mode='r')\n    os.open(p, os.O_RDONLY)\n"
              "def appends(p):\n    return open(p, 'a')\n"
              "def picks(p, mode):\n    return open(p, mode=mode)\n"
              "class K:\n    def text(self, p):\n        p.write_text('x')\n"
              "    def path(self, p):\n        return Path(p).open('w')\n"
              "def flags(p):\n    return os.open(p, os.O_WRONLY | os.O_CREAT)\n"
              "def nested(p):\n    def inner():\n        return io.open(p, 'r+')\n"
              "    return inner\n"
              "log = open('log', 'x')\n")
    assert file_writers(source) == ["<module>", "K.path", "K.text", "appends", "flags",
                                    "nested.inner", "picks"]


# the kernel's readouts and the backend's sampler, which only circuits and costs call
READOUT_CALLS = ("measure_batch", "measure_groups", "sample")


def readout_calls(source: str) -> list[str]:
    """The names of READOUT_CALLS that a module calls, by bare name or as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in READOUT_CALLS:
                found.add(name)
    return sorted(found)


def test_only_circuits_and_costs_read_out_estimates():
    callers = [f"{p.stem}.{name}" for p in MODULES if p.stem not in ("circuits", "costs")
               for name in readout_calls(p.read_text())]
    assert callers == []


def test_the_readout_scan_reads_every_call_form():
    source = ("from . import circuits\nfrom .circuits import measure_batch\n"
              "def f(backend, rng):\n    measure_batch(1)\n    backend.sample(2)\n"
              "    circuits.measure_groups(3)\n    rng.random()\n    g = circuits.measure_batch\n"
              "class K:\n    def m(self):\n        return self.backend.sample(4)\n")
    assert readout_calls(source) == ["measure_batch", "measure_groups", "sample"]
    assert readout_calls("import numpy\nnumpy.random.default_rng(0).random()\n") == []


def sibling_imports(source: str) -> set[str]:
    """Package modules a module imports anywhere, relatively (`from . import m`,
    `from .m import x`) or absolutely (`import reupsim.m`, `from reupsim.m import x`)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("reupsim"):
            found |= ({node.module.split(".")[1]} if "." in node.module
                      else {a.name for a in node.names})
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("reupsim.")}
    return found


def test_the_backend_imports_neither_circuits_nor_costs():
    imports = sibling_imports((PACKAGE / "backend.py").read_text())
    assert imports & {"circuits", "costs"} == set()


def test_the_sibling_scan_reads_every_import_form():
    source = ("from . import a, b\nfrom .c import k\nimport reupsim.d\nimport numpy\n"
              "def f():\n    from reupsim import e\n    from reupsim.g import h\n"
              "from .. import far\n")
    assert sibling_imports(source) == {"a", "b", "c", "d", "e", "g"}


def test_the_import_scan_reads_function_bodies():
    source = ("import os.path\nfrom . import x\nif x:\n    from scipy import a\n"
              "class K:\n    import numpy\n    def m(self):\n        import yaml\n"
              "def f():\n    from scipy.special import b\n")
    assert sorted(imported_packages(source)) == ["numpy", "os", "scipy", "scipy", "yaml"]


def test_every_parameter_is_read():
    unread = [name for path in MODULES for name in unread_parameters(path.read_text())]
    assert unread == UNREAD_BY_DESIGN


def test_the_parameter_scan_reports_each_unread_parameter():
    source = ("def f(a, b, *rest, c=1, **extra):\n    return a + c\n"
              "class K:\n    def m(self, x):\n        def inner():\n            return x\n"
              "        return inner\n    def __exit__(self, kind, exc, tb):\n        pass\n")
    assert unread_parameters(source) == ["f(b)", "f(rest)", "f(extra)", "K.m(self)"]


def test_every_defaulted_parameter_is_passed_in_the_package():
    sources = [p.read_text() for p in MODULES if p.name != "__init__.py"]
    assert unpassed_defaults(sources) == SET_FROM_OUTSIDE


def test_the_default_scan_reports_each_parameter_no_call_passes():
    sources = ["def f(a, b=1, *, c=2, d=3):\n    pass\n"
               "class K:\n    def __init__(self, x=0, y=0):\n        pass\n"
               "    def m(self, z=1):\n        super().m(z=2)\n"
               "    @staticmethod\n    def s(w=1):\n        pass\n",
               "f(0, 5, d=4)\nK(1)\nobj.s(2)\ng(*args)\ndef g(v=1, u=2):\n    pass\n"]
    assert unpassed_defaults(sources) == ["K.__init__(y)", "K.m(z)", "f(c)"]
