"""The documented library API, the names the benchmark's tracer looks up and the dependencies."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_tour_runs(capsys):
    # the first Python block of README.md, run as a reader would paste it
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all(line.split()[-1] == "True" for line in lines)


def test_traced_names_exist():
    # loaded by file path: putting pskbench/ on sys.path would let its
    # reference.py shadow the tests' reference module
    spec = importlib.util.spec_from_file_location("pskbench_tracer",
                                                  ROOT / "pskbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wanted = [(module, name) for module, names in tracer.TRACED.values() for name in names]
    wanted += [("pskrates.rates", name) for name in tracer.OBJECTIVE]
    missing = [f"{module}.{name}" for module, name in wanted
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert wanted
    assert missing == []


def test_readme_private_names_exist():
    # a backticked private name in README.md, bare (`_scaled_powers`) or with its module
    # (`entropies._tr_power`), must still be an attribute of a pskrates module
    package = ROOT / "src" / "pskrates"
    modules = {path.stem: importlib.import_module(f"pskrates.{path.stem}")
               for path in sorted(package.glob("*.py")) if path.stem != "__init__"}
    names = re.findall(r"`(?:(\w+)\.)?(_\w+)`", (ROOT / "README.md").read_text())
    missing = [f"{module}.{name}" if module else name for module, name in names
               if not any(hasattr(modules.get(m), name) for m in ([module] if module else modules))]
    assert names
    assert missing == []


def test_support_cutoff_has_one_home():
    # the relative support cut is linalg.on_support; outside linalg.py only the
    # Newton kernel, whose spectra are already scaled to a top of 1, compares with the constant
    allowed = {"_scaled_powers"}
    found = []

    def visit(node, path, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scope = getattr(node, "name", "<lambda>")
        names = [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else []
        if ((isinstance(node, ast.Name) and node.id == "SUPPORT_CUTOFF")
                or (isinstance(node, ast.Attribute) and node.attr == "SUPPORT_CUTOFF")
                or "SUPPORT_CUTOFF" in names) and scope not in allowed:
            found.append(f"{path.name}:{node.lineno} in {scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in sorted((ROOT / "src" / "pskrates").glob("*.py")):
        if path.name != "linalg.py":
            visit(ast.parse(path.read_text(), str(path)), path, "<module>")
    assert found == []


def test_numpy_is_the_only_numeric_dependency():
    # scipy and mpmath may be installed, but neither the package nor its
    # tests may rely on them
    banned = {"scipy", "mpmath"}
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(ROOT)}:{node.lineno}" for name in names
                      if name.split(".")[0] in banned]
    assert found == []
