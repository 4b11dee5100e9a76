"""Layout of the package: every library module is reached from its entry
points, so a module only the tests use cannot sit in ``src/`` unseen."""

import ast
import pathlib

import omegatrans

PACKAGE = pathlib.Path(omegatrans.__file__).resolve().parent


def imported_modules(path):
    """Names of the package's modules that ``path`` imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.level == 0 and (node.module or "").startswith("omegatrans."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("omegatrans."):
                    found.add(alias.name.split(".")[1])
    return found


def test_every_module_is_reached_from_the_package_or_the_cli():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    reached = {"__init__", "cli"}
    frontier = list(reached)
    while frontier:
        for name in imported_modules(PACKAGE / f"{frontier.pop()}.py") & modules:
            if name not in reached:
                reached.add(name)
                frontier.append(name)
    assert modules - reached == set()
