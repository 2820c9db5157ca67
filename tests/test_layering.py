"""The package's modules import each other without cycles."""

import ast
from pathlib import Path

import lzwmetrics

PACKAGE = Path(lzwmetrics.__file__).parent


def _imports() -> dict[str, set[str]]:
    """Each module's package-internal imports, from its source.

    Every relative import counts, at module level, under ``TYPE_CHECKING``
    or inside a function alike.
    """
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        targets = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:  # from . import a, b
                    targets.update(alias.name for alias in node.names)
        graph[path.stem] = targets
    return graph


def test_modules_form_no_import_cycle():
    graph = _imports()
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> None:
        if module in path:
            raise AssertionError("import cycle: " + " -> ".join(path + [module]))
        if module not in done:
            for target in sorted(graph.get(module, ())):
                visit(target, path + [module])
            done.add(module)

    for module in graph:
        visit(module, [])


def test_estimators_do_not_import_processes():
    assert "generators" not in _imports()["entropy"]
