"""The package's modules import each other without cycles, and its public
names are the ones listed here."""

import ast
from pathlib import Path

import lzwmetrics
from lzwmetrics import cli, entropy, generators, lzw, metrics, sequence

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


def test_only_the_pool_forks_or_imports_numpy_random():
    # The pool owns how workers start: it forks them, and imports
    # numpy.random first for them to inherit.
    forks, imports = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "fork":
                if isinstance(node.value, ast.Name) and node.value.id == "os":
                    forks.add(path.stem)
            elif isinstance(node, ast.Import):
                if any(alias.name.startswith("numpy.random") for alias in node.names):
                    imports.add(path.stem)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = {f"{node.module}.{alias.name}" for alias in node.names}
                if node.module.startswith("numpy.random") or "numpy.random" in names:
                    imports.add(path.stem)
                if node.module == "os" and "os.fork" in names:
                    forks.add(path.stem)
    assert forks == {"_pool"}
    assert imports == {"_pool"}


def test_estimators_do_not_import_processes():
    assert "generators" not in _imports()["entropy"]


# In module order: sequence, lzw, entropy, generators, metrics.
PUBLIC_NAMES = [
    "Alphabet", "SymbolSequence", "NumericSeries", "digitize_quantiles", "shuffle",
    "LzwResult", "CorruptStreamError", "encode", "decode", "description_length_bound",
    "EntropyProfile", "Q_MAX_LIMIT", "h0_bernoulli", "empirical_h0",
    "empirical_block_entropy", "empirical_hq", "entropy_profile",
    "DegenerateProcessError", "ProcessSpec", "stationary_distribution",
    "analytic_entropy_rate", "symmetric_binary_markov", "generate",
    "MetricReport", "rho0", "rho1_analytic", "rho1_surrogate", "rho2", "analyze",
    "SHORT_SEQUENCE_WARNING", "RHO2_NEGATIVE_WARNING", "H0_DEGENERATE_WARNING",
    "DESCRIPTION_LENGTH_NOTE",
    "__version__",
]


def test_package_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 34
    assert lzwmetrics.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(lzwmetrics, name), name


def test_each_public_name_is_declared_by_one_module():
    owner: dict[str, str] = {}
    for module in (sequence, lzw, entropy, generators, metrics):
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)
            assert name not in owner, f"{name} exported by {owner[name]} and {module.__name__}"
            owner[name] = module.__name__


def test_star_import_binds_exactly_the_public_names():
    namespace: dict[str, object] = {}
    exec("from lzwmetrics import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC_NAMES)
    assert all(namespace[name] is getattr(lzwmetrics, name) for name in PUBLIC_NAMES)


def test_cli_public_names_are_pinned():
    assert cli.__all__ == ["RunConfig", "ConfigError", "run", "emit_report", "main"]
    for name in cli.__all__:
        assert hasattr(cli, name), name
