"""Every package name the benchmark under ``bench/`` uses still resolves.

The test run does not collect ``bench/``, so a change that drops a name it
imports would break the benchmark unseen.  This reads the benchmark's
sources, and the code that ``bench/run.py`` runs in a fresh interpreter,
without importing or running any of them.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _divrec_names(tree):
    """(module, name) for each ``from divrec[.x] import name`` in ``tree``,
    and for each attribute read from a name bound by ``import divrec``."""
    found, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "divrec":
            found.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "divrec":
                    local = alias.asname or alias.name.split(".")[0]
                    modules[local] = alias.name if alias.asname else "divrec"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.add((modules[node.value.id], node.attr))
    return found


def _bench_names():
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names |= _divrec_names(tree)
        # source text run by a child interpreter, such as run.py's set-up code
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "import divrec" in node.value):
                names |= _divrec_names(ast.parse(node.value))
    return sorted(names)


def test_every_divrec_name_the_benchmark_uses_resolves():
    names = _bench_names()
    assert ("divrec", "check_single") in names  # from run.py's set-up code
    assert ("divrec.oracle", "verdict_for_sequence") in names
    assert len(names) >= 15
    missing = []
    for module, name in names:
        try:
            getattr(importlib.import_module(module), name)
        except AttributeError:
            missing.append(f"{module}.{name}")
    assert missing == []
