"""No module of the package reads the environment or holds a run-time
setting: ``--jobs`` and the other flags are its only inputs besides the files
it is given, and no function rebinds a module global.

This parses every module under ``src/divrec`` without importing it.
"""

import ast
from pathlib import Path

import divrec

PACKAGE = Path(divrec.__file__).resolve().parent
_READS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(source, filename="<source>"):
    """(line, name), sorted, for each use of ``os.environ``, ``os.getenv``
    or a name imported from them in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Attribute) and node.attr in _READS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in _READS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in _READS]
    return sorted(found)


def test_the_check_sees_each_way_to_read_the_environment():
    source = (
        "import os\n"
        "from os import environ\n"
        "a = os.environ.get('X')\n"
        "b = os.getenv('X')\n"
        "c = environ['X']\n"
    )
    assert _environment_reads(source) == [
        (2, "environ"), (3, "environ"), (4, "getenv"), (5, "environ"),
    ]


def test_no_module_reads_the_environment():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 10
    reads = {path.name: _environment_reads(path.read_text(), str(path)) for path in paths}
    assert {name: found for name, found in reads.items() if found} == {}


def _global_statements(source, filename="<source>"):
    """The line of each ``global`` statement in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.Global)]


def test_no_module_rebinds_a_global():
    sample = "_bound = 1\n\ndef set_bound(b):\n    global _bound\n    _bound = b\n"
    assert _global_statements(sample) == [4]
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 10
    found = {path.name: _global_statements(path.read_text(), str(path)) for path in paths}
    assert {name: lines for name, lines in found.items() if lines} == {}
