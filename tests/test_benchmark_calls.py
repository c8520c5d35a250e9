"""The benchmark workloads must run against the library as it is.

``perfbench/workloads.py`` changes only with the benchmark itself, so a
library change that deletes or renames a name a workload calls, or a
field of a record it reads (``det_window(...).value.log_mag``, a transfer
product's ``mat``, ``log_scale``, ``log_norm`` and ``det_value()``), would
otherwise show only when the benchmark runs.  One test checks every
module attribute a workload reads by parsing the file; the other runs
each workload once, in process, at its tiny sizes.
``perfbench/tracer.py`` is left out: it skips the names it cannot find,
by design.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _module_aliases(tree) -> dict:
    """{alias: module name} for every ``import qplab.x as y`` and ``from qplab import x``."""
    aliases = {}

    def bind(alias, module):
        assert aliases.setdefault(alias, module) == module, (
            f"{alias} names both {aliases[alias]} and {module}")

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "qplab":
                    bind(a.asname or "qplab", a.name if a.asname else "qplab")
        elif isinstance(node, ast.ImportFrom) and node.module == "qplab":
            for a in node.names:
                bind(a.asname or a.name, f"qplab.{a.name}")
    return aliases


def test_workloads_read_only_names_the_library_has():
    tree = ast.parse(WORKLOADS.read_text())
    aliases = _module_aliases(tree)
    assert {"cc", "dy", "pt", "sp", "zr", "ex", "expcli"} <= set(aliases)
    modules = {alias: importlib.import_module(name) for alias, name in aliases.items()}
    reads = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert len(reads) >= 15
    missing = sorted(f"{alias}.{attr} ({aliases[alias]})" for alias, attr in reads
                     if not hasattr(modules[alias], attr))
    assert not missing, f"perfbench/workloads.py reads names qplab lacks: {missing}"


def _workloads_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look the module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["phase_sweep", "deep_window", "spectral", "zero_count"])
def test_tiny_workload_runs_every_item_without_failure(name, tmp_path, monkeypatch):
    wl = _workloads_module(monkeypatch).Workload(name, 1, tmp_path, tiny=True)
    wl.setup()
    assert wl.items
    failures = [f for item in wl.items for f in item.run()]
    assert not failures
