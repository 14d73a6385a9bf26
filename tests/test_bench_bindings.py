"""Every library name that the benchmark binds or reads resolves, so
dropping one fails here, not only under `bench/run.py --trace 1`.  The
bench files are read, never changed."""

import ast
import importlib
import importlib.util
from pathlib import Path

from heckeforge.group import GroupElement, RepKind, transposition
from heckeforge.hochschild import hh_component
from heckeforge.polyforms import CharacterTable

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [t[1:4] for t in tracer.SPAN_TARGETS] + [t[1:] for t in tracer.COUNT_TARGETS]
    assert len(targets) == 22
    for module, cls, attr in targets:
        owner = importlib.import_module(module)
        owner = vars(owner) if cls is None else vars(getattr(owner, cls))
        assert callable(owner.get(attr)), (module, cls, attr)


def test_worker_reads_resolve():
    # every heckeforge.<module>.<name> that worker.py reads or imports, and
    # the comp.chi.subgroup its det-filter op reads off hh_component
    tree = ast.parse((BENCH / "worker.py").read_text())
    imports = [(node.module, a) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names]
    modules = {a.asname or a.name: f"heckeforge.{a.name}" for module, a in imports if module == "heckeforge"}
    names = {(module, a.name) for module, a in imports if module.startswith("heckeforge.")}
    names |= {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert ("heckeforge.hochschild", "_fixes_space_pointwise") in names
    for module, attr in names:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
    # the worker's read, on (1,2) in G(2,1,2), whose centralizer is a Klein four group
    subgroup = hh_component(transposition(2, 2, 1, 2), RepKind.FAITHFUL, 2, 1).chi.subgroup
    assert len(subgroup) == 4 and all(isinstance(h, GroupElement) for h in subgroup)
    assert isinstance(CharacterTable.__dict__["subgroup"], property)
