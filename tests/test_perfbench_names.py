"""Every socaut name the benchmark in ``perfbench/`` looks up still resolves.

perfbench is not imported as a package: ``layers.py`` is loaded from its
path, and ``workloads.py`` is read as source, so this guard runs without
the benchmark's own dependencies and without editing either file.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util

import pytest

from conftest import ROOT

PERFBENCH = ROOT / "perfbench"

#: Plain names the tracer wraps that sit outside their module's ``__all__``:
#: the fenced names kept for perfbench until ROADMAP item 4 deletes them...
FENCED = {
    ("socaut.automorphism", "factor_compact"),
    ("socaut.automorphism", "factor_canonical"),
    ("socaut.automorphism", "compose_compact"),
    ("socaut.automorphism", "compose_canonical"),
    ("socaut.automorphism", "normalize"),
    ("socaut.automorphism", "split_blocks"),
    ("socaut.kernels", "inv_sqrt_rank_one"),
}
#: ...and the sampler's own kernel, which the package calls but does not export.
INTERNAL = {("socaut.kernels", "haar_orthogonal")}

#: Names ``workloads.py`` binds to socaut modules, as ``au`` or ``self.au``.
MODULE_ALIASES = {
    "au": "socaut.automorphism",
    "spin": "socaut.spin",
    "fileio": "socaut.fileio",
    "cli": "socaut.cli",
    "socaut": "socaut",
}


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


#: ``(module, name)`` for every function ``layers.TRACED`` lists.
TRACED = [(module, name) for module, names in load_layers().TRACED.values() for name in names]


@pytest.mark.parametrize("module_name,name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_a_traced_name_resolves_the_way_the_tracer_looks_it_up(module_name, name):
    module = importlib.import_module(module_name)
    if "." in name:  # a method: the tracer reads it from the class __dict__
        cls_name, meth = name.split(".")
        raw = getattr(module, cls_name).__dict__[meth]
        assert callable(getattr(raw, "__func__", raw))
    else:
        assert callable(getattr(module, name))


def test_the_traced_names_outside_all_are_the_fenced_set():
    outside = set()
    for module_name, name in TRACED:
        public = getattr(importlib.import_module(module_name), "__all__", None)
        if "." not in name and public is not None and name not in public:
            outside.add((module_name, name))
    assert outside == FENCED | INTERNAL


def workload_attributes() -> set[tuple[str, ...]]:
    """Every attribute chain ``workloads.py`` reads off a socaut module, from
    ``au.x``, ``self.au.x`` and the like, e.g. ``("socaut.spin", "SpinVector",
    "from_array")``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    chains = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue  # only the outermost node of each chain
        path = []
        while isinstance(node, ast.Attribute):
            path.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "self" and path:
            root = path.pop()  # self.au.x: the module is the attribute after self
        elif isinstance(node, ast.Name):
            root = node.id
        else:
            continue
        if root in MODULE_ALIASES and path:
            chains.add((MODULE_ALIASES[root], *reversed(path)))
    return chains


def test_every_socaut_attribute_the_workloads_read_resolves():
    chains = workload_attributes()
    names = {chain[1] for chain in chains}
    # The scan finds the calls the workloads are built on, so it cannot pass empty.
    assert {"check_automorphism", "factor_compact", "sample_automorphism", "SpinVector"} <= names
    assert {"dumps_matrix", "main", "DEFAULT_TOL"} <= names
    for module_name, *path in chains:
        value = importlib.import_module(module_name)
        for attr in path:
            assert hasattr(value, attr), f"{module_name}.{'.'.join(path)}"
            value = getattr(value, attr)
