"""The benchmark's traced run binds every span target by name with a bare
getattr, so a name removed from the library crashes ``run.py --trace 1``;
its operations clear named caches, so a cache removed from the library
crashes every run; and its library workload reads names off the package,
so a name removed from it fails every mc-estimate operation.  spans.py is
read as a script, run.py and workloads.py as source text (no bytecode is
written next to any of them)."""

import ast
import importlib
import runpy
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
RUN = PERFBENCH / "run.py"
WORKLOADS = PERFBENCH / "workloads.py"


def test_every_span_target_is_a_library_callable():
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    missing = [f"{module}.{name}" for module, name, _ in targets
               if not callable(getattr(importlib.import_module(f"kaenmaki.{module}"), name,
                                       None))]
    assert targets and not missing, f"span targets missing from kaenmaki: {missing}"


def test_every_cleared_cache_is_a_library_cache():
    # run.py's `caches = [module.function, ...]`, read without running it
    lists = [node.value.elts for node in ast.walk(ast.parse(RUN.read_text()))
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
             and [getattr(t, "id", None) for t in node.targets] == ["caches"]]
    assert len(lists) == 1 and lists[0], "run.py has no single `caches = [...]` list"
    names = [(entry.value.id, entry.attr) for entry in lists[0]]
    missing = [f"{module}.{name}" for module, name in names
               if not callable(getattr(getattr(importlib.import_module(f"kaenmaki.{module}"),
                                               name, None), "cache_clear", None))]
    assert not missing, f"cleared caches missing from kaenmaki: {missing}"


def test_every_package_name_a_workload_reads_resolves():
    # every `K.<name>...` attribute chain in workloads.py, K being the package
    chains = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        names = []
        while isinstance(node, ast.Attribute):
            names.insert(0, node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id == "K":
            chains.add(".".join(names))
    assert {"parse_ifs", "sample_symbolic", "sampling.default_centers",
            "Projection.X"} <= chains, chains

    def resolves(chain):
        obj = importlib.import_module("kaenmaki")
        for name in chain.split("."):
            obj = getattr(obj, name, None)
        return obj is not None

    missing = sorted(chain for chain in chains if not resolves(chain))
    assert not missing, f"names that perfbench reads missing from kaenmaki: {missing}"
