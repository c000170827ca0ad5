"""The benchmark's traced run binds every span target by name with a bare
getattr, so a name removed from the library crashes ``run.py --trace 1``;
its operations clear named caches, so a cache removed from the library
crashes every run.  spans.py is read as a script and run.py as source text
(no bytecode is written next to either)."""

import ast
import importlib
import runpy
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
RUN = PERFBENCH / "run.py"


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
