"""The benchmark's traced run binds every span target by name with a bare
getattr, so a name removed from the library crashes ``run.py --trace 1``.
spans.py is read as a script (no bytecode is written next to it)."""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_is_a_library_callable():
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    missing = [f"{module}.{name}" for module, name, _ in targets
               if not callable(getattr(importlib.import_module(f"kaenmaki.{module}"), name,
                                       None))]
    assert targets and not missing, f"span targets missing from kaenmaki: {missing}"
