"""Span recorder for the traced run, installed from outside the program.

Each traced public function is replaced, in every ``kaenmaki`` module that
holds a reference to it (``from .coding import encode_tau`` copies the name
into the importer), by a wrapper that records a span: name, start, end, the
index of the enclosing span and the operation it belongs to.  Spans stay in
memory until the run ends.  ``install`` returns a function that puts the
originals back, so untraced rounds run the program untouched.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

# (module, function, counter) for every traced name.  A counter maps the
# bound arguments and the result to a (metric suffix, amount) pair.
TARGETS = [
    ("cli", "main", None),
    ("ifs", "parse_ifs", None),
    ("ifs", "check_strong_separation", None),
    ("ifs", "check_transversality", None),
    ("coding", "product_signature", None),
    ("coding", "encode_tau", None),
    ("coding", "signature_arrays", None),
    ("thermo", "affinity_dimension", None),
    ("thermo", "affinity_dimension_detail", lambda a, r: ("evals", len(r.trace))),
    ("thermo", "gibbs_markov", None),
    ("thermo", "kaenmaki_measure", None),
    ("thermo", "pressure", None),
    ("thermo", "thermo_summary", None),
    ("thermo", "lyapunov_exponents", None),
    ("thermo", "entropy", None),
    ("thermo", "level_log_measures", lambda a, r: ("words", a["spec"].d ** a["n"])),
    ("thermo", "submultiplicativity_check", None),
    ("thermo", "quasi_bernoulli_ratio", None),
    ("dimension", "dimension_report", None),
    ("dimension", "projected_dimension", None),
    ("sampling", "sample_symbolic", lambda a, r: ("draws", a["count"] * a["depth"])),
    ("sampling", "default_centers", None),
    ("sampling", "estimate_local_dimension", None),
    ("sampling", "estimate_projected_dim", None),
    ("sampling", "box_count", None),
    ("sampling", "write_csv", lambda a, r: ("bytes", os.path.getsize(a["path"]))),
    ("sampling", "render_attractor", None),
    ("sampling", "strip_measure_oracle", None),
    ("sampling", "strip_reverse_oracle", None),
]


class Recorder:
    """Spans as [name, start_ns, end_ns, parent, op] lists, plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._failures: list[BaseException] = []

    def wrap(self, name: str, fn, counter, failure_type):
        sig = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        module = name.split(".")[0]

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except failure_type as exc:
                # count each failure once, at the innermost thermo span it left
                if module == "thermo" and not any(e is exc for e in self._failures):
                    self._failures.append(exc)
                    self.counts["thermo.convergence_failures"] += 1
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if counter:
                key, amount = counter(sig.bind(*args, **kwargs).arguments, result)
                self.counts[f"{name}.{key}"] += amount
            return result

        return traced

    def install(self, package, failure_type):
        """Swap every reference to each target for its wrapper; return an undo."""
        modules = [package] + [sys.modules[f"{package.__name__}.{m}"]
                               for m in ("cli", "ifs", "coding", "thermo", "dimension",
                                         "sampling")]
        undo = []
        for mod_name, fn_name, counter in TARGETS:
            fn = getattr(sys.modules[f"{package.__name__}.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", fn, counter, failure_type)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, fn))

        def restore():
            for mod, attr, fn in undo:
                setattr(mod, attr, fn)
        return restore

    def totals(self, scale_of_op):
        """Per-name (calls, inclusive ns, self ns); self = duration - children.

        Durations are multiplied by their operation's scale to the reference
        machine speed.
        """
        calls = defaultdict(int)
        incl = defaultdict(float)
        child = defaultdict(float)
        own = defaultdict(float)
        for name, t0, t1, parent, op in self.spans:
            calls[name] += 1
            incl[name] += (t1 - t0) * scale_of_op[op]
            if parent >= 0:
                child[parent] += (t1 - t0) * scale_of_op[op]
        for idx, (name, t0, t1, _, op) in enumerate(self.spans):
            own[name] += (t1 - t0) * scale_of_op[op] - child[idx]
        return calls, incl, own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"]})
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
