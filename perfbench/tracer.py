"""Spans and counts around singwave's public callables.

``Tracer.install()`` replaces each traced callable, in every module
namespace and class that holds it, with a wrapper that records a span
(name, start, end, parent) and updates counts; ``uninstall()`` puts the
originals back.  The untraced benchmark never installs anything.

Spans stay in memory in flat arrays, one ``Tracer`` per traced call,
and are written out by ``write_spans`` when the benchmark ends.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute or Class.method, span name); a function imported
# into several modules is replaced in each of them
TARGETS = [
    ("singwave.cli", "main", "cli.main"),
    ("singwave.cli", "load_problem", "problem.load"),
    ("singwave.cli", "solution_to_dict", "problem.emit"),
    ("singwave.cli", "check_pseudo_eikonal", "geometry.check"),
    ("singwave.cli", "check_higher_conditions", "geometry.check"),
    ("singwave.cli", "check_time_reversal", "geometry.check"),
    ("singwave.reduction", "check_pseudo_eikonal", "geometry.check"),
    ("singwave.reduction", "check_higher_conditions", "geometry.check"),
    ("singwave.reduction", "check_time_reversal", "geometry.check"),
    ("singwave.cli", "solve_pseudo_eikonal", "geometry.eikonal"),
    ("singwave.cli", "build_log_reduction", "reduction.build"),
    ("singwave.cli", "build_fractional_reduction", "reduction.build"),
    ("singwave.cli", "build_negative_side", "reduction.build"),
    ("singwave.cli", "build_elliptic_reduction", "reduction.build"),
    ("singwave.reduction", "build_log_reduction", "reduction.build"),
    ("singwave.reduction", "ReducedEquation.rhs_slice", "reduction.rhs_slice"),
    ("singwave.cli", "solve_recursion", "fuchsian.solve"),
    ("singwave.nonlinearity", "Nonlinearity.eval_part_on_jet", "nonlinearity.jet"),
    ("singwave.series", "XSeries.__mul__", "series.xmul"),
    ("singwave.series", "XSeries.__rmul__", "series.xmul"),
    ("singwave.series", "XSeries.eval", "series.xeval"),
    ("singwave.series", "SigmaSeries.__mul__", "series.smul"),
    ("singwave.series", "SigmaSeries.__rmul__", "series.smul"),
    ("singwave.verify", "symbolic_residual", "verify.symbolic"),
    ("singwave.cli", "numeric_residual", "verify.numeric"),
]

#: spans whose inclusive time is reported besides their self time
INCLUSIVE = ("cli.main", "fuchsian.solve", "reduction.build")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._saved: list = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, name: str, fn, count=None):
        """A wrapper recording one span per call; ``count(args)`` returns
        extra (key, amount) pairs to add to the counts."""
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if count is not None:
                for key, amount in count(args):
                    tracer.counts[key] += amount
            idx = len(tracer.start)
            tracer.span_name.append(nid)
            tracer.parent.append(tracer.stack[-1])
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, path, name in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, _COUNTERS.get(name)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis --------------------------------------------------------

    def summary(self) -> dict:
        """Self time and call count per span name, inclusive time for the
        names in INCLUSIVE, the counts, and ``xmul_in_solve``: the number of
        XSeries products made inside ``solve_recursion``."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        inside = [False] * n
        within_id = self.name_id.get("fuchsian.solve", -2)
        counted_id = self.name_id.get("series.xmul", -2)
        calls: Counter = Counter()
        self_time: Counter = Counter()
        total: Counter = Counter()
        nested = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                inside[i] = inside[p] or self.span_name[p] == within_id
            if inside[i] and self.span_name[i] == counted_id:
                nested += 1
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_time[name] += dur[i] - child[i]
            if name in INCLUSIVE:
                total[name] += dur[i]
        return {"calls": calls, "self": self_time, "total": total,
                "counts": Counter(self.counts), "xmul_in_solve": nested}


def _xmul_pairs(args):
    a, b = args[0], args[1]
    pairs = len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)
    return (("series.xmul_term_pairs", pairs),)


_COUNTERS = {"series.xmul": _xmul_pairs}


def write_spans(path, traces) -> None:
    """One tab-separated line per span: call id, span id, parent span id,
    name, start and end (seconds, perf_counter of the recording process)."""
    with open(path, "w") as handle:
        handle.write("call\tspan\tparent\tname\tstart\tend\n")
        for call_id, tracer in traces:
            names = tracer.names
            for i in range(len(tracer.start)):
                handle.write(f"{call_id}\t{i}\t{tracer.parent[i]}\t{names[tracer.span_name[i]]}\t"
                             f"{tracer.start[i]:.9f}\t{tracer.end[i]:.9f}\n")
