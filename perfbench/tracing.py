"""In-memory spans around walkpovm's public functions, installed from outside.

``Tracer.installed()`` replaces every binding of a traced function in the
``walkpovm`` module namespaces (``povm.run`` and ``walk.run`` are separate
bindings of one function) with a wrapper that records a span: name,
start, end, parent span and op id.  ``CoinSchedule`` is traced through its
``__init__`` so the class itself stays intact.  Nothing under ``src/`` is
edited; leaving the context restores every binding.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

from walkpovm import cli, experiment, optics, povm, walk


def _steps(args, kwargs, result):
    return {"steps": len(args[0].steps)}


def _site_steps(args, kwargs, result):
    # run_density propagates a dense dim x dim matrix over T steps,
    # with T = max(1, len(steps)) and dim = 2(2T + 1) lattice sites.
    t = max(1, len(args[0].steps))
    return {"site_steps": t * 2 * (2 * t + 1)}


def _plates(args, kwargs, result):
    return {"plates": len(result.plates)}


# (module, attribute, span name, counter taken at the boundary)
TRACED = (
    (walk, "run", "walk.run", _steps),
    (walk, "position_distribution", "walk.position_distribution", None),
    (povm, "synthesize", "povm.synthesize", None),
    (povm, "extract_povm", "povm.extract_povm", None),
    (povm, "build_circuit", "povm.build_circuit", None),
    (optics, "decompose", "optics.decompose", None),
    (optics, "compile_netlist", "optics.compile_netlist", _plates),
    (optics, "interferometers", "optics.interferometers", None),
    (optics, "output_ports", "optics.output_ports", None),
    (experiment, "run_density", "experiment.run_density", _site_steps),
    (experiment, "sample_counts", "experiment.sample_counts", None),
    (experiment, "apply_efficiencies", "experiment.apply_efficiencies", None),
    (experiment, "usd_sweep", "experiment.usd_sweep", None),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """Records spans for the calls made while ``installed()`` is active."""

    def __init__(self):
        # span: [name, start_ns, end_ns, parent index or -1, op id, failed, counts]
        self.spans = []
        self.op_id = -1
        self._stack = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op_id, False, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        restore = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "walkpovm" or name.startswith("walkpovm."))]
        try:
            for owner, attr, name, counter in TRACED:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, counter)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, key, value))
                            setattr(module, key, wrapper)
            init = walk.CoinSchedule.__init__
            restore.append((walk.CoinSchedule, "__init__", init))
            walk.CoinSchedule.__init__ = self._wrap("walk.CoinSchedule", init, None)
            yield self
        finally:
            for target, key, value in reversed(restore):
                setattr(target, key, value)

    def layer_totals(self, since: int = 0) -> dict:
        """Per span name: calls, failed, self_ns and summed counts of ``spans[since:]``.

        A span's self time is its duration minus the durations of its
        direct children; children run inside the parent on one thread.
        """
        spans = self.spans[since:]
        child_ns = [0] * len(spans)
        for span in spans:
            if span[3] >= since:
                child_ns[span[3] - since] += span[2] - span[1]
        totals = {}
        for i, (name, start, end, _parent, _op, failed, counts) in enumerate(spans):
            t = totals.setdefault(name, {"calls": 0, "failed": 0, "self_ns": 0})
            t["calls"] += 1
            t["failed"] += int(failed)
            t["self_ns"] += end - start - child_ns[i]
            for key, value in (counts or {}).items():
                t[key] = t.get(key, 0) + value
        return totals

    def write(self, path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent, op, failed, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
