"""Every name the benchmark reads from ``walkpovm`` is still there under its name.

``perfbench/tracing.py`` rebinds each ``TRACED`` (module, attribute) pair and
``CoinSchedule.__init__`` by name, and the workloads call the package through
attributes such as ``povm.PovmSet.build``, so deleting or renaming one of them
breaks only the benchmark run.  The workloads also read the package's records
(a target's ``elements``, a netlist's ``plates``), so a few inputs of each
in-process workload are run and checked here.  The files are read and parsed
or executed here, never imported, so no bytecode is written next to them.
"""

import ast
import importlib
from pathlib import Path

from walkpovm import walk

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def test_every_traced_name_is_an_attribute_of_its_module():
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    for module, attribute, span, _counter in namespace["TRACED"]:
        assert callable(getattr(module, attribute, None)), span
    assert "__init__" in vars(walk.CoinSchedule)


def _bound_names(tree) -> dict:
    """What ``import walkpovm`` and ``from walkpovm[.x] import y`` bind in one file."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "walkpovm":
                    bound[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "walkpovm":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, None)
                if value is None:  # a submodule not imported by its package
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = value
    return bound


def _attribute_chains(tree, bound):
    """(dotted name, the names after the root) for every attribute chain on a bound name."""
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in bound:
            yield ".".join([node.id, *reversed(parts)]), bound[node.id], parts[::-1]


def test_every_package_attribute_the_benchmark_reads_exists():
    # strings such as "cli.main_ms_p50" are metric names, not attributes, and are skipped
    read = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for dotted, value, parts in _attribute_chains(tree, _bound_names(tree)):
            for i, part in enumerate(parts):
                assert hasattr(value, part), f"{path.name}: {'.'.join(dotted.split('.')[:i + 2])}"
                value = getattr(value, part)
            read.add(dotted)
    assert {"povm.IterationPair", "povm.PovmSet.build", "optics.plates_matrix",
            "walk.position_distribution", "povm.SynthesisInfeasibleError",
            "walk.CoinSchedule.__init__", "DEFAULT.synthesis_roundtrip"} <= read


def test_the_in_process_workloads_run_and_check_their_first_inputs():
    # the cli workload starts subprocesses and is left to the benchmark run
    namespace = {"__name__": "workloads"}
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), namespace)
    for name, count in (("design", 3), ("density", 2), ("sweep", 1)):
        workload = namespace["WORKLOADS"][name](1)
        for inp in workload.round(0)[:count]:
            assert workload.check(inp, workload.op(inp)) == [], name
