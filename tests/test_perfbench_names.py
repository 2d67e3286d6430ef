"""Every function the traced benchmark wraps is still there under its name.

``perfbench/tracing.py`` rebinds each ``TRACED`` (module, attribute) pair and
``CoinSchedule.__init__`` by name, so deleting or renaming one of them breaks
only the traced benchmark run.  The file is read and executed here, never
imported, so no bytecode is written next to it.
"""

from pathlib import Path

from walkpovm import walk

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_is_an_attribute_of_its_module():
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    for module, attribute, span, _counter in namespace["TRACED"]:
        assert callable(getattr(module, attribute, None)), span
    assert "__init__" in vars(walk.CoinSchedule)
