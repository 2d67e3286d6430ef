"""CLI stdout held byte for byte against recorded output.

Every subcommand runs in both formats on the built-in scenarios with
named input states at fixed seeds, plus imperfect runs that go through
the density engine with visibilities below 1.  The recorded bytes live
in ``tests/data/cli_golden.json``.  A change that alters them on purpose
regenerates the file with
``PYTHONPATH=src python tests/test_cli_golden.py --regenerate`` and says
why in its change log.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from walkpovm import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"
IMPERFECTIONS = str(DATA / "imperfections.json")

_SCENARIOS = {
    "trine": (["--scenario", "trine"], "psi3-2"),
    "sic": (["--scenario", "sic"], "psi4-3"),
    "usd": (["--scenario", "usd", "--theta", "0.7"], "psi+"),
}


def _cases() -> dict:
    cases = {}
    for fmt in ("json", "csv"):
        tail = ["--format", fmt, "--seed", "0"]
        for name, (scenario, state) in _SCENARIOS.items():
            cases[f"run-{name}-{fmt}"] = ["run", *scenario, "--input", state, *tail]
            cases[f"sample-{name}-{fmt}"] = ["sample", *scenario, "--input", state, *tail]
            cases[f"extract-{name}-{fmt}"] = ["extract", *scenario, "--format", fmt]
            cases[f"compile-{name}-{fmt}"] = ["compile", *scenario, "--format", fmt]
        cases[f"sweep-{fmt}"] = ["sweep", *tail]
        cases[f"sample-trine-imperfect-{fmt}"] = [
            "run", "--scenario", "trine", "--input", "psibar3-2", "--counts", "40000",
            "--imperfections", IMPERFECTIONS, *tail]
    cases["run-sic-imperfect-json"] = [
        "run", "--scenario", "sic", "--input", "psi4-2",
        "--imperfections", IMPERFECTIONS, "--format", "json"]
    cases["sweep-imperfect-json"] = [
        "sweep", "--thetas", "0.7,-0.7,90deg", "--counts", "20000",
        "--imperfections", IMPERFECTIONS, "--format", "json", "--seed", "0"]
    return cases


def _stdout(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0, argv
    return buf.getvalue()


CASES = _cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_matches_golden_bytes(case):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _stdout(CASES[case]).encode("utf-8") == golden[case].encode("utf-8")


def test_golden_file_covers_every_case():
    assert set(json.loads(GOLDEN.read_text(encoding="utf-8"))) == set(CASES)


if __name__ == "__main__" and sys.argv[1:] == ["--regenerate"]:
    recorded = {case: _stdout(argv) for case, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                      encoding="utf-8")
