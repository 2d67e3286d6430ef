import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from walkpovm import cli
from walkpovm.povm import IterationPair, build_circuit
from walkpovm.walk import IDENTITY_COIN, CoinSchedule

# the subprocess imports the same walkpovm as this process
_PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def run_cli(*args):
    path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "walkpovm.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def invoke(*args):
    """In-process call; returns (exit_code, printed_text)."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(args))
    return code, buf.getvalue()


# --- run -----------------------------------------------------------------------

def test_run_trine_ideal_values():
    code, out = invoke("run", "--scenario", "trine", "--input", "psi3-1",
                       "--counts", "ideal")
    assert code == 0
    data = json.loads(out)
    ports = {row["port"]: row["p"] for row in data["ports"]}
    assert ports == {0: pytest.approx(1 / 6, abs=1e-6),
                     2: pytest.approx(1 / 6, abs=1e-6),
                     4: pytest.approx(2 / 3, abs=1e-6)}
    assert data["mode"] == "ideal"


def test_run_sic_anti_state_csv():
    code, out = invoke("run", "--scenario", "sic", "--input", "psibar4-1",
                       "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "state,P0,P2,P4,P6"
    cells = row.split(",")
    assert cells[0] == "psibar4-1"
    assert [float(c) for c in cells[1:]] == [
        pytest.approx(1 / 3, abs=1e-6),
        pytest.approx(1 / 3, abs=1e-6),
        pytest.approx(1 / 3, abs=1e-6),
        pytest.approx(0.0, abs=1e-12),
    ]


def test_run_usd_rejects_theta_zero():
    result = run_cli("run", "--scenario", "usd", "--theta", "0", "--input", "psi+")
    assert result.returncode == 1
    assert "theta" in result.stderr


def test_run_unknown_state_exits_1():
    result = run_cli("run", "--scenario", "trine", "--input", "nope")
    assert result.returncode == 1
    assert "unknown state" in result.stderr


@pytest.mark.parametrize("command", ["run", "sample"])
def test_non_finite_state_exits_1(command):
    result = run_cli(command, "--scenario", "trine", "--input", "nan:1")
    assert result.returncode == 1
    assert "finite" in result.stderr
    assert result.stdout == ""


def test_run_sampled_deterministic_bytes(tmp_path):
    args = ["run", "--scenario", "trine", "--input", "psi3-2",
            "--counts", "40000", "--seed", "12", "--format", "csv"]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    header = first.stdout.splitlines()[0]
    assert header == "state,P0,err0,P2,err2,P4,err4,total,seed"


def test_run_ideal_independent_of_seed():
    a = run_cli("run", "--scenario", "sic", "--input", "psi4-3", "--seed", "1")
    b = run_cli("run", "--scenario", "sic", "--input", "psi4-3", "--seed", "99")
    assert a.stdout == b.stdout


def test_run_explicit_state_vector():
    code, out = invoke("run", "--scenario", "usd", "--theta", "0.7853981633974483",
                       "--input", "psi+")
    data = json.loads(out)
    ports = {row["port"]: row["p"] for row in data["ports"]}
    assert ports[2] == pytest.approx(1 - np.cos(np.pi / 4), abs=1e-6)
    code2, out2 = invoke("run", "--scenario", "trine", "--input", "0.6:0.8")
    assert code2 == 0


def test_run_degree_theta_suffix():
    code, out = invoke("run", "--scenario", "usd", "--theta", "45°",
                       "--input", "psi+")
    assert code == 0
    data = json.loads(out)
    assert data["theta"] == pytest.approx(np.pi / 4, rel=1e-6)


def test_run_with_imperfections(tmp_path):
    cfg = tmp_path / "imp.json"
    cfg.write_text(
        '{"visibilities": {"1-2": 0.9}, "port_efficiencies": {}, "seed": 0}'
    )
    code, out = invoke("run", "--scenario", "trine", "--input", "psibar3-2",
                       "--imperfections", str(cfg))
    assert code == 0
    ports = {r["port"]: r["p"] for r in json.loads(out)["ports"]}
    assert ports[0] == pytest.approx((1 - 0.81) / 4, abs=1e-6)


# --- sample ----------------------------------------------------------------------

def test_sample_requires_numeric_counts():
    result = run_cli("sample", "--scenario", "trine", "--input", "psi3-1",
                     "--counts", "ideal")
    assert result.returncode == 1


def test_sample_default_counts():
    code, out = invoke("sample", "--scenario", "trine", "--input", "psi3-1",
                       "--seed", "5")
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 40000
    assert sum(data["counts"].values()) == 40000


# --- extract ---------------------------------------------------------------------

def test_extract_trine_schema_and_weights():
    code, out = invoke("extract", "--scenario", "trine")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"elements", "residual"}
    assert data["residual"] < 1e-12
    weights = sorted(
        e["matrix"][0][0]["re"] + e["matrix"][1][1]["re"] for e in data["elements"]
    )
    assert weights == [pytest.approx(2 / 3, abs=1e-5)] * 3


def test_extract_sic_weights():
    code, out = invoke("extract", "--scenario", "sic")
    data = json.loads(out)
    assert len(data["elements"]) == 4
    for e in data["elements"]:
        trace = e["matrix"][0][0]["re"] + e["matrix"][1][1]["re"]
        assert trace == pytest.approx(0.5, abs=1e-5)


def test_extract_custom_file_von_neumann(tmp_path):
    schedule = build_circuit([IterationPair(IDENTITY_COIN, IDENTITY_COIN)])
    path = tmp_path / "von-neumann.json"
    path.write_text(schedule.to_json())
    code, out = invoke("extract", "--file", str(path))
    assert code == 0
    data = json.loads(out)
    by_port = {e["port"]: e for e in data["elements"]}
    assert by_port[2]["matrix"][0][0]["re"] == pytest.approx(1.0, abs=1e-9)
    assert by_port[0]["matrix"][1][1]["re"] == pytest.approx(1.0, abs=1e-9)


def test_extract_residual_gate_exit_2():
    result = run_cli("extract", "--scenario", "sic", "--tolerance", "1e-17")
    assert result.returncode == 2
    assert "residual" in result.stderr


def test_extract_malformed_file_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"steps": [{"coins": [{"position": 0, "matrix": '
                   '[[{"re": 1, "im": 0}, {"re": 1, "im": 0}], '
                   '[{"re": 0, "im": 0}, {"re": 1, "im": 0}]]}]}]}')
    result = run_cli("extract", "--file", str(bad))
    assert result.returncode == 1
    assert "position 0 in step 1" in result.stderr


def test_extract_file_with_coin_missing_matrix_exit_1(tmp_path):
    bad = tmp_path / "f.json"
    bad.write_text('{"steps": [{"coins": [{"position": 0}]}]}')
    result = run_cli("extract", "--file", str(bad))
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed schedule file")


# --- compile ---------------------------------------------------------------------

def test_compile_sic_contains_reference_angles():
    code, out = invoke("compile", "--scenario", "sic")
    data = json.loads(out)
    assert data["displacers"] == 6
    assert data["interferometers"] == [[1, 2], [3, 4]]
    dms = [p["angle_dms"] for p in data["plates"]]
    assert dms.count("67°30′") == 2
    assert "17°38′" in dms
    # the phased coin appears as HWP 52°30′ + QWP 60°00′: the same hardware
    # as HWP 142°30′ with an opposite-sign QWP at 150°
    assert "52°30′" in dms
    qwps = [p for p in data["plates"] if p["kind"] == "QWP"]
    assert len(qwps) == 1
    assert (qwps[0]["angle_deg"] - 90.0) % 180.0 == pytest.approx(150.0, abs=1 / 60)


def test_compile_usd_plate_angle():
    code, out = invoke("compile", "--scenario", "usd", "--theta", "0.7854")
    data = json.loads(out)
    angles = {p["angle_dms"] for p in data["plates"]}
    assert "12°14′" in angles


def test_compile_empty_schedule(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(CoinSchedule([]).to_json())
    code, out = invoke("compile", "--file", str(path))
    data = json.loads(out)
    assert data["displacers"] == 0
    assert data["plates"] == []


def test_compile_csv_table():
    code, out = invoke("compile", "--scenario", "trine", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "kind,angle_deg,angle_dms,position,step"
    assert len(lines) == 5


# --- sweep -----------------------------------------------------------------------

def test_sweep_default_grid_theory_column():
    code, out = invoke("sweep", "--format", "csv", "--seed", "0")
    lines = out.strip().splitlines()
    assert lines[0] == "theta_rad,theta_dms,p_theory,p_sampled,std_error"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 10
    expected = [0.0123, 0.0489, 0.109, 0.191, 0.293, 0.412, 0.546, 0.691, 0.844, 1.000]
    for row, value in zip(rows, expected):
        assert float(row[2]) == pytest.approx(value, abs=5e-4)
    assert rows[-1][1] == "90\u00b000\u2032"


def test_sweep_negative_grid_symmetry():
    pos = invoke("sweep", "--thetas=0.3141592653589793,0.6283185307179586")[1]
    neg = invoke("sweep", "--thetas=-0.3141592653589793,-0.6283185307179586")[1]
    tp = [r["p_theory"] for r in json.loads(pos)["rows"]]
    tn = [r["p_theory"] for r in json.loads(neg)["rows"]]
    assert tp == tn


def test_sweep_single_point():
    code, out = invoke("sweep", "--thetas", "1.5707963267948966")
    row = json.loads(out)["rows"][0]
    assert row["p_theory"] == pytest.approx(1.0, abs=1e-9)


def test_sweep_deterministic_output_files(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        result = run_cli("sweep", "--seed", "3", "--counts", "5000",
                         "--format", "csv", "--output", str(f))
        assert result.returncode == 0
    assert f1.read_bytes() == f2.read_bytes()


# --- misc ------------------------------------------------------------------------

def test_unknown_command_exit_1():
    result = run_cli("frobnicate")
    assert result.returncode == 1


def test_missing_required_input_exit_1():
    result = run_cli("run", "--scenario", "trine")
    assert result.returncode == 1


def test_no_partial_output_on_error(tmp_path, capsys):
    out = tmp_path / "x.json"
    result = run_cli("run", "--scenario", "trine", "--input", "nope",
                     "--output", str(out))
    assert result.returncode == 1
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (("sweep", "--counts", "abc"), "--counts"),
    (("sweep", "--counts", "1e3"), "--counts"),
    (("sweep", "--counts", "ideal"), "sweep requires --counts"),
    (("extract", "--scenario", "sic", "--tolerance", "nan"), "--tolerance"),
    (("extract", "--scenario", "sic", "--tolerance", "-1"), "--tolerance"),
    (("extract", "--scenario", "sic", "--tolerance", "inf"), "--tolerance"),
], ids=["sweep-counts-abc", "sweep-counts-1e3", "sweep-counts-ideal",
        "tolerance-nan", "tolerance-negative", "tolerance-inf"])
def test_bad_numeric_option_exits_1(args, message):
    result = run_cli(*args)
    assert result.returncode == 1
    assert result.stderr.startswith("error:") and message in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("args", [
    ("compile", "--scenario", "sic", "--seed", "3"),
    ("compile", "--scenario", "sic", "--tolerance", "5"),
    ("extract", "--scenario", "sic", "--seed", "1"),
    ("run", "--scenario", "trine", "--input", "psi3-1", "--tolerance", "5"),
    ("sample", "--scenario", "trine", "--input", "psi3-1", "--tolerance", "5"),
    ("sweep", "--scenario", "trine"),
    ("sweep", "--file", "x"),
    ("sweep", "--theta", "0.5"),
    ("sweep", "--tolerance", "5"),
], ids=["compile-seed", "compile-tolerance", "extract-seed", "run-tolerance",
        "sample-tolerance", "sweep-scenario", "sweep-file", "sweep-theta", "sweep-tolerance"])
def test_option_the_command_does_not_read_exits_1(args):
    # --theta is also a prefix of sweep's --thetas, so this pins exact matching
    result = run_cli(*args)
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
