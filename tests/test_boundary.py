"""One fixed catalogue of hostile values, applied to every scalar input slot.

Each slot is an integer (a coin position, a port, a displacer, a plate's
position or step, a sign, a photon count, a seed), a bounded real (a
visibility, an efficiency, a budget, a plate angle, a USD angle) or a
config.  For every hostile value a slot either raises ``ValidationError``,
or accepts it, and then ``from_json(to_json(x))`` equals x wherever x has a
JSON form.  Each slot also names the values it accepts, so a rule that
starts taking a bool or truncating a float fails here.  The CLI gets the
same values as option text: exit 0, or exit 1 with ``error:``.  A number
written as text, an option or a config file key, is plain ASCII with no
``_`` and no surrounding space, which Python's ``int()`` and ``float()`` allow.

Matrix and vector entries take no bool and no str, which numpy would read
as the numbers 1 and 0, also in a list of numbers or a file cell.  A file
that gives one position, displacer pair or port twice is malformed, and so
is one in which an object gives one key twice.
Counts in a ``CountTable`` sit in ``test_experiment.py``, and non-finite
matrix and vector entries in ``test_walk.py``'s ``_BOUNDARIES``.  Records
that take no input rule (``WalkState``, ``IterationPair``, ``SweepPoint``,
``OpticalNetlist``) are not slots.
"""

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from conftest import cli_options
from walkpovm import cli
from walkpovm.experiment import (
    ImperfectionConfig,
    apply_efficiencies,
    run_density,
    sample_counts,
    usd_sweep,
)
from walkpovm.optics import WavePlate, state_prep_angles, usd_plate_angle
from walkpovm.povm import (
    PovmElement,
    PovmSet,
    scenario_schedule,
    usd_scenario,
    usd_state,
    usd_success_probability,
)
from walkpovm.walk import (
    IDENTITY_COIN,
    NOT_COIN,
    CoinSchedule,
    ValidationError,
    coin_column,
    complex_to_json,
    validate_coin,
)

HOSTILE = {
    "true": True,
    "false": False,
    "half": 0.5,
    "float-one": 1.0,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "1e308": 1e308,
    "numpy-int": np.int64(2),
    "numpy-float": np.float64(0.5),
    "numpy-bool": np.bool_(True),
    "str": "1",
    "none": None,
    "2**63": 2**63,  # one past the largest count numpy's multinomial draws
}

# the hostile values each rule takes
INTEGER = {"numpy-int", "2**63"}
COUNT = {"numpy-int"}  # [1, 2^63 - 1]
UNIT = {"half", "float-one", "numpy-float"}  # [0, 1] and (0, 1]
FINITE = {"half", "float-one", "1e308", "numpy-int", "numpy-float", "2**63"}
USD_ANGLE = {"half", "float-one", "numpy-float"}  # (0, pi/2]

_PROJECTOR = np.diag([1.0, 0.0])
_SIC = scenario_schedule("sic")


def _dumps(value):
    """``value`` as JSON text; numpy scalars as the Python values they hold."""
    return json.dumps(value, default=lambda v: v.item())


def _schedule_file(value):
    return CoinSchedule.from_json(CoinSchedule([{0: IDENTITY_COIN}]).to_json().replace(
        '"position": 0', f'"position": {_dumps(value)}'))


def _povm_file(value):
    text = PovmSet.build([PovmElement(_PROJECTOR, "e", 0)]).to_json()
    return PovmSet.from_json(text.replace('"port": 0', f'"port": {_dumps(value)}'))


def _config_file(key, value):
    data = {"visibilities": {"1-2": 0.9}, "port_efficiencies": {"0": 1.0}, "imbalance_budget": 0.1}
    return ImperfectionConfig.from_json(_dumps({**data, key: value}))


def _schedule_round_trip(x):
    return CoinSchedule.from_json(x.to_json()).to_json() == x.to_json()


def _povm_round_trip(x):
    x = x if isinstance(x, PovmSet) else PovmSet.build([x])
    back = PovmSet.from_json(x.to_json())
    return [(e.port, e.label) for e in back.elements] == [(e.port, e.label) for e in x.elements]


def _config_round_trip(x):
    return ImperfectionConfig.from_json(x.to_json()) == x


# slot -> (call with the hostile value, the values it accepts, round trip or None)
SLOTS = {
    "CoinSchedule position": (lambda v: CoinSchedule([{v: IDENTITY_COIN}]),
                              INTEGER, _schedule_round_trip),
    "CoinSchedule.from_json position": (_schedule_file, INTEGER, _schedule_round_trip),
    "PovmElement port": (lambda v: PovmElement(_PROJECTOR, "e", v), INTEGER, _povm_round_trip),
    "PovmSet.from_json port": (_povm_file, INTEGER, _povm_round_trip),
    "ImperfectionConfig visibility pair": (
        lambda v: ImperfectionConfig(visibilities={(v, 2): 0.5}), INTEGER, _config_round_trip),
    "ImperfectionConfig visibility": (
        lambda v: ImperfectionConfig(visibilities={(1, 2): v}), UNIT, _config_round_trip),
    "ImperfectionConfig efficiency port": (
        lambda v: ImperfectionConfig(port_efficiencies={v: 1.0}), INTEGER, _config_round_trip),
    "ImperfectionConfig efficiency": (
        lambda v: ImperfectionConfig(port_efficiencies={0: v}), UNIT, _config_round_trip),
    "ImperfectionConfig imbalance_budget": (
        lambda v: ImperfectionConfig(imbalance_budget=v), FINITE, _config_round_trip),
    # JSON object keys are text, so the str "1" is a port there
    "ImperfectionConfig.from_json visibility pair": (
        lambda v: _config_file("visibilities", {f"{v}-2": 0.5}), INTEGER | {"str"},
        _config_round_trip),
    "ImperfectionConfig.from_json visibility": (
        lambda v: _config_file("visibilities", {"1-2": v}), UNIT, _config_round_trip),
    "ImperfectionConfig.from_json efficiency port": (
        lambda v: _config_file("port_efficiencies", {f"{v}": 1.0}), INTEGER | {"str"},
        _config_round_trip),
    "ImperfectionConfig.from_json efficiency": (
        lambda v: _config_file("port_efficiencies", {"0": v}), UNIT, _config_round_trip),
    "ImperfectionConfig.from_json imbalance_budget": (
        lambda v: _config_file("imbalance_budget", v), FINITE, _config_round_trip),
    "apply_efficiencies efficiency": (
        lambda v: apply_efficiencies({0: 0.5, 2: 0.5}, {0: v}), UNIT, None),
    "WavePlate angle": (lambda v: WavePlate("HWP", v), FINITE, None),
    "WavePlate position": (lambda v: WavePlate("HWP", 10.0, v), INTEGER, None),
    "WavePlate step": (lambda v: WavePlate("HWP", 10.0, 0, v), INTEGER, None),
    "usd_scenario theta": (usd_scenario, USD_ANGLE, None),
    "scenario_schedule theta": (lambda v: scenario_schedule("usd", v), USD_ANGLE,
                                _schedule_round_trip),
    "usd_success_probability theta": (usd_success_probability, USD_ANGLE, None),
    "usd_plate_angle theta": (usd_plate_angle, USD_ANGLE, None),
    "usd_sweep angle": (lambda v: usd_sweep([v], total=10), USD_ANGLE, None),
    "usd_sweep total": (lambda v: usd_sweep([0.5], total=v), COUNT, None),
    "usd_sweep seed": (lambda v: usd_sweep([0.5], total=10, seed=v), INTEGER, None),
    "sample_counts total": (lambda v: sample_counts({0: 0.5, 2: 0.5}, v, 0), COUNT, None),
    "sample_counts seed": (lambda v: sample_counts({0: 0.5, 2: 0.5}, 10, v), INTEGER, None),
    "usd_state sign": (lambda v: usd_state(v, 0.5), set(), None),
    "usd_state theta": (lambda v: usd_state(1, v), FINITE, None),
    "run_density config": (lambda v: run_density(_SIC, [1.0, 0.0], v), {"none"}, None),
    "usd_sweep config": (lambda v: usd_sweep([0.5], v, total=10), {"none"}, None),
}


@pytest.mark.parametrize("value", sorted(HOSTILE))
@pytest.mark.parametrize("slot", sorted(SLOTS))
def test_hostile_value_is_rejected_or_round_trips(slot, value):
    call, accepted, round_trip = SLOTS[slot]
    try:
        x = call(HOSTILE[value])
    except ValidationError:
        assert value not in accepted, f"{slot} rejects {value}"
        return
    assert value in accepted, f"{slot} accepts {value}"
    if round_trip is not None:
        assert round_trip(x)


# subcommand -> a call that exits 0; every option the subcommand declares gets each value
_CLI = {
    "run": ["run", "--scenario", "usd", "--theta", "0.5", "--input", "psi+", "--counts", "100"],
    "sample": ["sample", "--scenario", "trine", "--input", "H", "--counts", "100"],
    "extract": ["extract", "--scenario", "sic"],
    "compile": ["compile", "--scenario", "trine"],
    "sweep": ["sweep", "--thetas", "0.5", "--counts", "100"],
}
_CLI_CASES = [(cmd, option) for cmd, options in cli_options().items() for option in options]


@pytest.mark.parametrize("cmd, option", _CLI_CASES, ids=[f"{c}{o}" for c, o in _CLI_CASES])
def test_hostile_option_text_exits_0_or_1(cmd, option, tmp_path, monkeypatch):
    # --output and --file take any text as a path; run where that path is harmless
    monkeypatch.chdir(tmp_path)
    argv = _CLI[cmd]
    for value in HOSTILE.values():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([*argv, f"{option}={value}"])
        assert code in (0, 1), (option, value, code)
        if code == 1:
            assert err.getvalue().startswith("error:"), (option, value)
            assert out.getvalue() == ""


@pytest.mark.parametrize("argv", [
    ["sample", "--scenario", "trine", "--input", "H", "--counts", "99999999999999999999"],
    ["sweep", "--thetas", "0.5", "--counts", "99999999999999999999"],
], ids=["sample", "sweep"])
def test_a_photon_count_numpy_cannot_draw_exits_1(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code == 1
    assert err.getvalue().startswith("error: total count must be an integer in [1, ")
    assert out.getvalue() == ""


# bool and str entries that numpy reads as the numbers 1 and 0
ONES = {"true": True, "numpy-bool": np.bool_(True), "str": "1"}
ZEROS = {"false": False, "str-zero": "0"}


def _cells(one, zero):
    """The identity as file cells, ``one`` on the diagonal and ``zero`` off it and in each
    imaginary part."""
    return [[{"re": one, "im": zero}, {"re": zero, "im": zero}],
            [{"re": zero, "im": zero}, {"re": one, "im": zero}]]


# slot -> a call with the identity, or (1, 0), made of the given one and zero
ENTRY_SLOTS = {
    "validate_coin": lambda one, zero: validate_coin([[one, zero], [zero, one]]),
    "CoinSchedule": lambda one, zero: CoinSchedule([{0: [[one, zero], [zero, one]]}]),
    "PovmElement": lambda one, zero: PovmElement([[one, zero], [zero, zero]], "e", 0),
    "coin_column": lambda one, zero: coin_column([one, zero]),
    "state_prep_angles": lambda one, zero: state_prep_angles([one, zero]),
    "CoinSchedule.from_json": lambda one, zero: CoinSchedule.from_json(_dumps(
        {"steps": [{"coins": [{"position": 0, "matrix": _cells(one, zero)}]}]})),
    "PovmSet.from_json": lambda one, zero: PovmSet.from_json(_dumps(
        {"elements": [{"label": "e", "port": 0, "matrix": _cells(one, zero)}]})),
}


@pytest.mark.parametrize("value", sorted(ONES) + sorted(ZEROS))
@pytest.mark.parametrize("slot", sorted(ENTRY_SLOTS))
def test_a_bool_or_str_entry_is_rejected(slot, value):
    one, zero = (ONES[value], 0) if value in ONES else (1, ZEROS[value])
    ENTRY_SLOTS[slot](1, 0)  # the same slot takes the numbers
    with pytest.raises(ValidationError, match="^malformed " if "json" in slot else None):
        ENTRY_SLOTS[slot](one, zero)


@pytest.mark.parametrize("whole", [
    lambda: coin_column(["1", "0"]),
    lambda: CoinSchedule([{0: [[True, False], [False, True]]}]),
    lambda: CoinSchedule([{0: [["0", "1"], ["1", "0"]]}]),
    lambda: PovmElement([[True, 0], [0, False]], "e", 0),
    lambda: validate_coin(np.eye(2, dtype=bool)),
    lambda: coin_column(np.array(["1", "0"])),
], ids=["str-vector", "bool-matrix", "str-matrix", "mixed-element", "bool-array", "str-array"])
def test_a_matrix_or_vector_of_bools_or_strs_is_rejected(whole):
    with pytest.raises(ValidationError, match="must be an array of numbers"):
        whole()


def test_a_file_cell_part_beyond_every_float_is_malformed():
    with pytest.raises(ValidationError, match="^malformed schedule file: "):
        CoinSchedule.from_json(_dumps(
            {"steps": [{"coins": [{"position": 0, "matrix": _cells(10**400, 0)}]}]}))


def _step_with_position_0_twice():
    coins = [{"position": 0, "matrix": complex_to_json(m)} for m in (NOT_COIN, IDENTITY_COIN)]
    return json.dumps({"steps": [{"coins": coins}]})


def _coin_with_its_position_key_twice():
    coin = json.dumps({"position": 0, "matrix": complex_to_json(NOT_COIN)})
    return '{"steps": [{"coins": [%s]}]}' % coin.replace("{", '{"position": 1, ', 1)


# file kind -> (its text, the CLI call that reads it from {path}, the repeat its error names)
REPEATS = {
    "schedule position": (_step_with_position_0_twice(), ["extract", "--file", "{path}"],
                          "malformed schedule file: step 1: position 0 is given twice"),
    "visibility pair": (json.dumps({"visibilities": {"1-2": 0.5, "01-2": 0.9}}),
                        ["sample", "--scenario", "trine", "--input", "H", "--imperfections",
                         "{path}"],
                        "malformed imperfection config: visibility pair (1, 2) is given twice"),
    "efficiency port": (json.dumps({"port_efficiencies": {"0": 1.0, "00": 0.99}}),
                        ["sample", "--scenario", "trine", "--input", "H", "--imperfections",
                         "{path}"],
                        "malformed imperfection config: efficiency port 0 is given twice"),
    # json.loads alone keeps the last value of a key an object gives twice
    "schedule key": (_coin_with_its_position_key_twice(), ["extract", "--file", "{path}"],
                     "malformed schedule file: key 'position' is given twice"),
    "config key": ('{"visibilities": {"1-2": 0.5, "1-2": 0.9}}',
                   ["sample", "--scenario", "trine", "--input", "H", "--imperfections", "{path}"],
                   "malformed imperfection config: key '1-2' is given twice"),
}


@pytest.mark.parametrize("kind", sorted(REPEATS))
def test_a_file_that_names_one_slot_twice_is_malformed(kind, tmp_path):
    text, argv, message = REPEATS[kind]
    load = CoinSchedule.from_json if kind.startswith("schedule") else ImperfectionConfig.from_json
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load(text)
    path = tmp_path / "file.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([a.format(path=path) for a in argv])
    assert code == 1
    assert err.getvalue() == f"error: {message}\n"
    assert out.getvalue() == ""


_SAMPLE = ["sample", "--scenario", "sic", "--input", "psi4-1", "--counts", "100"]


@pytest.mark.parametrize("argv", [
    [*_SAMPLE, "--seed", "1_0"],
    [*_SAMPLE, "--seed", "\uff14"],  # a fullwidth digit
    [*_SAMPLE, "--seed", " 1"],
    [*_SAMPLE, "--seed", "+1"],
    ["sample", "--scenario", "sic", "--input", "psi4-1", "--counts", "\uff14\uff10\uff10\uff10"],
    ["sample", "--scenario", "sic", "--input", "psi4-1", "--counts", "4_000"],
    ["sweep", "--thetas", "0_1", "--counts", "100"],
    ["sweep", "--thetas", "\u0661", "--counts", "100"],  # an Arabic-Indic one
    ["run", "--scenario", "usd", "--theta", "0.5\u0663", "--input", "psi+"],
    ["extract", "--scenario", "sic", "--tolerance", "1_0"],
    ["extract", "--scenario", "sic", "--tolerance", "1e-9 "],
    ["sample", "--scenario", "sic", "--input", "psi4-1", "--imperfections", "{path}"],
    ["run", "--scenario", "trine", "--input", "1_0:1"],
    ["run", "--scenario", "trine", "--input", "\uff11:0"],
], ids=["seed-underscore", "seed-fullwidth", "seed-space", "seed-plus", "counts-fullwidth",
        "counts-underscore", "thetas-underscore", "thetas-arabic-indic", "theta-arabic-indic",
        "tolerance-underscore", "tolerance-space", "config-pair-underscore",
        "input-underscore", "input-fullwidth"])
def test_a_number_written_as_text_is_plain_ascii(argv, tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"visibilities": {"1_0-2": 0.5}}')
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([a.format(path=path) for a in argv])
    assert code == 1
    assert err.getvalue().startswith("error:")
    assert out.getvalue() == ""


def test_a_number_written_with_leading_zeros_is_the_number():
    outs = []
    for seed, counts in (("7", "100"), ("07", "0100")):
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main([*_SAMPLE[:-1], counts, "--seed", seed, "--format", "csv"]) == 0
        outs.append(out.getvalue())
    assert outs[0] == outs[1]
