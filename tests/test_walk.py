import io
import json
import types
from contextlib import redirect_stdout

import numpy as np
import pytest

import oracle
import walkpovm
from conftest import random_rank1_povm, random_unitary
from walkpovm.walk import (
    IDENTITY_COIN,
    L,
    NOT_COIN,
    R,
    CoinSchedule,
    ValidationError,
    WalkState,
    position_distribution,
    run,
)
from walkpovm import cli, povm
from walkpovm.experiment import ImperfectionConfig
from walkpovm.optics import compile_netlist, output_ports, state_prep_angles
from walkpovm.povm import (IterationPair, PovmElement, PovmSet, build_circuit, extract_povm,
                           scenario_schedule, synthesize, trine_scenario)
from walkpovm.walk import (_reach, coin_column, complex_from_json, complex_to_json, decoding,
                           validate_coin)


def test_run_trine_on_h_matches_hand_trace():
    final = run(scenario_schedule("trine"), np.array([1.0, 0.0]))
    assert final.amplitude(4, R) == pytest.approx(np.sqrt(2 / 3), abs=1e-12)
    assert final.amplitude(2, R) == pytest.approx(1 / np.sqrt(6), abs=1e-12)
    assert final.amplitude(0, R) == pytest.approx(-1 / np.sqrt(6), abs=1e-12)
    assert len(final.amplitudes) == 3


def test_run_trine_on_v_matches_hand_trace():
    final = run(scenario_schedule("trine"), np.array([0.0, 1.0]))
    assert final.amplitude(2, R) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert final.amplitude(0, R) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert abs(final.amplitude(4, R)) < 1e-12


def test_run_empty_schedule_keeps_input():
    final = run(CoinSchedule([]), np.array([0.6, 0.8]))
    assert final.amplitude(0, R) == pytest.approx(0.6)
    assert final.amplitude(0, L) == pytest.approx(0.8)


def test_run_rejects_unnormalised_input():
    with pytest.raises(ValidationError, match="normalised"):
        run(CoinSchedule([]), np.array([1.0, 1.0]))


def test_run_rejects_wrong_length_input():
    with pytest.raises(ValidationError, match="2-vector"):
        run(CoinSchedule([]), np.array([1.0, 0.0, 0.0]))


def test_position_distribution_trine():
    dist = position_distribution(run(scenario_schedule("trine"), np.array([1.0, 0.0])))
    assert dist[4] == pytest.approx(2 / 3, abs=1e-12)
    assert dist[2] == pytest.approx(1 / 6, abs=1e-12)
    assert dist[0] == pytest.approx(1 / 6, abs=1e-12)


def test_position_distribution_marginalises_coin():
    dist = position_distribution(
        WalkState({(1, R): 1 / np.sqrt(2), (-1, L): 1 / np.sqrt(2)})
    )
    assert dist == {-1: pytest.approx(0.5), 1: pytest.approx(0.5)}


def test_position_distribution_sic_h_input():
    dist = position_distribution(run(scenario_schedule("sic"), np.array([1.0, 0.0])))
    assert dist[6] == pytest.approx(0.5, abs=1e-12)
    for port in (0, 2, 4):
        assert dist[port] == pytest.approx(1 / 6, abs=1e-12)


def _random_schedule(rng, n_steps):
    steps = []
    for t in range(n_steps):
        coins = {}
        for x in rng.choice(np.arange(-t - 1, t + 2), size=rng.integers(0, 3), replace=False):
            coins[int(x)] = random_unitary(rng)
        steps.append(coins)
    return CoinSchedule(steps)


def test_norm_conserved_on_random_schedules():
    rng = np.random.default_rng(11)
    for _ in range(100):
        schedule = _random_schedule(rng, int(rng.integers(1, 11)))
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        assert abs(run(schedule, v).norm() - 1.0) < 1e-10


def test_support_bounded_by_step_count():
    rng = np.random.default_rng(13)
    for _ in range(20):
        t = int(rng.integers(1, 11))
        schedule = _random_schedule(rng, t)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        final = run(schedule, v)
        assert all(abs(x) <= t for (x, _c) in final.amplitudes)


def test_run_is_linear_in_the_input():
    rng = np.random.default_rng(17)
    schedule = _random_schedule(rng, 6)
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    alpha, beta = 0.3 - 0.4j, 0.2 + 0.85j
    w = alpha * u + beta * v
    w /= np.linalg.norm(w)
    final_u = run(schedule, u)
    final_v = run(schedule, v)
    final_w = run(schedule, w)
    norm = np.linalg.norm(alpha * u + beta * v)
    keys = set(final_u.amplitudes) | set(final_v.amplitudes) | set(final_w.amplitudes)
    for k in keys:
        combined = (alpha * final_u.amplitude(*k) + beta * final_v.amplitude(*k)) / norm
        assert combined == pytest.approx(final_w.amplitude(*k), abs=1e-12)


def test_schedule_json_round_trip():
    schedule = scenario_schedule("sic")
    back = CoinSchedule.from_json(schedule.to_json())
    assert back.n_steps == schedule.n_steps
    for s1, s2 in zip(schedule.steps, back.steps):
        assert set(s1) == set(s2)
        for x in s1:
            np.testing.assert_allclose(s1[x], s2[x], atol=1e-15)


def test_schedule_rejects_non_unitary_naming_step_and_position():
    with pytest.raises(ValidationError, match=r"position 2 in step 2"):
        CoinSchedule([{0: NOT_COIN}, {2: np.array([[1, 0], [1, 1]])}])


def test_a_schedule_keeps_its_own_read_only_coins():
    m = np.array(NOT_COIN)
    schedule = CoinSchedule([{0: IDENTITY_COIN}, {1: m, -1: NOT_COIN}])
    m[:] = 5 * np.eye(2)  # the caller's array, not the schedule's
    np.testing.assert_array_equal(schedule.steps[1][1], NOT_COIN)
    assert extract_povm(schedule).completeness_residual <= 1e-15
    # the maps and the stack are both in slot order, whatever order the maps were given in
    assert list(schedule.steps[1]) == [-1, 1]
    assert schedule.slots == ((0, 1), (-1, 2), (1, 2))
    assert np.shares_memory(schedule.steps[1][1], schedule.coins)
    for write in (lambda: schedule.steps[1][1].__setitem__((0, 0), 0.0),
                  lambda: schedule.coins.__setitem__((0, 0, 0), 0.0)):
        with pytest.raises(ValueError, match="read-only"):
            write()


def _stored_form_schedules() -> dict:
    """The built-ins, synthesised circuits for n in [2, 64], Haar coins on every site of
    walks of 1 to 7 steps, and the same Haar walks with each step's map given shuffled."""
    rng = np.random.default_rng(29)
    schedules = {name: scenario_schedule(name) for name in ("trine", "sic")}
    schedules["usd-0.7"] = scenario_schedule("usd", 0.7)
    for n in range(2, 65):
        mats = random_rank1_povm(rng, n)
        target = PovmSet.build(PovmElement(m, f"o{i}", i) for i, m in enumerate(mats))
        schedules[f"n{n}"] = build_circuit(synthesize(target)[0])
    for t in range(1, 8):
        lattice = [{x: random_unitary(rng) for x in range(1 - s, s, 2)} for s in range(1, t + 1)]
        schedules[f"haar-t{t}"] = CoinSchedule(lattice)
        schedules[f"haar-t{t}-shuffled"] = CoinSchedule(
            [{x: step[x] for x in rng.permutation(list(step)).tolist()} for step in lattice])
    return schedules


def test_a_built_schedule_stores_only_its_coin_stack():
    schedule = build_circuit(trine_scenario())
    compile_netlist(schedule)
    assert "steps" not in vars(schedule)
    assert set(vars(schedule)) == {"coins", "slots", "n_steps", "_structure"}
    steps = schedule.steps
    assert schedule.steps is steps and vars(schedule)["steps"] is steps


def test_every_step_map_lists_read_only_views_of_the_stack_in_slot_order():
    for name, schedule in _stored_form_schedules().items():
        steps = schedule.steps
        assert len(steps) == schedule.n_steps, name
        assert tuple((x, s) for s, step in enumerate(steps, start=1) for x in step) \
            == schedule.slots, name
        views = [m for step in steps for m in step.values()]
        assert np.array_equal(np.array(views).reshape(-1, 2, 2), schedule.coins), name
        for m in views:
            assert np.shares_memory(m, schedule.coins) and not m.flags.writeable, name


def test_a_schedule_built_from_its_own_maps_has_the_same_stack():
    schedules = _stored_form_schedules()
    for name, schedule in schedules.items():
        again = CoinSchedule(schedule.steps)
        assert np.array_equal(again.coins, schedule.coins), name
        assert again.slots == schedule.slots and again.n_steps == schedule.n_steps, name
        if name.endswith("-shuffled"):  # the order a map is given in changes nothing stored
            in_order = schedules[name.removesuffix("-shuffled")]
            assert np.array_equal(schedule.coins, in_order.coins), name
            assert schedule.slots == in_order.slots, name


@pytest.mark.parametrize("make, n_steps", [
    (lambda steps: CoinSchedule(step for step in steps), 4),
    (lambda steps: CoinSchedule(iter([])), 0),
    (lambda steps: CoinSchedule(steps + [{}, {}]), 6),
    (lambda steps: CoinSchedule(step for step in steps + [{}]), 5),
], ids=["generator", "empty-generator", "trailing-empty", "generator-trailing-empty"])
def test_a_schedule_counts_every_step_it_is_given(make, n_steps):
    steps = [{0: NOT_COIN}, {-1: NOT_COIN, 1: IDENTITY_COIN}, {}, {0: NOT_COIN}][:n_steps]
    schedule = make(steps)
    listed = CoinSchedule(steps + [{}] * (n_steps - len(steps)))
    assert schedule.n_steps == n_steps == len(schedule.steps) == listed.n_steps
    assert output_ports(schedule) == output_ports(listed)
    assert schedule.to_json() == listed.to_json()


@pytest.mark.parametrize("coin", ["IDENTITY_COIN", "NOT_COIN", "HADAMARD_LIKE", "_TILT"])
def test_the_package_coins_are_read_only(coin):
    with pytest.raises(ValueError, match="read-only"):
        getattr(povm, coin)[0, 0] = 5.0


def test_the_built_in_scenarios_hand_out_read_only_coins():
    # writing into a returned coin would change every later circuit in the process
    for c in (c for pair in trine_scenario() for c in (pair.c1, pair.c2)):
        with pytest.raises(ValueError, match="read-only"):
            c[0, 0] = 5.0


# each entry of a coin takes each of these in turn; they must all be rejected before
# any is squared, with the slot named, and with no numpy warning (an error in this suite)
_HOSTILE_ENTRIES = [float("nan"), float("inf"), float("-inf"), "x", 1e200, -1e200,
                    1.7e308 + 1.7e308j, complex(float("nan"), 0.0)]


@pytest.mark.parametrize("value", _HOSTILE_ENTRIES, ids=repr)
@pytest.mark.parametrize("entry", range(4))
def test_stacked_unitarity_rule_rejects_hostile_entries(entry, value):
    coin = [[1.0, 0.0], [0.0, 1.0]]
    coin[entry // 2][entry % 2] = value
    with pytest.raises(ValidationError, match=r"^coin operation at position 1 in step 2 "):
        CoinSchedule([{0: NOT_COIN}, {-1: NOT_COIN, 1: coin, 3: [[0.0, 1.0], [1.0, 0.0]]}])
    with pytest.raises(ValidationError, match=r"^coin operation at position 1 in step 2 "):
        validate_coin(coin, position=1, step=2)


def test_validate_coin_and_schedule_give_one_verdict_near_the_bound():
    # |a|^2 + |c|^2 of a unitary scaled by 1 + e is about 1 + 2e, so the verdict
    # turns near k = 5; a schedule of all of them names the first one it rejects
    rng = np.random.default_rng(13)
    coins = [(1.0 + k * 1e-13) * random_unitary(rng) for k in range(-12, 13) for _ in range(20)]
    verdicts = []
    for m in coins:
        try:
            validate_coin(m)
        except ValidationError:
            verdicts.append(False)
        else:
            verdicts.append(True)
    for m, ok in zip(coins, verdicts):
        if ok:
            CoinSchedule([{0: m}])
        else:
            with pytest.raises(ValidationError, match="^coin operation at position 0 in step 1 "):
                CoinSchedule([{0: m}])
    assert 0 < sum(verdicts) < len(verdicts)
    first = verdicts.index(False)
    with pytest.raises(ValidationError, match=f"^coin operation at position {first} in step 1 "):
        CoinSchedule([dict(enumerate(coins))])


def test_schedule_from_json_rejects_garbage():
    with pytest.raises(ValidationError, match="malformed"):
        CoinSchedule.from_json("{not json")


def test_complex_codec_round_trip():
    m = np.array([[0.6 + 0.8j, -1e-300], [2.5j, np.pi]])
    cells = complex_to_json(m)
    assert cells[0][0] == {"re": 0.6, "im": 0.8}
    with decoding("test matrix"):
        back = complex_from_json(json.loads(json.dumps(cells)))
    assert back.dtype == complex and np.array_equal(back, m)
    assert complex_to_json(1j) == {"re": 0.0, "im": 1.0}


_CELL = '{"re": 1, "im": 0}'
_GENERIC = ["{not json", "{}", "[]", "null", '"text"', "[[[" * 10000]
_MALFORMED = (
    [(CoinSchedule.from_json, text) for text in _GENERIC + [
        '{"steps": [{"coins": [{"position": 0}]}]}',
        '{"steps": [{"coins": [{"position": 0, "matrix": [[{"re": 1}]]}]}]}',
        '{"steps": [{"coins": [{"position": 0, "matrix": "I"}]}]}',
        '{"steps": [{"coins": [{"position": 0, "matrix": [[%s], [%s, %s]]}]}]}' % ((_CELL,) * 3),
        '{"steps": [5]}',
    ]]
    + [(PovmSet.from_json, text) for text in _GENERIC + [
        '{"elements": [{"label": "a", "port": 0}]}',
        '{"elements": [{"label": "a", "port": null, "matrix": [[%s, %s], [%s, %s]]}]}' % ((_CELL,) * 4),
        '{"elements": [{"label": "a", "port": 0, "matrix": [[{"re": "1", "im": 0}]]}]}',
    ]]
    + [(ImperfectionConfig.from_json, text) for text in ["{not json", "[]", '{"visibilities": {"1-2-3": 0.9}}',
                                                          '{"port_efficiencies": {"x": 0.9}}']]
)
# a JSON object that gives one key twice, which json.loads alone reads as its last value:
# (reader, text, the file its error names, the key)
_REPEATED_KEYS = [
    (ImperfectionConfig.from_json, '{"visibilities": {"1-2": 0.5, "1-2": 0.9}}',
     "imperfection config", "1-2"),
    (CoinSchedule.from_json,
     '{"steps": [{"coins": [{"position": 0, "position": 1, "matrix": [[%s, %s], [%s, %s]]}]}]}'
     % ((_CELL,) * 4), "schedule file", "position"),
    (PovmSet.from_json, '{"elements": [], "elements": []}', "POVM file", "elements"),
]
_MALFORMED += [(decode, text) for decode, text, _file, _key in _REPEATED_KEYS]
# a number written as text is ASCII, with no "_" and no surrounding space, which int() allows
_MALFORMED += [(ImperfectionConfig.from_json, text) for text in [
    '{"visibilities": {"1_0-2": 0.5}}', '{"port_efficiencies": {"1_0": 0.99}}',
    '{"visibilities": {" 1-2 ": 0.5}}', '{"visibilities": {"+1-2": 0.5}}',
    '{"port_efficiencies": {"\uff14": 0.99}}', '{"visibilities": {"\u0661-\u0662": 0.5}}',
]]
# an element label is a string: the labels key synthesize's outcome->port map
_MALFORMED += [(PovmSet.from_json,
                '{"elements": [{"label": %s, "port": 0, "matrix": [[%s, %s], [%s, %s]]}]}'
                % ((label,) + (_CELL,) * 4)) for label in ('["a"]', "5", "null")]


@pytest.mark.parametrize("decode,text", _MALFORMED,
                         ids=[f"{d.__self__.__name__}-{i}" for i, (d, _t) in enumerate(_MALFORMED)])
def test_malformed_json_is_a_validation_error(decode, text):
    with pytest.raises(ValidationError, match="^malformed "):
        decode(text)


@pytest.mark.parametrize("decode,text,file,key", _REPEATED_KEYS,
                         ids=[d.__self__.__name__ for d, *_rest in _REPEATED_KEYS])
def test_a_key_given_twice_is_named(decode, text, file, key):
    with pytest.raises(ValidationError, match=f"^malformed {file}: key '{key}' is given twice$"):
        decode(text)


def test_a_step_must_carry_its_coins():
    # a misspelt key used to decode as an identity step
    text = CoinSchedule([{0: NOT_COIN}]).to_json().replace('"coins"', '"coin"')
    with pytest.raises(ValidationError, match="missing key 'coins'"):
        CoinSchedule.from_json(text)


def _schedule_with_cell(value):
    # one cell of the coin at position 1 in step 2 set to value; json writes NaN and Infinity
    data = json.loads(CoinSchedule([{}, {1: NOT_COIN}]).to_json())
    data["steps"][1]["coins"][0]["matrix"][1][0]["re"] = value
    return CoinSchedule.from_json(json.dumps(data))


_BOUNDARIES = {
    "coin_column": lambda x: coin_column([x, 1.0]),
    "coin_column_1": lambda x: coin_column([1.0, x]),
    "CoinSchedule": lambda x: CoinSchedule([{}, {1: [[0.0, 1.0], [x, 0.0]]}]),
    "validate_coin": lambda x: validate_coin([[x, 0.0], [0.0, 1.0]]),
    "validate_coin_01": lambda x: validate_coin([[1.0, x], [0.0, 1.0]]),
    "validate_coin_10": lambda x: validate_coin([[1.0, 0.0], [x, 1.0]]),
    "validate_coin_11": lambda x: validate_coin([[1.0, 0.0], [0.0, x]]),
    "CoinSchedule.from_json": _schedule_with_cell,
    "PovmElement": lambda x: PovmElement([[x, 0.0], [0.0, 1.0]], "e", 0),
    "PovmElement_01": lambda x: PovmElement([[1.0, x], [0.0, 1.0]], "e", 0),
    "PovmElement_11": lambda x: PovmElement([[1.0, 0.0], [0.0, x]], "e", 0),
    "PovmElement_offdiagonal": lambda x: PovmElement([[1.0, x], [x, 1.0]], "e", 0),
    "state_prep_angles": lambda x: state_prep_angles([x, 1.0]),
    "state_prep_angles_1": lambda x: state_prep_angles([1.0, x]),
    "cli.parse_state": lambda x: cli.parse_state(f"{x}:1", None),
    "cli.parse_state_1": lambda x: cli.parse_state(f"1:{x}", None),
}
# entries whose message must also name where the bad value sits
_NAMED = {
    "CoinSchedule": r"^coin operation at position 1 in step 2 ",
    "CoinSchedule.from_json": r"^coin operation at position 1 in step 2 ",
    **dict.fromkeys(["PovmElement", "PovmElement_01", "PovmElement_11", "PovmElement_offdiagonal"],
                    r"^element e: "),
    **dict.fromkeys(["coin_column", "coin_column_1", "state_prep_angles", "state_prep_angles_1"],
                    r"^input coin state "),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "x"])
@pytest.mark.parametrize("entry", sorted(_BOUNDARIES))
def test_non_finite_input_is_rejected(entry, value):
    # a str cell in a file fails to decode before any coin is built
    named = None if (entry, value) == ("CoinSchedule.from_json", "x") else _NAMED.get(entry)
    with pytest.raises(ValidationError, match=named):
        _BOUNDARIES[entry](value)


def _trine_ports(state):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["run", "--scenario", "trine", "--input", state]) == 0
    return [row["p"] for row in json.loads(buf.getvalue())["ports"]]


# the squares of these entries overflow, and numpy's overflow warning is an error in this suite;
# each pair is the call and what it must return, or None where it must raise ValidationError
_HUGE = {
    "cli.parse_state": (lambda: cli.parse_state("1e200:1e200", None),
                        lambda: np.array([1, 1]) / np.sqrt(2)),
    "cli.main": (lambda: _trine_ports("1e200:1e200"), lambda: _trine_ports("1:1")),
    "coin_column": (lambda: coin_column([1e200, 1.0]), None),
    "state_prep_angles": (lambda: state_prep_angles([1e200, 1e200]), None),
}


@pytest.mark.parametrize("entry", sorted(_HUGE))
def test_huge_finite_entry_does_not_overflow_the_norm(entry):
    call, expected = _HUGE[entry]
    if expected is None:
        with pytest.raises(ValidationError, match="normalised"):
            call()
    else:
        np.testing.assert_allclose(call(), expected(), rtol=1e-15)


@pytest.mark.parametrize("slot", range(4))
def test_huge_coin_entry_is_rejected_before_it_is_squared(slot):
    m = np.eye(2, dtype=complex)
    m.flat[slot] = 1e200
    with pytest.raises(ValidationError, match="^coin operation at position 3 in step 2 "):
        validate_coin(m, position=3, step=2)


_HUGE_CELL = 1.7e308 + 1.7e308j


@pytest.mark.parametrize("matrix", [
    [[1.0, _HUGE_CELL], [_HUGE_CELL.conjugate(), 1.0]],
    [[1.0, _HUGE_CELL], [0.0, 1.0]],
    [[1.0, 0.0], [_HUGE_CELL, 1.0]],
], ids=["hermitian-pair", "upper", "lower"])
def test_huge_povm_element_entry_does_not_overflow(matrix):
    # abs() of these complex entries raises OverflowError
    with pytest.raises(ValidationError, match="^element e: "):
        PovmElement(matrix, "e", 0)
    cell = {"label": "e", "port": 0, "matrix": complex_to_json(np.array(matrix))}
    with pytest.raises(ValidationError, match="^element e: "):
        PovmSet.from_json(json.dumps({"elements": [cell]}))


def test_export_list_matches_what_the_package_binds():
    namespace = {}
    exec("from walkpovm import *", namespace)
    del namespace["__builtins__"]
    public = {name for name, value in vars(walkpovm).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(namespace) == sorted(walkpovm.__all__) == sorted(public)


def _layout_coin(rng):
    """A Haar coin, or a diagonal or antidiagonal one whose other entries are 0 or 1e-13."""
    kind = rng.integers(4)
    if kind == 0:
        return random_unitary(rng)
    phases = np.diag(np.exp(2j * np.pi * rng.random(2)))
    eps = 1e-13 if kind == 3 else 0.0
    m = np.array([[np.sqrt(1.0 - eps * eps), eps], [-eps, np.sqrt(1.0 - eps * eps)]]) @ phases
    return NOT_COIN @ m if rng.integers(2) else m


def test_batched_reachability_gives_each_walk_its_own_pass():
    # B peel-off circuits of one layout; each coin slot is stacked across the walks,
    # except the NOTs, which stay one 2x2 coin for all of them
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n, b = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        schedules = [build_circuit([IterationPair(_layout_coin(rng), _layout_coin(rng))
                                    for _ in range(n - 1)]) for _ in range(b)]
        steps = [{x: m if x == -1 else np.stack([sch.steps[s][x] for sch in schedules])
                  for x, m in coins.items()} for s, coins in enumerate(schedules[0].steps)]
        slots = schedules[0].slots
        stack = np.stack([np.broadcast_to(steps[s - 1][x], (b, 2, 2)) for x, s in slots])
        ports, pairs = _reach(schedules[0].n_steps, stack, slots)
        ref_ports, ref_pairs = oracle.reach_by_coin(schedules[0].n_steps, steps)
        assert ports == ref_ports and list(pairs) == list(ref_pairs)
        assert all(np.array_equal(pairs[p], ref_pairs[p]) for p in pairs)
        for w, schedule in enumerate(schedules):
            own_ports, own_pairs = schedule._structure
            assert all(walks is True for walks in own_pairs.values())
            assert [p for p, walks in pairs.items() if walks is True or walks[w]] == list(own_pairs)
        assert all(walks is True or walks.any() for walks in pairs.values())
        assert list(ports) == sorted(set().union(*(sch._structure[0] for sch in schedules)))
