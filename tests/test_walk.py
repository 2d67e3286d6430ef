import json

import numpy as np
import pytest

from conftest import random_unitary
from walkpovm.walk import (
    L,
    NOT_COIN,
    R,
    CoinSchedule,
    ValidationError,
    WalkState,
    apply_coin,
    position_distribution,
    run,
    translate,
)
from walkpovm import cli
from walkpovm.experiment import ImperfectionConfig
from walkpovm.optics import state_prep_angles
from walkpovm.povm import PovmElement, PovmSet, scenario_schedule, trine_state
from walkpovm.walk import coin_column, complex_from_json, complex_to_json, decoding, validate_coin

HAD = np.sqrt(0.5) * np.array([[1, 1], [1, -1]], dtype=complex)


def test_apply_coin_hadamard_on_single_entry():
    state = WalkState({(0, R): 1.0 + 0j})
    out = apply_coin(state, {0: HAD})
    assert out.amplitude(0, R) == pytest.approx(1 / np.sqrt(2))
    assert out.amplitude(0, L) == pytest.approx(1 / np.sqrt(2))


def test_apply_coin_empty_map_is_identity():
    state = WalkState({(0, R): 1.0 + 0j})
    out = apply_coin(state, {})
    assert out.amplitudes == state.amplitudes


def test_apply_coin_on_l_component():
    # hand matrix multiplication on the coin-L column
    state = WalkState({(0, L): 1 / np.sqrt(3), (2, R): np.sqrt(2 / 3)})
    out = apply_coin(state, {0: HAD})
    assert out.amplitude(0, R) == pytest.approx(1 / np.sqrt(6))
    assert out.amplitude(0, L) == pytest.approx(-1 / np.sqrt(6))
    assert out.amplitude(2, R) == pytest.approx(np.sqrt(2 / 3))


def test_apply_coin_rejects_non_unitary():
    state = WalkState({(0, R): 1.0 + 0j})
    with pytest.raises(ValidationError, match="position 3"):
        apply_coin(state, {3: np.array([[1, 1], [0, 1]])})


def test_translate_moves_basis_states():
    assert translate(WalkState({(0, R): 1.0 + 0j})).amplitudes == {(1, R): 1.0 + 0j}
    assert translate(WalkState({(0, L): 1.0 + 0j})).amplitudes == {(-1, L): 1.0 + 0j}


def test_translate_is_linear():
    a, b = 0.6 + 0j, 0.8j
    out = translate(WalkState({(1, R): a, (1, L): b}))
    assert out.amplitudes == {(2, R): a, (0, L): b}


def test_translate_inverse_recovers_state():
    rng = np.random.default_rng(5)
    amps = {(int(x), int(c)): complex(rng.normal(), rng.normal())
            for x in range(-3, 4) for c in (R, L)}
    state = WalkState(amps)
    shifted = translate(state)
    undone = {((x - 1, R) if c == R else (x + 1, L)): a
              for (x, c), a in shifted.amplitudes.items()}
    assert undone == state.amplitudes


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


def test_prune_threshold_budget():
    state = WalkState({(0, R): np.sqrt(1 - 2e-8), (5, R): 1e-4, (6, R): 1e-4})
    pruned = state.pruned(2e-4)
    assert (5, R) not in pruned.amplitudes and (6, R) not in pruned.amplitudes
    assert abs(state.norm() ** 2 - pruned.norm() ** 2) < 2 * (2e-4) ** 2


def test_walkstate_json_round_trip():
    state = run(scenario_schedule("trine"), trine_state(2))
    text = state.to_json()
    data = json.loads(text)
    assert set(data) == {"entries"}
    assert all(set(e) == {"x", "coin", "re", "im"} for e in data["entries"])
    back = WalkState.from_json(text)
    assert set(back.amplitudes) == set(state.amplitudes)
    for k, a in state.amplitudes.items():
        assert back.amplitudes[k] == pytest.approx(a)


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
    + [(WalkState.from_json, text) for text in _GENERIC + [
        '{"entries": [{"x": 0, "coin": "Q", "re": 1, "im": 0}]}',
        '{"entries": [{"coin": "R", "re": 1, "im": 0}]}',
        '{"entries": [{"x": 0, "coin": "R", "re": 1}]}',
    ]]
    + [(ImperfectionConfig.from_json, text) for text in ["{not json", "[]", '{"visibilities": {"1-2-3": 0.9}}',
                                                          '{"port_efficiencies": {"x": 0.9}}']]
)


@pytest.mark.parametrize("decode,text", _MALFORMED,
                         ids=[f"{d.__self__.__name__}-{i}" for i, (d, _t) in enumerate(_MALFORMED)])
def test_malformed_json_is_a_validation_error(decode, text):
    with pytest.raises(ValidationError, match="^malformed "):
        decode(text)


def _schedule_with_cell(value):
    # one cell of the coin at position 1 in step 2 set to value; json writes NaN and Infinity
    data = json.loads(CoinSchedule([{}, {1: NOT_COIN}]).to_json())
    data["steps"][1]["coins"][0]["matrix"][1][0]["re"] = value
    return CoinSchedule.from_json(json.dumps(data))


_BOUNDARIES = {
    "coin_column": lambda x: coin_column([x, 1.0]),
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
    "cli.parse_state": lambda x: cli.parse_state(f"{x}:1", None),
}
# entries whose message must also name where the bad value sits
_NAMED = {"CoinSchedule.from_json": r"^coin operation at position 1 in step 2 "}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("entry", sorted(_BOUNDARIES))
def test_non_finite_input_is_rejected(entry, value):
    with pytest.raises(ValidationError, match=_NAMED.get(entry)):
        _BOUNDARIES[entry](value)
