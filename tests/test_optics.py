import dataclasses
import math

import numpy as np
import pytest

import oracle
from conftest import assert_equal_upto_phase, random_rank1_povm, random_unitary
from walkpovm import optics, povm
from walkpovm.experiment import ImperfectionConfig, run_density
from walkpovm.optics import (
    WavePlate,
    _lower,
    _phase_aligned_dist,
    _qwp_so3,
    _so3,
    compile_netlist,
    decompose,
    format_dms,
    hwp,
    interferometers,
    lab_qwp_angle,
    output_ports,
    plates_matrix,
    prepared_state,
    qwp,
    state_prep_angles,
    usd_plate_angle,
)
from walkpovm.povm import (
    NAMED_STATES,
    IterationPair,
    PovmElement,
    PovmSet,
    build_circuit,
    scenario_schedule,
    synthesize,
    usd_state,
)
from walkpovm.tolerances import DEFAULT
from walkpovm.walk import IDENTITY_COIN, NOT_COIN, CoinSchedule, ValidationError

TILT = np.sqrt(1 / 3) * np.array([[np.sqrt(2), 1], [1, -np.sqrt(2)]], dtype=complex)
SPLIT = np.sqrt(0.5) * np.array([[-1, 1], [1, 1]], dtype=complex)
PHASED = np.sqrt(0.5) * np.array(
    [
        [np.exp(-1j * np.pi / 3), np.exp(1j * np.pi / 6)],
        [np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 6)],
    ]
)

ARCMIN = 1.0 / 60.0


def mod_dist(a, b, period):
    d = abs(a - b) % period
    return min(d, period - d)


# --- plate matrices ----------------------------------------------------------

def test_hwp_reference_points():
    np.testing.assert_allclose(
        hwp(22.5), np.sqrt(0.5) * np.array([[1, 1], [1, -1]]), atol=1e-15
    )
    np.testing.assert_allclose(hwp(45), NOT_COIN, atol=1e-15)
    np.testing.assert_allclose(hwp(0), np.diag([1, -1]), atol=1e-15)


def test_hwp_grid_properties():
    for deg in range(0, 180):
        m = hwp(deg)
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
        assert_equal_upto_phase(m @ m, np.eye(2), tol=1e-13)


def test_qwp_grid_fourth_power_is_identity():
    for deg in range(0, 180):
        m = qwp(deg)
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-14)
        assert_equal_upto_phase(np.linalg.matrix_power(m, 4), np.eye(2), tol=1e-13)


def test_qwp_convention_shift():
    # a plate of the opposite retardance sign at angle a acts like qwp(a + 90)
    for deg in (0.0, 17.0, 60.0, 150.0):
        assert_equal_upto_phase(qwp(deg).conj(), qwp(deg + 90.0), tol=1e-13)
        assert lab_qwp_angle(deg + 90.0) == pytest.approx(deg % 180.0)


# --- decomposition -----------------------------------------------------------

def test_decompose_identity_is_empty():
    assert decompose(np.eye(2)) == []
    assert decompose(np.exp(0.7j) * np.eye(2)) == []


@pytest.mark.parametrize(
    "matrix,angle",
    [
        (TILT, 17 + 38 / 60),
        (np.sqrt(0.5) * np.array([[1, 1], [1, -1]]), 22.5),
        (NOT_COIN, 45.0),
        (SPLIT, 67.5),
        (np.diag([1.0, -1.0]), 0.0),
    ],
)
def test_decompose_single_hwp(matrix, angle):
    plates = decompose(matrix)
    assert [p.kind for p in plates] == ["HWP"]
    assert mod_dist(plates[0].angle_deg, angle, 90.0) <= ARCMIN
    assert_equal_upto_phase(plates_matrix(plates), matrix, tol=1e-10)


def test_decompose_single_qwp():
    plates = decompose(qwp(37.0))
    assert [p.kind for p in plates] == ["QWP"]
    assert plates[0].angle_deg == pytest.approx(37.0, abs=1e-9)


def test_decompose_phased_coin_gives_hwp_qwp_pair():
    plates = decompose(PHASED)
    assert [p.kind for p in plates] == ["HWP", "QWP"]
    h, q = plates
    # reference hardware table: HWP 142°30′ with a QWP at 150° in the
    # opposite-sign quarter-wave convention
    assert mod_dist(h.angle_deg, 142.5, 90.0) <= ARCMIN
    assert mod_dist(lab_qwp_angle(q.angle_deg), 150.0, 180.0) <= ARCMIN
    assert_equal_upto_phase(plates_matrix(plates), PHASED, tol=1e-10)


def test_decompose_random_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(100):
        u = random_unitary(rng)
        plates = decompose(u)
        assert len(plates) <= 3
        assert_equal_upto_phase(plates_matrix(plates), u, tol=1e-10)


def test_decompose_is_phase_stable():
    rng = np.random.default_rng(9)
    u = random_unitary(rng)
    reference = [(p.kind, p.angle_deg) for p in decompose(u)]
    for delta in np.linspace(-3.0, 3.0, 7):
        shifted = [(p.kind, p.angle_deg) for p in decompose(np.exp(1j * delta) * u)]
        assert len(shifted) == len(reference)
        for (k1, a1), (k2, a2) in zip(reference, shifted):
            assert k1 == k2
            assert a1 == pytest.approx(a2, abs=1e-8)


def test_so3_matches_trace_loop():
    # the contraction sums the same products in another order, so the two
    # agree to a few ulps of entries bounded by 1
    rng = np.random.default_rng(17)
    for _ in range(200):
        u = random_unitary(rng) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        np.testing.assert_allclose(_so3(u), oracle.so3(u), rtol=0, atol=1e-14)


def test_qwp_rotation_in_closed_form_matches_its_jones_matrix():
    # a quarter turn about (sin 2a, 0, cos 2a), over more than two periods of a
    angles = np.linspace(-400.0, 400.0, 8001)
    np.testing.assert_allclose(_qwp_so3(angles), _so3(qwp(angles)), rtol=0, atol=4e-15)


def test_decompose_rejects_non_unitary():
    with pytest.raises(ValidationError):
        decompose(np.array([[1, 1], [0, 1]]))


def _lowering_coins():
    """Phased Haar coins, HWP/QWP/pair grids and y- and z-axis rotations."""
    rng = np.random.default_rng(29)
    coins = [random_unitary(rng) * np.exp(1j * rng.uniform(0, 2 * np.pi)) for _ in range(400)]
    grid = np.arange(0.0, 180.0, 7.5)
    coins += [hwp(a) for a in grid] + [qwp(a) for a in grid]
    coins += [hwp(a) @ qwp(b) for a in grid for b in grid[::3]]
    coins += [qwp(a) @ hwp(b) for a in grid for b in grid[::3]]
    for t in np.linspace(-2 * np.pi, 2 * np.pi, 49):
        c, s = np.cos(t / 2), np.sin(t / 2)
        coins.append(np.array([[c, -s], [s, c]], dtype=complex))
        coins.append(np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]))
    return coins


def test_decompose_matches_search_oracle():
    # same kinds means never more plates; hwp(b + 90) = -hwp(b) is the same
    # plate, and at b near 0 the search's sign choice lands on 0 or 90 by
    # rounding, so HWP angles compare mod 90
    for u in _lowering_coins():
        got, ref = decompose(u), oracle.decompose(u)
        assert [p.kind for p in got] == [p.kind for p in ref]
        for p, q in zip(got, ref):
            assert mod_dist(p.angle_deg, q.angle_deg, 90.0 if p.kind == "HWP" else 180.0) <= 1e-9
        assert _phase_aligned_dist(plates_matrix(got), u) <= DEFAULT.plate_product


def test_decompose_coin_just_off_a_half_wave_plate():
    # 3e-9 from hwp(30): the image of y has an in-plane part of about 6e-9,
    # which a search that tried only outer QWPs at 0 and 45 degrees below
    # 1e-8 could not match, so it raised
    u = hwp(30.0) @ np.diag([np.exp(-3e-9j), np.exp(3e-9j)])
    plates = decompose(u)
    assert _phase_aligned_dist(plates_matrix(plates), u) <= DEFAULT.plate_product


def test_compile_coin_just_off_the_identity():
    # the first row sits 4e-9 off |0>, so the first coin is 4e-9 off the
    # identity: an unverified empty slot would miss it by 40x the tolerance
    d = 4e-9
    rot = np.array([[np.cos(d), -np.sin(d)], [np.sin(d), np.cos(d)]])
    mats = [rot @ np.outer(v, v.conj()) @ rot.T * (2 / 3)
            for v in (NAMED_STATES[f"psi3-{i}"] for i in (1, 2, 3))]
    pairs, _ = synthesize(PovmSet.build(PovmElement(m, f"o{i}", 0) for i, m in enumerate(mats)))
    schedule = build_circuit(pairs)
    net = compile_netlist(schedule)
    for s, coins in enumerate(schedule.steps, start=1):
        for x, m in coins.items():
            group = [p for p in net.plates if p.step == s and p.position == x]
            assert _phase_aligned_dist(plates_matrix(group), m) <= DEFAULT.plate_product


def assert_same_plates(got, ref, tol):
    # hwp(b + 90) = -hwp(b) is the same plate, so HWP angles compare mod 90
    assert [p.kind for p in got] == [p.kind for p in ref]
    for p, q in zip(got, ref):
        assert mod_dist(p.angle_deg, q.angle_deg, 90.0 if p.kind == "HWP" else 180.0) <= tol


def test_batched_lowering_matches_scalar_chain_and_singletons():
    # one stack gives every coin the plates the one-coin chain gives it, and
    # the plates a stack of that coin alone gives: no coin sees its neighbours
    coins = _lowering_coins()
    stacked = _lower(np.array(coins))
    assert len(stacked) == len(coins)
    for u, got in zip(coins, stacked):
        assert_same_plates(got, oracle._lower(u), 1e-12)
        assert_same_plates(got, _lower(u[None])[0], 1e-12)
        assert _phase_aligned_dist(plates_matrix(got), u) <= DEFAULT.plate_product


def test_mixed_stack_lowers_each_coin_in_its_own_class():
    # the coin 3e-9 off hwp(30) passes the HWP gate, fails that candidate's
    # check and falls through to the triple while its neighbours stay put
    off_hwp = hwp(30.0) @ np.diag([np.exp(-3e-9j), np.exp(3e-9j)])
    rng = np.random.default_rng(31)
    coins = [np.exp(0.3j) * IDENTITY_COIN, hwp(17.0), qwp(37.0), PHASED, off_hwp,
             random_unitary(rng), hwp(30.0)]
    kinds = [[], ["HWP"], ["QWP"], ["HWP", "QWP"], ["QWP", "HWP", "QWP"],
             ["QWP", "HWP", "QWP"], ["HWP"]]
    got = _lower(np.array(coins))
    assert [[p.kind for p in plates] for plates in got] == kinds
    for u, plates in zip(coins, got):
        assert_same_plates(plates, oracle._lower(u), 1e-12)
        assert _phase_aligned_dist(plates_matrix(plates), u) <= DEFAULT.plate_product


def test_lowering_an_empty_stack_gives_no_plates():
    assert _lower(np.empty((0, 2, 2), dtype=complex)) == []


def test_compile_haar_n64_netlist_reproduces_every_coin():
    rng = np.random.default_rng(64)
    schedule = build_circuit([IterationPair(random_unitary(rng), random_unitary(rng))
                              for _ in range(63)])
    net = compile_netlist(schedule)
    slots = {}
    for p in net.plates:
        slots.setdefault((p.step, p.position), []).append(p)
    coins = {(s, x): m for s, step in enumerate(schedule.steps, start=1) for x, m in step.items()}
    assert set(slots) <= set(coins)
    for slot, m in coins.items():
        assert _phase_aligned_dist(plates_matrix(slots.get(slot, [])), m) <= DEFAULT.plate_product


def test_coin_failing_every_class_is_named_by_step_and_position(monkeypatch):
    # no product is within a negative distance, so every candidate fails
    monkeypatch.setattr(optics, "DEFAULT", dataclasses.replace(DEFAULT, plate_product=-1.0))
    schedule = CoinSchedule([{}, {1: TILT, -1: NOT_COIN}])
    with pytest.raises(ValidationError, match=r"^no wave-plate decomposition found "
                                              r"at position -1 in step 2 \(input not unitary\?\)$"):
        compile_netlist(schedule)
    with pytest.raises(ValidationError, match=r"^no wave-plate decomposition found \(input"):
        decompose(TILT)


# --- discrimination plate angle ----------------------------------------------

USD_TABLE = [
    (math.pi / 20, (2, 15)),
    (math.pi / 10, (4, 34)),
    (3 * math.pi / 20, (6, 57)),
    (math.pi / 5, (9, 29)),
    (math.pi / 4, (12, 14)),
    (3 * math.pi / 10, (15, 19)),
    (7 * math.pi / 20, (18, 54)),
    (2 * math.pi / 5, (23, 18)),
    (9 * math.pi / 20, (29, 21)),
    (math.pi / 2, (45, 0)),
]


@pytest.mark.parametrize("theta,dms", USD_TABLE)
def test_usd_plate_angle_against_reference_table(theta, dms):
    # reference angles carry arcminute resolution; compare at that granularity
    expected = dms[0] + dms[1] / 60.0
    got = usd_plate_angle(theta)
    assert round(got * 60) - round(expected * 60) in (-1, 0, 1)


def test_usd_plate_angle_realises_peel_coin():
    from walkpovm.povm import usd_scenario

    for theta in np.linspace(0.05, np.pi / 2 - 1e-6, 9):
        angle = usd_plate_angle(theta)
        np.testing.assert_allclose(hwp(angle), usd_scenario(theta)[0].c2, atol=1e-10)


def test_usd_plate_angle_domain():
    with pytest.raises(ValidationError):
        usd_plate_angle(0.0)
    with pytest.raises(ValidationError):
        usd_plate_angle(1.8)


# --- netlist compilation -----------------------------------------------------

def test_compile_trine_netlist():
    net = compile_netlist(scenario_schedule("trine"))
    assert net.displacers == 4
    assert net.ports == (0, 2, 4)
    assert net.interferometers == ((1, 2),)
    slots = {(p.position, p.step): (p.kind, p.angle_deg) for p in net.plates}
    assert mod_dist(slots[(1, 2)][1], 17 + 38 / 60, 90.0) <= ARCMIN
    assert slots[(0, 3)] == ("HWP", pytest.approx(22.5))
    assert slots[(-1, 2)] == ("HWP", pytest.approx(45.0))
    assert slots[(-1, 4)] == ("HWP", pytest.approx(45.0))
    assert len(net.plates) == 4


def test_compile_sic_netlist():
    net = compile_netlist(scenario_schedule("sic"))
    assert net.displacers == 6
    assert net.ports == (0, 2, 4, 6)
    assert net.interferometers == ((1, 2), (3, 4))
    kinds = sorted(p.kind for p in net.plates)
    assert kinds.count("QWP") == 1


def test_compile_empty_schedule():
    net = compile_netlist(CoinSchedule([]))
    assert net.displacers == 0
    assert net.plates == ()
    assert net.interferometers == ()


def test_reachability_is_found_once_per_schedule(monkeypatch):
    prop = CoinSchedule.__dict__["_structure"]
    original, passes = prop.func, []

    def counting(schedule):
        passes.append(schedule)
        return original(schedule)

    monkeypatch.setattr(prop, "func", counting)
    schedule = scenario_schedule("sic")
    pairs = interferometers(schedule)
    pairs.append((98, 99))
    ports = output_ports(schedule)
    ports.clear()
    net = compile_netlist(schedule)
    run_density(schedule, [1.0, 0.0], ImperfectionConfig(visibilities={(1, 2): 0.9}))
    assert len(passes) == 1 and passes[0] is schedule
    # the returned lists are the caller's: changing them changes no later result
    assert interferometers(schedule) == [(1, 2), (3, 4)] == list(net.interferometers)
    assert output_ports(schedule) == [0, 2, 4, 6] == list(net.ports)
    assert len(passes) == 1


def test_compiled_plates_reproduce_every_coin():
    rng = np.random.default_rng(15)
    schedules = [scenario_schedule("trine"), scenario_schedule("sic"),
                 scenario_schedule("usd", 0.9)]
    schedules.append(CoinSchedule([{0: random_unitary(rng)} for _ in range(3)]))
    for schedule in schedules:
        net = compile_netlist(schedule)
        for s, coins in enumerate(schedule.steps, start=1):
            for x, m in coins.items():
                group = [p for p in net.plates if p.step == s and p.position == x]
                assert_equal_upto_phase(plates_matrix(group), m, tol=1e-10)


def test_netlist_json_schema():
    import json

    net = compile_netlist(scenario_schedule("trine"))
    data = json.loads(net.to_json())
    assert set(data) == {"displacers", "plates", "ports", "interferometers"}
    assert all(
        set(p) == {"kind", "angle_deg", "angle_dms", "position", "step"}
        for p in data["plates"]
    )
    assert data["interferometers"] == [[1, 2]]


def _povm_moved_by_plates(schedule):
    """Largest operator-norm change of a port's effect when each coin is its slot's plates.

    ``OpticalNetlist`` keeps no slot phase, so every slot is rebuilt with phase 1.
    """
    slots = {}
    for p in compile_netlist(schedule).plates:
        slots.setdefault((p.step, p.position), []).append(p)
    plated = [{x: plates_matrix(slots.get((s, x), [])) for x in coins}
              for s, coins in enumerate(schedule.steps, start=1)]
    t = schedule.n_steps
    moved = povm._effects(t, plated) - povm._effects(t, schedule.steps)
    return float(np.max(np.linalg.norm(moved, ord=2, axis=(1, 2))))


def _peel_off_circuits():
    rng = np.random.default_rng(24)
    circuits = {name: scenario_schedule(name) for name in ("trine", "sic")}
    circuits.update({f"usd-{theta:.3g}": scenario_schedule("usd", theta)
                     for theta in (0.3, 1.0, np.pi / 2)})
    for n in range(2, 25):
        mats = random_rank1_povm(rng, n)
        pairs, _ = synthesize(PovmSet.build(PovmElement(m, f"o{i}", i) for i, m in enumerate(mats)))
        circuits[f"synthesized-n{n}"] = build_circuit(pairs)
    return circuits


def test_plates_of_a_peel_off_circuit_measure_its_povm():
    # c1 sits alone in its step, and c2 = [[a, b], [b, -a]] and the NOT beside it are
    # exactly half-wave plates, so no slot phase matters; a new choice of c1's
    # completion row must keep this
    for name, schedule in _peel_off_circuits().items():
        assert _povm_moved_by_plates(schedule) <= 1e-12, name


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_plates_of_a_full_lattice_schedule_measure_its_povm():
    # a Haar coin on every site a 4-step walk reaches: two coins of one step feed
    # paths that recombine, so their relative phase, which the plates drop, is
    # measured (the plates miss this POVM by 0.59)
    rng = np.random.default_rng(3)
    schedule = CoinSchedule([{x: random_unitary(rng) for x in range(1 - s, s, 2)}
                             for s in range(1, 5)])
    assert _povm_moved_by_plates(schedule) <= 1e-12


# --- state preparation -------------------------------------------------------

def test_state_prep_trine_states():
    expected = {1: 0.0, 2: -30.0, 3: 30.0}
    for i, angle in expected.items():
        h, q = state_prep_angles(NAMED_STATES[f"psi3-{i}"])
        assert q is None
        assert h == pytest.approx(angle, abs=1e-9)


def test_state_prep_anti_trine_states():
    expected = {1: 45.0, 2: 15.0, 3: -15.0}
    for i, angle in expected.items():
        h, q = state_prep_angles(NAMED_STATES[f"psibar3-{i}"])
        assert q is None
        assert h == pytest.approx(angle, abs=1e-9)


def test_state_prep_discrimination_input():
    h, q = state_prep_angles(usd_state(+1, np.pi / 4))
    assert q is None
    assert h == pytest.approx(11.25, abs=1e-9)


def test_state_prep_sic2_with_quarter_wave():
    h, q = state_prep_angles(NAMED_STATES["psi4-2"], include_qwp=True)
    assert h == pytest.approx(-(27 + 22 / 60), abs=ARCMIN)
    assert q == pytest.approx(35 + 16 / 60, abs=ARCMIN)


def test_state_prep_product_contract():
    rng = np.random.default_rng(21)
    for _ in range(100):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = z / np.linalg.norm(z)
        h, q = state_prep_angles(v)
        prepared = prepared_state(h, q)
        assert abs(np.vdot(prepared, v)) == pytest.approx(1.0, abs=1e-10)


def test_state_prep_requires_qwp_for_complex_targets():
    with pytest.raises(ValidationError):
        state_prep_angles(np.array([1, 1j]) / np.sqrt(2), include_qwp=False)


PREP_TABLE = {
    # (hwp1, qwp1) in the opposite-sign quarter-wave convention
    "psi4-1": (0.0, 0.0),
    "psi4-2": (-(27 + 22 / 60), 35 + 16 / 60),
    "psi4-3": (17 + 38 / 60, -(27 + 22 / 60)),
    "psi4-4": (45.0, -(27 + 22 / 60)),
    "psibar4-1": (45.0, 0.0),
    "psibar4-2": (17 + 38 / 60, 35 + 16 / 60),
    "psibar4-3": (-(27 + 22 / 60), -(27 + 22 / 60)),
    "psibar4-4": (0.0, -(27 + 22 / 60)),
}


def _both_prep_solutions(v):
    """The two equivalent (hwp, qwp) settings preparing the same state."""
    h, q = state_prep_angles(v, include_qwp=True)
    alt_q = (q + 90.0) % 180.0
    s3 = 2.0 * (np.conj(v[0]) * v[1]).imag
    if abs(s3) < 1e-12:
        alt_h = h
    else:
        chi = math.degrees(0.5 * math.asin(max(-1.0, min(1.0, s3))))
        alt_h = h - chi + 90.0
    return [(h, q), (alt_h, alt_q)]


@pytest.mark.parametrize("name", sorted(PREP_TABLE))
def test_state_prep_matches_reference_settings(name):
    v = NAMED_STATES[name]
    h_ref, q_ref = PREP_TABLE[name]
    real = abs(2.0 * (np.conj(v[0]) * v[1]).imag) < 1e-12
    matched = False
    for h, q in _both_prep_solutions(v):
        prepared = prepared_state(h, q)
        assert abs(np.vdot(prepared, v)) == pytest.approx(1.0, abs=1e-10)
        q_period = 90.0 if real else 180.0  # on linear states the plate is idle
        if (mod_dist(h, h_ref, 90.0) <= ARCMIN
                and mod_dist(lab_qwp_angle(q), q_ref, q_period) <= ARCMIN):
            matched = True
    assert matched, f"{name}: no equivalent setting matches ({h_ref}, {q_ref})"


# --- formatting --------------------------------------------------------------

def test_format_dms():
    assert format_dms(17 + 38 / 60) == "17°38′"
    assert format_dms(45.0) == "45°00′"
    assert format_dms(-30.0) == "-30°00′"
    assert format_dms(12.2349) == "12°14′"
    assert format_dms(0.9999) == "1°00′"


def test_waveplate_angle_normalised():
    assert WavePlate("HWP", 190.0).angle_deg == pytest.approx(10.0)
    with pytest.raises(ValidationError):
        WavePlate("FWP", 10.0)


@pytest.mark.parametrize("plates, kind", [
    (lambda: decompose(hwp(90.0)), "HWP"),
    (lambda: decompose(hwp(180.0)), "HWP"),
    (lambda: decompose(qwp(180.0)), "QWP"),
    (lambda: [WavePlate("QWP", -1e-17)], "QWP"),
], ids=["hwp-90", "hwp-180", "qwp-180", "qwp-minus-tiny"])
def test_plate_angle_never_equals_its_period(plates, kind):
    # -tiny % p rounds to p; each of these plates is the one at 0 degrees
    (plate,) = plates()
    assert (plate.kind, plate.angle_deg) == (kind, 0.0)
