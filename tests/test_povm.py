import json

import numpy as np
import pytest

import oracle
from conftest import random_rank1_povm, random_unitary
from walkpovm import optics, povm, walk
from walkpovm.experiment import ImperfectionConfig, run_density, usd_sweep
from walkpovm.povm import (
    NAMED_STATES,
    IterationPair,
    PovmElement,
    PovmSet,
    SynthesisInfeasibleError,
    _usd_angle,
    _usd_peel,
    build_circuit,
    extract_povm,
    scenario_port_map,
    scenario_schedule,
    sic_scenario,
    synthesize,
    trine_scenario,
    usd_scenario,
    usd_state,
    usd_success_probability,
)
from walkpovm.tolerances import DEFAULT
from walkpovm.walk import NOT_COIN, CoinSchedule, ValidationError, validate_coin

I2 = np.eye(2, dtype=complex)


def projector(v, weight):
    v = np.asarray(v, dtype=complex)
    return weight * np.outer(v, v.conj())


# --- circuit construction ---------------------------------------------------

def test_build_circuit_layout():
    pairs = trine_scenario()
    schedule = build_circuit(pairs)
    assert schedule.n_steps == 4
    np.testing.assert_allclose(schedule.steps[0][0], pairs[0].c1)
    np.testing.assert_allclose(schedule.steps[1][1], pairs[0].c2)
    np.testing.assert_allclose(schedule.steps[1][-1], NOT_COIN)
    np.testing.assert_allclose(schedule.steps[2][0], pairs[1].c1)
    np.testing.assert_allclose(schedule.steps[3][1], pairs[1].c2)


def test_build_circuit_rejects_empty():
    with pytest.raises(ValidationError):
        build_circuit([])


def test_single_identity_pair_is_von_neumann():
    schedule = build_circuit([IterationPair(I2, I2)])
    assert schedule.n_steps == 2
    dist_h = walk.position_distribution(walk.run(schedule, np.array([1.0, 0.0])))
    dist_v = walk.position_distribution(walk.run(schedule, np.array([0.0, 1.0])))
    assert dist_h[2] == pytest.approx(1.0, abs=1e-12)
    assert dist_v[0] == pytest.approx(1.0, abs=1e-12)


# --- scenario matrices ------------------------------------------------------

def test_trine_pair_matrices():
    pairs = trine_scenario()
    np.testing.assert_allclose(pairs[0].c1, I2)
    np.testing.assert_allclose(
        pairs[0].c2,
        np.sqrt(1 / 3) * np.array([[np.sqrt(2), 1], [1, -np.sqrt(2)]]),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        pairs[1].c1, np.sqrt(0.5) * np.array([[1, 1], [1, -1]]), atol=1e-15
    )


def test_sic_pair_matrices():
    pairs = sic_scenario()
    expected = np.sqrt(0.5) * np.array(
        [
            [np.exp(-1j * np.pi / 3), np.exp(1j * np.pi / 6)],
            [np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 6)],
        ]
    )
    np.testing.assert_allclose(pairs[2].c1, expected, atol=1e-15)
    np.testing.assert_allclose(pairs[1].c2[0, 0], np.sqrt(2 / 3), atol=1e-15)


def test_usd_pair_matrices():
    # the sqrt term has unbounded slope at theta = pi/2, so the float input
    # alone moves the matrix by ~1e-8; compare at that scale
    pairs = usd_scenario(np.pi / 2)
    np.testing.assert_allclose(pairs[0].c2, NOT_COIN, atol=1e-7)
    with pytest.raises(ValidationError):
        usd_scenario(0.0)
    with pytest.raises(ValidationError):
        usd_scenario(2.0)


# --- ideal distributions ----------------------------------------------------

@pytest.mark.parametrize("i", [1, 2, 3])
def test_trine_distribution(i):
    ports = scenario_port_map("trine")
    dist = walk.position_distribution(
        walk.run(scenario_schedule("trine"), NAMED_STATES[f"psi3-{i}"])
    )
    assert dist.get(ports[i], 0.0) == pytest.approx(2 / 3, abs=1e-12)
    others = [p for j, p in ports.items() if j != i]
    for p in others:
        assert dist.get(p, 0.0) == pytest.approx(1 / 6, abs=1e-12)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_anti_trine_distribution(i):
    ports = scenario_port_map("trine")
    dist = walk.position_distribution(
        walk.run(scenario_schedule("trine"), NAMED_STATES[f"psibar3-{i}"])
    )
    assert dist.get(ports[i], 0.0) < 1e-12
    others = [p for j, p in ports.items() if j != i]
    for p in others:
        assert dist.get(p, 0.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_sic_distribution(i):
    ports = scenario_port_map("sic")
    dist = walk.position_distribution(
        walk.run(scenario_schedule("sic"), NAMED_STATES[f"psi4-{i}"]))
    assert dist.get(ports[i], 0.0) == pytest.approx(0.5, abs=1e-12)
    for j, p in ports.items():
        if j != i:
            assert dist.get(p, 0.0) == pytest.approx(1 / 6, abs=1e-12)


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_anti_sic_distribution(i):
    ports = scenario_port_map("sic")
    dist = walk.position_distribution(
        walk.run(scenario_schedule("sic"), NAMED_STATES[f"psibar4-{i}"])
    )
    assert dist.get(ports[i], 0.0) < 1e-12
    for j, p in ports.items():
        if j != i:
            assert dist.get(p, 0.0) == pytest.approx(1 / 3, abs=1e-12)


def test_sic_states_have_third_pairwise_overlap():
    for i in range(1, 5):
        for j in range(i + 1, 5):
            ov = abs(np.vdot(NAMED_STATES[f"psi4-{i}"], NAMED_STATES[f"psi4-{j}"])) ** 2
            assert ov == pytest.approx(1 / 3, abs=1e-12)


# --- named input states -----------------------------------------------------

def test_named_states_are_the_papers_labels():
    assert list(NAMED_STATES) == ["H", "V", *(
        f"{kind}{n}-{i}" for n in (3, 4) for kind in ("psi", "psibar") for i in range(1, n + 1))]


@pytest.mark.parametrize("label", list(NAMED_STATES))
def test_named_state_is_a_read_only_unit_vector(label):
    v = NAMED_STATES[label]
    assert v.shape == (2,) and v.dtype == complex
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="read-only"):
        v[0] = 0.0
    with pytest.raises(TypeError):
        NAMED_STATES[label] = np.array([0.0, 1.0], dtype=complex)


@pytest.mark.parametrize("n, overlap", [(3, 1 / 4), (4, 1 / 3)], ids=["trine", "sic"])
def test_named_state_overlaps(n, overlap):
    for i in range(1, n + 1):
        psi = NAMED_STATES[f"psi{n}-{i}"]
        assert abs(np.vdot(NAMED_STATES[f"psibar{n}-{i}"], psi)) < 1e-15
        for j in range(1, n + 1):
            if j != i:
                ov = abs(np.vdot(NAMED_STATES[f"psi{n}-{j}"], psi)) ** 2
                assert ov == pytest.approx(overlap, abs=1e-15)


# --- extraction -------------------------------------------------------------

def test_extract_trine_elements():
    result = extract_povm(scenario_schedule("trine"))
    assert result.completeness_residual < 1e-12
    expected = {4: projector(NAMED_STATES["psi3-1"], 2 / 3),
                0: projector(NAMED_STATES["psi3-2"], 2 / 3),
                2: projector(NAMED_STATES["psi3-3"], 2 / 3)}
    at = dict(zip(result.ports, result.effects))
    for port, matrix in expected.items():
        np.testing.assert_allclose(at[port], matrix, atol=1e-12)


def test_extract_sic_elements():
    result = extract_povm(scenario_schedule("sic"))
    assert result.completeness_residual < 1e-12
    expected = {6: projector(NAMED_STATES["psi4-1"], 0.5),
                4: projector(NAMED_STATES["psi4-2"], 0.5),
                0: projector(NAMED_STATES["psi4-3"], 0.5),
                2: projector(NAMED_STATES["psi4-4"], 0.5)}
    at = dict(zip(result.ports, result.effects))
    for port, matrix in expected.items():
        np.testing.assert_allclose(at[port], matrix, atol=1e-12)


def test_extract_two_step_identity_schedule():
    result = extract_povm(build_circuit([IterationPair(I2, I2)]))
    at = dict(zip(result.ports, result.effects))
    np.testing.assert_allclose(at[2], projector([1, 0], 1.0), atol=1e-12)
    np.testing.assert_allclose(at[0], projector([0, 1], 1.0), atol=1e-12)


def test_extract_completeness_for_random_schedules():
    rng = np.random.default_rng(23)
    for _ in range(100):
        steps = []
        for t in range(int(rng.integers(1, 7))):
            coins = {int(x): random_unitary(rng)
                     for x in rng.choice(np.arange(-t - 1, t + 2),
                                         size=rng.integers(0, 3), replace=False)}
            steps.append(coins)
        result = extract_povm(CoinSchedule(steps))
        assert result.completeness_residual < 1e-10


# --- unambiguous discrimination ---------------------------------------------

def test_usd_final_state_closed_form():
    # conclusive/inconclusive weights: cos t at x=4, 2 sin^2(t/2) on the success port
    for theta in np.linspace(0.1, np.pi / 2, 7):
        schedule = scenario_schedule("usd", theta)
        plus = walk.run(schedule, usd_state(+1, theta))
        minus = walk.run(schedule, usd_state(-1, theta))
        assert abs(plus.amplitude(4, 0)) ** 2 == pytest.approx(np.cos(theta), abs=1e-12)
        assert abs(plus.amplitude(2, 0)) ** 2 == pytest.approx(
            2 * np.sin(theta / 2) ** 2, abs=1e-12
        )
        assert abs(minus.amplitude(0, 0)) ** 2 == pytest.approx(
            2 * np.sin(theta / 2) ** 2, abs=1e-12
        )


def test_usd_exclusive_zero_ports():
    for theta in np.linspace(0.05, np.pi / 2, 10):
        schedule = scenario_schedule("usd", theta)
        plus = walk.position_distribution(walk.run(schedule, usd_state(+1, theta)))
        minus = walk.position_distribution(walk.run(schedule, usd_state(-1, theta)))
        assert plus.get(0, 0.0) < 1e-24
        assert minus.get(2, 0.0) < 1e-24


def test_validate_coin_accepts_every_peel_the_usd_angle_rule_admits():
    # usd_sweep stacks these peels without checking them again: q^2 + t^2 = 1 up to rounding
    # wherever tan(theta/2) <= 1, and the cross term q t - t q is exactly 0
    thetas = [*np.linspace(1e-6, np.pi / 2, 2001).tolist(), 1e-13, np.pi / 2,
              np.pi / 2 + DEFAULT.norm]
    for peel in _usd_peel(np.array([_usd_angle(th) for th in thetas])):
        validate_coin(peel)


def test_usd_success_probability_values():
    assert usd_success_probability(np.pi / 2) == pytest.approx(1.0, abs=1e-12)
    assert usd_success_probability(np.pi / 5) == pytest.approx(0.191, abs=5e-4)
    assert usd_success_probability(0.0) == 0.0
    with pytest.raises(ValidationError):
        usd_success_probability(-0.1)
    with pytest.raises(ValidationError):
        usd_success_probability(2.0)


def test_usd_success_probability_matches_walk():
    for theta in np.linspace(0.1, np.pi / 2, 8):
        schedule = scenario_schedule("usd", theta)
        dist = walk.position_distribution(walk.run(schedule, usd_state(+1, theta)))
        conclusive = 1.0 - dist.get(4, 0.0)
        assert conclusive == pytest.approx(usd_success_probability(theta), abs=1e-12)


# --- synthesis --------------------------------------------------------------

def _roundtrip(target):
    pairs, assignment = synthesize(target)
    extracted = extract_povm(build_circuit(pairs))
    at = dict(zip(extracted.ports, extracted.effects))
    for e in target.elements:
        got = at.get(assignment[e.label], np.zeros((2, 2), dtype=complex))
        np.testing.assert_allclose(got, e.matrix, atol=1e-9)
    return pairs, assignment


def test_synthesize_trine_target():
    target = PovmSet.build(
        [PovmElement(projector(NAMED_STATES[f"psi3-{i}"], 2 / 3), f"psi{i}", 0) for i in (1, 2, 3)]
    )
    pairs, assignment = _roundtrip(target)
    assert len(pairs) == 2
    assert sorted(assignment.values()) == [0, 2, 4]


def test_synthesize_projective_measurement():
    target = PovmSet.build(
        [PovmElement(projector([1, 0], 1.0), "H", 0),
         PovmElement(projector([0, 1], 1.0), "V", 0)]
    )
    pairs, assignment = _roundtrip(target)
    # peeling a projector needs the whole row: a = 1 and c2 degenerates to identity
    np.testing.assert_allclose(pairs[0].c2, I2, atol=1e-12)
    assert assignment == {"H": 2, "V": 0}


def test_synthesize_random_targets():
    rng = np.random.default_rng(31)
    for k in range(100):
        n = int(rng.integers(2, 7))
        mats = random_rank1_povm(rng, n)
        target = PovmSet.build(
            [PovmElement(m, f"o{i}", 0) for i, m in enumerate(mats)]
        )
        assert target.completeness_residual < 1e-10
        _roundtrip(target)


def test_synthesize_rejects_incomplete_target():
    bad = PovmSet.build([PovmElement(projector([1, 0], 0.9), "x", 0),
                         PovmElement(projector([0, 1], 1.0), "y", 0)])
    with pytest.raises(ValidationError, match="complete"):
        synthesize(bad)


def test_synthesize_rejects_rank2_element():
    half = PovmElement(0.5 * np.eye(2), "mixed", 0)
    target = PovmSet.build([half, half])
    with pytest.raises(ValidationError, match="rank 1"):
        synthesize(target)


def test_synthesis_infeasible_error_is_a_validation_error_naming_its_element(monkeypatch):
    # the walk of the synthesised layout is the check that raises it, so scale
    # the Kraus map at the port of psi3, port 0, by sqrt(1 + 2e-6): its effect,
    # whose largest entry is 1/2, moves by 1e-6
    real_propagate = povm._propagate

    def off_at_port_0(t, steps, columns):
        final = real_propagate(t, steps, columns)
        final[t // 2] *= np.sqrt(1.0 + 2e-6)
        return final

    monkeypatch.setattr(povm, "_propagate", off_at_port_0)
    target = PovmSet.build(
        [PovmElement(projector(NAMED_STATES[f"psi3-{i}"], 2 / 3), f"psi{i}", 0) for i in (1, 2, 3)]
    )
    with pytest.raises(ValidationError, match="element psi3") as info:
        synthesize(target)
    assert isinstance(info.value, SynthesisInfeasibleError)
    assert info.value.label == "psi3"
    assert info.value.deviation == pytest.approx(1e-6, rel=1e-3)


def test_synthesize_rejects_an_over_complete_target_before_peeling(monkeypatch):
    # a PovmSet reads its residual from its effects, so it cannot carry a stale one;
    # the gate reads the residual of the rows it would peel, so no coin is ever built
    def no_peel(*args):
        raise AssertionError("an over-complete target reached the peel loop")

    monkeypatch.setattr(povm, "IterationPair", no_peel)
    rng = np.random.default_rng(6)
    elements = [PovmElement(1.5 * m, f"o{i}", 0) for i, m in enumerate(random_rank1_povm(rng, 6))]
    target = PovmSet.build(elements)
    assert target.completeness_residual == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValidationError, match="complete"):
        synthesize(target)


def _degenerate_targets():
    p0, p1 = projector([1, 0], 1.0), projector([0, 1], 1.0)
    trine = [projector(NAMED_STATES[f"psi3-{i}"], 2 / 3) for i in (1, 2, 3)]
    return {
        "projector_first": [p0, p1 / 2, p1 / 2],
        "projector_middle": [p1 / 2, p0, p1 / 2],
        "zero_weight": [p0, 0 * p0, p1],
        "zero_weight_last": [p0, p1, 0 * p0],
        "duplicates": [m / 2 for m in trine] + [m / 2 for m in trine],
        "scaled_1_plus_5e-11_n7": [
            (1 + 5e-11) * m for m in random_rank1_povm(np.random.default_rng(7), 7)
        ],
    }


@pytest.mark.parametrize("rotated", [False, True], ids=["aligned", "rotated"])
@pytest.mark.parametrize("case", sorted(_degenerate_targets()))
def test_synthesize_degenerate_targets(case, rotated):
    # rotating the frame puts rounding noise where the aligned case has exact
    # zeros; taking c2's b from sqrt(1 - a^2) instead of from the remaining
    # rows misses rotated projector_first by 1.3e-8 and zero_weight_last by 0.44
    u = random_unitary(np.random.default_rng(0)) if rotated else I2
    mats = [u @ m @ u.conj().T for m in _degenerate_targets()[case]]
    target = PovmSet.build(PovmElement(m, f"o{i}", 0) for i, m in enumerate(mats))
    assert target.completeness_residual < 1e-10
    _, assignment = _roundtrip(target)
    assert assignment == {f"o{i}": 2 * (len(mats) - 1 - i) for i in range(len(mats))}


# --- element/set plumbing ---------------------------------------------------

def test_povm_element_validation():
    with pytest.raises(ValidationError, match="Hermitian"):
        PovmElement(np.array([[0, 1], [0, 0]]), "bad", 0)
    with pytest.raises(ValidationError, match="positive"):
        PovmElement(np.array([[-0.1, 0], [0, 1]]), "neg", 0)
    # the labels key synthesize's outcome->port map, so a list would fail there unnamed
    with pytest.raises(ValidationError, match=r"^element label must be a string, not \['a'\]$"):
        PovmElement(np.eye(2), ["a"], 0)


def test_povmset_json_round_trip():
    original = extract_povm(scenario_schedule("sic"))
    data = json.loads(original.to_json())
    assert set(data) == {"elements", "residual"}
    back = PovmSet.from_json(original.to_json())
    assert back.completeness_residual == pytest.approx(
        original.completeness_residual, abs=1e-12
    )
    for e1, e2 in zip(original.elements, back.elements):
        assert (e1.label, e1.port) == (e2.label, e2.port)
        np.testing.assert_allclose(e1.matrix, e2.matrix, atol=1e-15)


def test_scenario_port_maps_match_reference_pattern():
    assert scenario_port_map("trine") == {1: 4, 2: 0, 3: 2}
    assert scenario_port_map("sic") == {1: 6, 2: 4, 3: 0, 4: 2}


@pytest.mark.parametrize("theta", [1e-3, 0.3, 0.7, 1.2, np.pi / 2])
def test_usd_port_map_is_derived_by_extraction(theta):
    ports = scenario_port_map("usd", theta)
    assert ports == {"plus": 2, "minus": 0, "failure": 4}
    effects = {e.port: e.matrix for e in extract_povm(scenario_schedule("usd", theta)).elements}
    plus, minus = usd_state(+1, theta), usd_state(-1, theta)
    assert np.vdot(minus, effects[ports["plus"]] @ minus).real < 1e-12
    assert np.vdot(plus, effects[ports["minus"]] @ plus).real < 1e-12
    conclusive = np.vdot(plus, effects[ports["plus"]] @ plus).real
    assert conclusive == pytest.approx(usd_success_probability(theta), rel=1e-9)


def _peel_targets() -> dict:
    """Seeded targets with n = 2..64, one with a zero row and one whose first peel has b = 0."""
    rng = np.random.default_rng(41)
    targets = {f"n{n}": random_rank1_povm(rng, n) for n in range(2, 65)}
    trine = [projector(NAMED_STATES[f"psi3-{i}"], 2 / 3) for i in (1, 2, 3)]
    targets["zero-row"] = [trine[0], np.zeros((2, 2)), trine[1], trine[2]]
    # the rows after |H> have no component along it, so c2 of the first pair is the identity
    targets["b-zero"] = [projector([1, 0], 1.0), projector([0, 1], 0.5), projector([0, 1], 0.5)]
    return {name: PovmSet.build(PovmElement(m, f"o{i}", i) for i, m in enumerate(mats))
            for name, mats in targets.items()}


def test_the_scalar_peel_equals_the_numpy_peel():
    # synthesize peels on Python scalars; oracle.peel does the same arithmetic with numpy
    # calls, so the coins agree to rounding
    targets = _peel_targets()
    for name, target in targets.items():
        pairs, _ = synthesize(target)
        ref = oracle.peel(povm._rows(target))
        assert len(pairs) == len(ref), name
        for k, (p, (c1, c2)) in enumerate(zip(pairs, ref)):
            assert np.max(np.abs(p.c1 - c1)) <= 1e-12, (name, k, "c1")
            assert np.max(np.abs(p.c2 - c2)) <= 1e-12, (name, k, "c2")
    # the degenerate branches are taken: r = (1, 0) for the zero row, c2 = 1 for b = 0
    np.testing.assert_array_equal(synthesize(targets["zero-row"])[0][1].c1[0], [1.0, 0.0])
    np.testing.assert_array_equal(synthesize(targets["b-zero"])[0][0].c2, I2)


def test_each_coin_is_checked_once(monkeypatch):
    # synthesize walks the coins it made without a schedule; the caller's schedule
    # checks its 3(n - 1) coins, NOTs included, when it is built, and nothing that
    # reads a built schedule checks them again
    original, calls = walk.validate_coin, []

    def counting(matrix, **where):
        calls.append(where)
        return original(matrix, **where)

    for module in (walk, optics):
        monkeypatch.setattr(module, "validate_coin", counting)
    mats = random_rank1_povm(np.random.default_rng(5), 8)
    pairs, _ = synthesize(PovmSet.build(PovmElement(m, f"o{i}", i) for i, m in enumerate(mats)))
    assert calls == []
    schedule = build_circuit(pairs)
    assert len(calls) == 21 and all("step" in where for where in calls)
    optics.compile_netlist(schedule)
    extract_povm(schedule)
    run_density(schedule, [1.0, 0.0])
    optics.output_ports(schedule)
    optics.interferometers(schedule)
    assert len(calls) == 21


@pytest.mark.parametrize("call", ["synthesize", "usd_sweep", "extract_povm"])
def test_synthesize_and_sweep_build_no_schedule_and_no_element(call, monkeypatch):
    # extract_povm reads a schedule checked when it was built, so it checks no effect again
    mats = random_rank1_povm(np.random.default_rng(5), 8)
    target = PovmSet.build(PovmElement(m, f"o{i}", i) for i, m in enumerate(mats))
    config = ImperfectionConfig(visibilities={(1, 2): 0.9})
    schedule = build_circuit(synthesize(target)[0])
    built = []
    for cls in (CoinSchedule, PovmElement):
        def counting(self, *args, _cls=cls, _init=cls.__init__):
            built.append(_cls.__name__)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    if call == "synthesize":
        synthesize(target)
    elif call == "usd_sweep":
        usd_sweep([0.3, -0.7, np.pi / 2], config, total=100)
    else:
        extract_povm(schedule)
    assert built == []


def test_a_corrupt_completion_row_fails_as_an_element_not_as_a_coin(monkeypatch):
    # a wrong row makes c1 non-unitary; synthesize walks its circuit unchecked, so
    # the failure names the element the circuit misses, not a coin's unitarity
    real_completion = povm._orthonormal_completion
    monkeypatch.setattr(povm, "_orthonormal_completion", lambda row: 1.5 * real_completion(row))
    mats = random_rank1_povm(np.random.default_rng(5), 8)
    target = PovmSet.build(PovmElement(m, f"o{i}", i) for i, m in enumerate(mats))
    with pytest.raises(SynthesisInfeasibleError, match=r"^element o\d: ") as info:
        synthesize(target)
    assert "unitary" not in str(info.value)
    assert info.value.deviation > DEFAULT.synthesis_roundtrip


def test_a_repeated_label_is_named_before_peeling(monkeypatch):
    # the labels key the returned assignment, so a repeat would drop outcomes from it
    def no_peel(*args):
        raise AssertionError("a target with a repeated label reached the peel loop")

    monkeypatch.setattr(povm, "IterationPair", no_peel)
    target = PovmSet.build(
        [PovmElement(projector(NAMED_STATES[f"psi3-{i}"], 2 / 3), "x", 0) for i in (1, 2, 3)]
    )
    with pytest.raises(ValidationError, match="label 'x'") as info:
        synthesize(target)
    assert not isinstance(info.value, SynthesisInfeasibleError)


def test_rows_from_one_batched_eigh_equal_rows_from_one_eigh_per_element():
    # seeded targets for every n in [2, 64], plus the degenerate ones
    rng = np.random.default_rng(77)
    targets = [random_rank1_povm(rng, n) for n in range(2, 65)]
    targets += _degenerate_targets().values()
    for mats in targets:
        elements = [PovmElement(m, f"o{i}", i) for i, m in enumerate(mats)]
        single = []
        for e in elements:
            vals, vecs = np.linalg.eigh(e.matrix)
            single.append(np.sqrt(max(vals[1], 0.0)) * vecs[:, 1].conj())
        assert np.array_equal(povm._rows(PovmSet.build(elements)), np.array(single))


def test_synthesize_makes_one_eigh_call_per_target(monkeypatch):
    real_eigh, calls = np.linalg.eigh, []

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    rng = np.random.default_rng(8)
    targets = [PovmSet.build(PovmElement(m, f"o{i}", i)
                             for i, m in enumerate(random_rank1_povm(rng, n))) for n in (2, 5, 64)]
    monkeypatch.setattr(np.linalg, "eigh", counting)
    for target in targets:
        synthesize(target)
    assert calls == [(2, 2, 2), (5, 2, 2), (64, 2, 2)]


def test_the_first_of_two_elements_that_are_not_rank_1_is_named():
    mixed = 0.25 * I2
    effects = [projector([1, 0], 0.5), mixed, projector([0, 1], 0.5), mixed]
    for mats, first in [(effects, "o1"), (effects[::-1], "o0")]:
        target = PovmSet.build(PovmElement(m, f"o{i}", 0) for i, m in enumerate(mats))
        with pytest.raises(ValidationError, match=f"^element {first} is not rank 1$"):
            synthesize(target)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("coin", ["c1", "c2"])
def test_build_circuit_names_a_bad_coin_by_step_and_position(k, coin):
    pairs = [IterationPair(I2, I2) for _ in range(3)]
    bad = np.array([[1, 0], [1, 1]])
    pairs[k] = IterationPair(bad, I2) if coin == "c1" else IterationPair(I2, bad)
    where = f"position 0 in step {2 * k + 1}" if coin == "c1" else f"position 1 in step {2 * k + 2}"
    with pytest.raises(ValidationError, match=f"^coin operation at {where} is not a 2x2 unitary$"):
        build_circuit(pairs)


def test_synthesize_seeded_targets_up_to_64_outcomes():
    # sixteen complete rank-1 targets for every n in [2, 64], 1008 in all;
    # dividing the peeled row by its norm clamped to 1 once left the first
    # coin of 2 of the first 378 short of unitary
    rng = np.random.default_rng(123)
    for _ in range(16):
        for n in range(2, 65):
            mats = random_rank1_povm(rng, n)
            _roundtrip(PovmSet.build(PovmElement(m, f"o{i}", i) for i, m in enumerate(mats)))


@pytest.mark.parametrize("make", [
    lambda: CoinSchedule([{0: NOT_COIN}]),
    lambda: PovmElement(np.eye(2), "e", 0),
    lambda: IterationPair(NOT_COIN, NOT_COIN),
    lambda: PovmSet.build([PovmElement(np.eye(2), "e", 0)]),
], ids=["CoinSchedule", "PovmElement", "IterationPair", "PovmSet"])
def test_array_records_compare_and_hash_by_identity(make):
    # a generated __eq__ would compare the numpy fields and raise
    a, b = make(), make()
    assert a == a and a != b
    assert a in [b, a] and a not in [b]
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("make", [
    lambda: PovmSet.build([PovmElement(np.eye(2), "e", 0)]),
    lambda: extract_povm(scenario_schedule("trine")),
], ids=["build", "extract_povm"])
def test_a_povm_set_s_effects_are_read_only(make):
    # the residual and the elements are read from the effects once and kept
    with pytest.raises(ValueError, match="read-only"):
        make().effects[0, 0, 0] = 0.5


def _extraction_schedules() -> dict:
    """Synthesised circuits for n in [2, 64], the built-ins, and Haar coins on every site
    of walks of 1 to 6 steps."""
    rng = np.random.default_rng(59)
    schedules = {"trine": scenario_schedule("trine"), "sic": scenario_schedule("sic"),
                 "usd-0.7": scenario_schedule("usd", 0.7),
                 "usd-pi/2": scenario_schedule("usd", np.pi / 2)}
    for n in range(2, 65):
        mats = random_rank1_povm(rng, n)
        target = PovmSet.build(PovmElement(m, f"o{i}", i) for i, m in enumerate(mats))
        schedules[f"n{n}"] = build_circuit(synthesize(target)[0])
    for t in range(1, 7):
        schedules[f"haar-t{t}"] = CoinSchedule(
            [{x: random_unitary(rng) for x in range(1 - s, s, 2)} for s in range(1, t + 1)])
    return schedules


def test_the_stacked_extraction_equals_one_checked_element_per_port():
    # extract_povm symmetrises its stack at once and checks nothing; the per-port
    # extraction it replaced checked each effect and summed them in Python
    for name, schedule in _extraction_schedules().items():
        got = extract_povm(schedule)
        elements, residual, text = oracle.extract_povm_by_element(schedule)
        want = np.array([e.matrix for e in elements])
        assert np.array_equal(got.effects, want), name
        assert got.labels == tuple(e.label for e in elements), name
        assert got.ports == tuple(e.port for e in elements), name
        assert got.completeness_residual == residual, name
        assert got.to_json() == text, name
        assert np.array_equal([e.matrix for e in got.elements], want), name
