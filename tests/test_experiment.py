import json
import re

import numpy as np
import pytest

import oracle
from conftest import fold_steps, random_unitary
from walkpovm import experiment, walk
from walkpovm.experiment import (
    CountTable,
    ImperfectionConfig,
    _damping,
    _walk_density,
    apply_efficiencies,
    run_density,
    sample_counts,
    usd_sweep,
)
from walkpovm.povm import (
    NAMED_STATES,
    IterationPair,
    _layout,
    build_circuit,
    scenario_port_map,
    scenario_schedule,
    usd_scenario,
    usd_state,
    usd_success_probability,
)
from walkpovm.walk import CoinSchedule, ValidationError


def ideal_distribution(schedule, state):
    return walk.position_distribution(walk.run(schedule, state))


# --- density evolution --------------------------------------------------------

def test_density_matches_pure_state_when_perfect():
    cases = [("trine", [NAMED_STATES[f"psi3-{i}"] for i in (1, 2, 3)]
              + [NAMED_STATES[f"psibar3-{i}"] for i in (1, 2, 3)]),
             ("sic", [NAMED_STATES[f"psi4-{i}"] for i in (1, 2, 3, 4)]
              + [NAMED_STATES[f"psibar4-{i}"] for i in (1, 2, 3, 4)])]
    for name, states in cases:
        schedule = scenario_schedule(name)
        for v in states:
            ideal = ideal_distribution(schedule, v)
            dens = run_density(schedule, v)
            for x, p in dens.items():
                assert p == pytest.approx(ideal.get(x, 0.0), abs=1e-12)


def test_density_is_distribution_across_visibility_grid():
    schedule = scenario_schedule("trine")
    for v in np.arange(0.0, 1.01, 0.1):
        cfg = ImperfectionConfig(visibilities={(1, 2): float(v)})
        dist = run_density(schedule, NAMED_STATES["psi3-2"], cfg)
        assert all(p >= 0.0 for p in dist.values())
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)


def test_trine_leakage_closed_form():
    # coherence crosses both displacers of the interferometer, so the
    # forbidden-port weight is (1 - V^2)/4; the first anti-state never
    # reaches its forbidden port at all
    schedule = scenario_schedule("trine")
    ports = scenario_port_map("trine")
    for v in (1.0, 0.99, 0.97, 0.9):
        cfg = ImperfectionConfig(visibilities={(1, 2): v})
        leak1 = run_density(schedule, NAMED_STATES["psibar3-1"], cfg).get(ports[1], 0.0)
        leak2 = run_density(schedule, NAMED_STATES["psibar3-2"], cfg).get(ports[2], 0.0)
        leak3 = run_density(schedule, NAMED_STATES["psibar3-3"], cfg).get(ports[3], 0.0)
        assert leak1 == pytest.approx(0.0, abs=1e-14)
        assert leak2 == pytest.approx((1 - v * v) / 4, abs=1e-12)
        assert leak3 == pytest.approx((1 - v * v) / 4, abs=1e-12)


def test_leakage_monotone_in_visibility():
    schedule = scenario_schedule("trine")
    ports = scenario_port_map("trine")
    previous = None
    for v in np.arange(0.0, 1.01, 0.1):
        cfg = ImperfectionConfig(visibilities={(1, 2): float(v)})
        leak = sum(
            run_density(schedule, NAMED_STATES[f"psibar3-{i}"], cfg).get(ports[i], 0.0)
            for i in (1, 2, 3)
        ) / 3.0
        if previous is not None:
            assert leak <= previous + 1e-12
        previous = leak


def test_usd_perfect_visibility_full_success():
    schedule = scenario_schedule("usd", np.pi / 2)
    dist = run_density(schedule, usd_state(+1, np.pi / 2))
    assert dist[2] == pytest.approx(1.0, abs=1e-12)


def test_damping_is_one_in_the_walks_a_pair_does_not_mix():
    mixes = {(1, 2): np.array([True, False, True]), (2, 3): True,
             (4, 5): np.array([False, True, False])}
    damping = _damping(mixes, {(1, 2): 0.5, (2, 3): 0.9})
    assert list(damping) == [1, 2, 3]
    assert np.array_equal(damping[1], [[0.5], [1.0], [0.5]])
    assert np.array_equal(damping[2], [[0.5 * 0.9], [0.9], [0.5 * 0.9]])
    assert damping[3] == 0.9 and type(damping[3]) is float


@pytest.mark.parametrize("n", [2, 5, 12])
def test_batched_density_walk_equals_each_singleton_walk(n):
    # Haar schedules of one size share build_circuit's layout; the batch stacks
    # their coins, and a walk with no damping at a step is damped by V = 1 there.
    # V = 0 folds at every damped step and V = 1e-60 after two lazy ones, while
    # the walks at 0.93 and U[0.5, 1] stay lazy throughout
    rng = np.random.default_rng(n)
    visibilities = [1.0, 0.0, 0.93, None, 1e-60]
    schedules, psis, dampings = [], [], []
    for v in visibilities:
        schedule = build_circuit([IterationPair(random_unitary(rng), random_unitary(rng))
                                  for _ in range(n - 1)])
        vis = {pair: float(rng.uniform(0.5, 1.0)) if v is None else v
               for pair in schedule._structure[1]}
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        schedules.append(schedule)
        psis.append(z / np.linalg.norm(z))
        dampings.append(_damping(schedule._structure[1], vis))
    t = schedules[0].n_steps
    steps = [{x: np.stack([sch.steps[s][x] for sch in schedules]) for x in coins}
             for s, coins in enumerate(schedules[0].steps)]
    damping = {}
    for b, d in enumerate(dampings):
        for s, v in d.items():
            damping.setdefault(s, np.ones((len(schedules), 1)))[b] = v
    assert [bool(fold_steps(d)) for d in dampings] == [False, n > 2, False, False, n > 2]
    batched = _walk_density(t, steps, np.stack(psis), damping)
    assert batched.shape == (len(schedules), t + 1)
    for b, schedule in enumerate(schedules):
        single = _walk_density(t, schedule.steps, psis[b], dampings[b])
        assert np.array_equal(batched[b], single)


def test_visibility_validation():
    with pytest.raises(ValidationError):
        ImperfectionConfig(visibilities={(1, 2): 1.2})
    with pytest.raises(ValidationError):
        ImperfectionConfig(port_efficiencies={0: 0.0})
    with pytest.raises(ValidationError):
        ImperfectionConfig(port_efficiencies={0: 1.0, 2: 0.9})  # 10% spread


@pytest.mark.parametrize("key", [1, (1,), (1, 2, 3), "1-2", (1.0, 2), (True, 2)],
                         ids=["int", "1-tuple", "3-tuple", "str", "float", "bool"])
def test_visibility_key_must_be_a_displacer_pair(key):
    # {1: 0.5} used to be accepted, and its to_json raised a bare TypeError
    with pytest.raises(ValidationError, match=f"^visibility key {re.escape(repr(key))} "):
        ImperfectionConfig(visibilities={key: 0.5})


def test_every_visibility_pair_the_constructor_accepts_round_trips():
    # displacers are steps >= 1; (-1, 2) was accepted once and written as "-1-2",
    # which from_json could not split back into a pair
    entries = [-2, -1, 0, 1, 2, 7, 2**63, np.int64(3), np.int64(-1), True, 1.0, "1", None]
    accepted = []
    for a in entries:
        for b in entries:
            try:
                cfg = ImperfectionConfig(visibilities={(a, b): 0.5})
            except ValidationError:
                continue
            assert ImperfectionConfig.from_json(cfg.to_json()) == cfg, (a, b)
            accepted.append((a, b))
    assert {(int(a), int(b)) for a, b in accepted} == {
        (a, b) for a in (1, 2, 3, 7, 2**63) for b in (1, 2, 3, 7, 2**63)}


@pytest.mark.parametrize("pair", [(-1, 2), (0, 1), (1, 0), (2, -3)])
def test_a_visibility_pair_names_displacer_steps(pair):
    with pytest.raises(ValidationError, match=r"entry must be an integer >= 1, not -?\d"):
        ImperfectionConfig(visibilities={pair: 0.5})


def test_visibility_of_a_pair_that_is_not_an_interferometer_is_ignored():
    # a config may name pairs a schedule lacks (one file serves several scenarios), so the
    # SIC schedule, whose interferometers are (1, 2) and (3, 4), ignores (7, 8)
    schedule = scenario_schedule("sic")
    cfg = ImperfectionConfig(visibilities={(7, 8): 0.0})
    for state in NAMED_STATES.values():
        assert run_density(schedule, state, cfg) == run_density(schedule, state)


def test_visibility_key_may_hold_numpy_integers():
    cfg = ImperfectionConfig(visibilities={(np.int64(1), np.int64(2)): 0.5})
    assert ImperfectionConfig.from_json(cfg.to_json()) == ImperfectionConfig(
        visibilities={(1, 2): 0.5})


def test_imperfection_config_json_round_trip():
    cfg = ImperfectionConfig(
        visibilities={(1, 2): 0.998, (3, 4): 0.993},
        port_efficiencies={0: 1.0, 2: 0.97, 4: 0.96},
        imbalance_budget=0.06,
    )
    back = ImperfectionConfig.from_json(cfg.to_json())
    assert back == cfg
    data = json.loads(cfg.to_json())
    assert set(data) == {"visibilities", "port_efficiencies", "imbalance_budget"}


def test_imperfection_config_ignores_a_seed_key():
    data = {"visibilities": {"1-2": 0.93}, "seed": 7}
    assert ImperfectionConfig.from_json(json.dumps(data)) == ImperfectionConfig(
        visibilities={(1, 2): 0.93})


@pytest.mark.parametrize("key", ["visibilites", "port_efficiency", "budget"])
def test_imperfection_config_rejects_an_unknown_key(key):
    # a misspelt key used to fall back to the ideal config
    text = json.dumps({"visibilities": {"1-2": 0.93}, key: {"1-2": 0.5}})
    with pytest.raises(ValidationError, match=f"^malformed imperfection config: unknown key '{key}'"):
        ImperfectionConfig.from_json(text)


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), -0.01])
def test_imbalance_budget_must_be_finite_and_non_negative(budget):
    with pytest.raises(ValidationError, match="imbalance_budget"):
        ImperfectionConfig(port_efficiencies={0: 0.5, 2: 1.0}, imbalance_budget=budget)
    with pytest.raises(ValidationError, match="imbalance_budget"):
        ImperfectionConfig(port_efficiencies={0: 1.0, 2: 1.0}, imbalance_budget=budget)
    text = json.dumps({"port_efficiencies": {"0": 0.5, "2": 1.0}, "imbalance_budget": budget})
    with pytest.raises(ValidationError, match="imbalance_budget"):
        ImperfectionConfig.from_json(text)


# --- detector efficiencies ------------------------------------------------------

def test_uniform_efficiency_is_noop():
    dist = {0: 1 / 6, 2: 1 / 6, 4: 2 / 3}
    out = apply_efficiencies(dist, {p: 0.6 for p in dist})
    for p in dist:
        assert out[p] == pytest.approx(dist[p], abs=1e-15)


def test_efficiency_two_port_example():
    out = apply_efficiencies({"A": 0.5, "B": 0.5}, {"B": 0.95})
    assert out["A"] == pytest.approx(0.5 / 0.975, abs=1e-12)
    assert out["B"] == pytest.approx(0.475 / 0.975, abs=1e-12)


def test_efficiency_worst_case_shift_within_bound():
    dist = {0: 1 / 6, 2: 1 / 6, 4: 2 / 3}
    worst = 0.0
    for port in dist:
        out = apply_efficiencies(dist, {port: 0.95})
        worst = max(worst, max(abs(out[p] - dist[p]) for p in dist))
    assert worst <= 0.017


def test_efficiency_rejects_bad_values():
    with pytest.raises(ValidationError):
        apply_efficiencies({0: 1.0}, {0: 0.0})
    with pytest.raises(ValidationError):
        apply_efficiencies({0: 1.0}, {0: -0.2})


# --- sampling -------------------------------------------------------------------

def test_sample_counts_reproducible():
    dist = {4: 2 / 3, 2: 1 / 6, 0: 1 / 6}
    t1 = sample_counts(dist, 40000, seed=3)
    t2 = sample_counts(dist, 40000, seed=3)
    assert t1 == t2
    assert t1.to_json() == t2.to_json()


def test_sample_counts_invariants():
    dist = {4: 2 / 3, 2: 1 / 6, 0: 1 / 6}
    table = sample_counts(dist, 40000, seed=1)
    assert sum(table.counts.values()) == table.total == 40000
    assert sum(table.probabilities.values()) == pytest.approx(1.0, abs=1e-12)
    for p, q in table.probabilities.items():
        assert table.std_errors[p] == pytest.approx(
            np.sqrt(q * (1 - q) / 40000), abs=1e-15
        )


@pytest.mark.parametrize("counts, port", [
    ({0: 3, 2: -1}, 2),
    ({0: 2.5, 2: 1}, 0),
    ({0: 3, 2: 1.0}, 2),
    ({0: True, 2: 1}, 0),
    ({0: 3, 2: np.float64(1.0)}, 2),
    ({0: 3, 2: "1"}, 2),
    ({0: 3, 2: None}, 2),
    ({0: 3, 2: float("nan")}, 2),
    ({0: np.bool_(True), 2: 1}, 0),
], ids=["negative", "fraction", "integral-float", "bool", "numpy-float", "str",
        "none", "nan", "numpy-bool"])
def test_count_table_takes_only_integer_counts_at_least_zero(counts, port):
    # a negative count reached sqrt as a RuntimeWarning, and {0: 2.5, 2: 1}
    # gave probabilities summing to 1.17
    with pytest.raises(ValidationError, match=f"^count for port {port} must be an integer >= 0"):
        CountTable.from_counts(counts)


def test_count_table_std_errors_equal_the_per_port_formula():
    for counts in ({0: 6736, 2: 6844, 4: 26420}, {0: 0, 2: 1}, {-3: 7, 1: np.int64(11), 5: 0}):
        table = CountTable.from_counts(counts)
        assert table.counts == {p: int(c) for p, c in counts.items()}
        for p, c in counts.items():
            q = int(c) / table.total
            assert table.probabilities[p] == q
            assert table.std_errors[p] == float(np.sqrt(q * (1.0 - q) / table.total))
        json.loads(table.to_json())


def test_sample_counts_point_mass():
    table = sample_counts({0: 1.0}, 100, seed=9)
    assert table.counts == {0: 100}
    assert table.std_errors[0] == 0.0


def test_sample_counts_rejects_bad_input():
    with pytest.raises(ValidationError):
        sample_counts({0: -0.1, 2: 1.1}, 10, seed=0)
    with pytest.raises(ValidationError):
        sample_counts({0: 0.4, 2: 0.4}, 10, seed=0)
    with pytest.raises(ValidationError):
        sample_counts({0: 1.0}, 0, seed=0)


@pytest.mark.parametrize("call, message", [
    (lambda: sample_counts({0: 0.5, 2: 0.5}, 10, seed=-1), "seed"),
    (lambda: sample_counts({0: 0.5, 2: 0.5}, 10, seed=1.5), "seed"),
    (lambda: sample_counts({0: 0.5, 2: 0.5}, 10.5, seed=1), "total count"),
    (lambda: usd_sweep([0.7], total=100, seed=-1), "seed"),
    (lambda: usd_sweep([0.7], total=100.5, seed=0), "total count"),
    (lambda: sample_counts({0: 1.0}, True, seed=0), "total count"),
    (lambda: sample_counts({0: 1.0}, 10, seed=False), "seed"),
    (lambda: sample_counts({0: 1.0}, np.float64(10.0), seed=0), "total count"),
    (lambda: sample_counts({0: 1.0}, None, seed=0), "total count"),
    (lambda: sample_counts({0: 1.0}, 10, seed="1"), "seed"),
    (lambda: usd_sweep([0.7], total=True), "total count"),
    (lambda: usd_sweep([0.7], total=100, seed=np.bool_(False)), "seed"),
], ids=["sample-seed-negative", "sample-seed-fractional", "sample-total-fractional",
        "sweep-seed-negative", "sweep-total-fractional", "sample-total-bool", "sample-seed-bool",
        "sample-total-numpy-float", "sample-total-none", "sample-seed-str", "sweep-total-bool",
        "sweep-seed-numpy-bool"])
def test_draws_reject_a_seed_or_photon_count_that_is_not_an_integer_in_range(call, message):
    # numpy would raise a plain ValueError for a negative seed and truncate 10.5 photons to 10;
    # True photons used to draw one photon
    with pytest.raises(ValidationError, match=message):
        call()



@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [
    lambda dist: sample_counts(dist, 100, seed=0),
    lambda dist: apply_efficiencies(dist, {}),
], ids=["sample_counts", "apply_efficiencies"])
def test_non_finite_probability_is_rejected(call, value):
    # NaN passes every range check, and an infinite entry would be reported
    # as a bad sum or a NaN result rather than as the entry at fault
    with pytest.raises(ValidationError, match="port 0 is not finite"):
        call({0: value, 2: 0.5})

def test_sample_counts_law_of_large_numbers():
    dist = {4: 2 / 3, 2: 1 / 6, 0: 1 / 6}
    estimates = [
        sample_counts(dist, 40000, seed=s).probabilities[4] for s in range(1000)
    ]
    sigma = np.sqrt((2 / 3) * (1 / 3) / 40000)
    assert abs(np.mean(estimates) - 2 / 3) <= 3 * sigma / np.sqrt(1000)


def test_standard_error_magnitude_at_reference_rate():
    sigma = np.sqrt((1 / 6) * (5 / 6) / 40000)
    assert round(sigma, 4) == 0.0019


def test_parenthetical_rendering():
    table = CountTable.from_counts({0: 6736, 2: 6844, 4: 26420})
    text = table.parenthetical(0)
    assert text.startswith("0.16") and text.endswith(")")
    value, err = text[:-1].split("(")
    assert len(value.split(".")[1]) == 4
    assert len(err) == 2


# --- discrimination sweep --------------------------------------------------------

GRID = [k * np.pi / 20 for k in range(1, 11)]


def test_sweep_theory_column():
    rows = usd_sweep(GRID, total=1000, seed=0)
    expected = [0.0123, 0.0489, 0.109, 0.191, 0.293, 0.412, 0.546, 0.691, 0.844, 1.000]
    for row, value in zip(rows, expected):
        assert row.p_theory == pytest.approx(value, abs=5e-4)


def test_sweep_three_pi_twenty_value():
    # closed form at 3*pi/20 is 1 - cos(27°) = 0.109
    row = usd_sweep([3 * np.pi / 20], total=1000, seed=0)[0]
    assert row.p_theory == pytest.approx(1 - np.cos(3 * np.pi / 20), abs=1e-12)
    assert row.p_theory == pytest.approx(0.109, abs=5e-4)


def test_sweep_negative_grid_mirrors_theory():
    pos = usd_sweep(GRID, total=2000, seed=4)
    neg = usd_sweep([-t for t in GRID], total=2000, seed=4)
    for a, b in zip(pos, neg):
        assert a.p_theory == pytest.approx(b.p_theory, abs=1e-15)


def test_sweep_sampling_tracks_theory():
    for row in usd_sweep(GRID, total=40000, seed=2):
        bound = 3 * row.std_error if row.std_error > 0 else 1e-12
        assert abs(row.p_sampled - row.p_theory) <= bound


def test_sweep_rejects_zero_angle():
    with pytest.raises(ValidationError):
        usd_sweep([0.0], total=100, seed=0)


# angles just above pi/2 that the gates admit, a near-zero angle whose peel coin
# rounds to diagonal (no interferometer, a support pattern of its own) and generic ones
EDGE_ANGLES = [1e-13, 1e-7, 0.3, 1.0, np.pi / 2, np.pi / 2 + 5e-13, np.pi / 2 + 1e-12]


@pytest.mark.parametrize("visibility", [0.0, 0.8, 1.0])
@pytest.mark.parametrize("thetas", [
    [s * th for th in EDGE_ANGLES for s in (1, -1)],
    [-np.pi / 2 - 1e-12, 1e-13, 0.3, -1e-7, np.pi / 2, -1.0, np.pi / 2 + 5e-13, 0.3],
    [0.7],
    [-1e-13],
    [],
], ids=["edges-both-signs", "edges-mixed", "one", "one-edge", "none"])
def test_sweep_equals_the_per_angle_oracle(thetas, visibility):
    cfg = ImperfectionConfig(visibilities={(1, 2): visibility},
                             port_efficiencies={-2: 0.98, 0: 0.97, 2: 1.0, 4: 0.99})
    for config, total, seed in ((cfg, 5000, 3), (None, 40000, 11)):
        assert (usd_sweep(thetas, config, total=total, seed=seed)
                == oracle.usd_sweep(thetas, config, total=total, seed=seed))


def test_sweep_walks_one_layout_whatever_its_angles(monkeypatch):
    # the peel of 1e-13 is diagonal and the others are not; one layout serves them
    # all, and the sweep walks it without building a schedule
    laid_out, built, real_init = [], [], CoinSchedule.__init__

    def layout(pairs):
        laid_out.append(pairs)
        return _layout(pairs)

    def schedule(self, steps):
        built.append(steps)
        real_init(self, steps)

    monkeypatch.setattr(experiment, "_layout", layout)
    monkeypatch.setattr(CoinSchedule, "__init__", schedule)
    usd_sweep([s * th for th in EDGE_ANGLES for s in (1, -1)],
              ImperfectionConfig(visibilities={(1, 2): 0.8}), total=100, seed=0)
    assert len(laid_out) == 1 and built == []


@pytest.mark.parametrize("eps", [5e-13, 1e-12])
@pytest.mark.parametrize("sign", [1, -1])
def test_sweep_takes_an_angle_just_above_pi_over_two_as_pi_over_two(sign, eps):
    # tan(theta/2) > 1 there, so the peel coin used to fail its unitarity check
    cfg = ImperfectionConfig(visibilities={(1, 2): 0.9}, port_efficiencies={0: 0.97})
    edge = usd_sweep([sign * (np.pi / 2 + eps)], cfg, total=5000, seed=2)[0]
    right = usd_sweep([sign * np.pi / 2], cfg, total=5000, seed=2)[0]
    assert edge.theta == sign * (np.pi / 2 + eps)
    assert (edge.p_theory, edge.p_sampled, edge.std_error) == (
        right.p_theory, right.p_sampled, right.std_error)
    assert edge.p_theory <= 1.0
    assert usd_success_probability(np.pi / 2 + eps) == usd_success_probability(np.pi / 2)
    assert np.array_equal(usd_scenario(np.pi / 2 + eps)[0].c2, usd_scenario(np.pi / 2)[0].c2)
