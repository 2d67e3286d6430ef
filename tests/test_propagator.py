"""The array propagator against the reference engines in ``oracle.py``.

Two families of random schedules:

* 200 peel-off circuits from Haar-random ``IterationPair``s with n drawn
  from [2, 64].  Their coins are dense, so every lattice site is
  structurally reachable.
* 100 short schedules of sparse coins (identity, diagonal, anti-diagonal
  and Haar) at random positions, so that reachability, ports and
  interferometers have structure to get wrong.

Amplitudes, distributions and extracted effects agree within 1e-12; port
and interferometer lists are equal exactly.  Each dense density comparison
runs with visibilities 1, 0.97, uniform in [0.5, 1] and 0.  A few
hand-made schedules probe the edges of the walk frame: one step, stray
coins outside the light cone or on the wrong parity, which every engine
must ignore, and a support that reaches both ends of the lattice.  The dense
oracle costs O(T dim^3) (4.5 s at n = 64 on a 2-core x86 host), so the
peel-off density comparison runs on the circuits with n <= 16 and the one
nearest n = 40; seven larger circuits up to the largest n are held to
the dict engine's distribution at visibility 1 and to being a
distribution otherwise.  The eager frame engine, which damps the whole
light-cone block, is cheap enough for every schedule: the lazy engine
meets it at visibilities 1, 0.97, uniform in [0.5, 1], 0, 0.5 and 1e-3,
and at 1e-60 and 1e-300 on the n = 64 circuit, where it folds its scale
into rho more than once in one walk.
"""

from functools import lru_cache

import numpy as np
import pytest

import oracle
from conftest import fold_steps, random_unitary
from walkpovm import experiment, optics, povm, walk
from walkpovm.experiment import ImperfectionConfig

TOL = 1e-12
DENSE_ORACLE_MAX_N = 16


def _unit_vector(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def _sparse_coin(rng):
    phases = np.exp(2j * np.pi * rng.uniform(size=2))
    kinds = (np.eye(2), np.diag(phases), np.diag(phases)[::-1], random_unitary(rng))
    return kinds[int(rng.choice(4, p=[0.1, 0.2, 0.2, 0.5]))]


@lru_cache(maxsize=None)
def peel_off_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(200):
        n = int(rng.integers(2, 65))
        pairs = [povm.IterationPair(random_unitary(rng), random_unitary(rng))
                 for _ in range(n - 1)]
        cases.append((n, povm.build_circuit(pairs), _unit_vector(rng)))
    return cases


@lru_cache(maxsize=None)
def sparse_cases():
    rng = np.random.default_rng(4048)
    cases = []
    for _ in range(100):
        steps = []
        for s in range(1, int(rng.integers(1, 13)) + 1):
            where = rng.choice(np.arange(-s, s + 1), size=int(rng.integers(0, s + 2)), replace=False)
            steps.append({int(x): _sparse_coin(rng) for x in where})
        cases.append((walk.CoinSchedule(steps), _unit_vector(rng)))
    return cases


def all_schedules():
    return [s for _n, s, _v in peel_off_cases()] + [s for s, _v in sparse_cases()]


def all_runs():
    return [(s, v) for _n, s, v in peel_off_cases()] + list(sparse_cases())


# None stands for a V drawn from U[0.5, 1] for each interferometer
DENSE_VISIBILITIES = (1.0, 0.97, None, 0.0)
EAGER_VISIBILITIES = DENSE_VISIBILITIES + (0.5, 1e-3)


def visibility_configs(schedule, rng, values=DENSE_VISIBILITIES):
    pairs = optics.interferometers(schedule)
    return [ImperfectionConfig(visibilities={
        p: float(rng.uniform(0.5, 1.0)) if v is None else v for p in pairs}) for v in values]


def assert_same_amplitudes(got: walk.WalkState, want: walk.WalkState):
    for key in set(got.amplitudes) | set(want.amplitudes):
        assert abs(got.amplitude(*key) - want.amplitude(*key)) <= TOL, key


def assert_same_distribution(got: dict, want: dict):
    assert set(got) == set(want)
    for x in want:
        assert abs(got[x] - want[x]) <= TOL, x


def test_case_families_cover_the_n_range():
    ns = [n for n, _s, _v in peel_off_cases()]
    assert len(ns) == 200 and min(ns) == 2 and max(ns) == 64
    assert len(sparse_cases()) == 100


def test_run_matches_dict_engine():
    for schedule, v in all_runs():
        got, want = walk.run(schedule, v), oracle.run(schedule, v)
        assert_same_amplitudes(got, want)
        got_dist = walk.position_distribution(got)
        want_dist = walk.position_distribution(want)
        for x in set(got_dist) | set(want_dist):
            assert abs(got_dist.get(x, 0.0) - want_dist.get(x, 0.0)) <= TOL


def test_extract_povm_matches_two_run_extraction():
    for schedule in all_schedules():
        got, want = povm.extract_povm(schedule), oracle.extract_povm(schedule)
        assert [e.port for e in got.elements] == [e.port for e in want.elements]
        for g, w in zip(got.elements, want.elements):
            assert g.label == w.label
            assert np.max(np.abs(g.matrix - w.matrix)) <= TOL
        assert abs(got.completeness_residual - want.completeness_residual) <= TOL


def test_ports_and_interferometers_match_set_reachability():
    for schedule in all_schedules():
        assert optics.output_ports(schedule) == oracle.output_ports(schedule)
        assert optics.interferometers(schedule) == oracle.interferometers(schedule)


def test_sparse_cases_exercise_reachability():
    # with dense coins every site is reachable; the sparse family must not be
    ports = [optics.output_ports(s) for s, _v in sparse_cases()]
    lattice = [list(range(-s.n_steps, s.n_steps + 1, 2)) for s, _v in sparse_cases()]
    assert sum(p != full for p, full in zip(ports, lattice)) >= 20
    assert sum(bool(optics.interferometers(s)) for s, _v in sparse_cases()) >= 5


def test_run_density_matches_dense_engine():
    rng = np.random.default_rng(99)
    runs = [(s, v) for n, s, v in peel_off_cases() if n <= DENSE_ORACLE_MAX_N]
    runs.append(min(peel_off_cases(), key=lambda c: abs(c[0] - 40))[1:])
    runs += list(sparse_cases())
    assert len(runs) >= 130
    for schedule, v in runs:
        for config in visibility_configs(schedule, rng):
            assert_same_distribution(experiment.run_density(schedule, v, config),
                                     oracle.run_density(schedule, v, config))


def test_run_density_matches_eager_engine():
    rng = np.random.default_rng(123)
    for schedule, v in all_runs():
        for config in visibility_configs(schedule, rng, EAGER_VISIBILITIES):
            assert_same_distribution(experiment.run_density(schedule, v, config),
                                     oracle.run_density_eager(schedule, v, config))


def test_run_density_folds_tiny_visibilities_like_the_eager_engine():
    # V = 1e-60 or 1e-300 on every interferometer: the lazy scale would pass the
    # floor (1.5e-154) within three damped steps, so it folds into rho again and
    # again along one walk
    for n, schedule, v in peel_off_cases():
        if n == 64:
            pairs = optics.interferometers(schedule)
            for tiny in (1e-60, 1e-300):
                config = ImperfectionConfig(visibilities={p: tiny for p in pairs})
                damping = experiment._damping(schedule._structure[1], config.visibilities)
                assert len(fold_steps(damping)) > 1
                got = experiment.run_density(schedule, v, config)
                assert_same_distribution(got, oracle.run_density_eager(schedule, v, config))
                assert sum(got.values()) == pytest.approx(1.0, abs=1e-10)


def test_run_density_on_large_circuits():
    rng = np.random.default_rng(7)
    large = sorted((c for c in peel_off_cases() if c[0] > DENSE_ORACLE_MAX_N), key=lambda c: c[0])
    assert large[-1][0] == 64
    for n, schedule, v in large[::-25]:
        ideal, *damped = (experiment.run_density(schedule, v, c)
                          for c in visibility_configs(schedule, rng))
        pure = walk.position_distribution(oracle.run(schedule, v))
        for x, p in ideal.items():
            assert abs(p - pure.get(x, 0.0)) <= TOL
        for dist in damped:
            assert all(p >= 0.0 for p in dist.values())
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)


def _stray_coins(schedule, rng):
    """The schedule plus a Haar coin on every free site that holds no amplitude.

    Before step s the walker sits on [-(s-1), s-1] at the parity of s - 1,
    so a site of the other parity or with |x| >= s (still within +/-T) is empty.
    """
    t = schedule.n_steps
    return walk.CoinSchedule([
        {**coins, **{x: random_unitary(rng) for x in range(-t, t + 1)
                     if x not in coins and ((x - s) % 2 == 0 or abs(x) >= s)}}
        for s, coins in enumerate(schedule.steps, start=1)
    ])


def edge_schedules():
    rng = np.random.default_rng(505)
    h = povm.HADAMARD_LIKE
    peel = povm.build_circuit([povm.IterationPair(random_unitary(rng), random_unitary(rng))
                               for _ in range(4)])
    one_step = walk.CoinSchedule([{0: random_unitary(rng)}])
    # one interferometer (1, 2); the paths never flipped run out to +/-T
    to_both_ends = walk.CoinSchedule([{0: h}, {-1: h, 1: h}, {0: h}] + [{}] * 5)
    return {
        "one-step": (one_step, None),
        "one-step-stray": (_stray_coins(one_step, rng), one_step),
        "peel-off-stray": (_stray_coins(peel, rng), peel),
        "support-to-both-ends": (to_both_ends, None),
    }


def assert_strays_act_on_nothing(schedule, without_strays, v):
    """Every engine gives the same answer with and without coins on empty sites."""
    assert walk.run(schedule, v) == walk.run(without_strays, v)
    assert povm.extract_povm(schedule).to_json() == povm.extract_povm(without_strays).to_json()
    assert optics.output_ports(schedule) == optics.output_ports(without_strays)
    assert optics.interferometers(schedule) == optics.interferometers(without_strays)
    got, want = optics.compile_netlist(schedule), optics.compile_netlist(without_strays)
    assert (got.ports, got.interferometers) == (want.ports, want.interferometers)


@pytest.mark.parametrize("name", list(edge_schedules()))
def test_run_density_edge_schedules(name):
    schedule, without_strays = edge_schedules()[name]
    rng = np.random.default_rng(11)
    v = _unit_vector(rng)
    for config in visibility_configs(schedule, rng, EAGER_VISIBILITIES):
        got = experiment.run_density(schedule, v, config)
        assert_same_distribution(got, oracle.run_density(schedule, v, config))
        assert_same_distribution(got, oracle.run_density_eager(schedule, v, config))
        if without_strays is not None:
            assert got == experiment.run_density(without_strays, v, config)
    if without_strays is not None:
        assert_strays_act_on_nothing(schedule, without_strays, v)
    t = schedule.n_steps
    if name == "support-to-both-ends":
        assert optics.interferometers(schedule) == [(1, 2)]
        assert got[-t] > 0.01 and got[t] > 0.01


def test_effects_are_k_dagger_k_of_each_port():
    # the one batched read-out equals a 2x2 product per port, bit for bit
    schedules = [s for pair in edge_schedules().values() for s in pair if s is not None]
    for schedule in schedules + all_schedules():
        t = schedule.n_steps
        kraus = walk._propagate(t, schedule.steps, walk.IDENTITY_COIN)
        effects = povm._effects(t, schedule.steps)
        assert effects.shape == (t + 1, 2, 2)
        for k in range(t + 1):
            assert np.array_equal(effects[k], kraus[k].conj().T @ kraus[k]), (t, k)


def test_coins_off_the_lattice_act_on_nothing():
    base = povm.scenario_schedule("trine")
    far = walk.CoinSchedule([{**coins, 100: walk.NOT_COIN, -100: walk.NOT_COIN}
                             for coins in base.steps])
    v = povm.NAMED_STATES["psi3-2"]
    assert_strays_act_on_nothing(far, base, v)
    cfg = ImperfectionConfig(visibilities={(1, 2): 0.9})
    assert experiment.run_density(far, v, cfg) == experiment.run_density(base, v, cfg)

