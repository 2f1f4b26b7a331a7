"""Tests for the evolution driver: schedules, traces, restarts, orders."""
import dataclasses
import math

import numpy as np
import pytest

from pite_sim.analysis import diagonalize, exact_ite_state, rlb
from pite_sim.circuit import build_grouped_step, build_pauli_step
from pite_sim.engine import (
    DensityMatrix,
    EvolutionAnnihilatedError,
    NoiseModel,
    StateVector,
    lower_step,
    make_rng,
    run_step_circuit,
)
from pite_sim.grouping import (
    GroupSpec,
    group_hamiltonian,
    ising_local_grouping,
    lih_groupspec,
    sum_block_minima,
)
from pite_sim.hamiltonian import (
    InitialState,
    PauliHamiltonian,
    PauliTerm,
    build_h2,
    build_ising,
    build_lih,
    prepare_initial,
)
from pite_sim.pite import (
    RunConfig,
    Schedule,
    TraceRecord,
    _check_trace,
    _step_circuits,
    _trajectory_average,
    check_capacity,
    run_generalized,
    run_pite,
)
from oracles import noisy_run, postselected_operator, postselected_run, singleton_groupspec


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(dt=0.0, n_steps=5)
    with pytest.raises(ValueError):
        Schedule(dt=0.1, n_steps=0)
    with pytest.raises(ValueError):
        Schedule(dt=0.1, n_steps=5, order=3)
    sched = Schedule.from_beta(2.0, 0.05)
    assert sched.n_steps == 40
    assert sched.beta == pytest.approx(2.0)
    assert Schedule.from_beta(0.01, 0.05).n_steps == 1
    for beta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            Schedule.from_beta(beta, 0.05)
    for dt in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            Schedule.from_beta(1.0, dt)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            Schedule(dt=dt, n_steps=1)


def test_config_validation():
    with pytest.raises(ValueError, match="seed"):
        RunConfig(mode="sample")
    with pytest.raises(ValueError, match="postselect"):
        RunConfig(mode="sample", seed=1, trajectories=4)
    with pytest.raises(ValueError, match="seed"):
        RunConfig(trajectories=4)
    with pytest.raises(ValueError, match="restart_budget"):
        RunConfig(mode="sample", seed=1, restart_budget=-1)
    for config in ({"mode": "sample"}, {"trajectories": 4}, {}):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            RunConfig(seed=-1, **config)
    # without noise every trajectory is the same noiseless run
    for noise in (None, NoiseModel(0.0, 0.0)):
        with pytest.raises(ValueError, match="trajectory mode needs a noise model"):
            RunConfig(noise=noise, seed=1, trajectories=4)
    assert RunConfig(seed=0).seed == 0
    assert RunConfig(mode="sample", seed=1, restart_budget=0).restart_budget == 0


def test_single_term_ground_state_is_fixed_point():
    # +Z has ground state |1>: energy stays -1, fidelity 1, prob0 = 1
    h = PauliHamiltonian(1, (PauliTerm.from_string(1.0, "Z"),))
    init = prepare_initial(InitialState.basis("1"), 1)
    res = run_pite(h, init, Schedule(dt=0.1, n_steps=10), RunConfig())
    energies = [r.energy for r in res.records]
    assert all(e == pytest.approx(-1.0, abs=1e-12) for e in energies)
    assert res.final.fidelity == pytest.approx(1.0, abs=1e-10)
    assert res.final.p_cum == pytest.approx(1.0, abs=1e-12)


def test_single_term_convergence_from_superposition():
    # single-term Trotter is exact: trace matches exact ITE at every record
    h = PauliHamiltonian(1, (PauliTerm.from_string(1.0, "X"),))
    init = prepare_initial(InitialState.basis("0"), 1)
    spec = diagonalize(h, init)
    res = run_pite(h, init, Schedule(dt=0.25, n_steps=20), RunConfig())
    energies = [r.energy for r in res.records]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert res.final.energy == pytest.approx(spec.e0, abs=1e-4)
    for rec in res.records:
        exact = exact_ite_state(h, init, rec.beta)
        assert rec.fidelity == pytest.approx(spec.fidelity_to_ground(exact), abs=1e-10)


def test_h2_run_converges():
    h = build_h2(0.75)
    init = prepare_initial(InitialState.basis("00"), 2)
    spec = diagonalize(h, init)
    res = run_pite(h, init, Schedule.from_beta(2.0, 0.05), RunConfig(), spectrum=spec)
    assert abs(res.final.energy - spec.e0) <= 1e-4
    assert res.final.fidelity > 0.9999


def test_trace_bookkeeping_invariants():
    h = build_h2(0.75)
    init = prepare_initial(InitialState.basis("00"), 2)
    res = run_pite(h, init, Schedule.from_beta(1.5, 0.1), RunConfig())
    pcums = [r.p_cum for r in res.records]
    assert all(b <= a for a, b in zip(pcums, pcums[1:]))
    for rec in res.records:
        assert rec.p_cum >= rec.rlb
        assert rec.rlb == pytest.approx(rlb(h, rec.beta), rel=1e-12)
    assert res.records[0].beta == 0.0
    assert res.records[0].p_cum == 1.0


def test_ground_init_probabilities_strictly_above_floor():
    h = build_h2(0.75)
    init = prepare_initial(InitialState.basis("00"), 2)
    spec = diagonalize(h, init)
    res = run_pite(
        h, spec.ground_basis[:, 0], Schedule(dt=0.1, n_steps=8), RunConfig(), spectrum=None
    )
    floor = math.exp(-4.0 * 0.1 * h.abs_coeff_sum)
    for prev, cur in zip(res.records, res.records[1:]):
        step_prob = cur.p_cum / prev.p_cum
        assert step_prob > floor  # equality only when a0 = 0, never here
    energies = [r.energy for r in res.records]
    # constant within first-order Trotter error at dt = 0.1
    assert max(energies) - min(energies) < 5e-4


def test_identity_offset_only_in_energy():
    base = build_h2(0.75)
    shifted = PauliHamiltonian(2, base.terms, base.identity_offset + 5.0)
    init = prepare_initial(InitialState.basis("00"), 2)
    r1 = run_pite(base, init, Schedule(dt=0.1, n_steps=5), RunConfig())
    r2 = run_pite(shifted, init, Schedule(dt=0.1, n_steps=5), RunConfig())
    for a, b in zip(r1.records, r2.records):
        assert b.energy - a.energy == pytest.approx(5.0, abs=1e-9)
        assert a.fidelity == pytest.approx(b.fidelity, abs=1e-12)
        assert a.p_cum == pytest.approx(b.p_cum, abs=1e-12)


def test_order2_sequence_is_palindrome():
    h = build_h2(0.75)
    sched = Schedule(dt=0.2, n_steps=1, order=2)
    circuits = _step_circuits(build_pauli_step, h.terms, sched)
    assert len(circuits) == 2 * h.n_terms
    ops = [postselected_operator(c) for c in circuits]
    forward = np.eye(4)
    for op in ops:
        forward = op @ forward
    backward = np.eye(4)
    for op in reversed(ops):
        backward = op @ backward
    assert np.abs(forward - backward).max() < 1e-12


def test_order2_beats_order1():
    h = build_h2(0.75)
    init = prepare_initial(InitialState.basis("00"), 2)
    exact = exact_ite_state(h, init, 1.0)
    devs = {}
    for order in (1, 2):
        res = run_pite(h, init, Schedule.from_beta(1.0, 0.2, order=order), RunConfig())
        # state-level deviation via the energy trace is too indirect; replay
        state = StateVector(2, init)
        sched = Schedule.from_beta(1.0, 0.2, order=order)
        circuits = _step_circuits(build_pauli_step, h.terms, sched)
        steps = [lower_step(c, state) for c in circuits]
        for _ in range(5):
            for step in steps:
                run_step_circuit(state, step)
        vec = state.data
        phase = np.vdot(exact, vec)
        vec = vec * np.exp(-1j * np.angle(phase))
        devs[order] = np.linalg.norm(vec - exact)
    assert devs[2] < devs[1] / 3.0


@pytest.mark.parametrize("order,expected", [(1, 2.0), (2, 4.0)])
def test_trotter_error_scaling(order, expected):
    h = build_h2(0.75)
    init = prepare_initial(InitialState.basis("00"), 2)
    exact = exact_ite_state(h, init, 1.0)

    def deviation(dt: float) -> float:
        state = StateVector(2, init)
        sched = Schedule.from_beta(1.0, dt, order=order)
        circuits = _step_circuits(build_pauli_step, h.terms, sched)
        steps = [lower_step(c, state) for c in circuits]
        for _ in range(sched.n_steps):
            for step in steps:
                run_step_circuit(state, step)
        vec = state.data
        phase = np.vdot(exact, vec)
        vec = vec * np.exp(-1j * np.angle(phase))
        return float(np.linalg.norm(vec - exact))

    d1, d2, d3 = deviation(0.2), deviation(0.1), deviation(0.05)
    assert d1 / d2 == pytest.approx(expected, rel=0.2)
    assert d2 / d3 == pytest.approx(expected, rel=0.2)


def test_fidelity_monotone_small_models():
    h = build_h2(0.75)
    init = prepare_initial(InitialState.basis("00"), 2)
    res = run_pite(h, init, Schedule.from_beta(2.0, 0.05), RunConfig())
    fids = [r.fidelity for r in res.records]
    assert all(b >= a - 1e-12 for a, b in zip(fids[1:], fids[2:]))


def test_generalized_singleton_matches_pauli():
    h = build_ising(4, 1.0, 1.2, 0.3)
    init = prepare_initial(InitialState.product(ising_params=(1.0, 1.2, 0.3)), 4)
    spec = diagonalize(h, init)
    blocks = group_hamiltonian(h, singleton_groupspec(h.n_terms))
    sched = Schedule.from_beta(1.0, 0.1)
    rp = run_pite(h, init, sched, RunConfig(), spectrum=spec)
    rg = run_generalized(h, blocks, init, sched, RunConfig(), spectrum=spec)
    for a, b in zip(rp.records, rg.records):
        assert b.energy == pytest.approx(a.energy, abs=1e-9)
        assert b.fidelity == pytest.approx(a.fidelity, abs=1e-9)
        assert b.p_cum == pytest.approx(a.p_cum, abs=1e-9)


def test_generalized_grouping_raises_success_probability():
    n, J, g, hf = 6, 1.0, 1.2, 0.3
    h = build_ising(n, J, g, hf)
    init = prepare_initial(InitialState.product(ising_params=(J, g, hf)), n)
    spec = diagonalize(h, init)
    _, blocks = ising_local_grouping(n, J, g, hf)
    sched = Schedule.from_beta(2.0, 0.1)
    rp = run_pite(h, init, sched, RunConfig(), spectrum=spec)
    rg = run_generalized(h, blocks, init, sched, RunConfig(), spectrum=spec)
    assert rg.final.p_cum > rp.final.p_cum
    # grouping barely moves the energy error (both are Trotterized results)
    exact = exact_ite_state(h, init, sched.beta)
    e_ite = float(np.real(np.vdot(exact, h.dense_matrix() @ exact)))
    assert abs(rg.final.energy - e_ite) < 0.05
    assert abs(rp.final.energy - e_ite) < 0.05
    for rec in rg.records:
        assert rec.p_cum >= rec.rlb


def test_generalized_lih_runs_to_completion():
    from pite_sim.grouping import lih_groupspec

    h = build_lih()
    init = prepare_initial(
        InitialState.superposition([(math.sqrt(0.99), "110000"), (0.1, "000011")]), 6
    )
    blocks = group_hamiltonian(h, lih_groupspec())
    assert max(len(b.support) for b in blocks) <= 6
    res = run_generalized(h, blocks, init, Schedule.from_beta(0.5, 0.1), RunConfig())
    assert res.completed
    assert res.final.energy < res.records[0].energy


def test_sampled_ground_state_no_restarts():
    h = PauliHamiltonian(1, (PauliTerm.from_string(1.0, "Z"),))
    init = prepare_initial(InitialState.basis("1"), 1)
    res = run_pite(h, init, Schedule(dt=0.1, n_steps=5), RunConfig(mode="sample", seed=3))
    assert res.completed
    assert res.restarts == 0
    assert res.final.restarts == 0


def test_sampled_geometric_restarts():
    # prob0 = 1/2 per run: one measurement, expected one restart per success
    h = PauliHamiltonian(1, (PauliTerm.from_string(1.0, "Z"),))
    init = prepare_initial(InitialState.basis("0"), 1)  # fully excited
    dt = math.log(2.0) / 4.0
    restarts = []
    for seed in range(300):
        res = run_pite(
            h, init, Schedule(dt=dt, n_steps=1),
            RunConfig(mode="sample", seed=seed, restart_budget=200),
        )
        assert res.completed
        restarts.append(res.restarts)
    mean = np.mean(restarts)
    # geometric with p = 1/2: mean 1, sem ~ sqrt(2)/sqrt(300) ~ 0.082
    assert mean == pytest.approx(1.0, abs=0.3)


def test_sampled_budget_exhausted():
    h = PauliHamiltonian(1, (PauliTerm.from_string(5.0, "Z"),))
    init = prepare_initial(InitialState.basis("0"), 1)  # prob0 = e^{-4}
    res = run_pite(
        h, init, Schedule(dt=0.2, n_steps=3),
        RunConfig(mode="sample", seed=11, restart_budget=2),
    )
    assert not res.completed
    assert res.restarts == 2


def direct_sampled_run(start, circuits, noise, n_steps, seed, budget):
    """The restart loop run attempt by attempt, every measurement sampled
    on the state itself: one draw, read as outcome 0 when it falls below
    the prob0 of the step run on the attempt's state, a step that
    annihilates reading 1. Returns (restarts, completed, Trotter steps
    completed by the returned attempt)."""
    steps = [lower_step(c, start, noise) for c in circuits]
    rng = make_rng(seed)

    def sampled_zero(state, step):
        r = rng.random()
        try:
            return r < run_step_circuit(state, step)
        except EvolutionAnnihilatedError:
            return False

    restarts = 0
    while True:
        state, done = start.copy(), 0
        while done < n_steps and all(sampled_zero(state, b) for b in steps):
            done += 1
        if done == n_steps:
            return restarts, True, done
        restarts += 1
        if restarts > budget:
            return restarts - 1, False, done


def _sampled_case(case):
    """(Hamiltonian, initial state, schedule, blocks or None, noise)."""
    if case == "lih-grouped":
        h = build_lih()
        init = prepare_initial(
            InitialState.superposition([(math.sqrt(0.99), "110000"), (0.1, "000011")]), 6
        )
        return h, init, Schedule(dt=0.1, n_steps=4), group_hamiltonian(h, lih_groupspec()), None
    h = build_h2(0.75)
    init = prepare_initial(InitialState.superposition([(0.6, "01"), (0.8, "10")]), 2)
    noise = NoiseModel(0.02, 0.05) if case == "h2-noisy" else None
    return h, init, Schedule(dt=0.3, n_steps=6), None, noise


@pytest.mark.parametrize("case", ["h2", "h2-noisy", "lih-grouped"])
@pytest.mark.parametrize("budget", [1000, 0])
def test_replayed_restarts_match_the_attempts(case, budget):
    # a sampled run replays its restarts from one postselected pass; the
    # attempts themselves must give the same restarts at every seed
    h, init, sched, blocks, noise = _sampled_case(case)
    spec = diagonalize(h, init)

    def run(config):
        if blocks is not None:
            return run_generalized(h, blocks, init, sched, config, spectrum=spec)
        return run_pite(h, init, sched, config, spectrum=spec)

    postselected = run(RunConfig(noise=noise))
    if blocks is not None:
        circuits = _step_circuits(build_grouped_step, blocks, sched)
    else:
        circuits = _step_circuits(build_pauli_step, h.terms, sched)
    if noise is None:
        start = StateVector(h.n_qubits, init)
    else:
        start = DensityMatrix(h.n_qubits, np.outer(init, init.conj()))
    outcomes = set()
    for seed in range(12):
        res = run(RunConfig(mode="sample", noise=noise, seed=seed, restart_budget=budget))
        restarts, completed, done = direct_sampled_run(
            start, circuits, noise, sched.n_steps, seed, budget
        )
        assert (res.restarts, res.completed) == (restarts, completed)
        assert [r.step for r in res.records] == list(range(done + 1))
        for got, want in zip(res.records, postselected.records):
            assert got == dataclasses.replace(want, restarts=restarts)
        outcomes.add((restarts, completed))
    if budget:  # some seeds restart
        assert any(restarts for restarts, _ in outcomes)
    else:  # and some run out of budget 0
        assert (0, False) in outcomes


def test_sampled_run_whose_pass_annihilates_samples_directly():
    # +5 Z on |0> has prob0 = e^{-40}: the postselected pass annihilates
    # there, and the run's replay of that pass must exhaust its budget
    # exactly as drawing attempt by attempt does. In the two-qubit case a
    # measurement with prob0 ~ 0.5 comes first, so attempts fail at either.
    z = PauliTerm.from_string(5.0, "Z")
    x_then_z = (PauliTerm.from_string(0.5, "IX"), PauliTerm.from_string(5.0, "ZI"))
    sched = Schedule(dt=2.0, n_steps=2)
    for h, bits in ((PauliHamiltonian(1, (z,)), "0"), (PauliHamiltonian(2, x_then_z), "00")):
        init = prepare_initial(InitialState.basis(bits), h.n_qubits)
        with pytest.raises(EvolutionAnnihilatedError):
            run_pite(h, init, sched, RunConfig())
        start = StateVector(h.n_qubits, init)
        for budget in (0, 1, 3):
            for seed in range(8):
                res = run_pite(
                    h, init, sched, RunConfig(mode="sample", seed=seed, restart_budget=budget)
                )
                restarts, completed, done = direct_sampled_run(
                    start, _step_circuits(build_pauli_step, h.terms, sched), None,
                    sched.n_steps, seed, budget,
                )
                assert (res.restarts, res.completed) == (restarts, completed) == (budget, False)
                assert [r.step for r in res.records] == list(range(done + 1)) == [0]


def test_sampled_success_fraction_matches_postselect():
    h = build_h2(0.75)
    init = prepare_initial(InitialState.basis("00"), 2)
    spec = diagonalize(h, init)
    sched = Schedule.from_beta(1.0, 0.2)
    p_cum = run_pite(h, init, sched, RunConfig(), spectrum=spec).final.p_cum
    wins = 0
    n_runs = 1000
    for seed in range(n_runs):
        res = run_pite(
            h, init, sched,
            RunConfig(mode="sample", seed=seed, restart_budget=0),
            spectrum=spec,
        )
        wins += int(res.completed)
    fraction = wins / n_runs
    sigma = math.sqrt(p_cum * (1 - p_cum) / n_runs)
    assert abs(fraction - p_cum) <= 3 * sigma


def test_trajectory_mode_close_to_density():
    h = build_h2(0.75)
    init = prepare_initial(InitialState.basis("00"), 2)
    spec = diagonalize(h, init)
    sched = Schedule.from_beta(1.0, 0.1)
    noise = NoiseModel(5e-3, 5e-3)
    dens = run_pite(h, init, sched, RunConfig(noise=noise), spectrum=spec)
    traj = run_pite(
        h, init, sched,
        RunConfig(noise=noise, seed=21, trajectories=200),
        spectrum=spec,
    )
    assert traj.final.energy == pytest.approx(dens.final.energy, abs=0.02)
    assert traj.final.p_cum == pytest.approx(dens.final.p_cum, abs=0.05)


def test_trajectory_survives_annihilated_trajectories():
    # strong relaxation (eps_r = 0.1) on all 200 trajectories; any whose
    # ancilla-0 probability falls below the annihilation threshold drops
    # to weight 0 instead of ending the run
    h = build_h2(0.75)
    init = prepare_initial(InitialState.basis("00"), 2)
    spec = diagonalize(h, init)
    sched = Schedule.from_beta(1.0, 0.1)
    noise = NoiseModel(0.1, 1e-5)
    dens = run_pite(h, init, sched, RunConfig(noise=noise), spectrum=spec)
    traj = run_pite(
        h, init, sched,
        RunConfig(noise=noise, seed=21, trajectories=200),
        spectrum=spec,
    )
    assert traj.completed
    assert [r.step for r in traj.records] == [r.step for r in dens.records]
    assert traj.final.p_cum == pytest.approx(dens.final.p_cum, abs=0.05)
    assert traj.final.energy == pytest.approx(dens.final.energy, abs=0.05)


def test_trajectory_average_weights():
    def row(step: int, p_cum: float, energy: float) -> TraceRecord:
        return TraceRecord(step, 0.1 * step, energy, 0.5, p_cum, 0.0, 0.0, 0)

    def stub(*runs):
        queue = list(runs)
        return lambda rng: queue.pop(0)

    config = RunConfig(noise=NoiseModel(0.1, 0.0), seed=0, trajectories=2)
    # the second trajectory annihilates after step 0: weight 0 from step 1
    result = _trajectory_average(
        stub(([row(0, 1.0, -1.0), row(1, 0.5, -2.0)], True), ([row(0, 1.0, -3.0)], False)),
        config,
    )
    assert [r.energy for r in result.records] == [-2.0, -2.0]
    assert [r.p_cum for r in result.records] == [1.0, 0.25]
    with pytest.raises(EvolutionAnnihilatedError, match="every trajectory annihilated"):
        _trajectory_average(
            stub(([row(0, 1.0, -1.0)], False), ([row(0, 1.0, -3.0)], False)), config
        )
    with pytest.raises(EvolutionAnnihilatedError, match="weight 0 at step 1"):
        _trajectory_average(
            stub(([row(0, 1.0, -1.0), row(1, 0.0, -2.0)], True), ([row(0, 1.0, -3.0)], False)),
            config,
        )


def test_trajectory_streams_are_independent():
    def first_draws(seed: int) -> list[float]:
        draws = []

        def attempt(rng):
            draws.append(rng.random())
            return [TraceRecord(0, 0.0, -1.0, 0.5, 1.0, 0.0, 0.0, 0)], True

        config = RunConfig(noise=NoiseModel(0.1, 0.0), seed=seed, trajectories=20)
        _trajectory_average(attempt, config)
        return draws

    draws = first_draws(3)
    assert len(set(draws)) == 20
    assert not set(draws) & set(first_draws(4))
    assert first_draws(3) == draws


def test_record_cadence():
    h = build_h2(0.75)
    init = prepare_initial(InitialState.basis("00"), 2)
    res = run_pite(h, init, Schedule(dt=0.1, n_steps=10), RunConfig(record_every=4))
    assert [r.step for r in res.records] == [0, 4, 8, 10]


def test_density_limit_enforced():
    # 12 work qubits pass the check (nothing is built here); 13 do not
    config = RunConfig(noise=NoiseModel(1e-5, 1e-5))
    check_capacity(build_ising(12, 1.0, 0.5, 0.0), config)
    h = build_ising(13, 1.0, 0.5, 0.0)
    init = prepare_initial(InitialState.basis("0" * 13), 13)
    with pytest.raises(ValueError, match="limited to 12 qubits, got 13"):
        run_pite(
            h, init, Schedule(dt=0.1, n_steps=1), config,
        )


@pytest.mark.parametrize("order", [1, 2])
def test_step_circuits_are_lowered_once_per_run(order, monkeypatch):
    """Lowering happens once per run, not once per measurement: a LiH run
    of three Trotter steps (183 or 366 measurements) hashes each step
    circuit at most once."""
    from pite_sim.circuit import Circuit

    calls = []
    hash_circuit = Circuit.__hash__

    def counting_hash(self):
        calls.append(self)
        return hash_circuit(self)

    monkeypatch.setattr(Circuit, "__hash__", counting_hash)
    h = build_lih()
    init = prepare_initial(InitialState.basis("110000"), 6)
    result = run_pite(h, init, Schedule(dt=0.05, n_steps=3, order=order), RunConfig())
    assert result.completed
    assert len(calls) <= len(h.terms)


def test_density_trace_is_checked_at_every_record(monkeypatch):
    """A density-matrix record raises when |tr rho - 1| exceeds 1e-9: here
    the stored diagonal is perturbed right after the last measurement of
    Trotter step 2, away from the trace the matrix carries (a later step
    would take the change into its prob0, its output's trace over the
    carried one, and carry its output's trace from then on)."""
    import pite_sim.pite as pite_module

    h = build_ising(4, 1.0, 1.2, 0.3)
    init = prepare_initial(InitialState.product(ising_params=(1.0, 1.2, 0.3)), 4)
    config = RunConfig(noise=NoiseModel(1e-3, 2e-3))
    sched = Schedule(dt=0.05, n_steps=4)
    run_step = pite_module.run_step_circuit
    for shift, raises in ((1e-10, False), (2e-9, True)):
        calls = []

        def perturbing(state, step, rng, shift=shift):
            result = run_step(state, step, rng=rng)
            calls.append(step)
            if len(calls) == 2 * len(h.terms):
                state._stored.reshape(-1)[0] += shift  # entry (0, 0) in any order
            return result

        monkeypatch.setattr(pite_module, "run_step_circuit", perturbing)
        if raises:
            with pytest.raises(ValueError, match="trace .* at Trotter step 2 "):
                run_pite(h, init, sched, config)
        else:
            assert run_pite(h, init, sched, config).completed


@pytest.mark.parametrize("trajectories", [None, 2])
def test_statevector_record_rejects_a_carried_norm_that_drifted(trajectories, monkeypatch):
    """A statevector keeps its vector unnormalized beside the squared norm
    it carries. When that norm no longer matches the vector, the next
    record raises, naming its Trotter step (a step would measure against
    it first, then carry its branch's own norm); a drift of 1e-12 passes.
    """
    import pite_sim.pite as pite_module

    h = build_h2(0.75)
    init = prepare_initial(InitialState.basis("00"), 2)
    sched = Schedule(dt=0.1, n_steps=3)
    noise = NoiseModel(1e-3, 1e-3) if trajectories else None
    config = RunConfig(noise=noise, trajectories=trajectories, seed=0 if trajectories else None)
    run_step = pite_module.run_step_circuit
    for factor, raises in ((1.0 + 1e-6, True), (1.0 + 1e-12, False)):
        calls = []

        def drifting(state, step, rng, factor=factor):
            result = run_step(state, step, rng)
            calls.append(step)
            if len(calls) == 2 * len(h.terms):  # the last step before record 2
                state._weight *= factor
            return result

        monkeypatch.setattr(pite_module, "run_step_circuit", drifting)
        if raises:
            with pytest.raises(ValueError, match=r"statevector squared norm .* at Trotter step 2 "):
                run_pite(h, init, sched, config)
        else:
            assert run_pite(h, init, sched, config).completed


def test_density_trace_check_rejects_nan():
    # a NaN trace must fail the tolerance, not compare as within it
    state = DensityMatrix(1)
    _check_trace(state, 0)
    state._stored.reshape(-1)[0] = np.nan
    with pytest.raises(ValueError, match="trace nan at Trotter step 3"):
        _check_trace(state, 3)


def test_noisy_run_holds_at_most_one_projector(monkeypatch):
    """A noisy Ising run reads its fidelity records without a flush, from
    one adjoint ground projector that the state builds once, since every
    record after a Trotter step finds the same owed counts (a record that
    finds another stored order, as the first Trotter step leaves one,
    moves the projector it holds), and holds alone."""
    import pite_sim.engine as engine

    builds, states = [], []
    build = engine._adjoint_projector
    weight = DensityMatrix.subspace_weight
    monkeypatch.setattr(
        engine, "_adjoint_projector", lambda *args: builds.append(args[2:]) or build(*args)
    )
    monkeypatch.setattr(
        DensityMatrix, "subspace_weight", lambda self, basis: states.append(self) or weight(self, basis)
    )
    h = build_ising(5, 1.0, 1.2, 0.3)
    init = prepare_initial(InitialState.product(ising_params=(1.0, 1.2, 0.3)), 5)
    res = run_pite(h, init, Schedule(dt=0.05, n_steps=4), RunConfig(noise=NoiseModel(1e-3, 2e-3)))
    assert len(res.records) == 5 and len(set(map(id, states))) == 1
    (owed, order), = builds
    assert any(owed) and order is not None
    # the adjoint diagonals are a (masks, 2^n) stack; only a projector has 4^n entries
    held = [entry[2] for entry in states[0]._reads.values() if entry[2].size == 4**5]
    assert len(held) == 1 and set(states[0]._reads) == {"projector", "diagonals"}


@pytest.mark.parametrize("dt", [0.05, 0.02])
@pytest.mark.parametrize("model, beta", [("lih", 6.0), ("lih-22", 6.0), ("ising8", 2.0)])
def test_success_probability_decays_at_the_alb_rate(model, beta, dt):
    """The paper's success-probability law on a noiseless postselected
    trace: once the state has relaxed to the ground state, ln p_cum falls
    at the ALB's leading rate, d ln p_cum / d beta = -2 (E_G - sum_k
    lambda[k]_0), E_G without the identity offset, lambda[k]_0 = -|c_k|
    per term or the block minima when grouped. The rate is read over the
    tail beta/2..beta (LiH from its superposition start, Ising n=8 from
    its product state).

    Measured relative deviations at dt 0.05 / 0.02: LiH per term 1.1e-5 /
    1.3e-5 and grouped (lih-22) 3.2e-5 / 3.9e-5, where the state has not
    quite relaxed by beta 3 and dt plays no part; Ising 1.38e-3 / 2.33e-4,
    the first-order Trotter error, which falls as 0.55-0.58 dt^2. The
    tolerance 1e-4 + dt^2 holds the relaxation under its floor and the
    Trotter part with a margin of 1.8 or more."""
    if model == "ising8":
        h = build_ising(8, 1.0, 1.2, 0.3)
        init = prepare_initial(InitialState.product(ising_params=(1.0, 1.2, 0.3)), 8)
    else:
        h = build_lih()
        spec = InitialState.superposition([(math.sqrt(0.99), "110000"), (0.1, "000011")])
        init = prepare_initial(spec, 6)
    schedule = Schedule.from_beta(beta, dt, 1)
    if model == "lih-22":
        blocks = group_hamiltonian(h, lih_groupspec())
        minima = sum_block_minima(blocks)
        result = run_generalized(h, blocks, init, schedule, RunConfig())
    else:
        minima = -h.abs_coeff_sum
        result = run_pite(h, init, schedule, RunConfig())
    rate = -2.0 * (diagonalize(h, init).e0 - h.identity_offset - minima)
    half = result.records[len(result.records) // 2]
    final = result.final
    measured = math.log(final.p_cum / half.p_cum) / (final.beta - half.beta)
    assert measured == pytest.approx(rate, rel=1e-4 + dt**2)


@pytest.mark.parametrize("noise", [None, NoiseModel(1e-3, 1e-3)], ids=["statevector", "density"])
def test_run_rejects_an_initial_state_off_unit_norm(noise):
    """Steps read the state normalized, so an init of squared norm 0.36
    would record fidelity 0.355 at beta 0 and the normalized state after
    it; the run refuses it instead, with the norm in the message."""
    h = build_h2(0.75)
    schedule, config = Schedule.from_beta(0.2, 0.05), RunConfig(noise=noise)
    with pytest.raises(ValueError, match=r"squared norm 0\.36 is off 1"):
        run_pite(h, np.array([0.6, 0.0, 0.0, 0.0]), schedule, config)
    blocks = group_hamiltonian(h, singleton_groupspec(h.n_terms))
    with pytest.raises(ValueError, match="squared norm nan"):
        run_generalized(h, blocks, np.array([np.nan, 0.0, 0.0, 0.0]), schedule, config)
    # within the tolerance a run starts
    init = np.array([math.sqrt(1.0 + 5e-10), 0.0, 0.0, 0.0])
    assert run_pite(h, init, schedule, config).completed


@pytest.mark.parametrize("kind", ["float64", "complex exact real", "complex"])
def test_runs_leave_init_unchanged(kind):
    """A single pass steps a start state of its own, and each trajectory
    a copy of it, so the caller's ``init`` comes back bit for bit after
    postselected and sampled runs on either state type and after
    trajectories, whether it is float64 or complex (with or without an
    imaginary part)."""
    h = build_lih()
    rng = np.random.default_rng(33)
    init = rng.standard_normal(2**h.n_qubits)
    if kind != "float64":
        init = init * (np.exp(0.3j) if kind == "complex" else 1.0 + 0j)
    init /= np.linalg.norm(init)
    before = init.copy()
    schedule, model = Schedule(dt=0.05, n_steps=3), NoiseModel(1e-3, 2e-3)
    configs = [
        RunConfig(),
        RunConfig(mode="sample", seed=4),
        RunConfig(noise=model),
        RunConfig(mode="sample", seed=4, noise=model),
        RunConfig(noise=model, trajectories=3, seed=5),
    ]
    blocks = group_hamiltonian(h, lih_groupspec())
    for config in configs:
        assert run_pite(h, init, schedule, config).records, config
        assert init.tobytes() == before.tobytes(), config
        assert run_generalized(h, blocks, init, schedule, config).records, config
        assert init.tobytes() == before.tobytes(), config


def random_model(n: int, seed: int) -> PauliHamiltonian:
    """2n random Pauli terms on n qubits, coefficients of alternating
    sign, the first of them with one Y factor and the second with three
    (odd Y counts, whose K0s are complex)."""
    rng = np.random.default_rng(seed)
    terms = []
    for k in range(2 * n):
        while True:
            axes = "".join(rng.choice(list("IXYZ"), size=n))
            if k < 2:
                axes = "Y" * (2 * k + 1) + axes[2 * k + 1 :].replace("Y", "Z")
            if set(axes) != {"I"}:
                break
        sign = 1.0 if k % 2 else -1.0
        terms.append(PauliTerm.from_string(sign * float(rng.uniform(0.2, 1.0)), axes))
    return PauliHamiltonian(n, tuple(terms), identity_offset=0.3)


def oracle_case(model: str):
    """(h, init) of a run oracle case: H2, or a random model on 3 (real
    init), 4 or 5 (complex init) qubits."""
    if model == "h2":
        return build_h2(0.75), prepare_initial(InitialState.basis("00"), 2)
    n = int(model[-1])
    rng = np.random.default_rng(n)
    init = rng.standard_normal(2**n) + (1j * rng.standard_normal(2**n) if n > 3 else 0.0)
    return random_model(n, seed=n), init / np.linalg.norm(init)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("grouped", [False, True], ids=["per-term", "pairs"])
@pytest.mark.parametrize("model", ["h2", "random3", "random4", "random5"])
def test_noiseless_run_equals_the_product_of_postselected_operators(model, grouped, order):
    """Every record of a noiseless postselected statevector run, per term
    or over groups of two consecutive terms, at Trotter order 1 or 2,
    equals the run oracle's (``oracles.postselected_run``): the product
    of the step circuits' dense post-selected operators applied to
    ``init``. This checks synthesis, lowering and the K0 step against
    the circuits' own definition, on real and complex K0s and states.
    Over these 16 runs the largest differences measured were 1.8e-15 in
    energy, 1.0e-15 in fidelity and 2.1e-13 relative in p_cum (per term
    at order 2, 12 steps of 10 or more measurements each); the bounds
    are about five times those."""
    h, init = oracle_case(model)
    schedule = Schedule(dt=0.1, n_steps=12, order=order)
    if grouped:
        ends = range(1, h.n_terms + 1, 2)
        pairs = GroupSpec(tuple(tuple(range(k, min(k + 2, h.n_terms + 1))) for k in ends))
        blocks = group_hamiltonian(h, pairs)
        result = run_generalized(h, blocks, init, schedule)
        circuits = _oracle_step(build_grouped_step, blocks, schedule)
    else:
        result = run_pite(h, init, schedule)
        circuits = _oracle_step(build_pauli_step, h.terms, schedule)
    want = postselected_run(h, circuits, init, schedule.n_steps)
    assert len(result.records) == len(want)
    worst = [0.0, 0.0, 0.0]
    for record, (energy, fidelity, p_cum) in zip(result.records, want):
        worst[0] = max(worst[0], abs(record.energy - energy))
        worst[1] = max(worst[1], abs(record.fidelity - fidelity))
        worst[2] = max(worst[2], abs(record.p_cum - p_cum) / p_cum)
    assert worst[0] < 1e-14 and worst[1] < 1e-14 and worst[2] < 1e-12, worst


# (SUPEROP_MAX_SUPPORT, MASK_STACK_MAX_SUPPORT) under which every step of
# a 3- or 4-qubit model lowers to one density-matrix step form
DENSITY_FORMS = {"superop": (4, 4), "x-mask": (0, 4), "pass": (0, 0)}


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("form", list(DENSITY_FORMS))
@pytest.mark.parametrize("model", ["random3", "random4"])
def test_noisy_density_run_equals_the_kraus_sum_of_its_circuits(model, form, order, monkeypatch):
    """Every record of a noisy density-matrix run, per term, at Trotter
    order 1 or 2, with every step lowered to one form (superoperator,
    X-mask stack or passes), equals the noisy run oracle's
    (``oracles.noisy_run``): each step circuit's dense Kraus sum on the
    work register and the ancilla, the channel on every qubit at every
    step. This checks synthesis, lowering, the step forms and the owed
    channel, folded over several steps and read by the records without a
    flush, against the circuits' own definition. Over these 12 runs the
    largest differences measured were 2.0e-15 in energy, 6.7e-16 in
    fidelity and 1.2e-14 relative in p_cum (order 2, X-mask form); the
    bounds are about five times those."""
    import pite_sim.engine as engine
    from pite_sim import pite

    superop, stack = DENSITY_FORMS[form]
    monkeypatch.setattr(engine, "SUPEROP_MAX_SUPPORT", superop)
    monkeypatch.setattr(engine, "MASK_STACK_MAX_SUPPORT", stack)
    forms, lower = set(), pite.lower_step

    def lowered(*args):
        step = lower(*args)
        forms.add(type(step))
        return step

    monkeypatch.setattr(pite, "lower_step", lowered)
    h, init = oracle_case(model)
    noise = NoiseModel(0.02, 0.03)
    schedule = Schedule(dt=0.1, n_steps=5, order=order)
    result = run_pite(h, init, schedule, RunConfig(noise=noise))
    assert forms == {{"superop": engine.SuperopStep, "x-mask": engine.MaskSandwichStep,
                      "pass": engine.PassSandwichStep}[form]}
    circuits = _oracle_step(build_pauli_step, h.terms, schedule)
    want = noisy_run(h, circuits, init, schedule.n_steps, noise.kraus_operators())
    assert len(result.records) == len(want)
    worst = [0.0, 0.0, 0.0]
    for record, (energy, fidelity, p_cum) in zip(result.records, want):
        worst[0] = max(worst[0], abs(record.energy - energy))
        worst[1] = max(worst[1], abs(record.fidelity - fidelity))
        worst[2] = max(worst[2], abs(record.p_cum - p_cum) / p_cum)
    assert worst[0] < 1e-14 and worst[1] < 3.5e-15 and worst[2] < 6e-14, worst


def _oracle_step(build, items, schedule: Schedule) -> list:
    """One Trotter step's circuits, built here from the schedule's
    definition: each item at dt, or at order 2 each at dt/2 and then
    again in reverse."""
    if schedule.order == 1:
        return [build(item, schedule.dt) for item in items]
    half = [build(item, schedule.dt / 2) for item in items]
    return half + half[::-1]
