"""Evolution driver: Trotter scheduling, per-term step execution with
success-probability accounting, sampled-mode restarts and trace records.

A run applies one step circuit per Hamiltonian term (or per grouped block)
for each Trotter step, measuring the ancilla after every term. The product
of all ancilla-0 probabilities is the run's cumulative success
probability; it is recorded next to the rigorous and approximate lower
bounds so traces can be checked against them row by row.

``run_pite`` (one step circuit per Pauli term) and ``run_generalized``
(one per grouped block) are thin wrappers over one driver, ``_run``. They
differ only in the step builder, the terms or blocks it builds from, and
sum_k lambda[k]_0 of the recorded ALB column.

The identity offset of the Hamiltonian never enters the circuits; it is
added back when energies are reported.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analysis
from .analysis import SpectrumInfo
from .circuit import Circuit, build_grouped_step, build_pauli_step, check_time
from .engine import (
    DensityMatrix,
    EvolutionAnnihilatedError,
    NoiseModel,
    StateVector,
    lower_step,
    make_rng,
    run_step_circuit,
)
from .grouping import GroupedBlock, sum_block_minima
from .hamiltonian import PauliHamiltonian, real_if_exact

__all__ = [
    "Schedule",
    "RunConfig",
    "TraceRecord",
    "RunResult",
    "run_pite",
    "run_generalized",
    "replay_restarts",
    "check_capacity",
]


@dataclass(frozen=True)
class Schedule:
    """Imaginary-time grid: ``n_steps`` Trotter steps of size ``dt``."""

    dt: float
    n_steps: int
    order: int = 1

    def __post_init__(self) -> None:
        check_time("dt", self.dt)
        if self.n_steps < 1:
            raise ValueError("need at least one step")
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")

    @property
    def beta(self) -> float:
        return self.dt * self.n_steps

    @staticmethod
    def from_beta(beta: float, dt: float, order: int = 1) -> "Schedule":
        """The grid of step ``dt`` that reaches ``beta`` to the nearest
        step (one step at least)."""
        schedule = Schedule(dt=dt, n_steps=1, order=order)  # checks dt and order
        check_time("beta", beta)
        return dataclasses.replace(schedule, n_steps=max(1, round(beta / dt)))


@dataclass(frozen=True)
class RunConfig:
    mode: str = "postselect"  # or "sample"
    noise: NoiseModel | None = None
    seed: int | None = None
    record_every: int = 1
    restart_budget: int = 1000
    trajectories: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("postselect", "sample"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "sample" and self.seed is None:
            raise ValueError("sample mode needs a seed")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.trajectories is not None:
            if self.trajectories < 1:
                raise ValueError("trajectory count must be positive")
            if self.seed is None:
                raise ValueError("trajectory mode needs a seed")
            if self.mode == "sample":
                raise ValueError("trajectory mode supports postselect only")
            if self.noise is None or self.noise.is_identity:
                # every trajectory would be the same noiseless run
                raise ValueError("trajectory mode needs a noise model that is not the identity")
        if self.record_every < 1:
            raise ValueError("record_every must be positive")
        if self.restart_budget < 0:
            raise ValueError("restart_budget must be nonnegative")


@dataclass(frozen=True)
class TraceRecord:
    step: int
    beta: float
    energy: float
    fidelity: float
    p_cum: float
    rlb: float
    alb: float
    restarts: int


@dataclass
class RunResult:
    records: list[TraceRecord]
    restarts: int
    completed: bool

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]


def _step_circuits(build: Callable, items, schedule: Schedule) -> list[Circuit]:
    """Circuits of one Trotter step, ``build(item, dt)`` per term or block
    in ``items``, in execution order.

    Order 1 walks the items once with dt; order 2 walks them with dt/2 and
    then again in reverse (the palindromic product)."""
    if schedule.order == 1:
        return [build(item, schedule.dt) for item in items]
    half = [build(item, schedule.dt / 2.0) for item in items]
    return half + half[::-1]


def _work_fidelity(state: StateVector | DensityMatrix, spectrum: SpectrumInfo) -> float:
    if isinstance(state, DensityMatrix):
        return state.subspace_weight(spectrum.ground_basis)
    return spectrum.fidelity_to_ground(state.data)


# Largest |tr rho - 1| (on a statevector, | |psi|^2 - 1 |) a trace record
# accepts, and the largest |<init|init> - 1| a run starts from
TRACE_TOLERANCE = 1e-9


def _check_trace(state: StateVector | DensityMatrix, step: int) -> None:
    """Raise ``ValueError`` when the trace of ``state`` is off 1 by more
    than ``TRACE_TOLERANCE``: tr rho on a density matrix, and on a
    statevector |psi|^2 of ``data``, the stored vector divided by the
    squared norm it carries. Every step keeps it at 1 (noisy LiH after
    4880 steps is off by 4.4e-16; noiseless LiH, per term and grouped, by
    at most 4.4e-16 at any record, H2 by 3.3e-16 over 400 steps and LiH
    trajectories by 1.3e-15), so more means broken arithmetic, such as a
    carried norm that no longer matches its vector. On a statevector the
    check is one ``vdot`` after the flush the record makes anyway
    (1.2 us on LiH's 64 entries)."""
    if isinstance(state, DensityMatrix):
        trace, name = state.trace(), "density-matrix trace"
    else:
        psi = state.data
        trace, name = float(np.vdot(psi, psi).real), "statevector squared norm"
    if not abs(trace - 1.0) <= TRACE_TOLERANCE:  # NaN fails too
        raise ValueError(
            f"{name} {trace!r} at Trotter step {step} is off 1 by more than {TRACE_TOLERANCE}"
        )


def replay_restarts(
    records: list[TraceRecord],
    probs: np.ndarray,
    per_step: int,
    budget: int,
    rng: np.random.Generator,
) -> RunResult:
    """The restart loop of a sampled run, replayed from one postselected
    pass: its ``records`` and the ancilla-0 probability ``probs[i]`` of
    each measurement, ``per_step`` measurements per Trotter step.

    A sampled run measures without sampled noise (a noisy sampled run is
    a density matrix), so every prob0 is deterministic, a sampled 0
    leaves the state that postselection leaves, and each measurement
    takes exactly one ``rng.random()``. An attempt therefore fails at its
    first measurement i whose draw is >= probs[i], the next attempt draws
    on from there, and the successful attempt's trace is the pass's: the
    result equals the restart loop run attempt by attempt, drawing each
    outcome against the prob0 of the step just run. A pass that
    annihilates ends its ``probs`` with 0.0, which no draw passes, so
    every attempt that gets that far fails there and the budget runs out.
    """
    draws = np.empty(0)
    restarts = 0
    while True:
        if len(draws) < len(probs):
            draws = np.concatenate([draws, rng.random(len(probs) - len(draws))])
        failed = np.flatnonzero(draws[: len(probs)] >= probs)
        if failed.size == 0:
            return RunResult(records=records, restarts=restarts, completed=True)
        restarts += 1
        if restarts > budget:
            # the last attempt's trace: the steps completed before it failed
            done = int(failed[0]) // per_step
            partial = [r for r in records if r.step <= done]
            return RunResult(records=partial, restarts=restarts - 1, completed=False)
        draws = draws[failed[0] + 1 :]


def check_capacity(h: PauliHamiltonian, config: RunConfig) -> None:
    """Reject a noisy density-matrix run above 12 work qubits (the state
    holds no ancilla; at 12 the matrix takes 128 or 256 MiB)."""
    noise = config.noise is not None and not config.noise.is_identity
    if noise and config.trajectories is None and h.n_qubits > 12:
        raise ValueError(
            f"density-matrix noise limited to 12 qubits, got {h.n_qubits}; "
            "use trajectory mode (trajectories=N)"
        )


def _run(
    h: PauliHamiltonian,
    build: Callable,
    items,
    minima: float,
    init: np.ndarray,
    schedule: Schedule,
    config: RunConfig,
    spectrum: SpectrumInfo | None,
) -> RunResult:
    """The run path of ``run_pite`` and ``run_generalized``: ``build(item,
    dt)`` synthesizes the step circuit of each term or block in ``items``,
    and ``minima`` is the sum_k lambda[k]_0 of the ALB column. An
    ``init`` off unit norm by more than ``TRACE_TOLERANCE`` raises
    ``ValueError``: a step reads its state normalized, so its records
    would disagree with the record at beta 0."""
    norm2 = float(np.vdot(init, init).real)
    if not abs(norm2 - 1.0) <= TRACE_TOLERANCE:  # NaN fails too
        raise ValueError(
            f"initial state's squared norm {norm2!r} is off 1 by more than {TRACE_TOLERANCE}"
        )
    check_capacity(h, config)
    if spectrum is None:
        spectrum = analysis.diagonalize(h, init)
    step_circuits = _step_circuits(build, items, schedule)
    noise = config.noise if config.noise is not None and not config.noise.is_identity else None
    trajectory = config.trajectories is not None
    # the state type selects exact (density matrix) or sampled noise; either
    # holds a buffer of its own, never ``init`` (an exactly real ``init``
    # gives a real outer product)
    if noise is not None and not trajectory:
        amplitudes = real_if_exact(init)
        start = DensityMatrix(h.n_qubits, np.outer(amplitudes, amplitudes.conj()))
    else:
        start = StateVector(h.n_qubits, init)
    # lowered once per run; order 2 repeats each circuit object
    lowered = {id(c): c for c in step_circuits}
    lowered = {key: lower_step(c, start, noise) for key, c in lowered.items()}
    steps = [lowered[id(c)] for c in step_circuits]
    # the ALB formula is undefined without ground overlap; its column reads 0
    overlap = spectrum.s0 > 0.0

    def record(step: int, state, p_cum: float) -> TraceRecord:
        beta = step * schedule.dt
        _check_trace(state, step)
        return TraceRecord(
            step=step,
            beta=beta,
            energy=state.expectation(h),
            fidelity=_work_fidelity(state, spectrum),
            p_cum=p_cum,
            rlb=analysis.rlb(h, beta),
            alb=analysis.alb_generalized(h, minima, spectrum, beta) if overlap else 0.0,
            restarts=0,  # a sampled run's are set once it is replayed
        )

    def attempt(
        state, rng: np.random.Generator | None, probs: list | None = None
    ) -> tuple[list[TraceRecord], bool]:
        """One postselected pass, stepping ``state`` itself; a trajectory's
        or a sampled pass's annihilation returns its partial records, a
        sampled pass's after appending prob0 = 0.0 to ``probs``."""
        p_cum = 1.0
        records = [record(0, state, p_cum)]
        for step in range(1, schedule.n_steps + 1):
            for bound in steps:
                try:
                    prob0 = run_step_circuit(state, bound, rng)
                except EvolutionAnnihilatedError:
                    if probs is not None:  # no attempt gets past this measurement
                        probs.append(0.0)
                    elif not trajectory:
                        raise
                    return records, False  # weight 0 from here on
                p_cum *= prob0
                if probs is not None:
                    probs.append(prob0)
            if step % config.record_every == 0 or step == schedule.n_steps:
                records.append(record(step, state, p_cum))
        return records, True

    if config.mode == "sample":
        probs: list[float] = []
        records, _ = attempt(start, None, probs)
        result = replay_restarts(
            records, np.array(probs), len(steps), config.restart_budget, make_rng(config.seed)
        )
        result.records = [
            dataclasses.replace(r, restarts=result.restarts) for r in result.records
        ]
        return result

    if trajectory:  # each trajectory steps a copy of its own
        return _trajectory_average(lambda rng: attempt(start.copy(), rng), config)

    records, completed = attempt(start, None)
    return RunResult(records=records, restarts=0, completed=completed)


def _trajectory_average(attempt, config: RunConfig) -> RunResult:
    """Average postselected statevector trajectories of the noise channel.

    Each trajectory samples one branch per measurement (the ancilla's,
    then one Kraus branch per work qubit) from its own random stream,
    spawned from ``config.seed``; observables are combined weighted by
    each trajectory's cumulative success probability, the likelihood of
    its post-selected path. A trajectory whose ancilla-0 probability
    falls below the annihilation threshold returns incomplete and has
    weight 0 from there on: it counts as 0 in the ``p_cum`` mean and is
    left out of the energy and fidelity averages.
    """
    streams = np.random.SeedSequence(config.seed).spawn(config.trajectories)
    runs = [attempt(make_rng(stream)) for stream in streams]
    full = next((records for records, completed in runs if completed), None)
    if full is None:
        raise EvolutionAnnihilatedError("every trajectory annihilated")
    merged: list[TraceRecord] = []
    for i in range(len(full)):
        rows = [records[i] for records, _ in runs if i < len(records)]
        weights = np.array([r.p_cum for r in rows])
        wsum = float(weights.sum())
        if wsum == 0.0:
            raise EvolutionAnnihilatedError(
                f"every trajectory has weight 0 at step {full[i].step}"
            )
        merged.append(
            dataclasses.replace(
                rows[0],
                energy=float(np.dot(weights, [r.energy for r in rows]) / wsum),
                fidelity=float(np.dot(weights, [r.fidelity for r in rows]) / wsum),
                p_cum=wsum / len(runs),
            )
        )
    return RunResult(records=merged, restarts=0, completed=True)


def run_pite(
    h: PauliHamiltonian,
    init: np.ndarray,
    schedule: Schedule,
    config: RunConfig = RunConfig(),
    spectrum: SpectrumInfo | None = None,
) -> RunResult:
    """Per-Pauli-term probabilistic imaginary-time evolution.

    Parameters
    ----------
    h : PauliHamiltonian
        The target; its identity offset enters reported energies only.
    init : np.ndarray
        Unit-norm work-register initial state.
    schedule : Schedule
        Step size, step count and Trotter order.
    config : RunConfig
        Measurement mode, noise, seeding, cadence.
    spectrum : SpectrumInfo, optional
        Precomputed exact spectrum (avoids re-diagonalizing in sweeps).
    """
    return _run(h, build_pauli_step, h.terms, -h.abs_coeff_sum, init, schedule, config, spectrum)


def run_generalized(
    h: PauliHamiltonian,
    blocks: list[GroupedBlock],
    init: np.ndarray,
    schedule: Schedule,
    config: RunConfig = RunConfig(),
    spectrum: SpectrumInfo | None = None,
) -> RunResult:
    """Generalized evolution over grouped Hermitian blocks; the recorded
    ALB column uses the grouped formula with sum_k lambda[k]_0."""
    minima = sum_block_minima(blocks)
    return _run(h, build_grouped_step, blocks, minima, init, schedule, config, spectrum)
