"""In-memory span recorder for one benchmark repeat.

Spans are recorded around calls into pite_sim's public functions by
patching them from the benchmark's side; the program itself is not
changed. Each span holds (name, parent index, start, end). A call that
re-enters a span of the same name (``alb`` calling ``alb_generalized``)
is folded into the outer span, so per-name totals never double count.

Patches last for the life of the repeat's process: every repeat runs in
a fresh process, so nothing is restored.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

_clock = time.perf_counter

# The direct children of the "pite.run" span; the rest of it is pite's own time.
RUN_CHILDREN = ("circuit.synth", "engine.step", "engine.expectation", "analysis.bounds")


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, int, float, float]] = []
        self._open: list[tuple[str, int]] = []  # (name, index into spans)
        self.measurements = 0  # run_step_circuit calls, counted traced or not
        self.circuits: list = []  # step circuits synthesized during the run
        self.state_bytes = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled or (self._open and self._open[-1][0] == name):
            yield
            return
        parent = self._open[-1][1] if self._open else -1
        idx = len(self.spans)
        self.spans.append((name, parent, _clock(), 0.0))
        self._open.append((name, idx))
        try:
            yield
        finally:
            self._open.pop()
            name, parent, t0, _ = self.spans[idx]
            self.spans[idx] = (name, parent, t0, _clock())

    def _wrap(self, fn, name_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name_of(*args, **kwargs)):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Patch pite_sim for this process.

        ``pite_sim.pite`` binds ``run_step_circuit``, ``build_pauli_step``
        and ``build_grouped_step`` by name, so those are patched in that
        module; state methods are patched on their classes; the bounds are
        called as ``analysis.<name>``, so they are patched on that module.
        The measurement counter is installed even with tracing off, because
        ``measurements_per_s`` needs it; it costs one Python call per
        measurement.
        """
        from pite_sim import analysis, pite
        from pite_sim.engine import DensityMatrix, StateVector
        from pite_sim.hamiltonian import PauliHamiltonian

        step = pite.run_step_circuit

        def counted_step(*args, **kwargs):
            self.measurements += 1
            return step(*args, **kwargs)

        pite.run_step_circuit = counted_step
        if not self.enabled:
            return

        def fixed(name):
            return lambda *args, **kwargs: name

        pite.run_step_circuit = self._wrap(counted_step, fixed("engine.step"))
        for fn_name in ("build_pauli_step", "build_grouped_step"):
            synth = self._wrap(getattr(pite, fn_name), fixed("circuit.synth"))

            def keep(*args, _synth=synth, **kwargs):
                circuit = _synth(*args, **kwargs)
                self.circuits.append(circuit)
                return circuit

            setattr(pite, fn_name, keep)

        for cls, tag in ((StateVector, "sv"), (DensityMatrix, "dm")):
            cls.apply_gate = self._wrap(
                cls.apply_gate,
                lambda state, gate, _tag=tag: f"engine.{_tag}.gate.{type(gate).__name__}",
            )
            cls.expectation = self._wrap(cls.expectation, fixed("engine.expectation"))
            measure = self._wrap(cls.measure_ancilla, fixed("engine.measure"))

            def measure_and_size(state, *args, _measure=measure, **kwargs):
                self.state_bytes = max(self.state_bytes, state.data.nbytes)
                return _measure(state, *args, **kwargs)

            cls.measure_ancilla = measure_and_size
        DensityMatrix.apply_noise = self._wrap(DensityMatrix.apply_noise, fixed("engine.noise"))
        PauliHamiltonian.dense_matrix = self._wrap(
            PauliHamiltonian.dense_matrix, fixed("hamiltonian.dense_matrix")
        )
        for bound in ("rlb", "alb", "alb_generalized"):
            setattr(analysis, bound, self._wrap(getattr(analysis, bound), fixed("analysis.bounds")))
        analysis.SpectrumInfo.fidelity_to_ground = self._wrap(
            analysis.SpectrumInfo.fidelity_to_ground, fixed("analysis.bounds")
        )

    def totals(self) -> dict[str, tuple[float, int]]:
        """Seconds and call count per span name."""
        out: dict[str, tuple[float, int]] = {}
        for name, _, t0, t1 in self.spans:
            sec, calls = out.get(name, (0.0, 0))
            out[name] = (sec + (t1 - t0), calls + 1)
        return out

    def children_of(self, name: str) -> dict[str, float]:
        """Seconds per name of the direct children of the spans called ``name``."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == name}
        out: dict[str, float] = {}
        for child, parent, t0, t1 in self.spans:
            if parent in parents:
                out[child] = out.get(child, 0.0) + (t1 - t0)
        return out

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, _, t0, t1 in self.spans if n == name]

    def write(self, path) -> None:
        """Spans as JSON: names table plus [name, parent, start, end] rows,
        times in seconds from the first span."""
        names: dict[str, int] = {}
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [
            [names.setdefault(n, len(names)), p, t0 - origin, t1 - origin]
            for n, p, t0, t1 in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"names": list(names), "spans": rows}, f)
