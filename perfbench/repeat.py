"""One measured repeat of a workload, in its own process.

    python3 perfbench/repeat.py --workload NAME --seed N --trace 0|1 [--spans-out PATH]

run.py starts one of these per repeat, so ``analysis.eigensystem`` and the
engine's per-process caches start cold, as in a CLI run, and the peak RSS
read at exit belongs to this workload alone. It imports pite_sim from
``src/`` of the checkout it sits in, runs set-up and the evolution, checks
the outputs and prints one JSON record as its last line. The host-speed
probes run in processes of their own (reference.py), so nothing here
touches the reference.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import pite_sim  # noqa: E402
from pite_sim import analysis, grouping, hamiltonian, pite  # noqa: E402
from pite_sim.circuit import gate_count  # noqa: E402
from pite_sim.engine import NoiseModel  # noqa: E402

from hostinfo import blas_threads  # noqa: E402
from tracing import RUN_CHILDREN, Tracer  # noqa: E402
from workloads import DT, REFERENCE_RTOL, WORKLOADS, Workload, model_and_init  # noqa: E402


def setup(w: Workload, tr: Tracer):
    """Model, initial state, grouping and exact spectrum."""
    with tr.span("hamiltonian.build"):
        h, init = model_and_init(w, hamiltonian)
    blocks = None
    if w.grouping == "lih-22":
        with tr.span("grouping.group"):
            blocks = grouping.group_hamiltonian(h, grouping.lih_groupspec())
    with tr.span("analysis.spectrum"):
        spectrum = analysis.diagonalize(h, init)
    return h, init, blocks, spectrum


def evolve(w: Workload, seed: int, h, init, blocks, spectrum):
    schedule = pite.Schedule(dt=DT, n_steps=w.n_steps, order=1)
    config = pite.RunConfig(
        mode=w.mode,
        noise=NoiseModel(*w.noise) if w.noise else None,
        seed=seed if w.mode == "sample" else None,
    )
    if blocks is not None:
        return pite.run_generalized(h, blocks, init, schedule, config, spectrum=spectrum)
    return pite.run_pite(h, init, schedule, config, spectrum=spectrum)


def useful_measurements(w: Workload, h, blocks) -> int:
    """Ancilla measurements of one completed attempt: one per step circuit
    (a term, or a block when grouped) per Trotter step, at order 1."""
    return w.n_steps * (len(blocks) if blocks is not None else len(h.terms))


def check(w: Workload, result, energy_err: float, measurements: int, useful: int) -> list[str]:
    """Output checks; an empty list means the repeat is correct."""
    errors = []
    if not result.completed:
        errors.append("evolution did not complete")
    # The counter on pite.run_step_circuit is the numerator of
    # measurements_per_s; a step that no longer goes through that name
    # must fail the repeat, not skew the throughput.
    if measurements < useful or (w.mode == "postselect" and measurements != useful):
        errors.append(f"counted {measurements} measurements, the run takes "
                      f"{'' if w.mode == 'postselect' else 'at least '}{useful}")
    bad = [r.step for r in result.records if not r.p_cum >= r.rlb]
    if bad:
        errors.append(f"p_cum < rlb at steps {bad[:5]}")
    if w.max_energy_err is not None and not energy_err <= w.max_energy_err:
        errors.append(f"energy_err {energy_err:.3e} above {w.max_energy_err:.0e}")
    ref_err, ref_p = w.reference
    p_cum = result.final.p_cum
    if not math.isclose(energy_err, ref_err, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
        errors.append(f"energy_err {energy_err!r} differs from reference {ref_err!r}")
    if not math.isclose(p_cum, ref_p, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
        errors.append(f"p_cum {p_cum!r} differs from reference {ref_p!r}")
    return errors


def layer_metrics(tr: Tracer, h, result, useful: int) -> dict[str, float]:
    """Per-module numbers of one traced repeat (run.py owns the names)."""
    totals = tr.totals()
    out: dict[str, float] = {}
    for name, (sec, calls) in totals.items():
        out[f"{name}_s"] = sec
        out[f"{name}_calls"] = calls
    run_s = out["pite.run_s"]
    children = tr.children_of("pite.run")
    unexpected = sorted(set(children) - set(RUN_CHILDREN))
    if unexpected:
        raise RuntimeError(f"unexpected direct children of the run span: {unexpected}")
    out["pite.self_s"] = run_s - sum(children.values())
    steps_us = sorted(d * 1e6 for d in tr.durations("engine.step"))
    out["engine.step_us.p50"] = statistics.median(steps_us)
    out["engine.step_us.p99"] = statistics.quantiles(steps_us, n=100)[98]
    out["analysis.spectrum_dim"] = 2**h.n_qubits
    out["circuit.gates_per_step"] = sum(sum(gate_count(c).values()) for c in tr.circuits)
    out["engine.state_bytes"] = tr.state_bytes
    out["pite.restarts"] = result.restarts
    out["pite.useful_ratio"] = useful / max(tr.measurements, 1)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]

    if not Path(pite_sim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"pite_sim imported from {pite_sim.__file__}, not from {SRC}")
    tr = Tracer(enabled=bool(args.trace))
    tr.install()

    t0 = time.perf_counter()
    h, init, blocks, spectrum = setup(w, tr)
    setup_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    with tr.span("pite.run"):
        result = evolve(w, args.seed, h, init, blocks, spectrum)
    run_s = time.perf_counter() - t0

    energy_err = abs(result.final.energy - spectrum.e0)
    useful = useful_measurements(w, h, blocks)
    record = {
        "setup_s": setup_s,
        "run_s": run_s,
        "seed": args.seed,
        "measurements": tr.measurements,
        "restarts": result.restarts,
        "energy_err": energy_err,
        "p_cum": result.final.p_cum,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # read after the run, so a thread count the program sets shows here
        "blas_threads": blas_threads(),
        "errors": check(w, result, energy_err, tr.measurements, useful),
    }
    if args.trace:
        record["layers"] = layer_metrics(tr, h, result, useful)
        if args.spans_out:
            tr.write(args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
