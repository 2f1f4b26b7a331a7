"""Host-speed probe: a frozen copy of the program, timed in its own process.

    python3 perfbench/reference.py --workload NAME

The benchmark host is shared, and its speed for the same code swings by
1.5-2x for minutes at a time (CPU time follows wall time, so the loss is
not stolen time). How much a given code path slows depends on its mix of
interpreter work, small BLAS calls and memory traffic, so no synthetic
kernel tracks every workload: the scaled numbers of one did, those of
another still moved by half between two sets of runs.

``refsim`` is pite_sim as of the commit that introduced the benchmark.
This script times refsim's Jacobi eigensolver on the LiH matrix and a
short slice of the workload's run by ``refsim``, and prints the two times
as one JSON line. run.py starts it as a fresh process before the first
repeat and after every repeat, and scales each repeat's times by the
probes on either side of it. The probe process never imports pite_sim,
so nothing the program under test sets in its own process (BLAS threads,
environment, patched modules) reaches the reference: a host slowdown
hits both and cancels, a change to pite-sim moves only the program's side.

``refsim`` must stay as it is: its files are hashed, and the probe
refuses to run when the hash differs from ``workloads.REFSIM_SHA256``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFSIM = HERE / "refsim"
SETUP_SAMPLES = 5  # the set-up probe is ~15 ms; its median is the sample
sys.path.insert(0, str(HERE))

from workloads import DT, REFSIM_SHA256, WORKLOADS, Workload, model_and_init  # noqa: E402


def refsim_digest() -> str:
    """sha256 over the relative paths and contents of refsim's files."""
    digest = hashlib.sha256()
    for path in sorted(REFSIM.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        digest.update(path.relative_to(REFSIM).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def time_setup() -> float:
    """Median seconds of refsim's Jacobi eigensolver on the LiH matrix.

    Timed first in the process, as the program's set-up is: right after
    BLAS-heavy work (the run slice) this kernel reads up to 2x slow for a
    while."""
    from refsim import analysis, hamiltonian

    lih = hamiltonian.build_lih().dense_matrix(include_offset=True)
    samples = []
    for _ in range(SETUP_SAMPLES + 1):  # the first call stays out
        t0 = time.perf_counter()
        analysis.jacobi_eigh(lih)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples[1:])


def time_run(w: Workload) -> float:
    """Seconds of a ``probe_steps`` slice of the workload's run by refsim."""
    import numpy as np

    import refsim
    from refsim import analysis, grouping, hamiltonian, pite
    from refsim.engine import NoiseModel

    # The slice needs a spectrum only for its trace columns; LAPACK
    # keeps building the probe cheap.
    analysis.eigensystem = lambda h: np.linalg.eigh(h.dense_matrix(include_offset=True))
    h, init = model_and_init(w, hamiltonian)
    spectrum = analysis.diagonalize(h, init)
    schedule = pite.Schedule(dt=DT, n_steps=w.probe_steps, order=1)
    config = pite.RunConfig(noise=NoiseModel(*w.noise) if w.noise else None)
    if w.grouping == "lih-22":
        text = (Path(refsim.__file__).parent / "data" / "lih_groups.txt").read_text()
        blocks = grouping.group_hamiltonian(h, grouping.parse_groupspec(text))

        def run():
            return pite.run_generalized(h, blocks, init, schedule, config, spectrum)
    else:
        def run():
            return pite.run_pite(h, init, schedule, config, spectrum)
    run()  # first-use costs and refsim's own caches stay out of the sample
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args()
    digest = refsim_digest()
    if digest != REFSIM_SHA256:
        print(f"refsim was changed (sha256 {digest}, expected {REFSIM_SHA256}); "
              "the host-speed reference must stay frozen", file=sys.stderr)
        return 2
    setup_s = time_setup()
    run_s = time_run(WORKLOADS[args.workload])
    print(json.dumps({"setup_s": setup_s, "run_s": run_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
