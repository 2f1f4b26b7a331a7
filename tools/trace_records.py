"""Write every trace record of a fixed list of runs, compare two such
files, or time the runs by phase.

    python tools/trace_records.py --write FILE [--src DIR]
    python tools/trace_records.py --diff A B
    python tools/trace_records.py --phases [--src DIR] [--repeats N]

``--write`` imports ``pite_sim`` from ``DIR`` (default: the ``src/`` next
to this script), runs the 13 runs of ``RUNS`` and writes one line per trace
record, ``<run label>\\t<repr(record)>``: 317 lines. Run it with
``OPENBLAS_NUM_THREADS=1`` on both trees being compared, so that the BLAS
thread count cannot move a rounding.

``--diff`` prints, for each run label and record field, the largest
relative difference between the two files, then the largest per field
over all runs, and exits 1 when any line differs (0 when the files are
byte-identical, that is when every record of every run is bitwise equal).

``--phases`` imports ``pite_sim`` from ``DIR`` as ``--write`` does, runs
each of the 13 runs ``N`` times (default 5) with a timer around the
names ``pite_sim.pite`` calls, and prints one table of milliseconds per
run, each cell the median over the repeats: synthesis (the step
builders), lowering (``lower_step``) and steps (``run_step_circuit``)
by the step form they lower to or run, the trace records (the trace
check, energy, fidelity and bounds), the rest of ``pite._run`` (the
exact spectrum, which ``analysis`` caches after a run's first repeat,
and the driver's own loop), and the total of ``pite._run``. Each timed
call carries its timer's own cost, a fraction of a microsecond, so the
phase of many cheap calls (the steps) reads a little high. The timers
are removed when the runs end.

The runs lower their circuits to every step form of ``pite_sim.engine``
(``K0Step``, ``BranchStep``, ``SuperopStep``, ``MaskSandwichStep`` and
``PassSandwichStep``): the four benchmark workloads
(``lih-grouped-sample`` at seeds 0, 1 and 2) and H2 at R 0.75; noisy LiH
trajectories; grouped noisy LiH at Trotter order 2; and an 8-qubit file
model with a 7-qubit term (a step that runs its gate lists) and odd-Y
terms, noiseless, as a noisy density matrix and as trajectories. The
benchmark workloads' parameters are copied here so that this script
imports nothing but ``pite_sim`` and numpy.
"""
from __future__ import annotations

import argparse
import math
import re
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

LIH_INIT = ((math.sqrt(0.99), "110000"), (0.1, "000011"))
ISING_PARAMS = (1.0, 1.2, 0.3)  # J, g, h
DT = 0.05
FILE_MODEL = """\
0.3 IXXXXXXX
-0.45 YIIIIIIZ
0.2 IIYZIIII
0.15 IIIIXYYY
-0.25 IYIIIIII
0.5 ZZIIIIII
-0.35 IIIZZIII
0.4 IIIIIIXZ
"""
FILE_INIT = ((0.8, "10100000"), (0.6, "01011000"))


def _model(name: str, ham):
    """(h, init) of a model the runs use, built with ``ham``, the
    ``pite_sim.hamiltonian`` module under test."""
    if name == "lih":
        init = ham.prepare_initial(ham.InitialState.superposition(list(LIH_INIT)), 6)
        return ham.build_lih(), init
    if name == "ising8":
        h = ham.build_ising(8, *ISING_PARAMS)
        return h, ham.prepare_initial(ham.InitialState.product(ising_params=ISING_PARAMS), 8)
    if name == "h2":
        return ham.build_h2(0.75), ham.prepare_initial(ham.InitialState.basis("00"), 2)
    h = ham.parse_hamiltonian(FILE_MODEL)
    return h, ham.prepare_initial(ham.InitialState.superposition(list(FILE_INIT)), 8)


# (label, model, grouped, steps, order, RunConfig keywords; noise as (eps_r, eps_d))
RUNS = [
    ("lih-pauli", "lih", False, 80, 1, {}),
    *(
        (f"lih-grouped-sample seed {s}", "lih", True, 40, 1, {"mode": "sample", "seed": s})
        for s in (0, 1, 2)
    ),
    ("lih-noisy", "lih", False, 20, 1, {"noise": (1e-5, 1e-5)}),
    ("ising8-noisy", "ising8", False, 10, 1, {"noise": (1e-5, 1e-5)}),
    ("h2", "h2", False, 40, 1, {}),
    *(
        (f"lih trajectories {noise}", "lih", False, 8, 1,
         {"noise": noise, "trajectories": 6, "seed": 7})
        for noise in ((1e-3, 1e-3), (1e-2, 2e-2))
    ),
    ("lih grouped noisy order 2", "lih", True, 6, 2, {"noise": (1e-3, 2e-3)}),
    ("file8 noiseless", "file", False, 4, 1, {}),
    ("file8 noisy", "file", False, 4, 1, {"noise": (1e-3, 2e-3)}),
    ("file8 trajectories", "file", False, 4, 1,
     {"noise": (1e-2, 2e-2), "trajectories": 4, "seed": 3}),
]


def run(model: str, grouped: bool, steps: int, order: int, keywords: dict):
    """The result of one run of ``RUNS`` (its fields after the label),
    from the ``pite_sim`` on ``sys.path``."""
    from pite_sim import grouping, hamiltonian, pite
    from pite_sim.engine import NoiseModel

    h, init = _model(model, hamiltonian)
    if "noise" in keywords:
        keywords = {**keywords, "noise": NoiseModel(*keywords["noise"])}
    schedule = pite.Schedule(dt=DT, n_steps=steps, order=order)
    config = pite.RunConfig(**keywords)
    if grouped:
        blocks = grouping.group_hamiltonian(h, grouping.lih_groupspec())
        return pite.run_generalized(h, blocks, init, schedule, config)
    return pite.run_pite(h, init, schedule, config)


def write(path: Path, src: Path) -> int:
    sys.path.insert(0, str(src))
    lines = []
    for label, *fields in RUNS:
        lines += [f"{label}\t{record!r}" for record in run(*fields).records]
    path.write_text("".join(line + "\n" for line in lines))
    print(f"{len(RUNS)} runs, {len(lines)} records from {src} written to {path}")
    return 0


def _forms(engine) -> dict[type, str]:
    """Each step form class of ``engine`` and its name without "Step", in
    the order the module defines them."""
    return {cls: cls.__name__.removesuffix("Step") for cls in engine.BoundStep.__subclasses__()}


@contextmanager
def _phase_timers(totals: dict[str, float]):
    """Timers around the names ``pite_sim.pite`` calls, adding seconds per
    phase to ``totals`` while the block runs, and ``pite._run``'s into
    "total"; the names are restored after it. No timed name calls
    another, except ``_run``, which holds them all."""
    from pite_sim import analysis, engine, pite

    clock, patched = time.perf_counter, []
    lowered = {cls: f"lower {form}" for cls, form in _forms(engine).items()}
    stepped = {cls: f"step {form}" for cls, form in _forms(engine).items()}

    def timed(owner, name: str, phase):
        """``owner.name`` timed into ``totals[phase(args, result)]``."""
        original = getattr(owner, name)

        def call(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            elapsed = clock() - start
            key = phase(args, result)
            totals[key] = totals.get(key, 0.0) + elapsed
            return result

        patched.append((owner, name, original))
        setattr(owner, name, call)

    for builder in ("build_pauli_step", "build_grouped_step"):
        timed(pite, builder, lambda args, result: "synthesis")
    timed(pite, "lower_step", lambda args, step: lowered[type(step)])
    timed(pite, "run_step_circuit", lambda args, result: stepped[type(args[1])])
    records = ((pite, "_check_trace"), (pite, "_work_fidelity"), (engine._State, "expectation"),
               (analysis, "rlb"), (analysis, "alb_generalized"))
    for owner, name in records:
        timed(owner, name, lambda args, result: "records")
    timed(pite, "_run", lambda args, result: "total")
    try:
        yield
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


def phases(src: Path, repeats: int, runs=RUNS) -> int:
    """Print the table of ``--phases`` for ``runs``, each run ``repeats``
    times, from the ``pite_sim`` in ``src``."""
    sys.path.insert(0, str(src))
    from pite_sim import engine

    rows = {}
    for label, *fields in runs:
        samples = []
        for _ in range(repeats):
            totals: dict[str, float] = {}
            with _phase_timers(totals):
                run(*fields)
            totals["rest"] = totals["total"] - sum(v for k, v in totals.items() if k != "total")
            samples.append(totals)
        keys = {key for sample in samples for key in sample}
        rows[label] = {key: statistics.median(s.get(key, 0.0) for s in samples) for key in keys}
    # a slots dataclass leaves the class it replaced among the subclasses
    forms = dict.fromkeys(_forms(engine).values())
    order = ["synthesis", *(f"lower {f}" for f in forms), *(f"step {f}" for f in forms),
             "records", "rest", "total"]
    columns = [key for key in order if any(key in row for row in rows.values())]
    widths = [max(9, len(key)) + 2 for key in columns]
    print(f"{'ms, median of ' + str(repeats):32s}"
          + "".join(f"{key:>{width}}" for key, width in zip(columns, widths)))
    for label, row in rows.items():
        cells = (f"{row.get(key, 0.0) * 1e3:>{width}.3f}" for key, width in zip(columns, widths))
        print(f"{label:32s}{''.join(cells)}")
    return 0


_FIELD = re.compile(r"(\w+)=([^,)]+)")


def _relative(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if math.isfinite(scale) else math.inf


def diff(path_a: Path, path_b: Path) -> int:
    lines_a = path_a.read_text().splitlines()
    lines_b = path_b.read_text().splitlines()
    worst: dict[tuple[str, str], float] = {}
    differing = abs(len(lines_a) - len(lines_b))
    for line_a, line_b in zip(lines_a, lines_b):
        if line_a == line_b:
            continue
        differing += 1
        label_a, record_a = line_a.split("\t", 1)
        label_b, record_b = line_b.split("\t", 1)
        if label_a != label_b:
            print(f"runs out of step: {label_a!r} against {label_b!r}")
            return 1
        pairs = zip(_FIELD.findall(record_a), _FIELD.findall(record_b))
        for (field, value_a), (_, value_b) in pairs:
            key = (label_a, field)
            worst[key] = max(worst.get(key, 0.0), _relative(value_a, value_b))
    if len(lines_a) != len(lines_b):
        print(f"record counts differ: {len(lines_a)} against {len(lines_b)}")
    fields = _FIELD.findall(lines_a[0].split("\t", 1)[1]) if lines_a else []
    by_field = {field: 0.0 for field, _ in fields}
    for (label, field), value in worst.items():
        by_field[field] = max(by_field.get(field, 0.0), value)
        if value:
            print(f"{label:32s} {field:10s} max relative difference {value:.3g}")
    for field, value in by_field.items():
        print(f"{'all runs':32s} {field:10s} max relative difference {value:.3g}")
    print(f"{differing} of {max(len(lines_a), len(lines_b))} records differ")
    return int(differing > 0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", metavar="FILE", type=Path)
    action.add_argument("--diff", metavar=("A", "B"), nargs=2, type=Path)
    action.add_argument("--phases", action="store_true")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="the src/ directory to import pite_sim from (--write, --phases)")
    parser.add_argument("--repeats", type=int, default=5, help="runs per row (with --phases)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.write is not None:
        return write(args.write, args.src)
    if args.phases:
        return phases(args.src, args.repeats)
    return diff(*args.diff)


if __name__ == "__main__":
    raise SystemExit(main())
