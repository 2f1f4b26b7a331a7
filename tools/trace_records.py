"""Write every trace record of a fixed list of runs, compare two such
files, time the runs by phase, or time them cold from two trees in pairs.

    python tools/trace_records.py --write FILE [--src DIR]
    python tools/trace_records.py --diff A B
    python tools/trace_records.py --phases [--src DIR] [--repeats N] [--fresh]
    python tools/trace_records.py --sample LABEL [--src DIR]
    python tools/trace_records.py --pairs A B [--repeats N] [--runs LABEL ...]

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
are removed when the runs end. With ``--fresh``, each repeat runs in a
process of its own (the script started again with ``--sample LABEL``,
which times the run ``LABEL`` once and prints its phases as one JSON
line), so every repeat is a process's first run, with every module-level
cache cold and the spectrum computed again, as in one benchmark repeat;
without it, the repeats of a run follow each other in this process.

``--pairs`` compares two trees' speed, ``A`` and ``B`` each a ``src/``
directory: each of ``N`` repeats (default 5) is one new process (the
script started again with ``--pair-sample``), which runs each run
(default: the four benchmark workloads, ``PAIR_RUNS``) once per tree,
each time from the tree's ``pite_sim`` imported afresh, so that every
module-level cache starts cold as in one benchmark repeat, and removed
again after the run; one untimed run of each comes first. The clock
covers the evolution, the exact spectrum computed before it as the
benchmark's repeats do. Which tree goes first
alternates, ``A`` first in the first repeat. It prints each run's median
over the pairs of B's time over A's and how many pairs each tree won.
With ``A`` = ``B`` the medians read 1 within the host's noise, which
checks the method for bias.

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
import gc
import json
import math
import re
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from functools import partial
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


def prepare(model: str, grouped: bool, steps: int, order: int, keywords: dict,
            spectrum: bool = False):
    """One run of ``RUNS`` (its fields after the label), from the
    ``pite_sim`` on ``sys.path``, set up (model, initial state, grouping)
    as a call that runs it and returns its result. With ``spectrum``, the
    exact spectrum is computed here and passed in, as the benchmark's
    repeats do; without it, the run computes it."""
    from pite_sim import analysis, grouping, hamiltonian, pite
    from pite_sim.engine import NoiseModel

    h, init = _model(model, hamiltonian)
    if "noise" in keywords:
        keywords = {**keywords, "noise": NoiseModel(*keywords["noise"])}
    schedule = pite.Schedule(dt=DT, n_steps=steps, order=order)
    config = pite.RunConfig(**keywords)
    known = analysis.diagonalize(h, init) if spectrum else None
    if grouped:
        blocks = grouping.group_hamiltonian(h, grouping.lih_groupspec())
        return partial(pite.run_generalized, h, blocks, init, schedule, config, known)
    return partial(pite.run_pite, h, init, schedule, config, known)


def run(*fields):
    """The result of one run of ``RUNS`` (its fields after the label),
    from the ``pite_sim`` on ``sys.path``."""
    return prepare(*fields)()


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


def sample(fields) -> dict[str, float]:
    """Seconds per phase of one run of ``fields`` (a ``RUNS`` entry after
    its label) in this process, "rest" and "total" included."""
    totals: dict[str, float] = {}
    with _phase_timers(totals):
        run(*fields)
    totals["rest"] = totals["total"] - sum(v for k, v in totals.items() if k != "total")
    return totals


def fresh_sample(label: str, src: Path) -> dict[str, float]:
    """:func:`sample` of the run ``label``, in a new process started for it."""
    child = subprocess.run(
        [sys.executable, __file__, "--sample", label, "--src", str(src)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])


def phases(src: Path, repeats: int, runs=RUNS, fresh: bool = False) -> int:
    """Print the table of ``--phases`` for ``runs``, each run ``repeats``
    times, from the ``pite_sim`` in ``src``; with ``fresh``, each repeat
    in a new process."""
    sys.path.insert(0, str(src))
    from pite_sim import engine

    rows = {}
    for label, *fields in runs:
        samples = [fresh_sample(label, src) if fresh else sample(fields) for _ in range(repeats)]
        keys = {key for totals in samples for key in totals}
        rows[label] = {key: statistics.median(s.get(key, 0.0) for s in samples) for key in keys}
    # a slots dataclass leaves the class it replaced among the subclasses
    forms = dict.fromkeys(_forms(engine).values())
    order = ["synthesis", *(f"lower {f}" for f in forms), *(f"step {f}" for f in forms),
             "records", "rest", "total"]
    columns = [key for key in order if any(key in row for row in rows.values())]
    widths = [max(9, len(key)) + 2 for key in columns]
    title = f"ms, median of {repeats}" + (" fresh" if fresh else "")
    print(f"{title:32s}"
          + "".join(f"{key:>{width}}" for key, width in zip(columns, widths)))
    for label, row in rows.items():
        cells = (f"{row.get(key, 0.0) * 1e3:>{width}.3f}" for key, width in zip(columns, widths))
        print(f"{label:32s}{''.join(cells)}")
    return 0


# The benchmark's four workloads among ``RUNS``, the runs ``--pairs`` times
PAIR_RUNS = ("lih-pauli", "lih-grouped-sample seed 0", "lih-noisy", "ising8-noisy")


def _cold(src: Path, fields) -> float:
    """Seconds of one run of ``fields`` (a ``RUNS`` entry after its label)
    from the ``pite_sim`` in ``src``, imported afresh, so every
    module-level cache starts cold; the spectrum is computed before the
    clock starts. The package's modules are removed afterwards, and any
    that this process had imported before are put back."""
    held = {name: sys.modules.pop(name) for name in list(sys.modules)
            if name == "pite_sim" or name.startswith("pite_sim.")}
    sys.path.insert(0, str(src))
    try:
        evolve = prepare(*fields, spectrum=True)
        gc.collect()  # the trees imported before, not a pause inside the clock
        start = time.perf_counter()
        evolve()
        return time.perf_counter() - start
    finally:
        sys.path.remove(str(src))
        for name in [n for n in sys.modules if n == "pite_sim" or n.startswith("pite_sim.")]:
            del sys.modules[name]
        sys.modules.update(held)


def pair_sample(first: Path, second: Path, labels) -> dict[str, list[float]]:
    """For each run of ``labels``, its seconds cold from the ``pite_sim``
    in ``first`` and then from the one in ``second``, in this process
    (:func:`_cold`), after one untimed run of each from ``first``, so
    that what numpy loads on first use (``numpy.random``, say) is loaded
    before either tree's clock starts. The package keeps its own name in
    either tree: the grouped runs' data is looked up by that name."""
    fields = {label: f for label, *f in RUNS}
    for label in labels:
        _cold(first, fields[label])
    return {label: [_cold(src, fields[label]) for src in (first, second)] for label in labels}


def pairs(src_a: Path, src_b: Path, repeats: int, labels=PAIR_RUNS) -> int:
    """Print, for each run of ``labels``, the median over ``repeats``
    pairs of its time from ``src_b`` over its time from ``src_a``, and in
    how many pairs each tree was faster. Each repeat is one new process
    (the script started again with ``--pair-sample``) that runs every run
    cold once per tree; which tree goes first alternates, ``src_a`` first
    in the first repeat."""
    ratios: dict[str, list[float]] = {label: [] for label in labels}
    for r in range(repeats):
        flip = r % 2 == 1
        first, second = (src_b, src_a) if flip else (src_a, src_b)
        child = subprocess.run(
            [sys.executable, __file__, "--pair-sample", str(first), str(second),
             "--runs", *labels],
            capture_output=True, text=True, check=True,
        )
        for label, (t_first, t_second) in json.loads(child.stdout.splitlines()[-1]).items():
            t_a, t_b = (t_second, t_first) if flip else (t_first, t_second)
            ratios[label].append(t_b / t_a)
    print(f"{'B / A, ' + str(repeats) + ' cold pairs':32s}{'median':>10s}{'A faster':>10s}"
          f"{'B faster':>10s}")
    for label, values in ratios.items():
        a_won = sum(v > 1.0 for v in values)
        b_won = sum(v < 1.0 for v in values)
        print(f"{label:32s}{statistics.median(values):>10.3f}{a_won:>10d}{b_won:>10d}")
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
    action.add_argument("--sample", metavar="LABEL", choices=[label for label, *_ in RUNS],
                        help="time the run LABEL once and print its phases as JSON")
    action.add_argument("--pairs", metavar=("A", "B"), nargs=2, type=Path,
                        help="time the runs cold from the src/ directories A and B, in pairs")
    action.add_argument("--pair-sample", metavar=("FIRST", "SECOND"), nargs=2, type=Path,
                        help="time each run cold once from FIRST, then SECOND, and print "
                             "the seconds as JSON")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="the src/ directory to import pite_sim from (--write, --phases, --sample)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per row (with --phases), pairs per run (with --pairs)")
    parser.add_argument("--runs", metavar="LABEL", nargs="+", default=list(PAIR_RUNS),
                        choices=[label for label, *_ in RUNS],
                        help="the runs to time (with --pairs and --pair-sample; default: "
                             "the four benchmark workloads)")
    parser.add_argument("--fresh", action="store_true",
                        help="each repeat in a process of its own (with --phases)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.write is not None:
        return write(args.write, args.src)
    if args.phases:
        return phases(args.src, args.repeats, fresh=args.fresh)
    if args.pairs is not None:
        return pairs(*args.pairs, args.repeats, args.runs)
    if args.pair_sample is not None:
        print(json.dumps(pair_sample(*args.pair_sample, args.runs)))
        return 0
    if args.sample is not None:
        sys.path.insert(0, str(args.src))
        fields = next(fields for label, *fields in RUNS if label == args.sample)
        print(json.dumps(sample(fields)))
        return 0
    return diff(*args.diff)


if __name__ == "__main__":
    raise SystemExit(main())
