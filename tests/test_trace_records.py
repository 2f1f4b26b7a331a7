"""``tools/trace_records.py``: ``--diff`` on small record files (its exit
code and per-field maxima), its copies of the benchmark workloads'
parameters, which must not drift from ``perfbench/workloads.py``, the
step forms its runs lower to, every one of which its byte-identity check
is to cover, and its ``--phases`` table on the H2 run."""
import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from pite_sim import engine, pite
from pite_sim.pite import TraceRecord

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "trace_records.py"


def load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def write_records(path: Path, records: list[tuple[str, TraceRecord]]) -> Path:
    path.write_text("".join(f"{label}\t{record!r}\n" for label, record in records))
    return path


def run_diff(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), "--diff", str(a), str(b)],
        capture_output=True, text=True, timeout=60,
    )


def test_diff_exits_0_on_equal_files_and_1_with_the_changed_field(tmp_path):
    """Byte-identical files exit 0 with every field's maximum 0; a file
    whose one record's energy moves by 4e-8 relative exits 1 and names
    that run and field with that difference, every other field at 0."""
    first = TraceRecord(0, 0.0, -8.0, 0.98, 1.0, 1.0, 1.0, 0)
    second = TraceRecord(1, 0.05, -8.02, 0.984, 0.88, 0.678, 0.879, 0)
    records = [("run a", first), ("run a", second), ("run b", first)]
    a = write_records(tmp_path / "a.txt", records)
    b = write_records(tmp_path / "b.txt", records)
    same = run_diff(a, b)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "0 of 3 records differ" in same.stdout
    assert all(line.endswith(" 0") for line in same.stdout.splitlines()[:-1])

    moved = TraceRecord(1, 0.05, -8.02 * (1 + 4e-8), 0.984, 0.88, 0.678, 0.879, 0)
    c = write_records(tmp_path / "c.txt", [records[0], ("run a", moved), records[2]])
    changed = run_diff(a, c)
    assert changed.returncode == 1, changed.stdout + changed.stderr
    lines = changed.stdout.splitlines()
    assert lines[-1] == "1 of 3 records differ"
    maxima = {}
    for line in lines[:-1]:
        words = line.split()
        maxima[" ".join(words[:-5]), words[-5]] = float(words[-1])
    assert set(maxima) == {("run a", "energy")} | {
        ("all runs", field) for field in TraceRecord.__dataclass_fields__
    }
    for (label, field), value in maxima.items():
        if field == "energy":
            assert abs(value - 4e-8) < 1e-14, (label, value)
        else:
            assert value == 0.0, (label, field)


def test_diff_exits_1_on_a_missing_record(tmp_path):
    record = TraceRecord(0, 0.0, -8.0, 0.98, 1.0, 1.0, 1.0, 0)
    a = write_records(tmp_path / "a.txt", [("run a", record), ("run a", record)])
    b = write_records(tmp_path / "b.txt", [("run a", record)])
    result = run_diff(a, b)
    assert result.returncode == 1
    assert "record counts differ: 2 against 1" in result.stdout


def test_runs_copy_the_benchmark_workloads():
    """The script's LiH initial state, Ising parameters, Trotter step and
    each benchmark workload's steps, noise and mode equal the
    benchmark's own."""
    tool = load("trace_records_tool", TOOL)
    bench = load("perfbench_workloads_copy", ROOT / "perfbench" / "workloads.py")
    assert tool.LIH_INIT == bench.LIH_INIT
    assert tool.ISING_PARAMS == bench.ISING_PARAMS
    assert tool.DT == bench.DT
    runs = {label: run for label, *run in tool.RUNS}
    for name, w in bench.WORKLOADS.items():
        labels = [f"{name} seed {s}" for s in (0, 1, 2)] if w.mode == "sample" else [name]
        for label in labels:
            model, grouped, steps, order, keywords = runs[label]
            assert model == (w.model if w.model != "ising" else f"ising{w.n_qubits}"), label
            assert grouped == (w.grouping is not None), label
            assert (steps, order) == (w.n_steps, 1), label
            assert keywords.get("noise") == w.noise, label
            assert keywords.get("mode", "postselect") == w.mode, label


class Lowered(Exception):
    """Raised in place of a run's first step, once all of its steps are
    lowered."""


def test_runs_take_every_step_form(monkeypatch):
    """Each run lowers its circuits, once per distinct circuit, and stops
    before its first step; the 13 runs lower to all five step forms. The
    one pass sandwich that holds gate lists is the 7-qubit term of
    "file8 noisy", which keeps the wide density-matrix path covered."""
    tool = load("trace_records_forms", TOOL)
    lowered = []

    def counting(circuit, state, noise=None):
        step = engine.lower_step(circuit, state, noise)
        lowered.append((label, step))
        return step

    def stop(state, step, rng=None):
        raise Lowered

    monkeypatch.setattr(pite, "lower_step", counting)
    monkeypatch.setattr(pite, "run_step_circuit", stop)
    for label, *fields in tool.RUNS:
        with pytest.raises(Lowered):
            tool.run(*fields)
    assert Counter(type(step).__name__ for _, step in lowered) == {
        "K0Step": 138, "BranchStep": 131, "SuperopStep": 70,
        "MaskSandwichStep": 39, "PassSandwichStep": 6,
    }
    gate_lists = [(label, len(step.support)) for label, step in lowered
                  if type(step) is engine.PassSandwichStep and isinstance(step.pre[0], tuple)]
    assert gate_lists == [("file8 noisy", 7)]


def test_phases_times_the_h2_run_and_removes_its_timers(capsys):
    """``--phases`` on the H2 run alone, once: one row whose phases
    (synthesis, K0 lowering, K0 steps, records and the rest) are
    non-negative and add up to the total of ``pite._run``, and no timer
    is left on ``pite_sim`` afterwards."""
    tool = load("trace_records_phases", TOOL)
    names = [pite.build_pauli_step, pite.lower_step, pite.run_step_circuit, pite._run,
             engine._State.expectation]
    assert tool.phases(ROOT / "src", 1, [run for run in tool.RUNS if run[0] == "h2"]) == 0
    assert names == [pite.build_pauli_step, pite.lower_step, pite.run_step_circuit, pite._run,
                     engine._State.expectation]
    header, row = capsys.readouterr().out.splitlines()
    columns = ["synthesis", "lower K0", "step K0", "records", "rest", "total"]
    assert header.split("  ")[0] == "ms, median of 1"
    assert [c.strip() for c in header[32:].split("  ") if c.strip()] == columns
    label, *cells = row.split()
    assert label == "h2" and len(cells) == len(columns)
    values = [float(cell) for cell in cells]
    assert min(values) >= 0.0 and values[-1] > 0.0
    assert abs(sum(values[:-1]) - values[-1]) <= 0.003  # three decimals each
