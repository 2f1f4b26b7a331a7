"""pite-sim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Each measured repeat is a fresh process
(perfbench/repeat.py) that imports pite_sim from ``src/``, so the per-process
caches (the ``lru_cache`` on ``analysis.eigensystem``, the engine's dense-H
and noise-scale caches) start cold as in every CLI run, and ``ru_maxrss``
is the peak of that workload alone. Repeats run back to back, closed loop,
until ``--seconds`` have passed and at least ``MIN_REPEATS`` have run.

A host-speed probe (reference.py) runs in a fresh process of its own
before the first repeat and after every repeat. With ``--trace 0`` the
last line reports the end-to-end metrics of BENCHMARK.json as medians over
repeats, times scaled by the probes on either side of each repeat. With
``--trace 1`` repeats alternate untraced and traced, and the last line
reports the per-layer metrics as means over the traced repeats (means, so
the run span's child spans plus ``pite.self_s`` add up to ``pite.run_s``),
with the tracing overhead taken per untraced/traced pair. The seed feeds
only the sampled workload's ``RunConfig(seed=...)``: repeat k of a run
uses 1000 * seed + k, and of a traced run 1000 * seed + k // 2, so both
repeats of a pair draw the same restarts.

Per-repeat records, the environment and (first traced repeat) the raw
spans are written under ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from hostinfo import environment  # noqa: E402
from tracing import RUN_CHILDREN  # noqa: E402
from workloads import SETUP_NOMINAL_S, WORKLOADS  # noqa: E402

MIN_REPEATS = 3
MIN_TRACED_REPEATS = 4  # two untraced, two traced
TIME_LIMIT_S = 170.0  # a run must end within 180 s


def run_repeat(workload: str, seed: int, traced: bool, spans_out: Path | None, timeout: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "repeat.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "errors": [f"repeat exceeded {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-3:]}")
        record = json.loads(lines[-1])
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        return {"traced": traced, "errors": [f"repeat failed: {exc}"]}
    record["traced"] = traced
    return record


def run_probe(workload: str, timeout: float) -> tuple[float, float] | str:
    """One host-speed probe in a fresh process (reference.py): (set-up
    probe seconds, run probe seconds), or what went wrong."""
    cmd = [sys.executable, str(HERE / "reference.py"), "--workload", workload]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"speed probe exceeded {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"speed probe failed: exit {proc.returncode}: {proc.stderr.strip().splitlines()[-3:]}"
    sample = json.loads(lines[-1])
    return sample["setup_s"], sample["run_s"]


def scale(record: dict, workload: str, before, after) -> None:
    """Attach the host slowdowns of a repeat, from the probes on either
    side of it: mean reference time over nominal, 1.0 at the nominal speed."""
    for probe in (before, after):
        if isinstance(probe, str):
            record["errors"].append(probe)
    if record["errors"]:
        return
    record["probe_samples"] = [before, after]
    record["setup_slowdown"] = (before[0] + after[0]) / 2 / SETUP_NOMINAL_S
    record["run_slowdown"] = (before[1] + after[1]) / 2 / WORKLOADS[workload].probe_nominal_s


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    OUT.mkdir(exist_ok=True)
    spans_out = OUT / f"{workload}-seed{seed}.spans.json"
    min_repeats = MIN_TRACED_REPEATS if trace else MIN_REPEATS
    start = time.perf_counter()
    records: list[dict] = []
    probe = run_probe(workload, TIME_LIMIT_S)
    if isinstance(probe, str):  # no reference, nothing can be scaled
        return [{"traced": False, "errors": [probe]}]
    # Traced runs end on a complete untraced/traced pair.
    while (len(records) < min_repeats or time.perf_counter() - start < seconds
           or (trace and len(records) % 2 == 1)):
        k = len(records)
        traced = trace and k % 2 == 1
        remaining = TIME_LIMIT_S - (time.perf_counter() - start)
        if remaining <= 0:
            break
        # Repeat k samples with its own seed, so a run of the sampled
        # workload averages over restart counts; the same --seed gives the
        # same sequence. The two repeats of an untraced/traced pair share
        # a seed, so they take the same measurements.
        repeat_seed = seed * 1000 + (k // 2 if trace else k)
        record = run_repeat(workload, repeat_seed, traced, spans_out if k == 1 and trace else None,
                            remaining)
        after = run_probe(workload, max(TIME_LIMIT_S - (time.perf_counter() - start), 1.0))
        scale(record, workload, probe, after)
        probe = after
        if traced and not record["errors"] and not records[-1]["errors"]:
            pair = records[-1]["measurements"], record["measurements"]
            if pair[0] != pair[1]:
                record["errors"].append(f"traced repeat took {pair[1]} measurements, "
                                        f"untraced {pair[0]} with the same seed")
        records.append(record)
    return records


def end_to_end(records: list[dict]) -> dict[str, float]:
    """Medians over repeats; times at the reference host speed."""
    med = statistics.median
    return {
        "setup_s": med(r["setup_s"] / r["setup_slowdown"] for r in records),
        "measurements_per_s": med(
            r["measurements"] / r["run_s"] * r["run_slowdown"] for r in records
        ),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in records),
        "energy_err": med(r["energy_err"] for r in records),
        "neg_log10_p_cum": med(-math.log10(r["p_cum"]) for r in records),
    }


def per_layer(records: list[dict], names: list[str]) -> dict[str, float]:
    """Means over traced repeats; a layer a workload never enters reads 0.

    The tracing overhead is taken per untraced/traced pair (same seed, same
    measurements), each side scaled to the reference host speed by its own
    probes, so host speed swings between the two repeats cancel."""
    traced = [r["layers"] for r in records if r["traced"] and not r["errors"]]
    out = {n: statistics.fmean(t.get(n, 0.0) for t in traced) for n in names}
    pairs = [(u, t) for u, t in zip(records[0::2], records[1::2])
             if not u["errors"] and not t["errors"]]
    if not pairs:
        raise RuntimeError(f"no correct untraced/traced pair: {[r['errors'] for r in records]}")
    scaled = [(u["run_s"] / u["run_slowdown"], t["run_s"] / t["run_slowdown"]) for u, t in pairs]
    out["trace.untraced_run_s"] = statistics.fmean(u for u, _ in scaled)
    out["trace.overhead_s"] = statistics.fmean(t - u for u, t in scaled)
    return out


def summarize(workload: str, seed: int, trace: bool, spec: dict, records: list[dict], env: dict) -> dict:
    ok = [r for r in records if not r["errors"]]
    kinds = {r["traced"] for r in ok}
    if kinds != ({True, False} if trace else {False}):
        raise RuntimeError(f"too few correct repeats: {[r['errors'] for r in records]}")
    defs = spec["per_layer"] if trace else spec["end_to_end"]
    names = [d["name"] for d in defs]
    values = per_layer(records, names) if trace else end_to_end(ok)
    result = {
        "correct": len(ok) == len(records),
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in defs},
    }
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump({"workload": workload, "seed": seed, "environment": env,
                   "records": records, "result": result}, f, indent=1)
    return result


def report(workload: str, seed: int, trace: bool, records: list[dict], result: dict, env: dict) -> None:
    print(f"environment {json.dumps(env)}")
    ok = [r for r in records if not r["errors"] and not r["traced"]]
    med = statistics.median
    restarts = sorted({r["restarts"] for r in ok})
    threads = sorted({r["blas_threads"] for r in ok}, key=str)
    print(f"workload {workload} seed {seed} trace {int(trace)}: {len(records)} repeats, "
          f"untraced medians: run_s {med(r['run_s'] for r in ok):.4f} s, "
          f"host slowdown {med(r['run_slowdown'] for r in ok):.3f}, restarts {restarts}, "
          f"BLAS threads in the repeats after the run {threads}")
    for r in records:
        for err in r["errors"]:
            print(f"FAILED repeat: {err}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")


def self_test() -> int:
    """Run the H2 workload through the same path, untraced and traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()
    problems = []
    for trace in (False, True):
        records = benchmark("h2", 1, 0.0, trace)
        try:
            result = summarize("h2", 1, trace, spec, records, env)
        except RuntimeError as exc:
            problems.append(f"trace {int(trace)}: {exc}")
            continue
        report("h2", 1, trace, records, result, env)
        if not result["correct"]:
            problems.append(f"trace {int(trace)}: failed repeats")
        for r in records:
            if not r.get("traced"):
                continue
            layers = r["layers"]
            parts = layers["pite.self_s"] + sum(layers.get(f"{c}_s", 0.0) for c in RUN_CHILDREN)
            if not math.isclose(parts, layers["pite.run_s"], rel_tol=1e-9):
                problems.append(f"child spans + self {parts} != run {layers['pite.run_s']}")
            if layers["engine.step_calls"] != r["measurements"]:
                problems.append("engine.step_calls differs from the measurement count")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "pite_sim" / "__init__.py").is_file():
        print(f"no pite_sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()
    trace = bool(args.trace)
    records = benchmark(args.workload, args.seed, args.seconds, trace)
    try:
        result = summarize(args.workload, args.seed, trace, spec, records, env)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    report(args.workload, args.seed, trace, records, result, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
