"""Command-line frontend: single runs, parameter sweeps and bound curves.

Every run writes three artifacts next to ``--out``: ``<out>.csv`` (the
trace), ``<out>.json`` (the trace plus metadata) and ``<out>.manifest.json``
(the exact inputs; ``run --manifest`` replays it). CSV numbers carry 17
significant digits so postselect traces are byte-reproducible.

Exit codes: 0 success, 1 usage error, 2 annihilated evolution or exhausted
restart budget.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, analysis
from .engine import EvolutionAnnihilatedError, NoiseModel
from .grouping import (
    group_hamiltonian,
    ising_local_grouping,
    lih_groupspec,
    parse_groupspec,
    sum_block_minima,
)
from .hamiltonian import (
    H2_DISTANCES,
    InitialState,
    PauliHamiltonian,
    build_h2,
    build_ising,
    build_lih,
    parse_hamiltonian,
    prepare_initial,
)
from .pite import (
    RunConfig,
    RunResult,
    Schedule,
    check_capacity,
    run_generalized,
    run_pite,
)

TRACE_HEADER = "step,beta,energy,fidelity,p_cum,rlb,alb,restarts"


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pite-sim",
        description="Probabilistic imaginary-time evolution simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", choices=["h2", "lih", "ising", "file"], required=True)
        p.add_argument("--R", type=float, help="H2 interatomic distance (angstrom)")
        p.add_argument("--n", type=int, help="ising site count")
        p.add_argument("--J", type=float, default=1.0, help="ising coupling")
        p.add_argument("--g", type=float, default=0.0, help="ising transverse field")
        p.add_argument("--h", type=float, default=0.0, help="ising longitudinal field")
        p.add_argument("--file", type=Path, help="Hamiltonian text file")
        p.add_argument(
            "--init",
            default=None,
            help="initial state: hf, superposition, product, or a 0/1 basis string",
        )
        p.add_argument(
            "--grouping",
            default=None,
            help="pauli, ising-local, or a group-spec file path",
        )

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dt", type=float, default=0.05)
        p.add_argument("--beta", type=float, default=1.0)
        p.add_argument("--order", type=int, choices=[1, 2], default=1)
        p.add_argument("--mode", choices=["postselect", "sample"], default="postselect")
        p.add_argument("--noise", default=None, metavar="EPS_R,EPS_D")
        p.add_argument("--trajectories", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--restart-budget", type=int, default=1000)
        p.add_argument("--record-every", type=int, default=1)

    run_p = sub.add_parser("run", help="single evolution, trace written as CSV+JSON")
    add_model_flags(run_p)
    add_run_flags(run_p)
    run_p.add_argument("--out", type=Path, default=Path("pite_run"))
    run_p.add_argument("--manifest", type=Path, help="replay a saved manifest")
    # --manifest replaces the model/run flags; argparse can't express that,
    # so --model is re-validated in cmd_run.
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="one run per sweep point, aggregated CSV")
    add_model_flags(sweep_p)
    add_run_flags(sweep_p)
    sweep_p.add_argument("--axis", choices=["R", "dt", "beta", "seed"], required=True)
    sweep_p.add_argument(
        "--values", default=None, help="comma-separated sweep values (default for R: all tabulated)"
    )
    sweep_p.add_argument("--out", type=Path, default=Path("pite_sweep"))
    sweep_p.set_defaults(func=cmd_sweep)

    an_p = sub.add_parser("analyze", help="spectrum summary and bound curves")
    add_model_flags(an_p)
    an_p.add_argument("--beta", type=float, default=4.0, help="largest beta on the grid")
    an_p.add_argument("--beta-points", type=int, default=41)
    an_p.add_argument("--out", type=Path, default=None, help="CSV path (default stdout)")
    an_p.set_defaults(func=cmd_analyze)
    return parser


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _build_model(args: argparse.Namespace) -> tuple[PauliHamiltonian, dict]:
    meta: dict = {"model": args.model}
    if args.model == "h2":
        _require(args.R is not None, "--model h2 needs --R")
        meta["R"] = args.R
        try:
            return build_h2(args.R), meta
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if args.model == "lih":
        return build_lih(), meta
    if args.model == "ising":
        _require(args.n is not None, "--model ising needs --n")
        meta.update(n=args.n, J=args.J, g=args.g, h=args.h)
        try:
            return build_ising(args.n, args.J, args.g, args.h), meta
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if args.model == "file":
        _require(args.file is not None, "--model file needs --file")
        meta["file"] = str(args.file)
        try:
            return parse_hamiltonian(args.file.read_text()), meta
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load {args.file}: {exc}") from None
    raise UsageError(f"unknown model {args.model}")


def _default_init(model: str) -> str:
    return {"h2": "hf", "lih": "hf", "ising": "product"}.get(model, "zeros")


def _build_init(args: argparse.Namespace, h: PauliHamiltonian) -> tuple[np.ndarray, dict]:
    kind = args.init if args.init is not None else _default_init(args.model)
    meta = {"init": kind}
    if kind == "hf":
        _require(args.model in ("h2", "lih"), "--init hf is defined for h2 and lih")
        bits = "00" if args.model == "h2" else "110000"
        return prepare_initial(InitialState.basis(bits), h.n_qubits), meta
    if kind == "superposition":
        _require(args.model == "lih", "--init superposition is defined for lih")
        spec = InitialState.superposition([(math.sqrt(0.99), "110000"), (0.1, "000011")])
        return prepare_initial(spec, h.n_qubits), meta
    if kind == "product":
        _require(args.model == "ising", "--init product is defined for ising")
        return (
            prepare_initial(
                InitialState.product(ising_params=(args.J, args.g, args.h)), h.n_qubits
            ),
            meta,
        )
    if kind == "zeros":
        return prepare_initial(InitialState.basis("0" * h.n_qubits), h.n_qubits), meta
    if set(kind) <= {"0", "1"}:
        _require(len(kind) == h.n_qubits, f"basis string needs {h.n_qubits} bits")
        return prepare_initial(InitialState.basis(kind), h.n_qubits), meta
    raise UsageError(f"unknown init {kind!r}")


def _build_grouping(args: argparse.Namespace, h: PauliHamiltonian):
    """Returns (blocks or None, meta). None means per-Pauli evolution."""
    choice = args.grouping
    if choice in (None, "pauli"):
        return None, {"grouping": "pauli"}
    if choice == "ising-local":
        _require(args.model == "ising", "--grouping ising-local is defined for ising")
        _, blocks = ising_local_grouping(args.n, args.J, args.g, args.h)
        return blocks, {"grouping": "ising-local"}
    if choice == "lih-22":
        spec, name = lih_groupspec(), choice
    else:
        path = Path(choice)
        try:
            spec = parse_groupspec(path.read_text())
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load grouping {choice}: {exc}") from None
        name = str(path)
    try:
        blocks = group_hamiltonian(h, spec)
    except ValueError as exc:
        raise UsageError(f"cannot use grouping {choice}: {exc}") from None
    return blocks, {"grouping": name}


def _build_config(args: argparse.Namespace, h: PauliHamiltonian) -> tuple[RunConfig, dict]:
    noise = None
    meta: dict = {}
    if args.noise:
        try:
            eps_r, eps_d = (float(tok) for tok in args.noise.split(","))
            noise = NoiseModel(eps_r, eps_d)
        except ValueError as exc:
            raise UsageError(f"bad --noise value: {exc}") from None
        meta["noise"] = {"eps_r": noise.eps_r, "eps_d": noise.eps_d}
    meta.update(mode=args.mode, seed=args.seed)
    try:
        config = RunConfig(
            mode=args.mode,
            noise=noise,
            seed=args.seed,
            record_every=args.record_every,
            restart_budget=args.restart_budget,
            trajectories=args.trajectories,
        )
        check_capacity(h, config)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return config, meta


def _write_trace(out: Path, result: RunResult, manifest: dict) -> None:
    rows = [TRACE_HEADER]
    for r in result.records:
        if not (r.p_cum >= r.rlb):
            raise AssertionError(
                f"trace row {r.step} violates p_cum >= rlb ({r.p_cum} < {r.rlb})"
            )
        rows.append(
            ",".join(
                [
                    str(r.step),
                    _fmt(r.beta),
                    _fmt(r.energy),
                    _fmt(r.fidelity),
                    _fmt(r.p_cum),
                    _fmt(r.rlb),
                    _fmt(r.alb),
                    str(r.restarts),
                ]
            )
        )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.with_suffix(".csv").write_text("\n".join(rows) + "\n")
    payload = {
        "manifest": manifest,
        "completed": result.completed,
        "restarts": result.restarts,
        "records": [r.__dict__ for r in result.records],
    }
    out.with_suffix(".json").write_text(json.dumps(payload, indent=2) + "\n")
    out.with_suffix(".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _manifest_from_args(args: argparse.Namespace, extra: dict) -> dict:
    manifest = {
        "tool": "pite-sim",
        "version": __version__,
        "command": "run",
        "model": {
            k: getattr(args, k)
            for k in ("model", "R", "n", "J", "g", "h")
            if getattr(args, k, None) is not None
        },
        "file": str(args.file) if args.file else None,
        "init": args.init,
        "grouping": args.grouping,
        "schedule": {"dt": args.dt, "beta": args.beta, "order": args.order},
        "config": {
            "mode": args.mode,
            "noise": args.noise,
            "seed": args.seed,
            "trajectories": args.trajectories,
            "restart_budget": args.restart_budget,
            "record_every": args.record_every,
        },
    }
    manifest.update(extra)
    return manifest


def _args_from_manifest(path: Path, args: argparse.Namespace) -> argparse.Namespace:
    def optional(convert, value):
        return None if value is None else convert(value)

    try:
        saved = json.loads(path.read_text())
        model = saved.get("model", {})
        for key, convert in (("model", str), ("R", float), ("n", int), ("J", float),
                             ("g", float), ("h", float)):
            if key in model:
                setattr(args, key, convert(model[key]))
        args.file = Path(saved["file"]) if saved.get("file") else None
        args.init = optional(str, saved.get("init"))
        args.grouping = optional(str, saved.get("grouping"))
        sched = saved["schedule"]
        args.dt, args.beta = float(sched["dt"]), float(sched["beta"])
        args.order = int(sched["order"])
        cfg = saved["config"]
        args.mode = cfg["mode"]
        args.noise = optional(str, cfg["noise"])
        args.seed = optional(int, cfg["seed"])
        args.trajectories = optional(int, cfg["trajectories"])
        args.restart_budget = int(cfg["restart_budget"])
        args.record_every = int(cfg["record_every"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        # ValueError covers malformed JSON; the others a missing or ill-typed entry
        raise UsageError(f"cannot load manifest {path}: {type(exc).__name__}: {exc}") from None
    return args


def _schedule(beta: float, dt: float, order: int) -> Schedule:
    try:
        return Schedule.from_beta(beta, dt, order)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _execute_run(args: argparse.Namespace) -> tuple[RunResult, dict]:
    h, model_meta = _build_model(args)
    init, init_meta = _build_init(args, h)
    blocks, group_meta = _build_grouping(args, h)
    config, config_meta = _build_config(args, h)
    schedule = _schedule(args.beta, args.dt, args.order)
    if blocks is None:
        result = run_pite(h, init, schedule, config)
    else:
        result = run_generalized(h, blocks, init, schedule, config)
    meta = {**model_meta, **init_meta, **group_meta, **config_meta}
    return result, meta


def cmd_run(args: argparse.Namespace) -> int:
    if args.manifest is not None:
        args = _args_from_manifest(args.manifest, args)
    result, meta = _execute_run(args)
    manifest = _manifest_from_args(args, {})
    _write_trace(args.out, result, manifest)
    final = result.records[-1]
    print(
        f"run: beta={final.beta:g} energy={final.energy:.10g} "
        f"fidelity={final.fidelity:.8f} p_cum={final.p_cum:.6g} restarts={result.restarts}"
    )
    if not result.completed:
        print("restart budget exhausted; partial trace written", file=sys.stderr)
        return 2
    return 0


SWEEP_HEADER = (
    "value,energy,fidelity,p_cum,rlb,alb,e_exact,e_ite,trotter_err,restarts,completed"
)


def _sweep_values(args: argparse.Namespace) -> list[float] | list[int]:
    if args.values:
        kind, what = (int, "integer") if args.axis == "seed" else (float, "number")
        try:
            return [kind(tok) for tok in args.values.split(",")]
        except ValueError:
            raise UsageError(f"--values must be a comma-separated {what} list") from None
    if args.axis == "R":
        return list(H2_DISTANCES)
    raise UsageError(f"--axis {args.axis} needs --values")


def _sweep_point(payload: tuple) -> list[str]:
    args, axis, value = payload
    if axis == "R":
        args.R = value
    elif axis == "dt":
        args.dt = value
    elif axis == "beta":
        args.beta = value
    elif axis == "seed":
        args.seed = value
    result, _ = _execute_run(args)
    h, _ = _build_model(args)
    init, _ = _build_init(args, h)
    spectrum = analysis.diagonalize(h, init)
    ite_vec = analysis.exact_ite_state(h, init, result.final.beta)
    hmat = h.dense_matrix()
    e_ite = float(np.real(np.vdot(ite_vec, hmat @ ite_vec)))
    final = result.final
    return [
        _fmt(value),
        _fmt(final.energy),
        _fmt(final.fidelity),
        _fmt(final.p_cum),
        _fmt(final.rlb),
        _fmt(final.alb),
        _fmt(spectrum.e0),
        _fmt(e_ite),
        _fmt(abs(final.energy - e_ite)),
        str(result.restarts),
        str(int(result.completed)),
    ]


def cmd_sweep(args: argparse.Namespace) -> int:
    values = _sweep_values(args)
    if not values:
        raise UsageError("empty sweep")
    if args.axis in ("dt", "beta"):  # every point's schedule, before any point runs
        for v in values:
            _schedule(**{"beta": args.beta, "dt": args.dt, args.axis: v}, order=args.order)
    payloads = [(args, args.axis, v) for v in values]
    threads = os.environ.get("PITE_SIM_THREADS", "1")
    try:
        workers = int(threads)
    except ValueError:
        raise UsageError(f"PITE_SIM_THREADS must be an integer, got {threads!r}") from None
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, payloads))
    else:
        rows = [_sweep_point(p) for p in payloads]
    out = args.out.with_suffix(".csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join([SWEEP_HEADER] + [",".join(r) for r in rows]) + "\n")
    print(f"sweep: {len(rows)} points -> {out}")
    return 0


ANALYZE_HEADER = "beta,rlb,alb,alb_generalized,fidelity_bound"


def cmd_analyze(args: argparse.Namespace) -> int:
    _require(0.0 <= args.beta < math.inf, "--beta must be nonnegative and finite")
    _require(args.beta_points >= 1, "--beta-points must be positive")
    h, _ = _build_model(args)
    init, _ = _build_init(args, h)
    blocks, _ = _build_grouping(args, h)
    spectrum = analysis.diagonalize(h, init)
    kappa0, kappa1 = analysis.kappa_exponents(h, spectrum)
    print(f"E0 = {spectrum.e0:.12g}")
    print(f"gap1 = {spectrum.gap1:.12g}")
    print(f"gap_max = {spectrum.gap_max:.12g}")
    print(f"s0 = {spectrum.s0:.12g}")
    print(f"kappa0 = {kappa0:.12g}")
    print(f"kappa1 = {kappa1:.12g}")
    betas = np.linspace(0.0, args.beta, args.beta_points)
    minima = sum_block_minima(blocks) if blocks is not None else -h.abs_coeff_sum
    rows = [ANALYZE_HEADER]
    for beta in betas:
        beta = float(beta)
        rows.append(
            ",".join(
                [
                    _fmt(beta),
                    _fmt(analysis.rlb(h, beta)),
                    _fmt(analysis.alb(h, spectrum, beta)),
                    _fmt(analysis.alb_generalized(h, minima, spectrum, beta)),
                    _fmt(analysis.fidelity_bound(spectrum.s0, spectrum.gap1, beta)),
                ]
            )
        )
    text = "\n".join(rows) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        out = args.out.with_suffix(".csv")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"bounds -> {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, analysis.OracleCapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EvolutionAnnihilatedError as exc:
        print(f"annihilated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
