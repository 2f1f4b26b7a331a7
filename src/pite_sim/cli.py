"""Command-line frontend: single runs, parameter sweeps and bound curves.

Every run writes three artifacts next to ``--out``: ``<out>.csv`` (the
trace), ``<out>.json`` (the manifest, whether the run completed, its
restart count and the trace records) and ``<out>.manifest.json`` (the
exact inputs). ``run --manifest <out>.manifest.json`` replays a saved run on
its own: a model or run flag beside it is a usage error, even at its
default value, as the manifest holds them all; only ``--out`` is read.
CSV numbers carry 17 significant digits so postselect traces are
byte-reproducible. A sweep runs its points in order and stops at the
first that annihilates or exhausts its restart budget: its CSV keeps the
rows of the points before (and the exhausted point's own row, marked not
completed), and stderr names the point.

Exit codes: 0 success, 1 usage error, 2 annihilated evolution or exhausted
restart budget.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis
from .engine import EvolutionAnnihilatedError, NoiseModel
from .grouping import (
    GroupedBlock,
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


def _csv_row(cells) -> str:
    """One CSV line: floats with 17 significant digits, integers as is."""
    return ",".join(f"{c:.17g}" if isinstance(c, float) else str(c) for c in cells)


def build_parser(suppress_run_defaults: bool = False) -> argparse.ArgumentParser:
    """The CLI's parser; with ``suppress_run_defaults`` a model or run flag
    of ``run`` that the command line leaves out is left out of the parsed
    namespace (its default is ``argparse.SUPPRESS``), which tells the
    flags given apart."""
    parser = argparse.ArgumentParser(
        prog="pite-sim",
        description="Probabilistic imaginary-time evolution simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument("--model", choices=["h2", "lih", "ising", "file"], required=required)
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
            help="pauli, ising-local, lih-22, or a group-spec file path",
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
    add_model_flags(run_p, required=False)  # cmd_run needs --model or --manifest
    add_run_flags(run_p)
    run_p.add_argument("--out", type=Path, default=Path("pite_run"))
    run_p.add_argument("--manifest", type=Path, help="replay a saved manifest")
    run_p.set_defaults(func=cmd_run)
    if suppress_run_defaults:
        names = {name for _, name, _ in MANIFEST_FIELDS}
        for action in run_p._actions:
            if action.dest in names:
                action.default = argparse.SUPPRESS

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


def _build_model(args: argparse.Namespace) -> PauliHamiltonian:
    if args.model == "h2":
        _require(args.R is not None, "--model h2 needs --R")
        try:
            return build_h2(args.R)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if args.model == "lih":
        return build_lih()
    if args.model == "ising":
        _require(args.n is not None, "--model ising needs --n")
        try:
            return build_ising(args.n, args.J, args.g, args.h)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if args.model == "file":
        _require(args.file is not None, "--model file needs --file")
        try:
            return parse_hamiltonian(args.file.read_text())
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load {args.file}: {exc}") from None
    raise UsageError(f"unknown model {args.model}")


def _default_init(model: str) -> str:
    return {"h2": "hf", "lih": "hf", "ising": "product"}.get(model, "zeros")


def _build_init(args: argparse.Namespace, h: PauliHamiltonian) -> np.ndarray:
    kind = args.init if args.init is not None else _default_init(args.model)
    if kind == "hf":
        _require(args.model in ("h2", "lih"), "--init hf is defined for h2 and lih")
        spec = InitialState.basis("00" if args.model == "h2" else "110000")
    elif kind == "superposition":
        _require(args.model == "lih", "--init superposition is defined for lih")
        spec = InitialState.superposition([(math.sqrt(0.99), "110000"), (0.1, "000011")])
    elif kind == "product":
        _require(args.model == "ising", "--init product is defined for ising")
        spec = InitialState.product(ising_params=(args.J, args.g, args.h))
    elif kind == "zeros":
        spec = InitialState.basis("0" * h.n_qubits)
    elif set(kind) <= {"0", "1"}:
        _require(len(kind) == h.n_qubits, f"basis string needs {h.n_qubits} bits")
        spec = InitialState.basis(kind)
    else:
        raise UsageError(f"unknown init {kind!r}")
    return prepare_initial(spec, h.n_qubits)


def _build_grouping(args: argparse.Namespace, h: PauliHamiltonian) -> list[GroupedBlock] | None:
    """The grouped blocks, or None for per-Pauli evolution."""
    choice = args.grouping
    if choice in (None, "pauli"):
        return None
    if choice == "ising-local":
        _require(args.model == "ising", "--grouping ising-local is defined for ising")
        return ising_local_grouping(args.n, args.J, args.g, args.h)[1]
    if choice == "lih-22":
        spec = lih_groupspec()
    else:
        try:
            spec = parse_groupspec(Path(choice).read_text())
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load grouping {choice}: {exc}") from None
    try:
        return group_hamiltonian(h, spec)
    except ValueError as exc:
        raise UsageError(f"cannot use grouping {choice}: {exc}") from None


def _build_config(args: argparse.Namespace) -> RunConfig:
    noise = None
    if args.noise:
        try:
            eps_r, eps_d = (float(tok) for tok in args.noise.split(","))
            noise = NoiseModel(eps_r, eps_d)
        except ValueError as exc:
            raise UsageError(f"bad --noise value: {exc}") from None
    try:
        return RunConfig(
            mode=args.mode,
            noise=noise,
            seed=args.seed,
            record_every=args.record_every,
            restart_budget=args.restart_budget,
            trajectories=args.trajectories,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _write_trace(out: Path, result: RunResult, manifest: dict) -> None:
    rows = [TRACE_HEADER]
    for r in result.records:
        if not (r.p_cum >= r.rlb):
            raise AssertionError(
                f"trace row {r.step} violates p_cum >= rlb ({r.p_cum} < {r.rlb})"
            )
        rows.append(_csv_row(dataclasses.astuple(r)))
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


# The manifest's entries in key order: (section, argument, type), where a
# section of None is a top-level key. Writing skips a null model entry;
# replaying reads a missing or null entry as its flag's default, except that
# MANIFEST_REQUIRED entries must be present and non-null.
MANIFEST_FIELDS = (
    ("model", "model", str), ("model", "R", float), ("model", "n", int),
    ("model", "J", float), ("model", "g", float), ("model", "h", float),
    (None, "file", Path), (None, "init", str), (None, "grouping", str),
    ("schedule", "dt", float), ("schedule", "beta", float), ("schedule", "order", int),
    ("config", "mode", str), ("config", "noise", str), ("config", "seed", int),
    ("config", "trajectories", int), ("config", "restart_budget", int),
    ("config", "record_every", int),
)
MANIFEST_REQUIRED = {"dt", "beta", "order", "mode", "restart_budget", "record_every"}


def _manifest_from_args(args: argparse.Namespace) -> dict:
    manifest = {"tool": "pite-sim", "version": __version__, "command": "run"}
    for section, name, _ in MANIFEST_FIELDS:
        value = getattr(args, name)
        value = str(value) if isinstance(value, Path) else value
        if section is None:
            manifest[name] = value
        elif section != "model" or value is not None:
            manifest.setdefault(section, {})[name] = value
    return manifest


def _args_from_manifest(given: argparse.Namespace) -> argparse.Namespace:
    """The run the manifest named by ``given.manifest`` describes, on a
    fresh set of flag defaults, written to ``given.out``. A model or run
    flag on the command line ``given.argv``, at any value, its default
    included, is a usage error."""
    explicit = vars(build_parser(suppress_run_defaults=True).parse_args(given.argv))
    for section, name, _ in MANIFEST_FIELDS:
        _require(
            name not in explicit,
            f"--manifest holds the {section or 'model'}; drop --{name.replace('_', '-')}",
        )
    args = build_parser().parse_args(["run", "--out", str(given.out)])
    path = given.manifest
    try:
        saved = json.loads(path.read_text())
        for section, name, kind in MANIFEST_FIELDS:
            entries = saved if section is None else saved[section]
            required = name in MANIFEST_REQUIRED
            value = entries[name] if required else entries.get(name)
            if value is not None or required:
                setattr(args, name, kind(value))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        # ValueError covers malformed JSON; the others a missing or ill-typed entry
        raise UsageError(f"cannot load manifest {path}: {type(exc).__name__}: {exc}") from None
    return args


def _schedule(beta: float, dt: float, order: int) -> Schedule:
    try:
        return Schedule.from_beta(beta, dt, order)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _execute_run(
    args: argparse.Namespace,
) -> tuple[RunResult, PauliHamiltonian, np.ndarray, analysis.SpectrumInfo]:
    """The run ``args`` describe; returns its result, Hamiltonian, initial
    state and exact spectrum."""
    h = _build_model(args)
    init = _build_init(args, h)
    blocks = _build_grouping(args, h)
    config = _build_config(args)
    try:
        check_capacity(h, config)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    schedule = _schedule(args.beta, args.dt, args.order)
    spectrum = analysis.diagonalize(h, init)
    if blocks is None:
        result = run_pite(h, init, schedule, config, spectrum=spectrum)
    else:
        result = run_generalized(h, blocks, init, schedule, config, spectrum=spectrum)
    return result, h, init, spectrum


def cmd_run(args: argparse.Namespace) -> int:
    if args.manifest is None:
        _require(args.model is not None, "run needs --model or --manifest")
    else:
        args = _args_from_manifest(args)
    result = _execute_run(args)[0]
    _write_trace(args.out, result, _manifest_from_args(args))
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


def _sweep_point(point: argparse.Namespace) -> tuple[str, bool]:
    """The point's CSV row and whether its run completed."""
    result, h, init, spectrum = _execute_run(point)
    final = result.final
    e_ite = float(analysis.exact_ite_trace(h, init, [final.beta])[0][0])
    row = _csv_row([  # float(): a seed value prints with 17 digits too
        float(getattr(point, point.axis)), final.energy, final.fidelity, final.p_cum,
        final.rlb, final.alb, spectrum.e0, e_ite, abs(final.energy - e_ite),
        result.restarts, int(result.completed),
    ])
    return row, result.completed


def cmd_sweep(args: argparse.Namespace) -> int:
    values = _sweep_values(args)
    _require(args.axis != "R" or args.model == "h2", "--axis R needs --model h2")
    _require(
        args.axis != "seed" or args.mode == "sample" or args.trajectories is not None,
        "--axis seed needs --mode sample or --trajectories",
    )
    # the axis names are the argument names
    points = [argparse.Namespace(**{**vars(args), args.axis: v}) for v in values]
    for point in points:  # every point's model, schedule and config, before any point runs
        _build_model(point)
        _schedule(point.beta, point.dt, point.order)
        _build_config(point)
    rows, stop = [], None  # stop: why the sweep ended at ``point``
    for point in points:
        try:
            row, completed = _sweep_point(point)
        except EvolutionAnnihilatedError as exc:
            stop = f"annihilated: {exc}"
            break
        rows.append(row)
        if not completed:
            stop = "restart budget exhausted"
            break
    out = args.out.with_suffix(".csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join([SWEEP_HEADER, *rows]) + "\n")
    print(f"sweep: {len(rows)} points -> {out}")
    if stop is not None:
        print(f"sweep stopped at {args.axis}={getattr(point, args.axis):g}; {stop}", file=sys.stderr)
        return 2
    return 0


ANALYZE_HEADER = "beta,rlb,alb,alb_generalized,fidelity_bound"


def cmd_analyze(args: argparse.Namespace) -> int:
    _require(0.0 <= args.beta < math.inf, "--beta must be nonnegative and finite")
    _require(args.beta_points >= 1, "--beta-points must be positive")
    h = _build_model(args)
    init = _build_init(args, h)
    blocks = _build_grouping(args, h)
    spectrum = analysis.diagonalize(h, init)
    minima = sum_block_minima(blocks) if blocks is not None else -h.abs_coeff_sum
    rows = [ANALYZE_HEADER]
    try:  # a zero ground overlap or a zero gap leaves a bound undefined
        kappa0, kappa1 = analysis.kappa_exponents(h, spectrum)
        for beta in map(float, np.linspace(0.0, args.beta, args.beta_points)):
            rows.append(_csv_row([
                beta,
                analysis.rlb(h, beta),
                analysis.alb(h, spectrum, beta),
                analysis.alb_generalized(h, minima, spectrum, beta),
                analysis.fidelity_bound(spectrum.s0, spectrum.gap1, beta),
            ]))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    for label, value in (("E0", spectrum.e0), ("gap1", spectrum.gap1),
                         ("gap_max", spectrum.gap_max), ("s0", spectrum.s0),
                         ("kappa0", kappa0), ("kappa1", kappa1)):
        print(f"{label} = {value:.12g}")
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
    args.argv = sys.argv[1:] if argv is None else list(argv)
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
