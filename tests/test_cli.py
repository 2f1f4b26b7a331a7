"""Tests for the command-line frontend and its trace artifacts."""
import ast
import inspect
import json

import numpy as np
import pytest

from pite_sim.analysis import diagonalize, exact_ite_state
from pite_sim import cli
from pite_sim.cli import main
from pite_sim.hamiltonian import InitialState, build_ising, prepare_initial

H2_E0 = -1.1371172959689005  # dense 4x4 diagonalization at R=0.75


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_run_h2_writes_artifacts(tmp_path):
    out = tmp_path / "h2run"
    code = main(
        [
            "run", "--model", "h2", "--R", "0.75", "--dt", "0.05", "--beta", "2",
            "--order", "1", "--mode", "postselect", "--out", str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(out.with_suffix(".csv"))
    assert header == ["step", "beta", "energy", "fidelity", "p_cum", "rlb", "alb", "restarts"]
    assert len(rows) == 41  # step 0 plus 40 Trotter steps
    final = rows[-1]
    assert abs(float(final["energy"]) - H2_E0) <= 1e-4
    for row in rows:
        assert float(row["p_cum"]) >= float(row["rlb"])
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["completed"] is True
    assert payload["manifest"]["model"]["R"] == 0.75
    assert out.with_suffix(".manifest.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--model", "h2", "--R", "0.75", "--beta", "1"],
        ["--model", "ising", "--n", "4", "--g", "1.2", "--h", "0.3", "--grouping", "ising-local",
         "--mode", "sample", "--seed", "3", "--dt", "0.1", "--beta", "1"],
        ["--model", "lih", "--noise", "1e-5,1e-5", "--beta", "0.1"],
        ["--model", "h2", "--R", "0.75", "--noise", "1e-3,1e-3", "--trajectories", "4",
         "--seed", "5", "--order", "2", "--dt", "0.1", "--beta", "0.5"],
    ],
    ids=["h2-postselect", "ising-grouped-sample", "lih-noisy", "h2-trajectories"],
)
def test_run_manifest_replay_is_byte_identical(tmp_path, argv):
    out1 = tmp_path / "first"
    assert main(["run", *argv, "--out", str(out1)]) == 0
    out2 = tmp_path / "second"
    assert main(
        ["run", "--manifest", str(out1.with_suffix(".manifest.json")), "--out", str(out2)]
    ) == 0
    for suffix in (".csv", ".json", ".manifest.json"):
        assert out1.with_suffix(suffix).read_bytes() == out2.with_suffix(suffix).read_bytes()


def test_run_manifest_missing_file_usage_error(tmp_path, capsys):
    code = main(["run", "--manifest", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "cannot load manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        ([], "run needs --model or --manifest"),
        (["--model", "lih", "--manifest", "{saved}"], "--manifest holds the model; drop --model"),
    ],
    ids=["neither", "both"],
)
def test_run_needs_exactly_one_of_model_and_manifest(tmp_path, capsys, flags, message):
    """The manifest holds the model, so a --model beside it is an error
    where it was silently dropped."""
    saved = tmp_path / "saved"
    assert main(["run", "--model", "h2", "--R", "0.75", "--beta", "0.2", "--out", str(saved)]) == 0
    capsys.readouterr()
    argv = [flag.format(saved=saved.with_suffix(".manifest.json")) for flag in flags]
    assert main(["run", *argv, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--R", "1.45"], "--manifest holds the model; drop --R"),
        (["--init", "01"], "--manifest holds the model; drop --init"),
        (["--beta", "3"], "--manifest holds the schedule; drop --beta"),
        (["--noise", "1e-3,1e-3"], "--manifest holds the config; drop --noise"),
        (["--restart-budget", "5"], "--manifest holds the config; drop --restart-budget"),
        (["--beta", "1"], "--manifest holds the schedule; drop --beta"),
        (["--J", "1.0"], "--manifest holds the model; drop --J"),
        (["--mode", "postselect"], "--manifest holds the config; drop --mode"),
        (["--restart-budget=1000"], "--manifest holds the config; drop --restart-budget"),
    ],
    ids=["model", "init", "schedule", "config", "config-dashed", "schedule-default",
         "model-default", "config-default", "config-dashed-default"],
)
def test_run_manifest_rejects_the_flags_it_would_ignore(tmp_path, capsys, flags, message):
    """A model or run flag beside --manifest is an error where the replay
    silently ignored it, also when given at its default value; --out is
    read as before."""
    saved = tmp_path / "saved"
    assert main(["run", "--model", "h2", "--R", "0.75", "--beta", "0.2", "--out", str(saved)]) == 0
    manifest = str(saved.with_suffix(".manifest.json"))
    capsys.readouterr()
    assert main(["run", "--manifest", manifest, *flags, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()
    assert main(["run", "--manifest", manifest, "--out", str(tmp_path / "y")]) == 0
    assert (tmp_path / "y.csv").read_bytes() == saved.with_suffix(".csv").read_bytes()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda m: m["schedule"].pop("dt"),  # missing key
        lambda m: m.update(schedule=[0.05, 1.0, 1]),  # ill-typed section
        lambda m: m["schedule"].update(dt="fast"),  # ill-typed value
        lambda m: m["config"].update(noise=1e-5),  # ill-typed noise spec
        lambda m: m["schedule"].update(dt=None),  # null required entry
        lambda m: m["config"].update(record_every=None),
    ],
    ids=["missing-dt", "schedule-list", "dt-string", "noise-number", "dt-null",
         "record-every-null"],
)
def test_run_manifest_malformed_usage_error(tmp_path, capsys, corrupt):
    out = tmp_path / "first"
    assert main(["run", "--model", "h2", "--R", "0.75", "--beta", "0.2", "--out", str(out)]) == 0
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    corrupt(manifest)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(manifest))
    code = main(["run", "--manifest", str(bad), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    bad.write_text("{not json")
    assert main(["run", "--manifest", str(bad), "--out", str(tmp_path / "y")]) == 1


def test_run_untabulated_distance_usage_error(tmp_path, capsys):
    code = main(["run", "--model", "h2", "--R", "0.80", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "not tabulated" in capsys.readouterr().err


def test_run_annihilation_exit_code(tmp_path):
    ham = tmp_path / "ham.txt"
    ham.write_text("10.0 Z\n")
    code = main(
        ["run", "--model", "file", "--file", str(ham), "--init", "0",
         "--dt", "1.0", "--beta", "1.0", "--out", str(tmp_path / "a")]
    )
    assert code == 2


def test_run_sample_mode_needs_seed(tmp_path, capsys):
    code = main(
        ["run", "--model", "h2", "--R", "0.75", "--mode", "sample",
         "--out", str(tmp_path / "s")]
    )
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_run_noise_capacity_error(tmp_path, capsys):
    code = main(
        ["run", "--model", "ising", "--n", "13", "--J", "1", "--g", "0.5",
         "--noise", "1e-5,1e-5", "--out", str(tmp_path / "big")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "trajectories" in err and "noise limited to 12 qubits, got 13" in err


def test_run_oracle_capacity_error(tmp_path, capsys):
    # a 13-qubit statevector fits, but the exact oracle's dense H does not
    code = main(["run", "--model", "ising", "--n", "13", "--beta", "0.1",
                 "--out", str(tmp_path / "wide")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "limited to 12 qubits, got 13" in err
    assert "Traceback" not in err


def test_run_ising_grouped(tmp_path):
    out = tmp_path / "ising"
    code = main(
        ["run", "--model", "ising", "--n", "4", "--J", "1", "--g", "1.2", "--h", "0.3",
         "--grouping", "ising-local", "--dt", "0.1", "--beta", "1", "--out", str(out)]
    )
    assert code == 0
    _, rows = read_csv(out.with_suffix(".csv"))
    assert float(rows[-1]["p_cum"]) > float(rows[-1]["rlb"])


def test_run_file_model_with_grouping_file(tmp_path):
    ham = tmp_path / "ham.txt"
    ham.write_text("-0.6 ZZ\n0.4 XI\n0.4 IX\n")
    groups = tmp_path / "groups.txt"
    groups.write_text("1,2\n3\n")
    out = tmp_path / "filerun"
    code = main(
        ["run", "--model", "file", "--file", str(ham), "--init", "00",
         "--grouping", str(groups), "--dt", "0.1", "--beta", "0.5", "--out", str(out)]
    )
    assert code == 0


ISING4 = ["--model", "ising", "--n", "4", "--g", "1.2", "--h", "0.3"]  # 12 terms


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_grouping_that_does_not_fit_the_model_is_a_usage_error(tmp_path, capsys, command):
    code = main([command, *ISING4, "--grouping", "lih-22", "--beta", "0.5",
                 "--out", str(tmp_path / "lih22")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot use grouping lih-22: ")
    assert "term index 13 outside 1..12" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_grouping_file_with_unknown_term_is_a_usage_error(tmp_path, capsys, command):
    groups = tmp_path / "groups.txt"
    groups.write_text("1,2\n99\n")
    code = main([command, *ISING4, "--grouping", str(groups), "--beta", "0.5",
                 "--out", str(tmp_path / "index99")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot use grouping ")
    assert "term index 99 outside 1..12" in err and "Traceback" not in err


def test_run_sampled_with_restarts(tmp_path):
    out = tmp_path / "sampled"
    code = main(
        ["run", "--model", "h2", "--R", "0.75", "--dt", "0.2", "--beta", "1",
         "--mode", "sample", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["completed"] is True


def test_sweep_r_axis(tmp_path):
    out = tmp_path / "rsweep"
    code = main(
        ["sweep", "--model", "h2", "--axis", "R", "--beta", "1", "--dt", "0.05",
         "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out.with_suffix(".csv"))
    assert header[0] == "value"
    assert len(rows) == 9
    best = min(rows, key=lambda r: float(r["energy"]))
    assert float(best["value"]) == 0.75


def test_sweep_dt_axis_error_ratio(tmp_path):
    out = tmp_path / "dtsweep"
    code = main(
        ["sweep", "--model", "h2", "--R", "0.75", "--axis", "dt",
         "--values", "0.2,0.1,0.05", "--beta", "1", "--out", str(out)]
    )
    assert code == 0
    _, rows = read_csv(out.with_suffix(".csv"))
    errors = [float(r["trotter_err"]) for r in rows]
    assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.25)
    assert errors[1] / errors[2] == pytest.approx(2.0, rel=0.25)


def test_sweep_seed_axis_success_fraction(tmp_path):
    out = tmp_path / "seedsweep"
    code = main(
        ["sweep", "--model", "h2", "--R", "0.75", "--axis", "seed",
         "--values", ",".join(str(s) for s in range(8)),
         "--dt", "0.2", "--beta", "1", "--mode", "sample", "--seed", "0",
         "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out.with_suffix(".csv"))
    assert "completed" in header
    assert all(r["completed"] in ("0", "1") for r in rows)


def test_sweep_row_reports_the_exact_and_trotterized_energies(tmp_path):
    out = tmp_path / "ising"
    assert main(["sweep", *ISING4, "--grouping", "ising-local", "--axis", "beta",
                 "--values", "0.5,1", "--dt", "0.1", "--out", str(out)]) == 0
    h = build_ising(4, 1.0, 1.2, 0.3)
    init = prepare_initial(InitialState.product(ising_params=(1.0, 1.2, 0.3)), 4)
    e0 = diagonalize(h, init).e0
    _, rows = read_csv(out.with_suffix(".csv"))
    for row, beta in zip(rows, (0.5, 1.0)):
        ite = exact_ite_state(h, init, beta)
        e_ite = float(np.real(np.vdot(ite, h.dense_matrix() @ ite)))
        assert float(row["e_exact"]) == e0
        assert float(row["e_ite"]) == e_ite
        assert float(row["trotter_err"]) == abs(float(row["energy"]) - e_ite)


@pytest.mark.parametrize(
    "argv, kept, stop",
    [
        (["--model", "file", "--file", "{ham}", "--init", "0", "--axis", "dt",
          "--values", "0.1,1.0,0.05", "--beta", "1"],
         1, "sweep stopped at dt=1; annihilated: ancilla-0 probability "),
        (["--model", "h2", "--R", "0.75", "--axis", "seed", "--values", "0,1,2,3,4,5",
          "--mode", "sample", "--restart-budget", "0", "--dt", "0.2", "--beta", "1"],
         4, "sweep stopped at seed=3; restart budget exhausted"),
    ],
    ids=["annihilated", "budget-exhausted"],
)
def test_sweep_keeps_the_rows_before_the_point_that_ends_it(tmp_path, capsys, argv, kept, stop):
    """A point that annihilates, or exhausts its restart budget, ends the
    sweep with exit 2 and names itself on stderr; the CSV keeps the rows
    of the points before it (and the exhausted point's own row, marked
    not completed), where an annihilation wrote no CSV at all."""
    ham = tmp_path / "ham.txt"
    ham.write_text("10.0 Z\n")
    out = tmp_path / "sweep"
    argv = [a.format(ham=ham) for a in argv]
    assert main(["sweep", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(stop) and "Traceback" not in err
    header, rows = read_csv(out.with_suffix(".csv"))
    assert header == cli.SWEEP_HEADER.split(",")
    assert len(rows) == kept
    assert all(r["completed"] == "1" for r in rows[:-1])
    assert rows[-1]["completed"] == ("1" if "annihilated" in stop else "0")


def test_sweep_empty_values(tmp_path, capsys):
    code = main(
        ["sweep", "--model", "h2", "--R", "0.75", "--axis", "dt", "--out", str(tmp_path / "e")]
    )
    assert code == 1


def test_analyze_prints_summary(tmp_path, capsys):
    code = main(["analyze", "--model", "h2", "--R", "0.75", "--beta", "2", "--beta-points", "5"])
    assert code == 0
    text = capsys.readouterr().out
    assert "E0 = " in text
    assert "kappa0" in text
    lines = [l for l in text.splitlines() if l and l[0].isdigit() or l.startswith("0")]
    header_line = [l for l in text.splitlines() if l.startswith("beta,")]
    assert header_line
    first = text.splitlines()[text.splitlines().index(header_line[0]) + 1].split(",")
    assert float(first[1]) == 1.0  # rlb at beta 0
    assert float(first[2]) == 1.0  # alb at beta 0


@pytest.mark.parametrize(
    "model, message",
    [
        (["--model", "h2", "--R", "0.75", "--init", "01"],
         "ALB undefined for zero initial ground overlap"),
        (["--model", "file", "--file", "{ham}"],
         "kappa exponents need a strictly positive first gap"),
    ],
    ids=["zero-ground-overlap", "zero-gap"],
)
def test_analyze_undefined_bound_is_a_usage_error(tmp_path, capsys, model, message):
    """The analysis module's input errors exit 1 with ``error:`` before any
    summary line is printed, where they ended in a traceback."""
    ham = tmp_path / "ham.txt"
    ham.write_text("1e-12 Z\n")
    argv = [arg.format(ham=ham) for arg in model]
    assert main(["analyze", *argv, "--beta", "1", "--beta-points", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_analyze_with_grouping_to_file(tmp_path):
    out = tmp_path / "bounds"
    code = main(
        ["analyze", "--model", "lih", "--grouping", "lih-22", "--beta", "1",
         "--beta-points", "3", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out.with_suffix(".csv"))
    assert "alb_generalized" in header
    # the grouped bound sits above the per-Pauli one at beta > 0
    assert float(rows[-1]["alb_generalized"]) > float(rows[-1]["alb"])


def test_manifest_fields_match_the_run_flags():
    """Every model and run flag is written to and replayed from the
    manifest, so a flag added to the parser alone fails here."""
    parser = cli.build_parser()
    names = [name for _, name, _ in cli.MANIFEST_FIELDS]
    assert len(set(names)) == len(names)
    assert cli.MANIFEST_REQUIRED <= set(names)
    run_dests = set(vars(parser.parse_args(["run"]))) - {"command", "func", "out", "manifest"}
    sweep_dests = set(vars(parser.parse_args(["sweep", "--model", "h2", "--axis", "R"])))
    assert run_dests == set(names)
    assert sweep_dests - {"command", "func", "out", "axis", "values"} == set(names)


def test_run_help_names_every_grouping_keyword(capsys, monkeypatch):
    """``run --help`` names each keyword that ``_build_grouping`` compares
    ``--grouping`` with, read from its source, so a keyword added there
    alone fails here."""
    tree = ast.parse(inspect.getsource(cli._build_grouping))
    keywords = {
        node.value
        for compare in ast.walk(tree)
        if isinstance(compare, ast.Compare) and getattr(compare.left, "id", None) == "choice"
        for node in ast.walk(compare)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert keywords >= {"pauli", "ising-local", "lih-22"}
    monkeypatch.setenv("COLUMNS", "200")  # no line break inside a keyword
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    grouping_help = next(line for line in lines if line.lstrip().startswith("--grouping"))
    missing = [k for k in sorted(keywords) if k not in grouping_help]
    assert not missing, grouping_help


def test_cli_17_digit_roundtrip(tmp_path):
    out = tmp_path / "digits"
    main(["run", "--model", "h2", "--R", "0.75", "--beta", "0.5", "--out", str(out)])
    payload = json.loads(out.with_suffix(".json").read_text())
    _, rows = read_csv(out.with_suffix(".csv"))
    for row, rec in zip(rows, payload["records"]):
        assert float(row["energy"]) == rec["energy"]
        assert float(row["p_cum"]) == rec["p_cum"]


H2_FLAGS = ["--model", "h2", "--R", "0.75"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", *H2_FLAGS, "--dt", "0"], "dt must be positive"),
        (["run", *H2_FLAGS, "--dt", "-1"], "dt must be positive"),
        (["run", *H2_FLAGS, "--beta", "0"], "beta must be positive"),
        (["run", *H2_FLAGS, "--mode", "sample", "--seed", "1", "--restart-budget", "-1"],
         "restart_budget"),
        (["sweep", *H2_FLAGS, "--axis", "dt", "--values", "0.1,-0.1"], "dt must be positive"),
        (["sweep", *H2_FLAGS, "--axis", "beta", "--values", "0.5,-1"], "beta must be positive"),
        (["analyze", *H2_FLAGS, "--beta", "-1"], "--beta must be nonnegative"),
        (["analyze", *H2_FLAGS, "--beta-points", "0"], "--beta-points must be positive"),
        (["run", *H2_FLAGS, "--beta", "inf"], "beta must be positive and finite"),
        (["run", *H2_FLAGS, "--dt", "inf"], "dt must be positive and finite"),
        (["run", *H2_FLAGS, "--dt", "nan"], "dt must be positive and finite"),
        (["sweep", *H2_FLAGS, "--axis", "dt", "--values", "0.1,inf"],
         "dt must be positive and finite"),
        (["analyze", *H2_FLAGS, "--beta", "inf"], "--beta must be nonnegative and finite"),
        (["sweep", *H2_FLAGS, "--axis", "seed", "--values", "1.5,2.7"],
         "--values must be a comma-separated integer list"),
        (["run", *H2_FLAGS, "--mode", "sample", "--seed", "-1", "--beta", "0.2", "--dt", "0.1"],
         "seed must be nonnegative, got -1"),
        (["sweep", *H2_FLAGS, "--axis", "seed", "--values", "1,-1", "--mode", "sample"],
         "seed must be nonnegative, got -1"),
        (["sweep", "--model", "lih", "--axis", "R", "--values", "0.5,0.75"],
         "--axis R needs --model h2"),
        (["sweep", *H2_FLAGS, "--axis", "seed", "--values", "1,2"],
         "--axis seed needs --mode sample or --trajectories"),
        (["run", *H2_FLAGS, "--trajectories", "5", "--seed", "1"],
         "trajectory mode needs a noise model that is not the identity"),
        (["sweep", *H2_FLAGS, "--axis", "seed", "--values", "1,2", "--trajectories", "3"],
         "trajectory mode needs a noise model that is not the identity"),
        (["run", *H2_FLAGS, "--trajectories", "5", "--seed", "1", "--noise", "0,0"],
         "trajectory mode needs a noise model that is not the identity"),
        (["sweep", "--model", "h2", "--axis", "R", "--values", "0.75,1.45,0.8"],
         "R=0.8 not tabulated"),
    ],
    ids=["run-dt-0", "run-dt-negative", "run-beta-0", "run-negative-budget", "sweep-dt",
         "sweep-beta", "analyze-beta", "analyze-beta-points", "run-beta-inf", "run-dt-inf",
         "run-dt-nan", "sweep-dt-inf", "analyze-beta-inf", "sweep-seed-fraction",
         "run-negative-seed", "sweep-negative-seed", "sweep-R-without-h2",
         "sweep-unused-seed", "run-noiseless-trajectories", "sweep-noiseless-trajectories",
         "run-identity-noise-trajectories", "sweep-untabulated-R"],
)
def test_bad_schedule_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, message):
    """Each exits 1 with ``error:`` before anything is printed or written
    and, in a sweep, before any point runs, where it raised a traceback,
    ran at another beta, ran an infinite step, ran the integer parts of
    fractional seeds, ran the points before a negative seed or an
    untabulated distance, wrote identical rows along an axis the run
    ignores, or ran identical noiseless trajectories."""
    monkeypatch.setattr(cli, "_sweep_point", lambda point: pytest.fail("a sweep point ran"))
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert list(tmp_path.iterdir()) == []
