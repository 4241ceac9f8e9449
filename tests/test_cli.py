import csv
import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from laguerre_intertwine import cli, determinantal, experiments, process
from laguerre_intertwine.cli import ExperimentConfig, ConfigError, main


def run(argv):
    return main(argv)


def test_kernels_check_passes_and_writes_csv(tmp_path):
    rc = run(["kernels-check", "--out", str(tmp_path), "--n", "1"])
    assert rc == 0
    rows = (tmp_path / "kernels_check.csv").read_text().splitlines()
    assert rows[0].startswith("check,kernel,alpha,N,anchor,integral,error,tol,pass")
    assert len(rows) > 5
    # a composition row has no integral; its error column holds the worst relative error
    composition = [r for r in csv.DictReader(rows) if r["check"] == "composition"]
    assert composition and all(r["integral"] == "" and float(r["error"]) <= 1e-6 for r in composition)
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "experiment,detail,statistic,threshold,seed,pass"


def test_kernels_check_unsupported_dimension(tmp_path):
    assert run(["kernels-check", "--out", str(tmp_path), "--n", "9"]) == 2


def test_kernels_check_normalizes_every_kind_up_to_n8():
    # every kind at every N the check takes, alpha near -1 and at 10 included
    for n, alpha in itertools.product(range(1, 9), (-0.99, -0.5, 0.0, 1.0, 2.5, 10.0)):
        checks = experiments.kernels_check(ExperimentConfig(n=n, alpha=alpha))
        kinds = [c.row["kernel"] for c in checks if c.row["check"] == "normalization"]
        assert kinds == ["corner", "alpha_square", "alpha_corner"]
        assert all(c.row["tol"] == 1e-7 for c in checks if c.row["check"] == "normalization")
        assert all(c.passed for c in checks), [(c.detail, c.statistic) for c in checks if not c.passed]


def test_kernels_check_corrupted_density_hook(tmp_path, monkeypatch):
    # a kernel whose mass is off by 1% must fail its normalization checks; the
    # composition rows, which evaluate the densities pointwise, still pass
    evaluate = determinantal.evaluate
    monkeypatch.setattr(determinantal, "evaluate", lambda *args: 1.01 * evaluate(*args))
    rc = run(["kernels-check", "--out", str(tmp_path), "--n", "1"])
    assert rc == 1
    rows = list(csv.DictReader((tmp_path / "kernels_check.csv").read_text().splitlines()))
    assert {r["pass"] for r in rows if r["check"] == "normalization"} == {"0"}
    assert {r["pass"] for r in rows if r["check"] == "composition"} == {"1"}


def test_intertwine_single_combo(tmp_path):
    rc = run([
        "intertwine", "--out", str(tmp_path), "--n", "1", "--alpha", "0.5", "--t", "0.25",
    ])
    assert rc == 0
    rows = (tmp_path / "intertwine.csv").read_text().splitlines()
    assert len(rows) == 1 + 9  # three identities, three test functions each


def test_intertwine_rows_do_not_depend_on_their_run(tmp_path):
    # the sides of one run share grids and stacked linear algebra in the
    # engine; each row must still be the one a run of its own (alpha, t) writes
    assert run(["intertwine", "--n", "1", "--out", str(tmp_path / "all")]) == 0
    body = (tmp_path / "all" / "intertwine.csv").read_text().splitlines()[1:]
    assert len(body) == 54
    for alpha in (-0.5, 0.0, 1.0):
        for t in (0.25, 1.0):
            out = tmp_path / f"{alpha}_{t}"
            assert run(["intertwine", "--n", "1", "--alpha", str(alpha), "--t", str(t), "--out", str(out)]) == 0
            alone = (out / "intertwine.csv").read_text().splitlines()[1:]
            assert len(alone) == 9
            assert alone == [line for line in body if [float(v) for v in line.split(",")[1:3]] == [alpha, t]]


def test_intertwine_t_zero_trivial(tmp_path):
    rc = run(["intertwine", "--out", str(tmp_path), "--n", "1", "--alpha", "0.0", "--t", "0.0"])
    assert rc == 0
    body = (tmp_path / "intertwine.csv").read_text().splitlines()[1:]
    rels = [float(line.split(",")[7]) for line in body]
    assert max(rels) == 0.0


def test_intertwine_reads_test_functions_at_call_time(tmp_path, monkeypatch):
    # an entry put into TEST_FUNCTIONS after import is the one used: the
    # determinantal path evaluates each entry's one-dimensional factor g
    seen = {}
    for name, fn in list(cli.TEST_FUNCTIONS.items()):
        def counted(y, name=name, g=fn.g):
            seen[name] = seen.get(name, 0) + y.size
            return g(y)
        monkeypatch.setitem(cli.TEST_FUNCTIONS, name, dataclasses.replace(fn, g=counted))
    assert run(["intertwine", "--n", "1", "--alpha", "0.0", "--t", "1.0",
                "--out", str(tmp_path)]) == 0
    assert sorted(seen) == sorted(cli.TEST_FUNCTIONS)
    assert len(set(seen.values())) == 1 and seen["exp_sum"] > 0
    rows = list(csv.DictReader((tmp_path / "intertwine.csv").read_text().splitlines()))
    assert [r["f"] for r in rows[:3]] == list(cli.TEST_FUNCTIONS)


def test_intertwine_bad_dimension(tmp_path):
    assert run(["intertwine", "--out", str(tmp_path), "--n", "9"]) == 2


def test_truncation_small(tmp_path):
    rc = run([
        "truncation", "--out", str(tmp_path), "--n", "1", "--alpha", "0",
        "--n-samples", "2000", "--seed", "11",
    ])
    assert rc == 0
    assert (tmp_path / "truncation.csv").exists()


def test_truncation_rejects_fractional_alpha(tmp_path):
    assert run(["truncation", "--out", str(tmp_path), "--alpha", "0.5"]) == 2


def test_invariance_small(tmp_path):
    rc = run([
        "invariance", "--out", str(tmp_path), "--n", "1", "--alpha", "0",
        "--n-samples", "3000", "--seed", "12",
    ])
    assert rc == 0
    # the one-sample KS row against Exp(1) is a family of one at level 0.01
    (row,) = csv.DictReader((tmp_path / "invariance.csv").read_text().splitlines())
    (summary,) = csv.DictReader((tmp_path / "summary.csv").read_text().splitlines())
    assert row["check"] == "invariance[N=1,alpha=0]"
    assert (row["n_tests"], row["adjusted_level"], row["pass"]) == ("1", "0.01", "1")
    assert row["min_p"] == summary["statistic"] and summary["threshold"] == "0.01"


def test_invariance_runs_at_n8(tmp_path):
    # the alpha corner samplers have no rejection step, so N is not capped
    rc = run(["invariance", "--out", str(tmp_path), "--n", "8", "--alpha", "0.5", "--n-samples", "2000"])
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "invariance.csv").read_text().splitlines()))
    assert [r["check"] for r in rows] == ["invariance[N=8,alpha=0.5]"]
    assert run(["invariance", "--out", str(tmp_path), "--n", "0"]) == 2


def test_sde_vs_exact_small(tmp_path):
    rc = run(["sde-vs-exact", "--out", str(tmp_path), "--n-samples", "4000", "--seed", "13"])
    assert rc == 0
    body = (tmp_path / "sde_vs_exact.csv").read_text().splitlines()
    checks = [line.split(",")[0] for line in body[1:]]
    assert "dt_trend" in checks  # refining dt must not worsen agreement
    # the trend row has no p-value; its level column holds the slack that decides it
    trend = next(r for r in csv.DictReader(body) if r["check"] == "dt_trend")
    assert trend["p_value"] == "" and float(trend["level"]) == 2.0 * np.sqrt(2.0 / 4000)


def test_experiment_csv_reproducible(tmp_path):
    args = ["truncation", "--n", "1", "--alpha", "0", "--n-samples", "500", "--seed", "21"]
    assert run(args + ["--out", str(tmp_path / "a")]) == 0
    assert run(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "truncation.csv").read_bytes()
    b = (tmp_path / "b" / "truncation.csv").read_bytes()
    assert a == b


def test_sample_deterministic_output(tmp_path):
    args = [
        "sample", "--sampler", "alpha_corner", "--x", "1,2", "--alpha", "0",
        "--n-samples", "10", "--seed", "99",
    ]
    rc = run(args + ["--out", str(tmp_path / "a")])
    assert rc == 0
    rc = run(args + ["--out", str(tmp_path / "b")])
    assert rc == 0
    a = (tmp_path / "a" / "samples.csv").read_bytes()
    b = (tmp_path / "b" / "samples.csv").read_bytes()
    assert a == b
    lines = a.decode().splitlines()
    assert lines[0] == "# sampler=alpha_corner"
    assert any(line.startswith("# seed=99") for line in lines)
    header_idx = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_idx] == "y1"
    assert len(lines) == header_idx + 1 + 10


def test_sample_column_count_matches_dimension(tmp_path):
    rc = run([
        "sample", "--sampler", "laguerre_ensemble", "--n", "3", "--alpha", "0.5",
        "--n-samples", "5", "--seed", "1", "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    header = next(line for line in lines if not line.startswith("#"))
    assert header == "y1,y2,y3"


# sampler -> (its options, the metadata lines it writes): the keys of its
# SAMPLERS row (x as anchor) between sampler and seed, n_samples; a sampler
# with no row here fails its test
SAMPLE_METADATA = {
    "corner": (["--x", "1,2"], ["anchor=1 2"]),
    "alpha_square": (["--x", "1,2", "--alpha", "0.5"], ["alpha=0.5", "anchor=1 2"]),
    "alpha_corner": (["--x", "1,2", "--alpha", "0.5"], ["alpha=0.5", "anchor=1 2"]),
    "laguerre_ensemble": (["--n", "3", "--alpha", "0.5"], ["n=3", "alpha=0.5"]),
    "wishart_radial": (["--n", "2"], ["n=2", "alpha=0"]),
    "transition": (["--x", "2", "--t", "0.5"], ["alpha=0", "t=0.5", "anchor=2"]),
}


@pytest.mark.parametrize("name", experiments.SAMPLERS)
def test_sample_metadata_is_what_the_sampler_read(name, tmp_path):
    options, read = SAMPLE_METADATA[name]
    rc = run(["sample", "--sampler", name, *options, "--n-samples", "4", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    meta = [line[2:] for line in lines if line.startswith("# ")]
    assert meta == [f"sampler={name}", *read, "seed=3", "n_samples=4"]


def test_sample_unknown_sampler(tmp_path):
    assert run(["sample", "--sampler", "nope", "--out", str(tmp_path)]) == 2


def test_config_file_roundtrip(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 31\nn_samples = 7\nx = 1,2\nsampler = corner\n")
    rc = run(["sample", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "samples.csv").read_text()
    assert "# seed=31" in text
    # command line overrides the file
    rc = run(["sample", "--config", str(cfg_file), "--seed", "32", "--out", str(tmp_path)])
    assert "# seed=32" in (tmp_path / "samples.csv").read_text()


def test_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("nonsense = 1\n")
    assert run(["sample", "--config", str(cfg_file), "--sampler", "corner"]) == 2
    # the subcommand is not an option: a config line cannot name another one
    cfg_file.write_text("experiment = intertwine\n")
    assert run(["kernels-check", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2


def test_experiment_config_parsing():
    cfg = ExperimentConfig().with_option("x", "1,2,4")
    assert cfg.x == (1.0, 2.0, 4.0)
    assert ExperimentConfig().with_option("alpha", "0.5").alpha == 0.5
    with pytest.raises(ConfigError):
        ExperimentConfig().with_option("bogus", "1")
    with pytest.raises(ConfigError):
        ExperimentConfig().with_option("experiment", "intertwine")


def test_floats_are_17_digits(tmp_path):
    rc = run([
        "sample", "--sampler", "corner", "--x", "0,2", "--n-samples", "3", "--seed", "5",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    data = [line for line in lines if not line.startswith("#")][1:]
    val = data[0]
    assert np.isclose(float(val), float(f"{float(val):.17g}"))
    assert len(val.split(".")[-1]) >= 10  # full precision survives the round trip


# one option per subcommand that it does not read, last; each of these ran
# without it and exited 0
UNREAD_OPTIONS = [
    ["kernels-check", "--sampler", "corner"],
    ["intertwine", "--dt", "7"],
    ["dual-check", "--alpha", "5"],
    ["truncation", "--tol", "0.5"],
    ["invariance", "--t", "5"],
    ["sde-vs-exact", "--alpha", "2"],
    ["sample", "--sampler", "corner", "--x", "1,2", "--dt", "0.5"],
    # an option the chosen sampler does not read
    ["sample", "--sampler", "corner", "--x", "1,2", "--alpha", "3"],
    ["sample", "--sampler", "laguerre_ensemble", "--n", "2", "--t", "4"],
    ["sample", "--sampler", "transition", "--n", "3"],
]


# runs that must pass on a numpy-only install, most where a layer nears a limit
PASSING_RUNS = [
    ["intertwine", "--n", "1"],
    # near alpha = -1
    ["intertwine", "--alpha", "-0.99", "--n", "3"],
    ["kernels-check", "--alpha", "-0.99"],
    # a small time
    ["intertwine", "--alpha", "-0.5", "--t", "0.01"],
    # a large alpha: the semigroup's cut must cover the y^alpha mass, and at
    # 36 the grid's panels must keep y^alpha (7e10 across a panel) near a polynomial
    ["intertwine", "--alpha", "30", "--n", "1"],
    ["intertwine", "--alpha", "36", "--n", "1"],
    # a large alpha and a small time, where the pointwise density table's
    # cost grew with the square of the panel count
    ["intertwine", "--alpha", "30", "--t", "0.01", "--n", "1"],
    # the largest N
    ["intertwine", "--n", "8"],
    ["kernels-check", "--n", "8"],
    # a small time with wide anchors: Poisson means in the thousands, which the
    # semigroup step's k-blocks keep cheap
    ["intertwine", "--n", "6", "--t", "0.01"],
    # each mass from the determinantal engine
    ["kernels-check"],
    ["sample", "--sampler", "alpha_corner", "--alpha", "0.5", "--x", "1,2,3", "--n-samples", "1000"],
    ["truncation", "--n", "1", "--n-samples", "2000"],
    # the secular solver
    ["invariance", "--n-samples", "2000"],
    # simulate_sde's worker thread, its drift-implicit step and simulate_matrix_ou
    ["sde-vs-exact", "--n-samples", "2000"],
    # coarse implicit steps with their Newton solve; at the default seed the
    # N = 1 row draws p = 0.0095 against its 0.01 level, a chance failure
    ["sde-vs-exact", "--dt", "0.01", "--n-samples", "2000", "--seed", "20260809"],
]


@pytest.mark.parametrize("argv", PASSING_RUNS, ids=" ".join)
def test_run_passes(tmp_path, argv):
    assert run(argv + ["--out", str(tmp_path)]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--sampler", "alpha_corner", "--alpha", "-2", "--x", "1,2"],
        ["sample", "--sampler", "corner", "--x", "2,1"],
        ["sde-vs-exact", "--t", "nan", "--n-samples", "50"],
        ["sde-vs-exact", "--dt", "1e-300", "--n-samples", "50"],
        ["sample", "--sampler", "alpha_corner", "--alpha", "inf", "--x", "1,2,3"],
        ["truncation", "--alpha", "inf"],
        ["sample", "--sampler", "wishart_radial", "--alpha", "inf", "--n", "2"],
        ["sample", "--sampler", "wishart_radial", "--alpha", "1.5", "--n", "2"],
        ["sample", "--sampler", "laguerre_ensemble", "--alpha", "inf", "--n", "2"],
        ["sample", "--sampler", "laguerre_ensemble", "--n", "0"],
        ["kernels-check", "--n", "1", "--alpha", "-1"],
        ["intertwine", "--n", "abc"],
        # an --x that fits no anchor of the run; each of these ran on defaults and exited 0
        ["intertwine", "--n", "1", "--x", "1,2,3,4,5"],
        ["truncation", "--n", "1", "--x", "1,2,3"],
        ["kernels-check", "--n", "1", "--x", "1,2,3"],
        ["sample", "--sampler", "transition", "--x", "1,2,3"],
        ["sample", "--sampler", "laguerre_ensemble", "--n", "2", "--x", "1,2,3"],
        # subcommands whose points are fixed or drawn take no --x at all
        ["dual-check", "--x", "1,2"],
        ["invariance", "--x", "1,2"],
        ["sde-vs-exact", "--x", "1,2"],
        # a tolerance that is not finite and > 0 decided every check alike (exit 1, or 0 at inf)
        *(["intertwine", "--n", "1", "--alpha", "1", "--t", "1", "--tol", tol] for tol in ("nan", "inf", "0", "-1")),
        *UNREAD_OPTIONS,
    ],
)
def test_library_domain_error_exits_2(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    if argv[1:] == ["--x", "1,2"] or argv in UNREAD_OPTIONS:
        assert err == f"configuration error: {argv[0]} takes no {argv[-2]}\n"


def test_removed_options_exit_2(tmp_path, capsys):
    # --panels and --order are no options: argparse refuses them as flags, and
    # a config file as keys; the corner rejection sampler is a test oracle
    for argv in (["kernels-check", "--panels", "2"], ["dual-check", "--order", "5"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
    (tmp_path / "panels.cfg").write_text("panels = 2\n")
    assert run(["kernels-check", "--config", str(tmp_path / "panels.cfg"), "--out", str(tmp_path)]) == 2
    assert run(["sample", "--sampler", "corner_rejection", "--x", "1,2", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown config key 'panels'" in err and "unknown sampler 'corner_rejection'" in err


def test_alpha_beyond_the_float_range_exits_cleanly(tmp_path, capsys):
    # numerics.gauss_jacobi raised OverflowError at b = 1100: a traceback, exit 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["intertwine", "--alpha", "1100", "--n", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc in (0, 2)
    assert err.count("\n") == (rc == 2) and err.startswith("configuration error: " if rc else "")


def test_unreadable_config_and_uncreatable_out_exit_2(tmp_path, capsys):
    # the first two raised an OSError with a traceback, exit 1, the code of a
    # failed check; a config line is checked as its flag is
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    (tmp_path / "tol.cfg").write_text("tol = inf\n")
    for argv in (["intertwine", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)],
                 ["dual-check", "--out", str(blocker / "sub")],
                 ["intertwine", "--config", str(tmp_path / "tol.cfg"), "--out", str(tmp_path)]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1


def test_uncreatable_out_exits_2_before_any_check(tmp_path, capsys, monkeypatch):
    # the directory was made only when the CSVs were written, after every check had run
    def simulate_sde(*args, **kwargs):
        raise AssertionError("sde-vs-exact ran with an --out it cannot make")

    monkeypatch.setattr(process, "simulate_sde", simulate_sde)
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    assert run(["sde-vs-exact", "--out", str(blocker / "sub")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("configuration error: ") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "0"])
def test_checked_value_error_gives_the_rule(tmp_path, capsys, tol):
    assert run(["intertwine", "--n", "1", "--tol", tol, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"configuration error: tol must be finite and > 0, got {float(tol)}\n"


def test_x_replaces_the_anchors_it_fits(tmp_path):
    # --x 1,2,5 fits the N = 2 corner anchors only; the other anchors stay the defaults
    assert run(["kernels-check", "--x", "1,2,5", "--alpha", "0.5", "--out", str(tmp_path)]) == 0
    rows = list(csv.DictReader((tmp_path / "kernels_check.csv").read_text().splitlines()))
    anchors = {(r["kernel"], r["N"]): r["anchor"] for r in rows if r["check"] == "normalization"}
    assert anchors[("corner", "2")] == anchors[("alpha_corner", "2")] == "1 2 5"
    assert anchors[("corner", "1")] == "1 2" and anchors[("alpha_square", "2")] == "1 3"
    # a small head coordinate: each of these exited 1 (rel 3.8e-2 and 5.4e-2)
    # while the engine's panels from 0 started above it
    for argv in (["intertwine", "--n", "2", "--x", "1e-4,1,2"], ["kernels-check", "--n", "2", "--x", "1e-12,1,2"]):
        assert run(argv + ["--out", str(tmp_path / argv[0])]) == 0


def test_flag_parses_as_its_config_line(tmp_path, capsys):
    base = ["sample", "--sampler", "corner", "--n-samples", "5"]
    (tmp_path / "x.cfg").write_text("x = 1,2\n")
    assert run(base + ["--x", "1,2", "--out", str(tmp_path / "flag")]) == 0
    assert run(base + ["--config", str(tmp_path / "x.cfg"), "--out", str(tmp_path / "file")]) == 0
    flag_csv = (tmp_path / "flag" / "samples.csv").read_text()
    assert "# anchor=1 2\n" in flag_csv
    assert flag_csv == (tmp_path / "file" / "samples.csv").read_text()
    # a bad value is the same one-line configuration error either way
    (tmp_path / "n.cfg").write_text("n = abc\n")
    capsys.readouterr()
    assert run(["intertwine", "--n", "abc", "--out", str(tmp_path)]) == 2
    flag_err = capsys.readouterr().err
    assert run(["intertwine", "--config", str(tmp_path / "n.cfg"), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == flag_err == "configuration error: bad value 'abc' for n\n"


def test_csv_artifacts_parse_with_csv_module(tmp_path):
    assert run(["dual-check", "--out", str(tmp_path / "dual")]) == 0
    run(["sde-vs-exact", "--out", str(tmp_path / "sde"), "--n-samples", "300", "--seed", "13"])
    paths = sorted(tmp_path.glob("*/*.csv"))
    assert len(paths) == 4
    for path in paths:
        lines = path.read_text().splitlines()
        header, *records = csv.reader(lines)
        assert len(records) == len(lines) - 1 > 0
        for line, fields in zip(lines[1:], records):
            assert len(fields) == len(header), (path.name, line)
            if not any(c in field for field in fields for c in ',"'):
                assert line == ",".join(fields)  # plain rows keep their bytes
    sde_rows = list(csv.DictReader((tmp_path / "sde" / "sde_vs_exact.csv").read_text().splitlines()))
    assert sde_rows[-1]["check"] == "sde_vs_matrix_ou[N=2,alpha=1]"
    summary = list(csv.DictReader((tmp_path / "dual" / "summary.csv").read_text().splitlines()))
    assert "dual_same[alpha=-1.5,t=0.5]" in [r["detail"] for r in summary]


@pytest.mark.parametrize("argv, code", [
    ([], 2), (["no-such-command"], 2), (["--n", "1"], 2), (["--help"], 0), (["intertwine", "--help"], 0),
])
def test_subcommand_is_required_and_help_exits_0(argv, code, capsys):
    # one parser: the subcommand is a positional choice, so argparse exits 2 on a
    # missing or unknown one, and 0 after printing the help
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    assert ("usage: laguerre-intertwine" in out) if code == 0 else ("usage:" in err)


def test_a_flag_may_come_before_the_subcommand(tmp_path):
    args = ["--n", "1", "--alpha", "0.5", "--t", "0.25"]
    assert run(args + ["intertwine", "--out", str(tmp_path / "before")]) == 0
    assert run(["intertwine", *args, "--out", str(tmp_path / "after")]) == 0
    assert (tmp_path / "before" / "intertwine.csv").read_bytes() == (tmp_path / "after" / "intertwine.csv").read_bytes()
