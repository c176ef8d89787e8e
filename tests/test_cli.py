"""CLI: table output, check exit codes, determinism, CSV flattening."""

import csv
import io
import json
from fractions import Fraction
from math import pi
from pathlib import Path

import pytest

from croftonlab import checks, cli, extalg, geom, planes, valuations, varcheck
from croftonlab import coeffcore as cc


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_coeffs_gb_table(capsys):
    code, out = run_cli(["coeffs", "--gb", "--n", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["schemaVersion"] == 1
    assert rep["config"]["n"] == 2
    entries = {(e["k"], e["q"], e["epsPow"]): e["coeff"] for e in rep["results"]["entries"]}
    assert entries[(0, 0, 0)] == {"num": "2", "den": "1", "piPow": "2"}
    assert entries[(2, 1, 1)] == {"num": "4", "den": "1", "piPow": "1"}
    assert rep["results"]["vol"] == [
        {"epsPow": 2, "coeff": {"num": "12", "den": "1", "piPow": "0"}}
    ]


def test_coeffs_crofton_and_variation(capsys):
    code, out = run_cli(["coeffs", "--crofton", "--n", "3", "--r", "1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["grassmannianFactor"] is True
    code, out = run_cli(["coeffs", "--variation", "--n", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert "vol" in rep["results"]


def test_coeffs_identities(capsys):
    code, out = run_cli(["coeffs", "--identities", "--max-n", "3"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert rep["results"]["solver"]["3,2"] is True


@pytest.mark.parametrize("max_n", [1, 0, -3])
def test_identity_suite_refuses_a_vacuous_range(max_n):
    # below 2 there is no (n, r) to check: raising beats a vacuous pass
    with pytest.raises(ValueError, match="max_n >= 2"):
        checks.identities(max_n)


def test_volumes_closed_form(capsys):
    code, out = run_cli(
        ["volumes", "--shape", "ball", "--n", "2", "--eps", "0", "--R", "1",
         "--closed-form"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["table"]["mu:2,1"] == pytest.approx(pi)


def test_volumes_richardson(capsys):
    code, out = run_cli(
        ["volumes", "--shape", "ellipsoid", "--axes", "1,1,2,2", "--level", "1",
         "--richardson"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert "richardsonError" in rep["results"]


@pytest.mark.parametrize(
    "axes,level,rule,nodes",
    [("1,1,2,2", 1, "torus-orbit", 16), ("1,2,2,3", 0, "sign-fold", 256)],
)
def test_reports_state_the_quadrature_rule(axes, level, rule, nodes, capsys, monkeypatch):
    shape = ["--shape", "ellipsoid", "--axes", axes, "--level", str(level)]
    for argv in (["volumes", *shape], ["check", "gauss-bonnet", *shape]):
        _, out = run_cli(argv, capsys)
        assert json.loads(out)["results"]["quadrature"] == {"rule": rule, "nodes": nodes}
        monkeypatch.setenv("CROFTONLAB_THREADS", "3")
        assert run_cli(argv, capsys)[1] == out  # byte-identical across runs and threads
        monkeypatch.delenv("CROFTONLAB_THREADS")
    # closed-form ball tables run no quadrature
    _, out = run_cli(["check", "gauss-bonnet", "--shape", "ball", "--n", "2", "--R", "0.5"], capsys)
    assert "quadrature" not in json.loads(out)["results"]


def _plan_tables(monkeypatch):
    """Refuse the product grid and record (rule, nodes) of every boundary rule."""

    def no_grid(*args, **kwargs):
        raise AssertionError("product sphere grid requested")

    sample = geom.sample_boundary
    plans = []

    def record(*args, **kwargs):
        cloud = sample(*args, **kwargs)
        plans.append((cloud.rule, len(cloud)))
        return cloud

    monkeypatch.setattr(geom, "sphere_grid", no_grid)
    monkeypatch.setattr(geom, "sample_boundary", record)
    return plans


def test_volumes_of_a_j_invariant_n3_ellipsoid_at_the_default_level(capsys, monkeypatch):
    # the product rule at level 2 would need a 67M-node grid
    plans = _plan_tables(monkeypatch)
    code, out = run_cli(["volumes", "--shape", "ellipsoid", "--axes", "1,1,1,1,2,2"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["quadrature"] == {"rule": "torus-orbit", "nodes": 32**2}
    assert plans == [("torus-orbit", 32**2)]


def test_total_gauss_n3_tables_at_the_default_level(capsys, monkeypatch):
    # reference and both families are T^n-invariant: three 1024-node tables
    plans = _plan_tables(monkeypatch)
    run_cli(["check", "total-gauss", "--n", "3", "--samples", "200", "--seed", "3"], capsys)
    assert plans == [("torus-orbit", 32**2)] * 3


def test_check_gauss_bonnet_pass_and_fail(capsys):
    args = ["check", "gauss-bonnet", "--shape", "ball", "--n", "3", "--eps", "-1",
            "--R", "0.7"]
    code, out = run_cli(args, capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True
    code, out = run_cli(args + ["--tol", "1e-30"], capsys)
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_check_gamma_b(capsys):
    code, out = run_cli(
        ["check", "gamma-b", "--n", "3", "--eps", "1", "--R", "0.5"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["worst"] < 1e-9


@pytest.mark.parametrize("n,checked", [(2, 0), (3, 1), (4, 3)])
def test_check_gamma_b_counts_the_relations_it_checks(n, checked, capsys):
    # n = 2 has no (k, q) in the strict range: the report says it checked none
    code, out = run_cli(["check", "gamma-b", "--n", str(n), "--eps", "1", "--R", "0.5"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["checked"] == len(results["residuals"]) == checked


def test_check_variation_ball(capsys):
    code, out = run_cli(
        ["check", "variation", "--shape", "ball", "--n", "2", "--eps", "1",
         "--R", "0.5"],
        capsys,
    )
    assert code == 0


def test_check_crofton_mc_small(capsys):
    code, out = run_cli(
        ["check", "crofton-mc", "--n", "2", "--r", "1", "--samples", "60000",
         "--seed", "7", "--level", "2"],
        capsys,
    )
    rep = json.loads(out)
    assert code == 0
    for item in rep["results"]["items"]:
        assert abs(item["z"]) < 3


@pytest.mark.parametrize(
    "argv,level",
    [
        (["check", "crofton-mc", "--n", "3", "--level", "2"], 1),
        (["check", "crofton-mc", "--n", "2", "--level", "2"], 2),
        (["check", "total-gauss", "--n", "3", "--level", "0"], 0),
    ],
)
def test_check_reports_the_level_it_runs(argv, level, capsys, monkeypatch):
    args = cli.build_parser().parse_args(argv)
    assert cli._check_level(args) == level
    ran = {}

    def fake_check(a):
        ran["level"] = a.level
        return {"pass": True}

    monkeypatch.setitem(cli.CHECKS, args.what, fake_check)
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert ran["level"] == json.loads(out)["config"]["level"] == level


def test_report_determinism(capsys, monkeypatch):
    args = ["check", "crofton-mc", "--n", "2", "--r", "1", "--samples", "30000",
            "--seed", "7", "--level", "1"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2
    monkeypatch.setenv("CROFTONLAB_THREADS", "3")
    _, out3 = run_cli(args, capsys)
    assert out1 == out3  # byte-identical regardless of thread count


def test_report_embeds_config_seed_tolerance(capsys):
    _, out = run_cli(
        ["check", "gamma-b", "--n", "3", "--eps", "1", "--R", "0.5", "--tol", "1e-8"],
        capsys,
    )
    rep = json.loads(out)
    assert rep["config"]["seed"] == 0
    assert rep["config"]["tol"] == 1e-8
    assert rep["results"]["tolerance"] == 1e-8
    assert rep["version"]
    assert rep["tool"] == "croftonlab"


def _csv_rows(text):
    header, row = csv.reader(io.StringIO(text))
    assert len(header) == len(row)
    return dict(zip(header, row))


def test_csv_output_flattens_kq_keys(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, _ = run_cli(
        ["volumes", "--shape", "ball", "--n", "2", "--eps", "0", "--R", "1",
         "--closed-form", "--format", "csv", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    row = _csv_rows(out_path.read_text())
    assert "results.table.mu:2.1" in row
    assert "mu:2,1" not in row  # (k,q) keys flatten as "k.q"
    # the raw --axes string holds commas: quoted, it stays one column
    code, out = run_cli(
        ["check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", "1,1,2,2", "--level", "1",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    row = _csv_rows(out)
    assert row["config.axes"] == "1,1,2,2"
    assert row["config.tol"] == "None"


def test_output_file_json(capsys, tmp_path):
    out_path = tmp_path / "rep.json"
    code, out = run_cli(
        ["coeffs", "--gb", "--n", "1", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert out == ""
    rep = json.loads(out_path.read_text())
    assert rep["results"]["vol"][0]["coeff"]["num"] == "4"


DATA = Path(__file__).resolve().parent / "data"

# exact tables pinned byte for byte: the values are exact rationals, so the
# stored reports do not depend on the platform
GOLDEN = [("identities", ["--identities"])]
for _n in (2, 3, 4):
    GOLDEN += [(f"gb_n{_n}", ["--gb", "--n", str(_n)]),
               (f"variation_n{_n}", ["--variation", "--n", str(_n)])]
    for _r in range(1, _n):
        GOLDEN += [(f"crofton_n{_n}_r{_r}", ["--crofton", "--n", str(_n), "--r", str(_r)]),
                   (f"total_gauss_n{_n}_r{_r}",
                    ["--total-gauss", "--n", str(_n), "--r", str(_r)])]


@pytest.mark.parametrize("name,argv", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_coeffs_reports_match_golden_files(name, argv, capsys):
    code, out = run_cli(["coeffs"] + argv, capsys)
    assert code == 0
    assert out == (DATA / f"coeffs_{name}.json").read_text()


# Monte Carlo reports pinned byte for byte: 70,000 samples are one full chunk
# plus a partial chunk whose last QR_BLOCK slice is partial, so the files fix
# the plane streams and the order of every reduction
MC_GOLDEN = {
    "crofton_mc_n2_r1": ["crofton-mc", "--n", "2", "--r", "1", "--level", "1"],
    "crofton_cpn_n2_r1": ["crofton-cpn", "--n", "2", "--r", "1"],
    "total_gauss_n2_r1": ["total-gauss", "--n", "2", "--r", "1", "--level", "1"],
    "grassmann_pointwise_n3_r1": ["grassmann-pointwise", "--n", "3", "--r", "1"],
}
MC_SHAPES = {
    "ball": geom.GeodesicBall(n=3, eps=0.0, R=1.0),
    "axes_1_1_1_1_2_2": geom.Ellipsoid.from_axes([1, 1, 1, 1, 2, 2]),
}


@pytest.mark.parametrize("threads", ["1", "3"])
def test_monte_carlo_reports_match_golden_files(threads, capsys, monkeypatch):
    monkeypatch.setenv("CROFTONLAB_THREADS", threads)
    for name, argv in MC_GOLDEN.items():
        code, out = run_cli(["check", *argv, "--samples", "70000"], capsys)
        assert code == 0
        assert out == (DATA / f"mc_{name}.json").read_text(), name
    estimates = {}
    for name, shape in MC_SHAPES.items():
        for r in (1, 2):
            est = planes.chi_measure_estimate(shape, r, 70000, 5)
            estimates[f"{name}_r{r}"] = {"mean": repr(est.mean), "stderr": repr(est.stderr)}
    assert estimates == json.loads((DATA / "mc_chi_estimates_n3.json").read_text())


def test_gauss_bonnet_normalizes_by_the_shapes_own_dimension(capsys):
    # an n=3 ellipsoid without --n: relative to O_5, not O_3 of the default n=2
    code, out = run_cli(
        ["check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", "1,1,1,1,1,2",
         "--level", "0", "--tol", "1e-3"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["results"]["relativeMuForm"] < 1e-3


def test_total_gauss_n3_r2_meets_its_ratio_gate(capsys):
    code, out = run_cli(
        ["check", "total-gauss", "--n", "3", "--r", "2", "--level", "0",
         "--samples", "300", "--seed", "3"],
        capsys,
    )
    assert code == 0
    for item in json.loads(out)["results"]["items"]:
        assert abs(item["ratio"] - item["ratioTarget"]) < 1e-9 * item["ratioTarget"]


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_samples_below_one_is_a_parser_error(samples, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "crofton-mc", "--samples", samples])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--samples" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_invalid_thread_count_is_a_parser_error(value, capsys, monkeypatch):
    monkeypatch.setenv("CROFTONLAB_THREADS", value)
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "gamma-b", "--n", "2", "--eps", "1", "--R", "0.5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "CROFTONLAB_THREADS" in err and repr(value) in err


def test_samples_and_threads_only_checked_for_check(capsys, monkeypatch):
    monkeypatch.setenv("CROFTONLAB_THREADS", "abc")
    assert cli.main(["coeffs", "--gb", "--samples", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["entries"]
    assert cli.main(["volumes", "--n", "2", "--R", "0.5", "--samples", "0"]) == 0


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["check", "crofton-mc", "--n", "2", "--r", "2"], "--r"),
        (["check", "crofton-cpn", "--n", "1"], "--r"),
        (["check", "total-gauss", "--n", "2", "--r", "0"], "--r"),
        (["check", "grassmann-pointwise", "--n", "3", "--r", "3"], "--r"),
        (["check", "crofton-variation", "--shape", "ball", "--n", "2", "--r", "2"], "--r"),
        (["check", "crofton-variation", "--shape", "ellipsoid", "--axes", "1,1,2,2",
          "--r", "2"], "--r"),
        (["check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", "1,1,2,2",
          "--level", "-1"], "--level"),
        (["volumes", "--shape", "ellipsoid", "--axes", "1,1,2,2", "--level", "-1"], "--level"),
        (["check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", "1,2,3"], "2n semiaxes"),
        (["check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", "1,1,0,2"], "positive"),
        (["check", "gauss-bonnet", "--R", "-0.5"], "radius must be positive"),
        (["volumes", "--shape", "ball", "--R", "-0.5", "--closed-form"], "radius"),
        (["check", "gamma-b", "--eps", "1", "--R", "2"], "injectivity"),
        (["check", "gauss-bonnet", "--n", "0"], "--n"),
        (["coeffs", "--crofton", "--n", "2", "--r", "5"], "--r"),
        (["coeffs", "--gb", "--n", "0"], "--n"),
        (["coeffs", "--total-gauss", "--n", "3", "--r", "0"], "--r"),
        (["coeffs"], "is required"),
        (["coeffs", "--gb", "--crofton"], "not allowed with"),
        (["volumes", "--shape", "ellipsoid"], "--axes required"),
        (["volumes", "--shape", "ellipsoid", "--axes", ","], "2n semiaxes"),
        (["volumes", "--shape", "ellipsoid", "--axes", "1,1,2,2", "--closed-form"],
         "--closed-form"),
        (["check", "crofton-mc", "--n", "4"], "--n"),
        (["check", "total-gauss", "--n", "4"], "--n"),
        (["coeffs", "--identities", "--max-n", "0"], "--max-n"),
        (["coeffs", "--identities", "--max-n", "1"], "--max-n"),
        (["coeffs", "--identities", "--max-n", "-3"], "--max-n"),
        (["check", "gamma-b", "--shape", "ellipsoid", "--axes", "1,1,2,2"], "--shape"),
    ],
)
def test_bad_flag_values_are_parser_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("croftonlab") and "error:" in last and flag in last


@pytest.mark.parametrize(
    "argv",
    [
        # gamma-b takes no plane dimension
        ["check", "gamma-b", "--n", "2", "--r", "5", "--eps", "1", "--R", "0.5"],
        # the ellipsoid's n, not --n, bounds r and sizes the table
        ["check", "crofton-variation", "--shape", "ellipsoid", "--axes", "1,1,1,1,2,2",
         "--r", "2"],
        ["volumes", "--shape", "ellipsoid", "--axes", "1,1", "--n", "0"],
        # neither reads --level, and crofton-mc tabulates n = 3 at level 1
        ["check", "crofton-cpn", "--level", "-1"],
        ["check", "grassmann-pointwise", "--level", "-1"],
        ["check", "crofton-mc", "--n", "3", "--level", "-1"],
    ],
)
def test_flags_are_only_checked_where_a_command_reads_them(argv):
    cli._validate(cli.build_parser(), cli.build_parser().parse_args(argv))


def test_every_command_states_what_it_reads(capsys):
    assert set(cli.READS) == set(cli.CHECKS) | {"volumes"}
    assert cli.main(["check", "gamma-b", "--n", "2", "--r", "5", "--eps", "1", "--R", "0.5"]) == 0
    capsys.readouterr()
    assert cli.main(["volumes", "--shape", "ellipsoid", "--axes", "1,1", "--n", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["shape"]["axes"] == [1.0, 1.0]


# one run of every subcommand and check kind, small enough to be quick; the
# Monte Carlo checks may fail at these sample counts, only the calls matter
EVERY_KIND = [
    ["coeffs", "--gb", "--n", "3"],
    ["coeffs", "--crofton", "--n", "3", "--r", "2"],
    ["coeffs", "--total-gauss", "--n", "3", "--r", "1"],
    ["coeffs", "--variation", "--n", "3"],
    ["coeffs", "--identities", "--max-n", "3"],
    ["volumes", "--n", "3", "--eps", "1", "--R", "0.5", "--closed-form"],
    ["volumes", "--shape", "ellipsoid", "--axes", "1,2,2,3", "--level", "0"],
    ["check", "gauss-bonnet", "--n", "3", "--eps", "-1", "--R", "0.5"],
    ["check", "gamma-b", "--n", "4", "--eps", "1", "--R", "0.5"],
    ["check", "crofton-mc", "--n", "2", "--level", "0", "--samples", "2000"],
    ["check", "crofton-cpn", "--n", "2", "--samples", "2000"],
    ["check", "variation", "--n", "3", "--eps", "1", "--R", "0.5"],
    ["check", "variation", "--shape", "ellipsoid", "--axes", "1,1,2,2", "--level", "0"],
    ["check", "crofton-variation", "--n", "3", "--r", "2", "--eps", "-1", "--R", "0.5"],
    ["check", "total-gauss", "--n", "2", "--level", "0", "--samples", "2000"],
    ["check", "grassmann-pointwise", "--n", "3", "--samples", "2000"],
]


CACHED = {
    "ball_volume_coeff", "sphere_volume_coeff", "form_norm_coeff", "mu_indices", "beta_indices",
    "gamma_indices", "crofton_coeffs", "flat_crofton_coeffs", "gauss_bonnet_coeffs",
    "total_gauss_coeffs", "variation_operator", "crofton_variation_coeffs",
    "implied_hyperplane_grassmannian_volume",
}


def test_cached_coefficients_equal_a_fresh_computation(capsys, monkeypatch):
    cached = {name: getattr(cc, name) for name in CACHED}
    used = set()

    def recorder(fn):
        def call(*args):
            used.add((fn, args))
            return fn(*args)
        return call

    # record every argument, whichever module the caller looks the name up in
    for module in (cc, extalg, geom, valuations, planes, varcheck, checks, cli):
        for name, fn in cached.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, recorder(fn))
    for fn in cached.values():
        fn.cache_clear()
    for argv in EVERY_KIND:
        run_cli(argv, capsys)
    cc.flat_crofton_coeffs(3, 2)  # only the acceptance suite reads the flat table

    assert {fn.__name__ for fn, _ in used} == CACHED
    values = {(fn, args): fn(*args) for fn, args in used}
    # the references are built from cold caches, so that a corrupted inner
    # entry (say omega_m inside form_norm_coeff) cannot reach both sides
    for fn in cached.values():
        fn.cache_clear()
    for (fn, args), value in values.items():
        assert value == fn.__wrapped__(*args), (fn.__name__, args)
        if fn.__name__.endswith("_indices"):
            assert type(value) is tuple
        if isinstance(value, cc.VariationOperator):
            assert type(value.keys()) is tuple
            assert all(type(value.primed[key]) is tuple for key in value.keys())
            assert all(type(value.targets(key)) is tuple for key in value.keys())


def test_cached_coefficients_are_read_only():
    table, op = cc.crofton_coeffs(3, 1), cc.variation_operator(2)
    scalar = cc.form_norm_coeff(2, 1, 0)
    with pytest.raises(AttributeError):
        table.n = 4
    with pytest.raises(TypeError):
        table.entries[(0, 0, 0)] = scalar
    with pytest.raises(TypeError):
        table.vol[0] = scalar
    with pytest.raises(AttributeError):
        op.primed = {}
    with pytest.raises(TypeError):
        op.primed["vol"] = ()
    with pytest.raises(AttributeError):
        scalar.terms = {}
    with pytest.raises(TypeError):
        scalar.terms[0] = Fraction(1)
    with pytest.raises(TypeError):
        cc.crofton_variation_coeffs(3, 1)[(3, 1)] = scalar


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    runs = [
        ["check", "variation", "--n", "3", "--eps", "1", "--R", "0.5"],
        ["check", "gamma-b", "--shape", "ellipsoid", "--axes", "1,1,2,2"],
        ["check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", "1,1,2,2", "--level", "1"],
    ]

    def outputs():
        out = []
        for argv in runs:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out.append((code, *capsys.readouterr()))
        return out

    assert cli.build_parser() is cli.build_parser()
    shared = outputs()
    assert [code for code, _, _ in shared] == [0, 2, 0]
    # every call builds a new parser
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outputs() == shared
