"""CLI: table output, check exit codes, determinism, CSV flattening."""

import csv
import io
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from math import pi
from pathlib import Path

import pytest

from croftonlab import checks, cli, extalg, geom, planes, valuations, varcheck
from croftonlab import coeffcore as cc
from helpers import richardson_error


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
    # a ball's one table is its closed form, bit for bit, with no quadrature
    code, out = run_cli(["volumes", "--shape", "ball", "--n", "2", "--eps", "0", "--R", "1"],
                        capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"] == {"table": valuations.ball_closed_form(0.0, 2, 1.0).to_json()}
    assert rep["results"]["table"]["mu:2,1"] == pytest.approx(pi)


@pytest.mark.parametrize("eps,R", [(1.0, 0.5), (-1.0, 0.8), (0.0, 1.3)])
def test_ball_variation_reports_read_the_closed_form(eps, R, capsys):
    # the tilde table of a ball is its closed form: no quadrature is reported,
    # and every formula value is the closed form's, bit for bit
    ball = ["--shape", "ball", "--n", "3", "--eps", str(eps), "--R", str(R)]
    tilde = valuations.ball_closed_form(eps, 3, R)
    code, out = run_cli(["check", "variation", *ball], capsys)
    results = json.loads(out)["results"]
    assert code == 0 and "quadrature" not in results
    for key in cc.variation_operator(3).keys():
        item = results["keys"][varcheck.key_name(key)]
        assert item["formula"] == varcheck.variation_formula(key, tilde), key
    for r in (1, 2):
        code, out = run_cli(["check", "crofton-variation", *ball, "--r", str(r)], capsys)
        results = json.loads(out)["results"]
        assert code == 0 and "quadrature" not in results
        assert results["formula"] == varcheck.crofton_variation_formula(r, tilde)


@pytest.mark.parametrize("what", ["variation", "crofton-variation"])
def test_an_oversized_boundary_rule_is_a_usage_error(what, capsys):
    # the transported n = 4 ellipsoid needs the level-2 conj-fold rule of
    # 2^31 nodes: refused before it is allocated, where a MemoryError used to end
    # the command
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", what, "--shape", "ellipsoid", "--axes", "1,1,1,1,1,1,2,2"])
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == (
        "croftonlab: error: the level-2 conj-fold rule needs 2,147,483,648 boundary nodes, "
        "over the limit of 16,777,216")


def test_volumes_richardson(capsys):
    code, out = run_cli(
        ["volumes", "--shape", "ellipsoid", "--axes", "1,1,2,2", "--level", "1",
         "--richardson"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    # |T_1 - T_0| bit for bit, for every B, Gamma and M entry and nothing else
    shape = geom.Ellipsoid.from_axes([1, 1, 2, 2])
    fine = valuations.hermitian_volumes(shape, 1)
    want = richardson_error(fine, valuations.hermitian_volumes(shape, 0))
    assert rep["results"]["table"] == fine.to_json()
    assert len(want) == len(fine.to_json()) - len(cc.mu_indices(2)) - 1  # all but mu and vol
    assert rep["results"]["richardsonError"] == want


def test_volumes_richardson_on_a_hopf_table(capsys):
    code, out = run_cli(
        ["volumes", "--shape", "ellipsoid", "--axes", "1,1,1,1,1,2", "--level", "1",
         "--richardson"],
        capsys,
    )
    assert code == 0
    results = json.loads(out)["results"]
    shape = geom.Ellipsoid.from_axes([1, 1, 1, 1, 1, 2])
    fine = valuations.hermitian_volumes(shape, 1)
    assert results["quadrature"] == {"rule": "hopf", "nodes": 16**2 * 16 // 2}
    assert results["table"] == fine.to_json()
    assert results["richardsonError"] == richardson_error(fine, valuations.hermitian_volumes(shape, 0))


@pytest.mark.parametrize(
    "axes,level,rule,nodes",
    [("1,1,2,2", 1, "torus-orbit", 16), ("1,2,2,3", 0, "conj-fold", 128),
     ("1,1,1,2", 2, "hopf", 512)],
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
    """Refuse the product grid and record (rule, nodes) of every quadrature table."""

    def no_grid(*args, **kwargs):
        raise AssertionError("product sphere grid requested")

    tabulate = valuations.hermitian_volumes
    plans = []

    def record(*args, **kwargs):
        table = tabulate(*args, **kwargs)
        plans.append((table.quadrature["rule"], table.quadrature["nodes"]))
        return table

    monkeypatch.setattr(geom, "sphere_grid", no_grid)
    monkeypatch.setattr(valuations, "hermitian_volumes", record)
    return plans


def test_volumes_of_a_j_invariant_n3_ellipsoid_at_the_default_level(capsys, monkeypatch):
    # the product rule at level 2 would need a 67M-node grid
    plans = _plan_tables(monkeypatch)
    code, out = run_cli(["volumes", "--shape", "ellipsoid", "--axes", "1,1,1,1,2,2"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["quadrature"] == {"rule": "torus-orbit", "nodes": 32**2}
    assert plans == [("torus-orbit", 32**2)]


def test_total_gauss_n3_tables_at_the_default_level(capsys, monkeypatch):
    # both families are T^n-invariant: two 1024-node tables
    plans = _plan_tables(monkeypatch)
    run_cli(["check", "total-gauss", "--n", "3", "--samples", "200", "--seed", "3"], capsys)
    assert plans == [("torus-orbit", 32**2)] * 2


def test_check_gauss_bonnet_pass_and_fail(capsys):
    args = ["check", "gauss-bonnet", "--shape", "ball", "--n", "3", "--eps", "-1",
            "--R", "0.7"]
    code, out = run_cli(args, capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True
    code, out = run_cli(args + ["--tol", "1e-30"], capsys)
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize("eps", ["-1", "0", "1"])
def test_check_gauss_bonnet_on_a_disk_in_a_complex_line(eps, capsys):
    # at n = 1 the hyperplanes are points, and the plane form keeps their term
    code, out = run_cli(["check", "gauss-bonnet", "--n", "1", "--eps", eps, "--R", "0.5"],
                        capsys)
    results = json.loads(out)["results"]
    assert code == 0
    assert results["relativeMuForm"] < 1e-14 and results["relativePlaneForm"] < 1e-14


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


def test_ball_crofton_variation_near_the_injectivity_bound_reports(capsys):
    # 1e-4 below pi/2: no transported ball is needed, and the closed forms
    # divide by nothing, so the check reports a pass
    code = cli.main(["check", "crofton-variation", "--shape", "ball", "--n", "2",
                     "--eps", "1", "--R", "1.5707", "--r", "1"])
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert code == 0 and report["pass"]
    assert set(report["results"]) >= {"oracle", "formula", "relErr"}


def test_a_ball_of_radius_1e_200_is_checked(capsys):
    # its tables used to overflow through 1/R; 1/R now enters only the curvatures
    code, out = run_cli(["check", "gauss-bonnet", "--R", "1e-200"], capsys)
    assert code == 0 and json.loads(out)["pass"]


def test_an_oversized_jacobi_matrix_is_a_usage_error(capsys):
    # the n = 2 torus-orbit rule has only p = 8 * 2^L nodes, but its
    # Gauss-Jacobi rule builds a dense p x p matrix: 512 MiB at level 10
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(["volumes", "--shape", "ellipsoid", "--axes", "1,1,2,2", "--level", "10"])
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == (
        "croftonlab: error: the level-10 torus-orbit rule needs a 8,192 x 8,192 Jacobi matrix "
        "(67,108,864 entries), over the limit of 16,777,216")


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
        # crofton-mc tabulates its n = 3 families at level 1, the level it reports
        (["check", "crofton-mc", "--n", "3"], 1),
        (["check", "crofton-mc", "--n", "2", "--level", "2"], 2),
        (["check", "total-gauss", "--n", "3", "--level", "0"], 0),
    ],
)
def test_check_reports_the_level_it_runs(argv, level, capsys, monkeypatch):
    ran = {}

    def fake_check(a):
        ran["level"] = a.level
        return {"pass": True}

    monkeypatch.setitem(cli.CHECKS, argv[1], fake_check)
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
    assert "seed" not in rep["config"]  # a deterministic check reads no seed
    assert rep["config"]["tol"] == 1e-8
    assert rep["results"]["tolerance"] == 1e-8
    assert rep["version"]
    assert rep["tool"] == "croftonlab"
    _, out = run_cli(["check", "crofton-cpn", "--n", "2", "--samples", "100", "--tol", "50"],
                     capsys)
    rep = json.loads(out)
    assert rep["config"]["seed"] == 0 and rep["config"]["tol"] == 50
    assert [it["estimate"]["seed"] for it in rep["results"]["items"]] == [1, 2, 3, 4]


def _csv_rows(text):
    header, row = csv.reader(io.StringIO(text))
    assert len(header) == len(row)
    return dict(zip(header, row))


def test_csv_output_flattens_kq_keys(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, _ = run_cli(
        ["volumes", "--shape", "ball", "--n", "2", "--eps", "0", "--R", "1",
         "--format", "csv", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    row = _csv_rows(out_path.read_text())
    assert "results.table.mu:2.1" in row
    assert "mu:2,1" not in row  # (k,q) keys flatten as "k.q"
    # the parsed --axes flatten to one column per semiaxis
    code, out = run_cli(
        ["check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", "1,1,2,2", "--level", "1",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    row = _csv_rows(out)
    assert [row[f"config.axes.{i}"] for i in range(4)] == ["1.0", "1.0", "2.0", "2.0"]
    assert "config.axes" not in row
    assert row["config.tol"] == "None"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_check_reports_state_the_parsed_axes(fmt, capsys):
    # commas or spaces, the same semiaxes give the same report
    outs = []
    for axes in ("1,1,2,2", "1 1 2 2"):
        code, out = run_cli(["check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", axes,
                             "--level", "1", "--format", fmt], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


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


# Monte Carlo reports pinned byte for byte: 70,000 samples are eight full
# chunks plus one 4,464-plane chunk, so the files fix the plane streams and
# the order of every reduction
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
        (["volumes", "--shape", "ball", "--R", "-0.5"], "radius"),
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
        (["check", "gauss-bonnet", "--eps", "nan", "--R", "1"], "must be finite"),
        (["check", "gauss-bonnet", "--R", "inf"], "must be finite"),
        (["check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", "1,1,inf,2"], "finite"),
        (["check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", "1,nan,1,2"], "finite"),
        (["check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", "1e-200,1,1,2"], "finite"),
        (["check", "gauss-bonnet", "--n", "3", "--eps", "1", "--R", "0.5", "--tol", "nan"],
         "--tol"),
        (["check", "gamma-b", "--eps", "1", "--R", "0.5", "--tol", "inf"], "--tol"),
        (["check", "gamma-b", "--eps", "1", "--R", "0.5", "--tol", "0"], "--tol"),
        (["check", "gauss-bonnet", "--eps", "-1", "--R", "400"], "overflow"),
        (["volumes", "--eps", "-1", "--R", "800"], "overflow"),
        (["check", "variation", "--eps", "-1", "--R", "400"], "overflow"),
        # 1/R overflows the curvatures
        (["check", "gauss-bonnet", "--R", "1e-320"], "overflow"),
        (["volumes", "--shape", "ellipsoid", "--axes", "1,1,2,2", "--level", "0",
          "--richardson"], "--richardson"),
        (["volumes", "--R", "0.5", "--richardson"], "--richardson"),
        # a ball check reads no --axes
        (["check", "gamma-b", "--eps", "1", "--R", "0.5", "--axes", "1,x"], "--axes"),
        # an --out that cannot be opened is refused before anything runs
        (["coeffs", "--gb", "--out", "{tmp}/missing/x.json"], "--out"),
        (["check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", "1,1,2,2",
          "--out", "{tmp}/missing/x.json"], "--out"),
        (["volumes", "--R", "0.5", "--out", "{tmp}"], "--out"),
        # every seed a check derives, seed + i, must lie in [0, 2**63): -1 used to
        # raise in numpy, and the others drew the streams of seeds 2**63 apart
        (["check", "grassmann-pointwise", "--n", "2", "--samples", "100", "--seed", "-1"],
         "--seed"),
        (["check", "crofton-cpn", "--n", "2", "--samples", "2000", "--seed", "-2"], "--seed"),
        (["check", "crofton-cpn", "--n", "2", "--samples", "2000",
          "--seed", "9223372036854775806"], "--seed"),
        (["check", "crofton-cpn", "--n", "2", "--samples", "2000",
          "--seed", "9223372036854775804"], "--seed"),
        # an ellipsoid's n is half its semiaxis count; a given --n must agree
        (["check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", "1,1,1,1,2,2", "--n", "2"],
         "--n"),
        # crofton-mc runs n = 3 at level 1: a given --level, even 1, is refused, not replaced
        (["check", "crofton-mc", "--n", "3", "--level", "1"], "--level"),
        # flags a command does not read; these ran eps = 1 balls at four fixed
        # radii, and the one-node ball rule twice for a zero error bar at level 3
        (["check", "crofton-cpn", "--n", "2", "--eps", "-1", "--shape", "ellipsoid",
          "--axes", "1,1,2,2", "--level", "5"], "--eps"),
        (["volumes", "--shape", "ball", "--n", "2", "--eps", "1", "--R", "0.5", "--level", "3",
          "--richardson"], "--richardson"),
        # a ball's table is its closed form: there is no flag to ask for it
        (["volumes", "--shape", "ball", "--n", "2", "--eps", "1", "--R", "0.5",
          "--closed-form"], "--closed-form"),
        # past the last finite table at eps = -1, where nan residuals were reported
        (["check", "gauss-bonnet", "--n", "2", "--eps", "-1", "--R", "177.3"], "overflow"),
    ],
)
def test_bad_flag_values_are_parser_errors(argv, flag, capsys, tmp_path, monkeypatch):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    # a refused command builds no table
    monkeypatch.setattr(valuations, "hermitian_volumes", None)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("croftonlab") and "error:" in last and flag in last


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one CLI run, parser errors included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "flag,value,argv",
    [
        ("--eps", "-1e-3", ["check", "gamma-b", "--n", "3", "--R", "0.5"]),
        ("--eps", "-2.5E-1", ["volumes", "--R", "0.5"]),
        ("--R", "-5e-1", ["check", "gauss-bonnet"]),
        ("--tol", "-1e-3", ["check", "gamma-b", "--n", "3", "--eps", "1", "--R", "0.5"]),
    ],
)
def test_negative_exponent_values_read_like_the_equals_spelling(flag, value, argv, capsys):
    # argparse alone took "-1e-3" for an option: "expected one argument"
    spaced = _outcome([*argv, flag, value], capsys)
    joined = _outcome([*argv, f"{flag}={value}"], capsys)
    assert spaced == joined
    assert "expected one argument" not in spaced[2]


@pytest.mark.parametrize("eps", ["1e308", "-1e308"])
def test_overflowing_hopf_curvature_is_refused_in_one_error_line(eps, capsys):
    # 4 eps overflows: refused with the overflow named, where the bare "math
    # domain error" of math.sin (eps > 0) or a nan curvature (eps < 0) used to
    # surface
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "gamma-b", "--n", "3", f"--eps={eps}", "--R", "1e-160"])
    assert exc.value.code == 2
    usage, *lines = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: croftonlab")
    inf = "inf" if eps[0] != "-" else "-inf"
    assert lines == ["croftonlab: error: invalid shape (--shape/--axes/--n/--eps/--R): "
                     f"curvature {inf} is not finite (4*eps overflows for |eps| > 4.49e307)"]


# few samples: a family without hits, and a ratio whose spread is zero; each
# check reports and fails instead of raising
@pytest.mark.parametrize(
    "argv",
    [
        ["check", "total-gauss", "--n", "2", "--level", "0", "--samples", "1", "--seed", "0"],
        ["check", "total-gauss", "--n", "2", "--level", "0", "--samples", "2", "--seed", "0"],
        ["check", "grassmann-pointwise", "--n", "3", "--samples", "1"],
    ],
)
def test_monte_carlo_checks_on_few_samples_fail_with_a_report(argv, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["pass"] is False


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grassmann_pointwise_over_the_whole_distribution(n, capsys):
    # at r = n - 1 every sample is det(h_D): the spread is roundoff, so the
    # estimates and the ratio are gated at 1e-12 relative instead of by z
    code, out = run_cli(["check", "grassmann-pointwise", "--n", str(n), "--r", str(n - 1),
                         "--samples", "2000"], capsys)
    items = json.loads(out)["results"]["items"]
    assert code == 0
    assert all(items[name]["relErr"] < 1e-12 for name in ("h0", "h1", "ratio"))


# the flags (by dest) each command reads, by coeffs table or by command and
# shape kind, written out here independently of cli.READS
BALL = {"shape", "n", "eps", "R"}
ELLIPSOID = {"shape", "axes", "n", "level"}
MONTE_CARLO = {"n", "r", "samples", "seed", "tol"}
READ_SETS = {
    ("coeffs", "gb"): {"n"},
    ("coeffs", "crofton"): {"n", "r"},
    ("coeffs", "total_gauss"): {"n", "r"},
    ("coeffs", "variation"): {"n"},
    ("coeffs", "identities"): {"max_n"},
    ("volumes", "ball"): BALL,
    ("volumes", "ellipsoid"): ELLIPSOID | {"richardson"},
    **{(what, "ball"): BALL | {"tol"} for what in ("gauss-bonnet", "gamma-b", "variation")},
    **{(what, "ellipsoid"): ELLIPSOID | {"tol"} for what in ("gauss-bonnet", "variation")},
    ("crofton-variation", "ball"): BALL | {"r", "tol"},
    ("crofton-variation", "ellipsoid"): ELLIPSOID | {"r", "tol"},
    ("crofton-mc", None): MONTE_CARLO | {"level"},
    ("crofton-cpn", None): MONTE_CARLO,
    ("total-gauss", None): MONTE_CARLO | {"level"},
    ("grassmann-pointwise", None): MONTE_CARLO,
}
# one valid value of every settable flag (None: a flag without a value)
VALUES = {"n": "2", "r": "1", "eps": "0.5", "R": "0.5", "shape": "ball", "axes": "1,1,2,2",
          "level": "1", "samples": "100", "seed": "1", "tol": "0.5", "max_n": "3",
          "richardson": None}
CONFIG_KEYS = {"max_n": "maxN"}


def _flag_argv(dests, kind):
    argv = []
    for dest in sorted(dests):
        value = kind if dest == "shape" and kind else VALUES[dest]
        argv += ["--" + dest.replace("_", "-")] + ([value] if value else [])
    return argv


@pytest.mark.parametrize("command,kind", READ_SETS, ids=[f"{c}-{k}" for c, k in READ_SETS])
def test_each_command_reads_exactly_its_flags(command, kind, capsys, monkeypatch):
    # nothing numeric runs for a check; the exact tables and the volumes here are small
    for what in cli.CHECKS:
        monkeypatch.setitem(cli.CHECKS, what, lambda a: {"pass": True})
    reads = READ_SETS[(command, kind)]
    assert set(cli.READS[(command, kind)]) == reads
    if command == "coeffs":
        argv = ["coeffs", "--" + kind.replace("_", "-")]
    else:
        argv = ["volumes"] if command == "volumes" else ["check", command]
    argv += _flag_argv(reads, kind)
    # only read flags: the config is the read set
    code, out, err = _outcome(argv, capsys)
    assert code == 0, err
    want = {CONFIG_KEYS.get(dest, dest) for dest in reads} | {"subcommand"}
    assert set(json.loads(out)["config"]) == want | ({"what"} if command != "volumes" else set())
    # any one flag more: exit 2, naming it, before anything runs
    for dest in set(VALUES) - reads:
        code, out, err = _outcome(argv + _flag_argv({dest}, None), capsys)
        assert (code, out) == (2, ""), dest
        assert "Traceback" not in err
        assert "--" + dest.replace("_", "-") in err.strip().splitlines()[-1]


def test_the_largest_seed_draws_valid_streams(capsys):
    # crofton-cpn draws seeds up to seed + 4 = 2**63 - 1
    argv = ["check", "crofton-cpn", "--n", "2", "--samples", "100", "--tol", "50",
            "--seed", str(2**63 - 5)]
    assert cli.main(argv) == 0
    items = json.loads(capsys.readouterr().out)["results"]["items"]
    assert items[-1]["estimate"]["seed"] == 2**63 - 1


def test_benchmark_command_lines_parse_and_validate(monkeypatch):
    # every command line the benchmark runs in-process stays accepted
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    argvs = [["check", "gamma-b", "--n", "2", "--eps", "1", "--R", "0.5"]]  # run.py's warm-up
    monkeypatch.setattr(workloads, "cli_op", lambda *argv: argvs.append(list(argv)))
    workloads.build("deterministic", 0)
    workloads.build("montecarlo", 0)
    parser = cli.build_parser()
    distinct = {shlex.join(argv): argv for argv in argvs}
    for argv in distinct.values():
        try:
            cli._validate(parser, parser.parse_args(argv))
        except SystemExit:
            pytest.fail(f"benchmark command rejected: croftonlab {shlex.join(argv)}")
    assert ["coeffs", "--identities"] in argvs
    assert {argv[1] for argv in argvs if argv[0] == "check"} == set(cli.CHECKS)


def test_readme_commands_parse_and_validate(capsys):
    # the README's command block: every documented flag exists and validates,
    # every check is documented, and every documented check passes
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("croftonlab ")]
    parser = cli.build_parser()
    for argv in commands:
        try:
            cli._validate(parser, parser.parse_args(argv))
        except SystemExit:
            pytest.fail(f"README command rejected: croftonlab {shlex.join(argv)}")
    assert {argv[1] for argv in commands if argv[0] == "check"} == set(cli.CHECKS)
    for argv in commands:
        if argv[0] == "check":
            assert run_cli(argv, capsys)[0] == 0, f"croftonlab {shlex.join(argv)}"


# one run of every subcommand and check kind, small enough to be quick; the
# Monte Carlo checks may fail at these sample counts, only the calls matter
EVERY_KIND = [
    ["coeffs", "--gb", "--n", "3"],
    ["coeffs", "--crofton", "--n", "3", "--r", "2"],
    ["coeffs", "--total-gauss", "--n", "3", "--r", "1"],
    ["coeffs", "--variation", "--n", "3"],
    ["coeffs", "--identities", "--max-n", "3"],
    ["volumes", "--n", "3", "--eps", "1", "--R", "0.5"],
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
        scalar.coeff = Fraction(1)
    with pytest.raises(AttributeError):
        scalar.power = 0
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


SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(code, *args):
    """stdout of `code` run by a new interpreter that imports this checkout's croftonlab."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


LOADED_SCIPY = """
import contextlib, io, json, sys
from croftonlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--identities"],
        ["check", "gamma-b", "--n", "3", "--eps", "1", "--R", "0.5"],
        ["check", "gauss-bonnet", "--shape", "ball", "--n", "3", "--eps", "-1", "--R", "0.7"],
        ["check", "crofton-cpn", "--n", "2", "--r", "1", "--samples", "2000", "--seed", "7"],
    ],
)
def test_exact_closed_form_and_plane_commands_load_no_scipy(argv):
    assert json.loads(fresh_python(LOADED_SCIPY, *argv)) == []


# every check kind and `volumes --richardson`, ellipsoid quadrature and linear
# flows included, at small sizes; all run in one interpreter
EVERY_COMMAND = [
    ["check", "gauss-bonnet", "--shape", "ellipsoid", "--axes", "1,2,2,3", "--level", "0"],
    ["check", "variation", "--shape", "ellipsoid", "--axes", "1,1,2,2", "--level", "0"],
    ["check", "crofton-variation", "--shape", "ellipsoid", "--axes", "1,1,2,2", "--level", "0"],
    ["check", "variation", "--shape", "ball", "--n", "2", "--eps", "1", "--R", "0.5"],
    ["check", "crofton-variation", "--shape", "ball", "--n", "2", "--eps", "-1", "--R", "0.5"],
    ["check", "gamma-b", "--n", "3", "--eps", "1", "--R", "0.5"],
    ["check", "crofton-mc", "--n", "2", "--r", "1", "--level", "0", "--samples", "2000"],
    ["check", "total-gauss", "--n", "2", "--r", "1", "--level", "0", "--samples", "2000"],
    ["check", "crofton-cpn", "--n", "2", "--r", "1", "--samples", "2000"],
    ["check", "grassmann-pointwise", "--n", "3", "--r", "1", "--samples", "2000"],
    ["volumes", "--shape", "ellipsoid", "--axes", "1,2,2,3", "--level", "1", "--richardson"],
]

LOADED_SCIPY_AFTER_ALL = """
import contextlib, io, json, sys
from croftonlab import cli
kinds = set()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    kinds.add(argv[1] if argv[0] == "check" else argv[0])
print(json.dumps({"kinds": sorted(kinds),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_no_command_loads_scipy():
    out = json.loads(fresh_python(LOADED_SCIPY_AFTER_ALL, json.dumps(EVERY_COMMAND)))
    assert out["kinds"] == sorted([*cli.CHECKS, "volumes"])
    assert out["scipy"] == []


def test_a_reader_that_leaves_early_gets_no_traceback():
    # `croftonlab coeffs --gb --n 2 | head -0`: the pipe's read end is closed
    # before the command starts, so writing the report fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "croftonlab.cli", "coeffs", "--gb", "--n", "2"],
            env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=write_end, stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")  # no traceback, no warning


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses writes")
def test_a_failed_out_write_is_one_line(capsys):
    # /dev/full opens but refuses every write (ENOSPC)
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs", "--gb", "--n", "2", "--out", "/dev/full"])
    assert exc.value.code not in (0, None)
    assert str(exc.value) == "croftonlab: error: cannot write --out /dev/full: No space left on device"
    assert capsys.readouterr().out == ""
