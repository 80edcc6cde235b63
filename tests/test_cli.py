"""Command-line interface: exit codes, determinism, exports, anchors."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from gradecalc.cli import main
from gradecalc.suite import ANCHORS, RunConfig, VerificationReport, run_group_check, run_verify


@pytest.fixture
def runner():
    return CliRunner()


# ---------------------------------------------------------------------------
# group check


def test_group_check_builtin_passes(runner):
    res = runner.invoke(main, ["--group", "heisenberg", "group", "check"])
    assert res.exit_code == 0, res.output
    assert "RESULT: all checks passed" in res.output


def test_group_check_unknown_group_exit_2(runner):
    res = runner.invoke(main, ["--group", "no-such-group", "group", "check"])
    assert res.exit_code == 2


def test_bundled_group_beside_a_path_of_its_name(runner, tmp_path, monkeypatch):
    # a directory named abelian1 in the working directory once made the
    # bundled group unreadable (exit 2)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "abelian1").mkdir()
    res = runner.invoke(main, ["--group", "abelian1", "group", "check"])
    assert res.exit_code == 0, res.output
    assert "# weights: (1,)" in res.output


def test_group_check_malformed_json_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    res = runner.invoke(main, ["--group", str(bad), "group", "check"])
    assert res.exit_code == 2
    assert "invalid JSON" in res.output


@pytest.mark.parametrize("kind", ["directory", "utf16"])
def test_group_path_not_utf8_text_exit_2(runner, tmp_path, kind):
    # once an IsADirectoryError or a UnicodeDecodeError traceback
    path = tmp_path / "group.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    res = runner.invoke(main, ["--group", str(path), "verify"])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert str(path) in res.output and "Traceback" not in res.output


@pytest.mark.parametrize("entry", [[1, 2, 3, 1, 0], [1, 2, 4, 1, 1], [1, 2, 3, 1.5, 1]])
def test_group_check_bad_bracket_entry_exit_2(runner, tmp_path, entry):
    # a zero denominator, an index outside 1..n or a fractional number is
    # refused, naming the entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "weights": [1, 1, 2], "brackets": [entry]}))
    res = runner.invoke(main, ["--group", str(bad), "group", "check"])
    assert res.exit_code == 2
    assert str(entry) in res.output


def test_group_check_jacobi_violation_exit_1(runner, tmp_path):
    # well-formed file whose brackets break the Jacobi identity:
    # [e1,e2]=e3, [e1,e3]=e4, [e2,e3]=0 is fine; adding [e1,e4]=0 but
    # [e2,e4] = e3 (weight-incompatible cycle) breaks gradation/Jacobi
    bad = tmp_path / "nonjacobi.json"
    bad.write_text(
        json.dumps(
            {
                "n": 4,
                "weights": [1, 1, 2, 3],
                "brackets": [[1, 2, 3, 1, 1], [1, 3, 4, 1, 1], [2, 3, 4, 1, 1], [2, 4, 3, 1, 1]],
                "labels": ["A", "B", "C", "D"],
            }
        )
    )
    res = runner.invoke(main, ["--group", str(bad), "group", "check"])
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_bad_tol_scale_exit_2(runner):
    # nan once failed every row (exit 1), and inf passed every row (exit 0)
    for value in ("-1", "nan", "inf"):
        res = runner.invoke(main, ["--tol-scale", value, "--group", "abelian1", "group", "check"])
        assert res.exit_code == 2, (value, res.output)
        assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output


@pytest.mark.parametrize("command", [["verify"], ["probe"], ["norm"]])
def test_negative_seed_exit_2(runner, command):
    # once numpy's "expected non-negative integer" traceback, exit 1
    res = runner.invoke(main, ["--group", "abelian1", "--seed", "-1", *command])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output


@pytest.mark.parametrize(
    "out, command",
    [
        # a directory under a regular file: once a NotADirectoryError traceback
        ("file/sub", ["verify"]),
        # a regular file as the directory: once a FileExistsError traceback
        ("file", ["export", "probes"]),
    ],
)
def test_unwritable_out_exit_2(runner, tmp_path, out, command):
    (tmp_path / "file").write_text("")
    path = str(tmp_path / out)
    res = runner.invoke(main, ["--group", "abelian1", "--out", path, *command])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output
    assert path in res.output


# ---------------------------------------------------------------------------
# verify


def test_verify_abelian1_all_pass(runner, tmp_path):
    res = runner.invoke(
        main, ["--group", "abelian1", "--out", str(tmp_path), "verify"]
    )
    assert res.exit_code == 0, res.output
    assert "RESULT: all checks passed" in res.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["ok"] is True
    assert all(c["pass"] for c in report["checks"])
    assert (tmp_path / "report.txt").exists()


def test_verify_abelian3_all_pass(runner):
    # 29^3 heat grid (Kronecker plans, FFT convolution): heat.mass 3.9e-4
    res = runner.invoke(main, ["--group", "abelian3", "verify"])
    assert res.exit_code == 0, res.output
    assert "RESULT: all checks passed" in res.output


def test_verify_heisenberg_defaults_all_pass(runner, tmp_path):
    # central-Fourier heat plans and a reflection-blocked potential plan
    res = runner.invoke(main, ["--out", str(tmp_path), "verify"])
    assert res.exit_code == 0, res.output
    assert res.exception is None and "Traceback" not in res.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["ok"] is True and all(c["pass"] for c in report["checks"])
    plans = {p["role"]: p for p in report["plans"]}
    assert [p["role"] for p in report["plans"]] == ["heat", "heat.selfsim", "potential"]
    assert plans["heat"]["kind"] == "CentralFourierPlan"
    pot = plans["potential"]
    assert pot["kind"] == "SpectralPlan" and pot["n"] == 11 * 11 * 45
    assert len(pot["blocks"]) == 4 and sum(pot["blocks"]) == pot["n"]
    assert pot["reflection_defect"] < 1e-12 and pot["sym_defect"] < 1e-12
    assert pot["negative"] == 0 and 0 < pot["lam_min"] < pot["lam_max"]
    assert pot["grid"] == {"half_widths": [2.7, 2.7, 0.95], "counts": [19, 19, 53], "periodic": []}
    assert plans["heat"]["grid"]["periodic"] == [2]
    # the potential plan's heat source switches to its self-similar continuation
    assert 0 < pot["t_switch"] < 20 and abs(pot["mass_at_switch"] - 1) <= 5e-4
    assert pot["ladder_nodes_late"] == 49
    # the flip (x, y, u) -> (x, -y, -u) commutes with the central-Fourier blocks
    assert 0 <= plans["heat"]["reflection_defect"] <= 1e-12 and "eigh_driver" not in plans["heat"]
    # the quarter turn (x, y, u) -> (-y, x, u) commutes with both plans: it
    # halves the two reflection blocks it maps onto themselves and solves
    # one of the two it swaps, and it splits each frequency (up to conjugate
    # pairs) into its four characters
    assert pot["blocks"] == [1367, 1350, 1350, 1378] and pot["solves"] == [692, 675, 1350, 703, 675]
    assert plans["heat"]["blocks"] == [625] * 31 and plans["heat"]["solves"] == [156, 156, 157, 156] * 16
    assert pot["turn_defect"] < 1e-12 and 0 < plans["heat"]["turn_defect"] < 1e-12
    # heat.selfsim rescales the heat plan: no eigensolve of its own
    assert [p["derived_from"] for p in report["plans"]] == [None, "heat", None]
    for p in report["plans"]:
        assert p["eigh_s"] > 0 if p["derived_from"] is None else p["eigh_s"] == 0.0
    # the text report carries checks only
    assert "blocks" not in (tmp_path / "report.txt").read_text()


@pytest.mark.parametrize(
    "args, late, exit_code",
    [
        (["--group", "abelian1"], 15, 0),
        (["--group", "abelian3"], 45, 0),
        # the benchmark's coarse heisenberg box: its heat rows fail there
        (["--group", "heisenberg", "--scale", "1.6", "--points", "15,15,31"], 60, 1),
    ],
)
def test_verify_records_late_ladder_nodes(runner, tmp_path, args, late, exit_code):
    # the potential plan's record says how many of the 60 ladder nodes lie
    # past the heat source's switch, where each is one resampling
    res = runner.invoke(main, [*args, "--out", str(tmp_path), "verify"])
    assert res.exit_code == exit_code, res.output
    report = json.loads((tmp_path / "report.json").read_text())
    pot = next(p for p in report["plans"] if p["role"] == "potential")
    assert pot["ladder_nodes_late"] == late
    assert "ladder_nodes" not in (tmp_path / "report.txt").read_text()


def test_verify_json_keeps_raw_values_of_floored_checks(runner, tmp_path):
    # geometry.quasi_triangle is floored at 1 and sobolev.interpolation at 0;
    # report.json keeps the value before the floor, the text report does not
    res = runner.invoke(main, ["--group", "abelian1", "--out", str(tmp_path), "verify"])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "report.json").read_text())
    raw = {c["id"]: c["raw"] for c in report["checks"] if "raw" in c}
    assert sorted(raw) == ["geometry.quasi_triangle", "sobolev.interpolation"]
    for c in report["checks"]:
        if c["id"] in raw:
            assert c["value"] == max(c["raw"], ANCHORS[c["id"]].floor)
    assert raw["sobolev.interpolation"] < 0
    assert "raw" not in (tmp_path / "report.txt").read_text()
    # the abelian1 plans are Kronecker plans of real factors, each solved
    # as its even and odd halves
    assert [p["kind"] for p in report["plans"]] == ["KroneckerPlan"] * 3
    pot = report["plans"][2]
    assert pot["blocks"] == [633] and pot["solves"] == [316, 317]


def test_verify_resolves_config_first(runner, monkeypatch):
    # abelian2 has heat defaults but no potential defaults: the refusal comes
    # before any computation, and without a traceback
    import gradecalc.suite as suite

    def computed(*args, **kwargs):
        raise AssertionError("computation before the configuration was resolved")

    monkeypatch.setattr(suite, "quasi_triangle_ratio", computed)
    monkeypatch.setattr(suite, "spectral_plan", computed)
    res = runner.invoke(main, ["--group", "abelian2", "verify"])
    assert res.exit_code == 2, res.output
    assert "no default grid" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "args, solves, derived",
    [
        # both plans take the --points grid: one solve for all three roles
        (["--group", "heisenberg", "--scale", "1.2", "--points", "11,11,21"], 1, [None, "heat", "heat"]),
        # distinct default heat and potential grids: one solve each
        (["--group", "abelian1"], 2, [None, "heat", None]),
        (["--group", "abelian3"], 2, [None, "heat", None]),
    ],
)
def test_verify_solves_once_per_grid(runner, tmp_path, monkeypatch, args, solves, derived):
    import gradecalc.suite as suite

    solve, grids = suite.spectral_plan, []

    def counted(spec, law, grid, **kwargs):
        grids.append(grid)
        return solve(spec, law, grid, **kwargs)

    monkeypatch.setattr(suite, "spectral_plan", counted)
    res = runner.invoke(main, [*args, "--out", str(tmp_path), "verify"])
    assert res.exit_code in (0, 1) and "Traceback" not in res.output, res.output
    assert len(grids) == solves
    report = json.loads((tmp_path / "report.json").read_text())
    assert [p["role"] for p in report["plans"]] == ["heat", "heat.selfsim", "potential"]
    assert [p["derived_from"] for p in report["plans"]] == derived
    for p in report["plans"]:
        assert (p["eigh_s"] > 0) == (p["derived_from"] is None)


_NO_DEGREE_ROWS = [
    "heat.selfsim",
    "potential.bessel_mass",
    "potential.bessel_semigroup",
    "potential.riesz_homogeneity",
    "potential.fractional_roundtrip",
    "potential.quadrature_gap",
    "sobolev.s_zero",
    "sobolev.interpolation",
    "sobolev.duality",
    "sobolev.equivalence",
]


_HEISENBERG_BENCH_GRID = ["--group", "heisenberg", "--scale", "1.6", "--points", "15,15,31"]


@pytest.mark.parametrize(
    "args, skipped, exit_code",
    [
        (["--group", "abelian1"], ["potential.riesz_homogeneity"], 0),  # Q = 1
        (["--group", "abelian3"], ["potential.bessel_semigroup"], 0),
        # exit 1 from the known heat.mass, heat.semigroup and heat.symmetry defects of this grid
        (_HEISENBERG_BENCH_GRID, ["potential.bessel_semigroup", "potential.riesz_homogeneity"], 1),
        (["--group", "abelian1", "--op", "-X^2+1"], _NO_DEGREE_ROWS, 0),
    ],
)
def test_verify_skips_say_why(runner, tmp_path, args, skipped, exit_code):
    # every row of the check table appears once, as a check or as a skip with its reason
    res = runner.invoke(main, [*args, "--out", str(tmp_path), "verify"])
    assert res.exit_code == exit_code, res.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert sorted(report["skipped"]) == sorted(skipped + ["sobolev.embedding"])
    assert all(report["skipped"].values())
    assert sorted([c["id"] for c in report["checks"]] + list(report["skipped"])) == sorted(ANCHORS)
    # one [SKIP] line per skip, after the last check line, in table order, before RESULT
    lines = (tmp_path / "report.txt").read_text().splitlines()
    n = len(report["skipped"])
    expected = [f"[SKIP] {cid:32s} {report['skipped'][cid]}" for cid in ANCHORS if cid in report["skipped"]]
    assert lines[-1 - n : -1] == expected
    assert lines[-2 - n].startswith(("[PASS]", "[FAIL]")) and lines[-1].startswith("RESULT")


@pytest.mark.parametrize(
    "args, absent, roles",
    [
        # no dilation pairs on this grid: no Riesz kernel is built
        (_HEISENBERG_BENCH_GRID, "riesz_kernel", ["heat", "heat.selfsim", "potential"]),
        # no homogeneous degree: no potential plan and no heat source for its kernels
        (["--group", "abelian1", "--op", "-X^2+1"], "HeatKernelSource", ["heat"]),
    ],
)
def test_verify_builds_nothing_it_skips(runner, tmp_path, monkeypatch, args, absent, roles):
    import gradecalc.suite as suite

    solve, grids = suite.spectral_plan, []

    def counted(spec, law, grid, **kwargs):
        grids.append(grid)
        return solve(spec, law, grid, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError(f"{absent} called for a skipped row")

    monkeypatch.setattr(suite, "spectral_plan", counted)
    if absent == "riesz_kernel":  # a Riesz kernel is a riesz exponent of potential_kernels
        kernels = suite.potential_kernels

        def bessel_only(plan, bessel=(), riesz=(), source=None):
            if riesz:
                refused()
            return kernels(plan, bessel=bessel, source=source)

        monkeypatch.setattr(suite, "potential_kernels", bessel_only)
    else:
        monkeypatch.setattr(suite, absent, refused)
    res = runner.invoke(main, [*args, "--out", str(tmp_path), "verify"])
    assert res.exit_code in (0, 1) and "Traceback" not in res.output, res.output
    assert len(grids) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert [p["role"] for p in report["plans"]] == roles


def test_verify_selects_dilation_pairs_once(runner, tmp_path, monkeypatch):
    # the pairs that decide the potential.riesz_homogeneity row are the ones it measures
    import gradecalc.potentials as potentials
    import gradecalc.suite as suite

    select, calls = potentials.dilation_pairs, []

    def counted(*args, **kwargs):
        calls.append(1)
        return select(*args, **kwargs)

    monkeypatch.setattr(suite, "dilation_pairs", counted)
    monkeypatch.setattr(potentials, "dilation_pairs", counted)
    args = ["--group", "abelian3", "--scale", "3", "--points", "19", "--out", str(tmp_path), "verify"]
    res = runner.invoke(main, args)
    assert res.exit_code in (0, 1) and "Traceback" not in res.output, res.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert "potential.riesz_homogeneity" in [c["id"] for c in report["checks"]]
    assert len(calls) == 1


def test_verify_nan_defect_fails(runner, tmp_path):
    # at t = 0.1 e^{800} overflows and the mass underflows to 0, so that
    # time's heat.mass defect is NaN; the built-in max once dropped it and
    # the row passed at 4.5e-13
    args = ["--group", "abelian1", "--op", "-X^2+8000", "--out", str(tmp_path), "verify"]
    res = runner.invoke(main, args)
    assert res.exit_code == 1, res.output
    assert "[FAIL] heat.mass" in res.output and "value=nan" in res.output
    row = {c["id"]: c for c in json.loads((tmp_path / "report.json").read_text())["checks"]}["heat.mass"]
    assert np.isnan(row["value"]) and row["pass"] is False


def test_verify_deterministic_modulo_timestamp(runner, tmp_path):
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        res = runner.invoke(main, ["--group", "abelian1", "--out", str(d), "verify"])
        assert res.exit_code == 0, res.output
        lines = (d / "report.txt").read_text().splitlines()
        outs.append([ln for ln in lines if not ln.startswith("# generated")])
    assert outs[0] == outs[1]


def test_verify_tol_scale_forces_failure(runner):
    # shrinking every threshold by 1e12 turns finite defects into failures
    res = runner.invoke(main, ["--group", "abelian1", "--tol-scale", "1e-12", "verify"])
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_verify_custom_grid_flags(runner):
    res = runner.invoke(
        main,
        ["--group", "abelian1", "--scale", "8.0", "--points", "641", "verify"],
    )
    assert res.exit_code == 0, res.output


# ---------------------------------------------------------------------------
# computations


def test_heat_command(runner, tmp_path):
    res = runner.invoke(
        main,
        ["--group", "abelian1", "--out", str(tmp_path), "heat", "--t", "0.1", "--t", "0.3"],
    )
    assert res.exit_code == 0, res.output
    assert "mass defect" in res.output
    from gradecalc.defaults import DEFAULTS

    lines = (tmp_path / "heat.csv").read_text().splitlines()
    assert lines[0] == "x1,t,value"
    assert len(lines) == 1 + 2 * DEFAULTS["abelian1"].heat.grid.counts[0]


def test_heat_huge_time_fails_without_warning(runner):
    # h_t underflows to 0 everywhere: a mass breach (exit 1), once with an
    # overflow RuntimeWarning on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, ["--group", "abelian1", "heat", "--t", "1e308"])
    assert res.exit_code == 1, res.output
    assert "heat.mass" in res.output
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in caught]


def test_heat_command_judges_mass_defect(runner):
    # the printed defect is judged against heat.mass times the tolerance scale
    res = runner.invoke(main, ["--group", "abelian1", "--tol-scale", "1e-20", "heat"])
    assert res.exit_code == 1, res.output
    assert "mass defect" in res.output
    assert "heat.mass" in res.output


def test_kernel_command(runner, tmp_path):
    res = runner.invoke(
        main,
        ["--group", "abelian1", "--out", str(tmp_path), "kernel", "--kind", "bessel", "--a", "2"],
    )
    assert res.exit_code == 0, res.output
    assert "integral" in res.output
    lines = (tmp_path / "kernel.csv").read_text().splitlines()
    assert lines[0] == "x1,a,value"


def test_kernel_command_judges_bessel_mass(runner):
    # the default abelian1 kernel passes; the same integral fails against a
    # potential.bessel_mass threshold scaled down to 1e-14
    res = runner.invoke(main, ["--group", "abelian1", "kernel"])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["--group", "abelian1", "--tol-scale", "1e-12", "kernel"])
    assert res.exit_code == 1, res.output
    assert "potential.bessel_mass" in res.output


@pytest.mark.parametrize("kind", ["bessel", "riesz"])
def test_kernel_refuses_negative_spectrum(runner, kind):
    # this heisenberg358 plan has an eigenvalue of -2.4e65: its kernels are
    # refused, not printed with exit 0
    args = ["--group", "heisenberg358", "--scale", "1", "--points", "11", "kernel", "--kind", kind]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "negative eigenvalue" in res.output
    assert "Traceback" not in res.output


def test_kernel_high_degree_coarse_grid_no_traceback(runner):
    # (h/2)^240 overflows a float: the degree-240 ladder once ended in an
    # OverflowError traceback, and then in a failed integral on an interior
    # 1 node wide.  Such an interior holds no difference, so the plan is refused
    res = runner.invoke(main, ["--group", "heisenberg358", "--points", "9", "kernel"])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert "Traceback" not in res.output
    assert "1 interior node along axis 1" in res.output


def test_norm_command(runner):
    res = runner.invoke(main, ["--group", "abelian1", "norm", "--s", "1.5", "--p", "2"])
    assert res.exit_code == 0, res.output
    assert "1.5" in res.output


def test_norm_command_rejects_bad_flavor_order(runner):
    # integer flavor needs s to be a multiple of the operator degree
    res = runner.invoke(
        main, ["--group", "abelian1", "norm", "--s", "1.5", "--flavor", "integer"]
    )
    assert res.exit_code == 2
    assert "Traceback" not in res.output


def test_probe_command(runner):
    res = runner.invoke(main, ["--group", "abelian1", "probe"])
    assert res.exit_code == 0, res.output
    assert "equivalence.integer-vs-spectral" in res.output
    assert "embedding.sup" in res.output


def test_probe_obeys_tol_scale(runner, tmp_path):
    # the probe rows are judged against sobolev.equivalence and sobolev.embedding
    # times --tol-scale: the ratio spread 1.072 fails against 20 * 0.01
    res = runner.invoke(main, ["--group", "abelian1", "--tol-scale", "0.01", "probe"])
    assert res.exit_code == 1, res.output
    rows = [ln.split(",") for ln in res.output.splitlines()[1:]]
    assert [(r[4], r[5]) for r in rows] == [("0.2", "fail"), ("0.02", "fail"), ("0.02", "fail")]
    # at the default scale the CSV keeps its values, and its baseline column reads 20 and 2
    res = runner.invoke(main, ["--group", "abelian1", "--out", str(tmp_path), "export", "probes"])
    assert res.exit_code == 0, res.output
    expected = [
        ["equivalence.integer-vs-spectral", "s=2;p=2", 1.0585211853500496, 1.1347830483376378, "20", "pass"],
        ["embedding.Lp-Lq", "p=2;q=4;b=0.25;a=0", 0.82432129708025459, 1.0000000000000002, "2", "pass"],
        ["embedding.sup", "p=2;s=1.5", 0.53782374139674338, 1.0000000000000002, "2", "pass"],
    ]
    lines = (tmp_path / "probes.csv").read_text().splitlines()
    assert lines[0] == "probe id,parameters,min ratio,max ratio,baseline,pass"
    for line, row in zip(lines[1:], expected, strict=True):
        got = line.split(",")
        assert got[:2] + got[4:] == row[:2] + row[4:]
        assert [float(v) for v in got[2:4]] == pytest.approx(row[2:4], rel=1e-12)


@pytest.mark.parametrize(
    "command",
    [
        ["norm", "--p", "abc"],
        ["norm", "--s", "nan"],
        ["norm", "--s", "inf"],
        ["heat", "--t", "-1"],
        ["heat", "--t", "nan"],
        ["heat", "--t", "inf"],
        ["kernel", "--a", "nan"],
        # multipliers that overflow: once a nan printed with exit 0
        ["norm", "--s", "1e308"],
        ["norm", "--s", "400"],
        ["norm", "--s", "-1e308", "--flavor", "homogeneous"],
        # Bessel kernels with their mass past the ladder: once an integral of
        # 1.000000 on an empty kernel with exit 0 (300), a Gamma overflow (344)
        ["kernel", "--a", "300"],
        ["kernel", "--a", "344"],
        ["kernel", "--a", "1e300"],
    ],
)
def test_numeric_argument_refused_exit_2(runner, command):
    # once a traceback, or a nan printed with exit 0 or judged as a check failure
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, ["--group", "abelian1", *command])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert "Traceback" not in res.output
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in caught]


@pytest.mark.parametrize("op", ["-X^2+1", "-X^2"])
def test_heat_mass_divides_out_identity_word(runner, op):
    # the heat kernel of L + cI has mass e^{-ct}: judged as |e^{ct} int h_t - 1|
    res = runner.invoke(main, ["--group", "abelian1", "--op", op, "heat", "--t", "0.1"])
    assert res.exit_code == 0, res.output
    defect = float(res.output.split("mass defect ")[1].split(",")[0])
    assert defect < 1e-13


@pytest.mark.parametrize(
    "args",
    [
        # every eigenvalue clipped to 0: the kernel was the delta, with exit 0
        ["--group", "abelian1", "--op", "X^2", "heat", "--t", "0.1"],
        ["--group", "heisenberg", "--op", "X^2+Y^2", "heat"],
        # once "all checks passed"
        ["--group", "abelian1", "--op", "X^2-X^4", "verify"],
        # once a PotentialError traceback
        ["--group", "abelian1", "--op", "X^2", "verify"],
        ["--group", "abelian3", "--scale", "3", "--points", "19", "--op", "X^2+Y^2+Z^2", "verify"],
        # once a mass FAIL on a plan with lam_min = -0.458
        ["--group", "abelian1", "--op", "-X^2-0.5", "heat", "--t", "0.1"],
    ],
)
def test_non_positive_operator_refused(runner, args):
    # the plan refuses an operator that is not positive on its grid, for every command
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert "negative eigenvalue" in res.output and "Traceback" not in res.output


@pytest.mark.parametrize(
    "args, missed",
    [
        # these once ran every row they could and passed, with exit 0, on a heat
        # kernel that is a delta along Y (Z)
        (["--group", "abelian2", "--op", "-X^2", "--scale", "3", "--points", "21", "verify"], "Y"),
        (["--group", "abelian3", "--op", "-X^2", "verify"], "Y, Z"),
        (["--group", "heisenberg", "--op", "-X^2", "--scale", "1.6", "--points", "15,15,31", "verify"], "Y"),
    ],
)
def test_non_rockland_operator_refused(runner, args, missed):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert "not Rockland" in res.output and f"pure power of {missed}," in res.output
    assert "Traceback" not in res.output


def test_default_operators_are_not_refused():
    # each group's default operator, and each benchmark workload's, passes the
    # character tests
    from gradecalc.algebra import builtin_group, builtin_groups

    for name in builtin_groups():
        RunConfig(group=name).operator(builtin_group(name))
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.json")
    with open(path) as fh:
        workloads = json.load(fh)["workloads"]
    assert len(workloads) == 4
    for workload in workloads.values():
        config = workload["config"]
        args = dict(zip(config["args"][::2], config["args"][1::2])) if "args" in config else {}
        group = args.get("--group", config.get("group"))
        RunConfig(group=group, op=args.get("--op")).operator(builtin_group(group))


@pytest.mark.parametrize(
    "group, op, refused",
    [
        # -(X - Y)^2, symbol (xi - eta)^2; it once passed every verify row, with exit 0
        ("abelian2", "-X^2+X*Y+Y*X-Y^2", True),
        ("heisenberg", "-X^2+X*Y+Y*X-Y^2", True),
        # indefinite: eigenvalues -4 and 2
        ("abelian2", "-X^2-Y^2-3*X*Y-3*Y*X", True),
        ("abelian2", "-X^2-Y^2+1/2*X*Y+1/2*Y*X", False),
        ("heisenberg", "-X^2-Y^2+1/2*X*Y+1/2*Y*X", False),
        # degree 4: no quadratic form to test
        ("heisenberg", "X^4+Y^4-T^2", False),
    ],
)
def test_quadratic_character_symbol_must_be_definite(group, op, refused):
    from gradecalc.algebra import builtin_group
    from gradecalc.suite import ConfigError

    cfg = RunConfig(group=group, op=op)
    if refused:
        with pytest.raises(ConfigError, match="not Rockland.*vanishes at some xi"):
            cfg.operator(builtin_group(group))
    else:
        cfg.operator(builtin_group(group))


def test_indefinite_character_symbol_exits_2(runner):
    args = ["--group", "abelian2", "--op", "-X^2+X*Y+Y*X-Y^2", "--scale", "3", "--points", "21", "verify"]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert "not Rockland" in res.output and "Traceback" not in res.output


def test_op_flag_overrides_operator(runner):
    res = runner.invoke(
        main,
        ["--group", "abelian1", "--op", "-X^2", "heat", "--t", "0.2"],
    )
    assert res.exit_code == 0, res.output


def test_periodic_grid_refuses_long_words_exit_2(runner):
    # the default heisenberg heat grid is periodic in u; a degree-4 operator
    # has words of length 4, which its central-Fourier plan cannot take
    res = runner.invoke(main, ["--group", "heisenberg", "--op", "X^4+Y^4-T^2", "heat"])
    assert res.exit_code == 2
    assert "length at most 2" in res.output


def test_empty_interior_exit_2(runner):
    # 7 points leave nothing inside the default margin of 4
    res = runner.invoke(main, ["--group", "abelian1", "--points", "7", "heat"])
    assert res.exit_code == 2
    assert "no interior nodes" in res.output


def test_one_node_interior_exit_2(runner, tmp_path):
    # a margin of 4 on 9 points leaves an interior 1 node wide; it once
    # reported "mass defect 1.000e+00" with exit 1 instead of a refusal
    path = tmp_path / "w13.json"
    path.write_text(json.dumps({"n": 2, "weights": [1, 3], "brackets": []}))
    args = ["--group", str(path), "--scale", "1", "--points", "9", "heat", "--t", "0.1"]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "1 interior node along axis 1" in res.output and "Traceback" not in res.output


@pytest.mark.parametrize(
    "points, message",
    [("abc", "comma-separated integers"), ("8", "odd and >= 3")],
)
def test_bad_points_exit_2(runner, points, message):
    res = runner.invoke(main, ["--group", "abelian1", "--points", points, "heat"])
    assert res.exit_code == 2
    assert message in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("scale", ["0", "-2"])
def test_bad_scale_exit_2(runner, scale):
    res = runner.invoke(main, ["--group", "abelian1", "--scale", scale, "--points", "21", "heat"])
    assert res.exit_code == 2
    assert "finite and positive" in res.output
    assert "Traceback" not in res.output


def test_scale_without_points_exit_2(runner):
    # the default grids fix their own scale, so a lone --scale is refused
    res = runner.invoke(main, ["--group", "abelian1", "--scale", "0", "heat"])
    assert res.exit_code == 2
    assert "--scale needs --points" in res.output
    assert "Traceback" not in res.output


def test_heisenberg358_default_verify_says_why(runner):
    res = runner.invoke(main, ["--group", "heisenberg358", "verify"])
    assert res.exit_code == 2, res.output
    assert "no default grid" in res.output and "degree 240" in res.output
    assert "exceeds the 40000-point grid cap" in res.output
    assert "Traceback" not in res.output


def test_heisenberg358_coarse_verify_no_traceback(runner):
    # the default degree-240 operator: its kernels vanish on this grid (once
    # a ZeroDivisionError), and its order-240 integer Sobolev norm has 6e22
    # words, which is refused before any computation
    res = runner.invoke(main, ["--group", "heisenberg358", "--points", "9", "--scale", "1", "verify"])
    assert res.exit_code in (1, 2)
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "group,scale,points,command",
    [
        ("heisenberg", "1e300", "9", "heat"),  # R^2 overflows
        ("abelian3", "1e-300", "3", "verify"),  # the cell volume underflows to 0
        ("abelian3", "1e300", "5", "heat"),  # the cell volume overflows
        ("abelian1", "1e300", "41", "verify"),  # the corner's pseudo-norm overflows
        ("abelian1", "1e-300", "9", "heat"),  # the stencils overflow
        ("abelian1", "1e-100", "9", "heat"),  # the stencils' node-gap products underflow
        ("heisenberg358", "1", "11", "norm"),  # a plan with a negative eigenvalue
        ("heisenberg358", "1", "11", "probe"),  # an order-240 integer norm
    ],
)
def test_degenerate_grid_exit_2(runner, group, scale, points, command):
    # refused with a reason, and before any computation can overflow; every
    # grid here but the heisenberg358 ones leaves the float range
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, ["--group", group, "--scale", scale, "--points", points, command])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert ("-node grid" in res.output) == (group != "heisenberg358"), res.output
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in caught]


_FUZZ_SCALE = st.one_of(
    st.none(), st.sampled_from(["0.5", "1", "1.6", "2.5", "0", "-1", "abc", "", "1e300", "1e-300", "nan"])
)
_FUZZ_COUNT = st.sampled_from(["3", "5", "7", "9", "0", "-3", "1", "4", "abc", "", "1.5"])


@settings(max_examples=60, deadline=None)
@given(
    group=st.sampled_from(["abelian1", "abelian2", "abelian3", "heisenberg", "heisenberg358"]),
    scale=_FUZZ_SCALE,
    points=st.lists(_FUZZ_COUNT, min_size=1, max_size=3).map(",".join),
    command=st.sampled_from(["heat", "norm", "verify", "kernel", "probe"]),
    op=st.sampled_from([None, "X^2", "-X^2-0.5"]),  # X labels an axis of every bundled group
)
def test_cli_fuzz_tiny_grids(group, scale, points, command, op):
    # every input ends in a result, check failures or a refusal, never a traceback
    args = [
        "--group",
        group,
        *([] if scale is None else ["--scale", scale]),
        *([] if op is None else ["--op", op]),
        "--points",
        points,
        command,
    ]
    res = CliRunner().invoke(main, args)
    assert res.exit_code in (0, 1, 2), (args, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), (args, repr(res.exception))
    assert "Traceback" not in res.output


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_thread_cap_takes_effect():
    # the cap must reach BLAS before numpy loads it: count this process's
    # threads after a BLAS call
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(GRADECALC_THREADS="1", PYTHONPATH=os.path.abspath(src))
    code = (
        "import gradecalc, numpy as np\n"
        "a = np.ones((400, 400)); a @ a\n"
        "print([l for l in open('/proc/self/status') if l.startswith('Threads:')][0])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["Threads:", "1"]


def test_cli_import_skips_scipy_stats():
    # every process imports the CLI; scipy.stats (which pulls in
    # scipy.interpolate) cost about 1 s of that import
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = (
        "import gradecalc.cli, sys\n"
        "print([m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.interpolate'))])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_box_grid_verify_skips_scipy_linalg_and_special():
    # real blocks solve through numpy's dsyevd and the Bessel tails through
    # an in-house incomplete gamma: neither the CLI import nor a verify on
    # box grids loads scipy.linalg or scipy.special, nor, since its blocks
    # are real too, a central-Fourier plan.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), GRADECALC_THREADS="1")
    code = (
        "import contextlib, os, sys, tempfile\n"
        "import gradecalc.cli as cli\n"
        "def loaded(stage):\n"
        "    names = sorted(m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy.special')))\n"
        "    print(stage, names[:1])\n"
        "loaded('import')\n"
        "with tempfile.TemporaryDirectory() as out, open(os.devnull, 'w') as sink:\n"
        "    with contextlib.redirect_stdout(sink):\n"
        "        report = cli.main(['--group', 'abelian1', '--out', out, 'verify'], standalone_mode=False)\n"
        "assert report.ok\n"
        "loaded('verify')\n"
        "from gradecalc.algebra import bch_group_law, builtin_group\n"
        "from gradecalc.calculus import sublaplacian\n"
        "from gradecalc.geometry import Grid\n"
        "from gradecalc.heatflow import CentralFourierPlan, spectral_plan\n"
        "law = bch_group_law(builtin_group('heisenberg'))\n"
        "grid = Grid((2.0, 2.0, 0.5), (13, 13, 5), periodic=(2,))\n"
        "assert isinstance(spectral_plan(sublaplacian(law.algebra), law, grid), CentralFourierPlan)\n"
        "loaded('central-fourier')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["import []", "verify []", "central-fourier []"]


def test_box_grid_run_loads_no_scipy():
    # every operator is a sum of Kronecker products of 1-D numpy matrices:
    # no run loads scipy.sparse, a box-grid verify loads no scipy module at
    # all, and it imports no numpy submodule the CLI import did not (each
    # first use would count in the operation).  Every eigensolve is numpy's,
    # so a central-Fourier plan and a verify on the heisenberg defaults
    # load no scipy module either.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), GRADECALC_THREADS="1")
    code = (
        "import contextlib, os, sys, tempfile\n"
        "import gradecalc.cli as cli\n"
        "print('import', sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "before = set(sys.modules)\n"
        "with tempfile.TemporaryDirectory() as out, open(os.devnull, 'w') as sink:\n"
        "    with contextlib.redirect_stdout(sink):\n"
        "        report = cli.main(['--group', 'abelian1', '--out', out, 'verify'], standalone_mode=False)\n"
        "assert report.ok\n"
        "print('verify', sorted(m for m in set(sys.modules) - before if m.startswith(('scipy', 'numpy.'))))\n"
        "from gradecalc.algebra import bch_group_law, builtin_group\n"
        "from gradecalc.calculus import sublaplacian\n"
        "from gradecalc.geometry import Grid\n"
        "from gradecalc.heatflow import CentralFourierPlan, spectral_plan\n"
        "law = bch_group_law(builtin_group('heisenberg'))\n"
        "grid = Grid((2.0, 2.0, 0.5), (13, 13, 5), periodic=(2,))\n"
        "assert isinstance(spectral_plan(sublaplacian(law.algebra), law, grid), CentralFourierPlan)\n"
        "print('central-fourier', 'scipy.linalg' in sys.modules, 'scipy.sparse' in sys.modules)\n"
        "with tempfile.TemporaryDirectory() as out, open(os.devnull, 'w') as sink:\n"
        "    with contextlib.redirect_stdout(sink):\n"
        "        report = cli.main(['--group', 'heisenberg', '--out', out, 'verify'], standalone_mode=False)\n"
        "assert report.ok\n"
        "print('heisenberg', sorted(m for m in set(sys.modules) - before if m.startswith('scipy')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["import []", "verify []", "central-fourier False False", "heisenberg []"]


def test_no_module_imports_scipy():
    # scipy is a test dependency only: no module of the package imports it
    import ast

    import gradecalc

    root = os.path.dirname(gradecalc.__file__)
    modules = [os.path.join(d, f) for d, _, files in os.walk(root) for f in files if f.endswith(".py")]
    assert len(modules) >= 10
    for path in modules:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "scipy"], (path, node.lineno)


def test_scipy_version_line_without_scipy(monkeypatch):
    # with scipy absent the report's environment says so, deterministically
    import importlib.util

    import gradecalc.suite as suite
    from gradecalc.algebra import builtin_group

    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *a: None if name == "scipy" else find_spec(name, *a))
    suite._scipy_version.cache_clear()
    try:
        assert suite._scipy_version() == "not installed"
        text = suite._report(RunConfig(group="abelian1"), builtin_group("abelian1")).to_text()
        assert "# scipy: not installed\n" in text
    finally:
        suite._scipy_version.cache_clear()


def test_library_import_skips_click():
    # only the command line maps refusals to exit codes, so only it needs click
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = (
        "import gradecalc.suite, gradecalc.potentials, gradecalc.sobolev, sys\n"
        "print('click' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


def test_every_library_error_is_a_gradecalc_error():
    # the command line maps GradecalcError to exit 2 in one place, so every
    # refusal the library raises must derive from it
    import importlib
    import inspect
    import pkgutil

    import gradecalc
    from gradecalc import GradecalcError

    found = []
    for info in pkgutil.iter_modules(gradecalc.__path__):
        module = importlib.import_module(f"gradecalc.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                found.append(cls)
    library = [cls for cls in found if cls.__module__ != "gradecalc.cli"]
    assert len(library) >= 8, library
    assert [cls for cls in library if not issubclass(cls, GradecalcError)] == []
    # the click exception that carries exit code 2 lives in cli
    exits = [cls for cls in found if getattr(cls, "exit_code", None) == 2]
    assert [cls.__module__ for cls in exits] == ["gradecalc.cli"]


def test_no_process_imports_sympy():
    # the exact polynomials are Fraction dictionaries; sympy is a test oracle only
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = (
        "import sys\n"
        "import gradecalc.cli\n"
        "after_import = [m for m in sys.modules if m.split('.')[0] == 'sympy']\n"
        "try:\n"
        "    gradecalc.cli.main(['--group', 'abelian1', 'verify'], standalone_mode=False)\n"
        "finally:\n"
        "    after_verify = [m for m in sys.modules if m.split('.')[0] == 'sympy']\n"
        "    print(after_import, after_verify, file=sys.stderr)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stderr.strip().splitlines()[-1] == "[] []"


def _random_group(rng):
    n = int(rng.integers(0, 6))
    data = {
        "n": n,
        "weights": [int(w) for w in rng.integers(-1, 5, n)],
        "brackets": [
            [int(i) for i in rng.integers(0, n + 2, 3)]
            + [int(rng.integers(-2, 3)), int(rng.choice([-1, 0, 1, 2]))]
            for _ in range(int(rng.integers(0, 5)))
        ],
    }
    if rng.random() < 0.2:
        data["labels"] = [f"L{j}" for j in range(max(0, n + int(rng.choice([-1, 1]))))]
    return data


def test_fuzz_group_files_end_cleanly(runner, tmp_path):
    # every group file ends in exit 0, 1 or 2, never in a traceback
    rng = np.random.default_rng(0xF022)
    for i in range(300):
        path = tmp_path / f"g{i}.json"
        path.write_text(json.dumps(_random_group(rng)))
        commands = [["group", "check"]]
        if i % 10 == 0:
            commands.append(["--scale", "1", "--points", "7", "heat", "--t", "0.1"])
        for cmd in commands:
            res = runner.invoke(main, ["--group", str(path), *cmd])
            assert res.exit_code in (0, 1, 2), (path.read_text(), cmd, res.output)
            assert res.exception is None or isinstance(res.exception, SystemExit), (
                path.read_text(),
                cmd,
                res.exception,
            )


def test_op_flag_parse_error_exit_2(runner):
    res = runner.invoke(main, ["--group", "abelian1", "--op", "Z^2", "heat"])
    assert res.exit_code == 2


@pytest.mark.parametrize("op", ["X^-2", "X^2.5", "X^1/2", "2*-X^2", "X^2*", "1/0*X^2"])
def test_op_flag_malformed_exit_2(runner, op):
    # these once parsed silently as something else, or ended in a traceback
    res = runner.invoke(main, ["--group", "abelian1", "--op", op, "heat"])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output


def test_degree_zero_operator_is_refused(runner):
    # a multiple of the identity has no dilation degree: the potentials
    # refuse it (exit 2) instead of dividing by nu = 0
    res = runner.invoke(main, ["--group", "abelian1", "--op", "2", "kernel"])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output


# ---------------------------------------------------------------------------
# export


def test_export_probes(runner, tmp_path):
    res = runner.invoke(main, ["--group", "abelian1", "--out", str(tmp_path), "export", "probes"])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "probes.csv").read_text().splitlines()
    assert lines[0] == "probe id,parameters,min ratio,max ratio,baseline,pass"
    assert all(ln.endswith(",pass") for ln in lines[1:])


def test_export_heat_default_outdir(runner, tmp_path):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        res = runner.invoke(main, ["--group", "abelian1", "export", "heat"])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "heat.csv").exists()
    finally:
        os.chdir(cwd)


def test_export_heat_abelian3_defaults_pass(runner, tmp_path):
    # the export times stay inside the default heat plan's resolved band: at
    # t = 0.2 the abelian3 kernel has reached the interior edge and its mass
    # defect (1.3e-3) breaches heat.mass; at 0.15 it reads 8.2e-5
    res = runner.invoke(main, ["--group", "abelian3", "--out", str(tmp_path), "export", "heat"])
    assert res.exit_code == 0, res.output
    assert [ln.split(":")[0] for ln in res.output.splitlines() if ln.startswith("t=")] == ["t=0.1", "t=0.15"]


def test_export_unknown_artifact_exit_2(runner):
    res = runner.invoke(main, ["--group", "abelian1", "export", "frobnicate"])
    assert res.exit_code == 2


def test_probe_out_matches_export_probes(runner, tmp_path):
    # export probes is probe with --out defaulting to "."
    for sub, command in (("probe", ["probe"]), ("export", ["export", "probes"])):
        res = runner.invoke(main, ["--group", "abelian1", "--out", str(tmp_path / sub), *command])
        assert res.exit_code == 0, res.output
    csv = [(tmp_path / sub / "probes.csv").read_bytes() for sub in ("probe", "export")]
    assert csv[0] == csv[1]


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize("tol_scale", ["1", "0.01"])
@pytest.mark.parametrize(
    "command",
    [
        ["group", "check"],
        ["heat"],
        ["kernel", "--kind", "bessel"],
        ["probe"],
        ["verify"],
        ["export", "heat"],
        ["export", "kernel"],
        ["export", "probes"],
    ],
    ids=" ".join,
)
def test_exit_1_exactly_when_a_row_fails(runner, tmp_path, tol_scale, command):
    # a printed row or a CSV row that fails exits 1; export probes once wrote
    # three fail rows and exited 0
    args = ["--group", "abelian1", "--tol-scale", tol_scale, "--out", str(tmp_path), *command]
    res = runner.invoke(main, args)
    assert res.exit_code in (0, 1) and "Traceback" not in res.output, res.output
    lines = res.output.splitlines()
    if (tmp_path / "probes.csv").exists():
        lines += (tmp_path / "probes.csv").read_text().splitlines()
    failed = any("FAIL" in ln or ln.endswith(",fail") for ln in lines)
    assert res.exit_code == int(failed), res.output
    # at the default scale every row passes; the probe rows fail at 0.01
    if tol_scale == "1" or command[-1] in ("probe", "probes"):
        assert failed == (tol_scale != "1")


# ---------------------------------------------------------------------------
# anchors


def test_every_check_id_has_unique_anchor():
    assert len({row.anchor for row in ANCHORS.values()}) == len(ANCHORS)
    report = run_verify(RunConfig(group="abelian1"))
    ids = [c.check_id for c in report.checks]
    assert len(ids) == len(set(ids))
    for cid in ids:
        assert cid in ANCHORS
    gc = run_group_check(RunConfig(group="heisenberg"))
    for c in gc.checks:
        assert c.anchor == ANCHORS[c.check_id].anchor


def test_report_rejects_unanchored_check():
    rep = VerificationReport()
    with pytest.raises(KeyError):
        rep.add("made.up", 0.0)
