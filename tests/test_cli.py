"""Command-line interface: JSON output, round trips, determinism, exit codes."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from taumap import cli, coefficients
from taumap.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_or_parser_error(args, capsys):
    """:func:`run_cli`, where an option the parser refuses reads as
    ``error: <message>`` after its usage line is checked and dropped."""
    try:
        return run_cli(args, capsys)
    except SystemExit as exc:
        captured = capsys.readouterr()
        usage, err = captured.err.split("\n", 1)
        assert usage.startswith("usage: taumap ") and err.startswith("taumap: error: ")
        return exc.code, captured.out, err.removeprefix("taumap: ")


def test_map_unit_disk(tmp_path, capsys):
    moments = tmp_path / "m.json"
    moments.write_text(json.dumps({"t0": 1.0, "t": []}))
    code, out, _ = run_cli(
        ["map", "--in", str(moments), "--nmax", "3", "--degmax", "3"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["p"] - 1.0) <= 1e-12
    assert all(re == 0 and im == 0 for re, im in payload["tail"])


def test_map_output_reader_round_trip(tmp_path, capsys):
    moments = tmp_path / "m.json"
    moments.write_text(json.dumps({"t0": 0.8, "t": [[0.02, 0.01], [0.0, 0.03]]}))
    code, out, _ = run_cli(
        ["map", "--in", str(moments), "--nmax", "3", "--degmax", "4"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"p", "tail", "closure"}
    assert payload["p"] > 0
    # the closure z_cl(w) = r w + a_0 + a_1/w + a_2/w^2 in the curve shape,
    # one a_j per moment index
    assert set(payload["closure"]) == {"r", "a"}
    assert payload["closure"]["r"] == 1 / payload["p"]
    assert len(payload["closure"]["a"]) == 3
    # the default order J = n_max + deg_max gives the coefficients p_0..p_7
    assert len(payload["tail"]) == 8
    assert all(len(pair) == 2 and all(map(math.isfinite, pair)) for pair in payload["tail"])


def test_coeffs_table_contains_factorial_row(capsys):
    code, out, _ = run_cli(["coeffs", "--imax", "2", "--degmax", "4"], capsys)
    assert code == 0
    rows = json.loads(out)
    hits = [
        row
        for row in rows
        if row["i"] == 2 and row["unbarred"] == [[2, 1]] and row["barred"] == [[1, 2]]
    ]
    assert len(hits) == 1
    assert hits[0]["num"] == 1 and hits[0]["den"] == 1


def test_coeffs_json_format(capsys):
    # JSON is the one output: a list of rows, each index list a list of [k, power]
    code, out, _ = run_cli(["coeffs", "--imax", "2"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows and all(set(row) == {"i", "unbarred", "barred", "num", "den"} for row in rows)
    assert any(
        row["i"] == 2 and row["unbarred"] == [[2, 1]] and row["barred"] == [[1, 2]]
        for row in rows
    )


def test_coeffs_evaluates_each_key_in_its_cheap_orientation(capsys, monkeypatch):
    # N is symmetric under bar exchange, but cheap with the longer side unbarred
    calls = []
    n1 = coefficients.n1_coefficient

    def recorded(i, unbarred, barred, cache=None):
        calls.append((len(unbarred), len(barred)))
        return n1(i, unbarred, barred, cache)

    monkeypatch.setattr(coefficients, "n1_coefficient", recorded)
    code, _, _ = run_cli(["coeffs", "--imax", "6", "--degmax", "8"], capsys)
    assert code == 0 and calls
    assert all(k >= kbar for k, kbar in calls)


@pytest.mark.parametrize(
    "flag, value, bound",
    [("--imax", "-1", 1), ("--imax", "0", 1), ("--degmax", "-2", 2), ("--degmax", "0", 2),
     ("--degmax", "1", 2)],
)
def test_coeffs_rejects_a_bound_without_rows(capsys, flag, value, bound):
    # these bounds admit no key; the table used to be its header alone, exit 0
    code, out, err = run_cli(["coeffs", flag, value], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be >= {bound}, got {value}\n"


def test_potential_round_trips_through_reader(tmp_path, capsys):
    # the exactness of the rows themselves is tests/test_series.py's
    # test_json_round_trip_bit_exact
    from taumap.potential import build_potential, default_policy
    from taumap.series import series_to_json_terms

    code, out, _ = run_cli(["potential", "--nmax", "3", "--degmax", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["singular"]["log_t0_coeff"] == [1, 2]
    assert payload["singular"]["quad_coeff"] == [-3, 4]
    expected, _ = build_potential(default_policy(3, 4))
    assert payload["terms"] == series_to_json_terms(expected.regular)


def test_moments_subcommand(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    curve.write_text(
        json.dumps({"r": 1.0, "a": [[0.0, 0.0], [0.05, 0.0]], "samples": 256})
    )
    code, out, _ = run_cli(["moments", "--in", str(curve), "--n", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["t0"] - 0.9975) <= 1e-12
    assert abs(payload["t"][1][0] - 0.025) <= 1e-12


def test_moments_output_reader_round_trip(tmp_path, capsys):
    from taumap.moments import MomentVector

    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"r": 1.0, "a": [[0.1, 0.05]], "samples": 128}))
    code, out, _ = run_cli(["moments", "--in", str(curve), "--n", "3"], capsys)
    assert code == 0
    m = MomentVector.from_json(json.loads(out))
    assert m.t0 > 0 and len(m.t) == 3


def test_moments_dual_flag(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"r": 1.0, "a": [], "samples": 64}))
    code, out, _ = run_cli(
        ["moments", "--in", str(curve), "--n", "2", "--dual"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert "v" in payload and len(payload["v"]) == 3


def test_moments_dual_names_the_moment_out_of_the_float_range(tmp_path, capsys):
    # v_k scales as r^(k+2): at r = 1e100 the moments t_k fit, v_2 does not
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"r": 1e100}))
    assert run_cli(["moments", "--in", str(curve), "--n", "4"], capsys)[0] == 0
    code, out, err = run_cli(["moments", "--in", str(curve), "--n", "4", "--dual"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: non-finite quadrature result in dual moments: v2 = ")
    assert "c^(k+2)" in err


def test_moments_count_is_named_before_the_input_is_read(tmp_path, capsys):
    # the input does not exist here: --n is checked first, as --order is
    code, out, err = run_cli(
        ["moments", "--n", "0", "--in", str(tmp_path / "missing.json")], capsys
    )
    assert code == 2
    assert out == ""
    assert err == "error: --n must be >= 1, got 0\n"


def test_moment_count_past_half_the_samples_is_refused(tmp_path, capsys, monkeypatch):
    # 64 samples fold t_64 onto t0: the disk's t_64 would read 1/64, not 0.
    # Both commands refuse n = 32 before any work; verify before its build
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"r": 1, "samples": 64}))
    monkeypatch.setattr(cli, "build_potential", lambda policy: pytest.fail("built"))
    for args in (["moments", "--n", "32"], ["verify", "--nmax", "32"]):
        code, out, err = run_cli(args + ["--in", str(curve)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: n = 32 moments need samples > 2n = 64, got samples = 64")


def test_verify_passes_and_reports(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, err = run_cli(
        ["verify", "--nmax", "3", "--degmax", "3", "--out", str(out_path)], capsys
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["pass"] is True
    assert report["checks"]["residual_a"]["pass"] is True
    assert "PASS residual_c" in err


# the entries of a verify report: the checks that the build is the potential,
# and with --in the one that its map fits the curve; no lemma about the
# coefficients alone
BUILD_CHECKS = {
    "combinatorial_formula", "cauchy_data", "ellipse_closed_form",
    "residual_a", "residual_b_symmetry", "residual_c",
}

# sha256 of `taumap verify --nmax 5 --degmax 6 --order 4` stdout, no --in
VERIFY_56_SHA256 = "b7836c24d38cb2bc9b4a5ba24ebabc1dff2b80bbcabc412ec1d1ca022735b1f8"


def test_verify_report_is_pinned(capsys):
    # every exact count and violation of the report, byte for byte; the
    # out-of-cone maxima are in --stats, not here
    code, out, _ = run_cli(["verify", "--nmax", "5", "--degmax", "6", "--order", "4"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_56_SHA256
    # the combinatorial formula judges every key the build's report counts
    report = json.loads(out)
    assert set(report["checks"]) == BUILD_CHECKS
    assert report["checks"]["combinatorial_formula"]["checked"] == 336
    assert report["build"]["keys_evaluated"] == 336


def test_verify_stats_leave_the_report_unchanged(tmp_path, capsys):
    # --stats writes timings and the residuals' size outside the cone, to a
    # file or for - to stderr; stdout is the same with and without it and on
    # a rerun, and holds neither
    args = ["verify", "--nmax", "5", "--degmax", "6", "--order", "4"]
    stats_path = tmp_path / "stats.json"
    code, plain, err = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(plain.encode()).hexdigest() == VERIFY_56_SHA256
    err_plain = err.splitlines()
    code, out, err = run_cli(args + ["--stats", str(stats_path)], capsys)
    assert (code, out) == (0, plain)
    assert err.splitlines() == err_plain
    on_file = json.loads(stats_path.read_text())
    code, out, err = run_cli(args + ["--stats", "-"], capsys)
    assert (code, out) == (0, plain)
    # the stats come first on stderr, then a PASS line per check
    on_stderr, end = json.JSONDecoder().raw_decode(err)
    assert err[end:].strip().splitlines() == err_plain
    checks = json.loads(plain)["checks"]
    for stats in (on_file, on_stderr):
        # the parent commit's out-of-cone maxima, bit for bit
        assert stats["max_abs_out_of_cone"] == {
            "residual_a": 15552000.0,
            "residual_c": 87840000.0,
        }
        assert sorted(stats["elapsed_s"]) == sorted(["build", *checks, "out_of_cone_maxima"])
        assert all(s >= 0 for s in stats["elapsed_s"].values())
    assert "elapsed" not in plain and "max_abs_out_of_cone" not in plain
    # stats that cannot be written are an error before the report is
    code, out, err = run_cli(args + ["--stats", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


# sha256 of `taumap verify --nmax 5 --degmax 6 --order 4 --in <A8 ellipse> --seed 3`
# stdout, the run the benchmark's `verify` workload makes; its roundtrip
# inverts the map's closure (sup error 3.77e-8)
VERIFY_56_A8_SHA256 = "232a7a715b4b9159370fbf8d4b172262a80d65455e6996fc61c0df21ce44152f"


def test_verify_report_with_curve_is_pinned(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    curve.write_text(
        json.dumps({"r": 1.0, "a": [[0.0, 0.0], [0.05, 0.0]], "samples": 256})
    )
    code, out, err = run_cli(
        ["verify", "--nmax", "5", "--degmax", "6", "--order", "4",
         "--in", str(curve), "--seed", "3"],
        capsys,
    )
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_56_A8_SHA256
    # the convergence gate is reported once, inside the roundtrip check, and
    # every entry of `checks` judges something
    checks = json.loads(out)["checks"]
    assert set(checks) == BUILD_CHECKS | {"roundtrip"}
    assert "convergence_gate" not in checks
    assert all(entry["checked"] >= 1 for entry in checks.values()), checks
    assert set(checks["roundtrip"]["gate"]) == {"admissible", "bound", "offending"}
    assert checks["roundtrip"]["gate"]["admissible"] is False  # |t2| = 0.025


def test_verify_reads_no_seed(capsys):
    # --seed is still parsed, for callers that pass it, and changes nothing
    args = ["verify", "--nmax", "3", "--degmax", "3"]
    code, first, err = run_cli(args + ["--seed", "0"], capsys)
    assert code == 0, err
    assert run_cli(args + ["--seed", "2"], capsys) == (0, first, err)


# sha256 of `taumap verify --nmax 3 --degmax 4 --order 2 --in <A8 ellipse>
# --roundtrip-tol 1e-12` stdout, a run whose roundtrip fails
VERIFY_34_A8_FAIL_SHA256 = "f2a593da8c15626dbd635d3c7a572e71887cbd75b97d397c35efb56a47e6b70d"


def test_verify_reports_a_failing_roundtrip(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    curve.write_text(
        json.dumps({"r": 1.0, "a": [[0.0, 0.0], [0.05, 0.0]], "samples": 256})
    )
    code, out, err = run_cli(
        ["verify", "--nmax", "3", "--degmax", "4", "--order", "2",
         "--in", str(curve), "--roundtrip-tol", "1e-12"],
        capsys,
    )
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_34_A8_FAIL_SHA256
    report = json.loads(out)
    assert report["pass"] is False
    roundtrip = report["checks"]["roundtrip"]
    assert roundtrip["pass"] is False
    assert roundtrip["violations"] == [f"sup error {roundtrip['sup_error']} > 1e-12"]
    lines = err.splitlines()
    assert "FAIL roundtrip" in lines
    others = [name for name in report["checks"] if name != "roundtrip"]
    assert all(report["checks"][name]["pass"] for name in others)
    assert sorted(lines) == sorted(["FAIL roundtrip"] + [f"PASS {n}" for n in others])


def test_verify_reports_a_roundtrip_without_a_map(tmp_path, capsys):
    # the ellipse z(u) = u + 0.99/u passes every exact check at (6, 7), and
    # its moments give no map there: verify used to exit 2 with empty stdout
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"r": 1, "a": [[0, 0], [0.99, 0]], "samples": 4096}))
    code, out, err = run_cli(
        ["verify", "--nmax", "6", "--degmax", "7", "--order", "2", "--in", str(curve)], capsys
    )
    assert code == 1
    report = json.loads(out)
    roundtrip = report["checks"]["roundtrip"]
    assert report["pass"] is False and roundtrip["pass"] is False
    assert roundtrip["sup_error"] is None
    assert roundtrip["gate"]["admissible"] is False
    assert len(roundtrip["violations"]) == 1
    assert roundtrip["violations"][0].startswith(
        "no map at the curve's moments: A = d0^2 F_reg = 6.03299e+07 puts p "
    )
    others = [name for name in report["checks"] if name != "roundtrip"]
    assert all(report["checks"][name]["pass"] for name in others)
    assert sorted(err.splitlines()) == sorted(["FAIL roundtrip"] + [f"PASS {n}" for n in others])


def test_verify_with_curve_fixture(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    curve.write_text(
        json.dumps({"r": 1.0, "a": [[0.0, 0.0], [0.05, 0.0]], "samples": 256})
    )
    code, out, err = run_cli(
        [
            "verify",
            "--nmax",
            "4",
            "--degmax",
            "4",
            "--in",
            str(curve),
        ],
        capsys,
    )
    assert code == 0
    assert "PASS roundtrip" in err
    # every check is written in one shape, and reported on stderr
    checks = json.loads(out)["checks"]
    for name, entry in checks.items():
        assert isinstance(entry["pass"], bool), name
        assert isinstance(entry["checked"], int), name
        assert entry["violations"] == [], name
        assert f"PASS {name}" in err


def test_map_closure_reads_back_as_a_curve_with_the_same_moments(tmp_path, capsys):
    # the map's closure is written in the curve shape {"r", "a"}; `taumap
    # moments` reads it and gives back the moments the map was taken at, up
    # to the truncation error of the potential (measured 2.5e-8 at (4, 6))
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"r": 1.0, "a": [[0, 0], [0.04, 0.01], [0, 0.012]]}))
    code, out, _ = run_cli(["moments", "--in", str(curve), "--n", "4"], capsys)
    assert code == 0
    moments = tmp_path / "m.json"
    moments.write_text(out)
    code, out, _ = run_cli(
        ["map", "--in", str(moments), "--nmax", "4", "--degmax", "6"], capsys
    )
    assert code == 0
    closure = tmp_path / "closure.json"
    closure.write_text(json.dumps(json.loads(out)["closure"]))
    code, out, _ = run_cli(["moments", "--in", str(closure), "--n", "4"], capsys)
    assert code == 0
    given, again = json.loads(moments.read_text()), json.loads(out)
    gaps = [abs(given["t0"] - again["t0"])]
    gaps += [abs(complex(*x) - complex(*y)) for x, y in zip(given["t"], again["t"], strict=True)]
    assert max(gaps) <= 1e-7, gaps


def test_map_and_verify_use_their_own_cache(tmp_path, capsys):
    # each command builds on a fresh cache; there is no module-level cache
    # they could fall back to
    import taumap.coefficients as coefficients

    assert not any(
        isinstance(value, coefficients.MemoCache)
        for value in vars(coefficients).values()
    )
    a = 0.05
    moments = tmp_path / "m.json"
    moments.write_text(json.dumps({"t0": 1 - a * a, "t": [[0, 0], [a / 2, 0]]}))
    curve = tmp_path / "curve.json"
    curve.write_text(
        json.dumps({"r": 1.0, "a": [[0.0, 0.0], [a, 0.0]], "samples": 256})
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(
            ["map", "--in", str(moments), "--nmax", "4", "--degmax", "6",
             "--order-J", "8"],
            capsys,
        )
        assert code == 0
        verify_code, _, err = run_cli(
            ["verify", "--nmax", "4", "--degmax", "4", "--in", str(curve)],
            capsys,
        )
    assert verify_code == 0, err
    # z^-5 coefficient of the inverse of u + a/u, fed by B_6 beyond n_max,
    # which the closure supplies
    re, im = json.loads(out)["tail"][5]
    assert abs(complex(re, im) - (-2 * a**3)) <= 1e-7


def test_verify_passes_where_index_bound_cuts_the_cone(capsys):
    # n_max + 1 < deg_max: residual terms whose index exceeds n_max lie
    # outside the cone and are not judged
    for args in (
        ["--nmax", "3", "--degmax", "6"],
        ["--nmax", "1", "--degmax", "5"],
        ["--nmax", "2", "--degmax", "5", "--order", "2"],
    ):
        code, out, err = run_cli(["verify", *args], capsys)
        assert code == 0, (args, err)
        report = json.loads(out)
        assert report["pass"] is True
        for name in ("residual_a", "residual_c"):
            assert report["checks"][name]["checked"] > 0, (args, name)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        # the roundtrip inverts the map's closure and takes no map order:
        # verify has no --order-J, and the parser refuses it
        ("--order-J", "8", "unrecognized arguments: --order-J 8"),
        ("--roundtrip-tol", "1e-9", "--roundtrip-tol sets the roundtrip's bound: it needs --in"),
    ],
    ids=["order-J", "roundtrip-tol"],
)
def test_verify_rejects_a_roundtrip_setting_without_a_curve(capsys, flag, value, message):
    # the bound sets the roundtrip, which runs only on a curve; without --in
    # it used to be ignored
    code, out, err = run_cli_or_parser_error(
        ["verify", "--nmax", "2", "--degmax", "3", flag, value], capsys
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "--order", "9"], "--order must be in 0..3, got 9"),
        (["verify", "--order", "-1"], "--order must be in 0..3, got -1"),
        (["map", "--in", "MISSING", "--order-J", "-1"], "--order-J must be >= 0, got -1"),
        # verify has no map order: the parser refuses --order-J
        (["verify", "--in", "MISSING", "--order-J", "-1"], "unrecognized arguments: --order-J -1"),
    ],
    ids=["verify-order-above-n_max", "verify-order-negative", "map-order-J", "verify-order-J"],
)
def test_order_flags_fail_before_the_build(tmp_path, capsys, monkeypatch, args, message):
    # an order out of range is named before the input is read (it does not
    # exist here) and before anything is built
    def no_build(*_, **__):
        raise AssertionError("built a potential for a rejected order")

    monkeypatch.setattr("taumap.cli.build_potential", no_build)
    args = [str(tmp_path / "missing.json") if a == "MISSING" else a for a in args]
    code, out, err = run_cli_or_parser_error([*args, "--nmax", "3", "--degmax", "4"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--nmax", "0", "--degmax", "3"],
        ["verify", "--nmax", "2", "--degmax", "1"],
        ["verify", "--nmax", "2", "--degmax", "0"],
        ["map", "--nmax", "2", "--degmax", "1", "--in", "m.json"],
        ["potential", "--nmax", "2", "--degmax", "1"],
        ["map", "--nmax", "0", "--degmax", "3", "--in", "m.json"],
    ],
)
def test_checks_reject_a_policy_without_terms(args, tmp_path, monkeypatch, capsys):
    # every check passes on an empty potential, so a PASS there says nothing;
    # its terms would be none, and its map the disk's whatever the moments
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text('{"t0": 0.9, "t": [[0.05, 0]]}')
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert "admits no potential term to check" in err


@pytest.mark.parametrize("command", ["potential", "verify"])
def test_t0_bound_flag_is_rejected(command, capsys):
    # a policy is (n_max, deg_max); there is no t0 bound to set
    with pytest.raises(SystemExit) as exc:
        main([command, "--t0max", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --t0max 3" in capsys.readouterr().err


def test_verify_judges_the_ellipse_closed_form(capsys):
    code, out, _ = run_cli(["verify", "--nmax", "2", "--degmax", "6"], capsys)
    assert code == 0
    report = json.loads(out)["checks"]["ellipse_closed_form"]
    assert report["pass"] is True
    assert report["violations"] == []
    assert report["checked"] > 0


def test_ellipse_needs_two_indices(capsys):
    from taumap.potential import build_potential, default_policy
    from taumap.verify import ellipse_oracle_check

    potential, _ = build_potential(default_policy(1, 3))
    with pytest.raises(ValueError, match=r"n_max >= 2"):
        ellipse_oracle_check(potential)
    # verify leaves the closed form out below two indices and judges the rest
    code, out, _ = run_cli(["verify", "--nmax", "1", "--degmax", "3"], capsys)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert "ellipse_closed_form" not in checks
    assert "cauchy_data" in checks


def test_ellipse_is_no_subcommand(capsys):
    # the closed form is judged by verify; it has no front end of its own
    with pytest.raises(SystemExit) as exc:
        main(["ellipse", "--nmax", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "ellipse" in err


def test_malformed_input_is_diagnosed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["map", "--in", str(bad)], capsys)
    assert code == 2
    assert "error:" in err


def test_map_rejects_infinite_t0(tmp_path, capsys):
    moments = tmp_path / "m.json"
    moments.write_text('{"t0": Infinity, "t": []}')
    code, out, err = run_cli(["map", "--in", str(moments)], capsys)
    assert code == 2
    assert out == ""
    assert "error: t0 must be finite and positive, got inf" in err


def test_map_rejects_out_of_range_a(tmp_path, capsys):
    # the (2, 4) potential has A = 4|t2|^2 + 8|t2|^4; at t2 = 10 that is
    # 80400, and p = exp(-A/2) / sqrt(t0) underflows to zero
    moments = tmp_path / "m.json"
    moments.write_text(json.dumps({"t0": 1.0, "t": [[0, 0], [10, 0]]}))
    code, out, err = run_cli(
        ["map", "--in", str(moments), "--nmax", "2", "--degmax", "4"], capsys
    )
    assert code == 2
    assert out == ""
    assert "error: A = d0^2 F_reg = 80400 " in err
    assert "taumap.verify.convergence_gate" in err


def test_map_of_zero_moments_at_a_large_t0_is_the_disk(tmp_path, capsys):
    # the t0 powers overflow, but a disk's map is exactly p = t0^-1/2 with a
    # zero tail; inf * 0 used to turn the tail into nan and exit 2
    moments = tmp_path / "m.json"
    moments.write_text(json.dumps({"t0": 1e20}))
    code, out, err = run_cli(
        ["map", "--nmax", "6", "--degmax", "7", "--in", str(moments)], capsys
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["p"] == 1e-10
    assert payload["tail"] and all(pair == [0.0, 0.0] for pair in payload["tail"])


def test_map_names_a_non_finite_b(tmp_path, capsys):
    # at (2, 4) A = 0 and B_1 = tbar_1 = 1e200 are finite, B_2 = tbar_1^2
    # overflows: the error names it, not the tail entry it would feed
    moments = tmp_path / "m.json"
    moments.write_text(json.dumps({"t0": 0.9, "t": [[1e200, 0]]}))
    code, out, err = run_cli(
        ["map", "--nmax", "2", "--degmax", "4", "--in", str(moments)], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: B_2 = d0 d_2 F is not finite: ")
    assert "nan" not in err
    assert "taumap.verify.convergence_gate" in err
    assert err.count("\n") == 1


def taumap_process(args, cwd, *python_options):
    """Run ``python [options] -m taumap args`` on this checkout's source."""
    # cwd may be a tmp_path, where a relative PYTHONPATH would not resolve
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    command = [sys.executable, *python_options, "-m", "taumap", *args]
    return subprocess.run(command, capture_output=True, cwd=cwd, env=env)


def test_map_far_outside_the_series_range_warns_nothing(tmp_path):
    # the monomials overflow to inf and nan; numpy stays silent and the one
    # message is the first non-finite B_k, also when warnings are errors.
    # A holds only terms with a zero t2 or t3 here, so it is exactly 0
    moments = tmp_path / "m.json"
    moments.write_text(json.dumps({"t0": 0.5, "t": [[1e200, 0]]}))
    args = ["map", "--nmax", "3", "--degmax", "4", "--in", str(moments)]
    for options in ((), ("-W", "error")):
        run = taumap_process(args, tmp_path, *options)
        assert run.returncode == 2
        assert run.stdout == b""
        assert run.stderr.startswith(b"error: B_2 = d0 d_2 F is not finite: ")
        assert b"nan" not in run.stderr
        assert run.stderr.count(b"\n") == 1


@pytest.mark.parametrize(
    "curve, t0",
    [({"r": 1e-300}, "0"), ({"r": 1e200, "a": [[0, 0], [1e199, 0]]}, "nan")],
    ids=["tiny", "huge"],
)
def test_moments_out_of_the_float_range_are_named(tmp_path, curve, t0):
    # the origin is inside both curves: the winding number reads 1, and the
    # one message names t0 = r^2, which under- or overflows first, with no
    # numpy warning, also when warnings are errors
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve))
    for options in ((), ("-W", "error")):
        run = taumap_process(["moments", "--in", str(path)], tmp_path, *options)
        assert run.returncode == 2
        assert run.stdout == b""
        want = f"error: the moment t0 = {t0} leaves the floating-point range: "
        assert run.stderr.startswith(want.encode())
        assert b"Warning" not in run.stderr and b"winding" not in run.stderr
        assert run.stderr.count(b"\n") == 1


def test_missing_file_is_diagnosed(capsys):
    code, _, err = run_cli(["map", "--in", "/nonexistent/m.json"], capsys)
    assert code == 2


@pytest.mark.parametrize("command", ["map", "verify"])
def test_empty_input_path_is_a_missing_file(command, capsys):
    # an empty path is a path to read: verify must not take it for no --in
    # and pass without a roundtrip, whatever the --roundtrip-tol
    args = [command, "--in", "", "--nmax", "2", "--degmax", "3"]
    if command == "verify":
        args += ["--roundtrip-tol", "1e-9"]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: [Errno 2] No such file or directory: ''\n"


def test_byte_identical_reruns(tmp_path):
    args = ["verify", "--nmax", "3", "--degmax", "3", "--seed", "7"]
    first = taumap_process(args, tmp_path)
    second = taumap_process(args, tmp_path)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr


MOMENTS_SHAPE = 'expected an object {"t0": number, "t": [[re, im], ...]}'
CURVE_SHAPE = 'expected an object {"r": number, "a": [[re, im], ...], "samples": integer}'


@pytest.mark.parametrize(
    "command, payload, problem, shape",
    [
        (
            "map",
            {"t0": 0.9, "t": 5},
            "field 't' is a JSON number, not a list of [re, im] pairs",
            MOMENTS_SHAPE,
        ),
        ("map", [[0.1]], "got a JSON list", MOMENTS_SHAPE),
        ("map", {"t": []}, "field 't0' is missing", MOMENTS_SHAPE),
        ("map", {"t0": 0.9, "t": [[0.1]]}, "t[0] = [0.1] is not an [re, im] pair", MOMENTS_SHAPE),
        ("map", {"t0": "0.9"}, "field 't0' is a JSON string, not a number", MOMENTS_SHAPE),
        (
            "moments",
            {"r": 1.0, "a": 3},
            "field 'a' is a JSON number, not a list of [re, im] pairs",
            CURVE_SHAPE,
        ),
        ("moments", [[0.1]], "got a JSON list", CURVE_SHAPE),
        ("moments", {"a": []}, "field 'r' is missing", CURVE_SHAPE),
        ("moments", {"r": 1.0, "a": [[0.1]]}, "a[0] = [0.1] is not an [re, im] pair", CURVE_SHAPE),
        (
            "moments",
            {"r": 1.0, "samples": 64.0},
            "field 'samples' is a JSON number, not an integer",
            CURVE_SHAPE,
        ),
        ("verify", {"r": 1.0, "a": [[0.05, 0, 1]]}, "a[0] = [0.05, 0, 1] is not an [re, im] pair", CURVE_SHAPE),
        # JSON integers have no size limit; one with 401 digits is no float
        ("map", {"t0": 10**400}, "field 't0' is too large for a float", MOMENTS_SHAPE),
        (
            "moments",
            {"r": 1.0, "a": [[0.0, 0.0], [10**400, 0]]},
            "a[1] holds a number too large for a float",
            CURVE_SHAPE,
        ),
    ],
)
def test_malformed_input_shape_is_named(tmp_path, capsys, command, payload, problem, shape):
    # a wrong JSON shape is an input error (exit 2) that names the field and
    # the expected shape, never a traceback
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    args = [command, "--in", str(path)]
    if command != "moments":
        args += ["--nmax", "2", "--degmax", "2"]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    source = "moment JSON" if shape == MOMENTS_SHAPE else "curve JSON"
    assert err == f"error: {source}: {problem}; {shape}\n"


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_verify_rejects_a_roundtrip_tolerance_that_is_not_finite_and_non_negative(
    tmp_path, capsys, tol
):
    # a nan tolerance used to run every check and then fail the roundtrip
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"r": 1.0, "a": [[0.0, 0.0], [0.05, 0.0]]}))
    code, out, err = run_cli(
        ["verify", "--nmax", "2", "--degmax", "3", "--in", str(curve), f"--roundtrip-tol={tol}"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --roundtrip-tol must be finite and >= 0, got {float(tol)}\n"


@pytest.mark.parametrize(
    "payload, problem",
    [
        ('{"r": 1.0, "a": [[NaN, 0.0]]}', "a[0] = (nan+0j) is not finite"),
        ('{"r": 1.0, "a": [[0.0, 0.0], [0.0, -Infinity]]}', "a[1] = -infj is not finite"),
        ('{"r": Infinity}', "r must be finite and positive, got inf"),
        ('{"r": NaN}', "r must be finite and positive, got nan"),
        (
            '{"r": 1.0, "samples": 1073741824}',
            "samples must be a power of two in [64, 65536], got 1073741824",
        ),
    ],
    ids=["nan-a", "infinite-a", "infinite-r", "nan-r", "huge-samples"],
)
def test_moments_rejects_non_finite_and_oversized_curves(tmp_path, capsys, payload, problem):
    # before, non-finite numbers reached the quadrature (numpy warnings, then a
    # non-finite t0) and a huge sample count died allocating its arrays
    path = tmp_path / "curve.json"
    path.write_text(payload)
    code, out, err = run_cli(["moments", "--in", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {problem}\n"


# sha256 of `taumap map --nmax N --degmax D --in <MAP_MOMENTS>` stdout: the
# map's last bits, which the roundtrip's sup error does not pin
MAP_MOMENTS = {
    "t0": 0.9,
    "t": [[0.04, 0.01], [0.03, -0.02], [0.01, 0.005], [0.004, 0.0],
          [0.002, 0.001], [0.001, 0.0], [0.0005, 0.0002], [0.0002, 0.0]],
}
MAP_SHA256 = {
    (6, 7): "6ce590586bea28169950d75ca7b75270fee4c39bbc4660ba28f25207dde8d1a3",
    (8, 6): "172f40e7c286000036f1f6100bb3f9f24a84ad4043f94c21bbf837f8bcefb4a3",
}


@pytest.mark.parametrize("n_max, deg_max", sorted(MAP_SHA256))
def test_map_output_is_pinned(tmp_path, capsys, n_max, deg_max):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(MAP_MOMENTS))
    code, out, err = run_cli(
        ["map", "--nmax", str(n_max), "--degmax", str(deg_max), "--in", str(path)], capsys
    )
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == MAP_SHA256[n_max, deg_max]


@pytest.mark.parametrize("command", ["moments", "verify"])
@pytest.mark.parametrize("a0", [2.0, 1.0], ids=["outside", "through"])
def test_a_curve_whose_interior_misses_the_origin_is_rejected(tmp_path, capsys, command, a0):
    # the disk |z - 2| = 1 used to give moments, and from them a map with
    # p = 0.904 where the disk's own has p = 1; the disk |z - 1| = 1 through
    # the origin gave t3 = -8.7e28, and verify --in failed its roundtrip
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"r": 1.0, "a": [[a0, 0.0]]}))
    args = [command, "--in", str(path)]
    if command == "verify":
        args += ["--nmax", "3", "--degmax", "4"]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: the curve's winding number about the origin is w = ")
    assert "its interior must contain the origin" in err
    assert err.count("\n") == 1


def test_verify_rejects_a_curve_without_moments_before_it_builds(tmp_path, capsys, monkeypatch):
    def no_build(policy):
        raise AssertionError(f"verify built {policy} before it read the curve's moments")

    monkeypatch.setattr(cli, "build_potential", no_build)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"r": 1.0, "a": [[2.0, 0.0]]}))
    code, out, err = run_cli(["verify", "--in", str(path), "--nmax", "5", "--degmax", "6"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: the curve's winding number about the origin is w = ")


@pytest.mark.parametrize("command", ["map", "moments", "verify"])
def test_a_file_that_is_not_json_is_named(tmp_path, capsys, command):
    path = tmp_path / "in.json"
    path.write_text('{"t0": 0.9,')
    args = [command, "--in", str(path)]
    if command != "moments":
        args += ["--nmax", "2", "--degmax", "2"]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path} is not valid JSON: ")


def test_standard_input_that_is_not_json_is_named(monkeypatch, capsys):
    # empty stdin used to print only the decoder's "Expecting value: ..."
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code, out, err = run_cli(["moments", "--in", "-"], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "error: standard input is not valid JSON: Expecting value: line 1 column 1 (char 0)\n"
    )


@pytest.mark.parametrize("command", ["map", "moments", "verify"])
def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys, command):
    # a UTF-16 byte-order mark used to print only the codec's message
    path = tmp_path / "in.json"
    path.write_bytes(b'\xff\xfe{"t0": 0.9}')
    args = [command, "--in", str(path)]
    if command != "moments":
        args += ["--nmax", "2", "--degmax", "2"]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {path} is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )


def test_standard_input_that_is_not_utf8_is_named(monkeypatch, capsys):
    # standard input decoded as strict UTF-8, as under a UTF-8 locale
    stdin = io.TextIOWrapper(io.BytesIO(b'\xff\xfe{"t0": 0.9}'), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run_cli(["moments", "--in", "-"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: standard input is not UTF-8: 'utf-8' codec can't decode ")


def test_standard_input_is_utf8_under_every_locale(monkeypatch, capsys):
    # under a C or POSIX locale Python decodes standard input with
    # surrogateescape, so these bytes used to read as lone surrogates and
    # then as "not valid JSON"; the bytes beneath are decoded as a file is
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run_cli(["moments", "--in", "-"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: standard input is not UTF-8: 'utf-8' codec can't decode ")


def test_a_key_error_is_a_bug_not_an_input_error(monkeypatch):
    # nothing in the program raises KeyError on purpose, so the front end
    # lets it through with its traceback instead of printing exit 2
    def broken(args):
        raise KeyError("t0")

    monkeypatch.setitem(cli._HANDLERS, "moments", broken)
    with pytest.raises(KeyError):
        main(["moments", "--in", "-"])
