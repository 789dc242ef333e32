"""Command-line interface: formats, round trips, determinism, exit codes."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from taumap.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    from taumap.confmap import ExteriorMapSeries

    moments = tmp_path / "m.json"
    moments.write_text(json.dumps({"t0": 0.8, "t": [[0.02, 0.01], [0.0, 0.03]]}))
    code, out, _ = run_cli(
        ["map", "--in", str(moments), "--nmax", "3", "--degmax", "4"], capsys
    )
    assert code == 0
    w = ExteriorMapSeries.from_json(json.loads(out))
    assert w.p > 0


def test_coeffs_table_contains_factorial_row(tmp_path, capsys):
    code, out, _ = run_cli(["coeffs", "--imax", "2", "--degmax", "4"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    hits = [
        r
        for r in rows
        if r["i"] == "2" and r["unbarred"] == "2:1" and r["barred"] == "1:2"
    ]
    assert len(hits) == 1
    assert hits[0]["num"] == "1" and hits[0]["den"] == "1"


def test_coeffs_json_format(capsys):
    code, out, _ = run_cli(["coeffs", "--imax", "2", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert any(
        row["i"] == 2 and row["unbarred"] == [[2, 1]] and row["barred"] == [[1, 2]]
        for row in rows
    )


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
    from taumap.potential import build_potential, default_policy
    from taumap.series import series_from_json_terms

    code, out, _ = run_cli(["potential", "--nmax", "3", "--degmax", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["singular"]["log_t0_coeff"] == [1, 2]
    assert payload["singular"]["quad_coeff"] == [-3, 4]
    policy = default_policy(3, 4)
    series = series_from_json_terms(payload["terms"], policy)
    expected, _ = build_potential(policy)
    assert series == expected.regular


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

    code, out, _ = run_cli(
        ["moments", "--in", str(curve), "--n", "4", "--format", "csv"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "k,re,im,abs"


def test_moments_output_reader_round_trip(tmp_path, capsys):
    from taumap.confmap import MomentVector

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


# sha256 of `taumap verify --nmax 5 --degmax 6 --order 4` stdout, no --in
VERIFY_56_SHA256 = "32c6b5566079267c29aedde9387ca4ef972bc41e7c218ba878f6d19946da33d9"


def test_verify_report_is_pinned(capsys):
    # every exact count and out-of-cone maximum of the report, byte for byte
    code, out, _ = run_cli(["verify", "--nmax", "5", "--degmax", "6", "--order", "4"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_56_SHA256
    # the combinatorial formula judges every key the build's report counts
    report = json.loads(out)
    assert report["checks"]["combinatorial_formula"]["checked"] == 336
    assert report["build"]["keys_evaluated"] == 336


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
            "--order-J",
            "8",
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


def test_map_and_verify_use_their_own_cache(tmp_path, capsys):
    # each command builds on a fresh cache, and the one-point sector on one
    # of its own; there is no module-level cache they could fall back to
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
            ["verify", "--nmax", "4", "--degmax", "4", "--in", str(curve),
             "--order-J", "8"],
            capsys,
        )
    assert verify_code == 0, err
    # z^-5 coefficient of the inverse of u + a/u, fed by B_6 beyond n_max
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


def test_verify_rejects_a_map_order_without_a_curve(capsys):
    # --order-J is the roundtrip's map order; without --in it used to be ignored
    code, out, err = run_cli(["verify", "--nmax", "2", "--degmax", "3", "--order-J", "8"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --order-J sets the roundtrip's map order: it needs --in\n"


def test_verify_rejects_negative_order(capsys):
    code, out, err = run_cli(["verify", "--nmax", "2", "--order", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "residual order must be >= 0, got -1" in err


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--nmax", "0", "--degmax", "3"],
        ["verify", "--nmax", "2", "--degmax", "1"],
        ["ellipse", "--nmax", "2", "--degmax", "1"],
        ["ellipse", "--nmax", "2", "--degmax", "0"],
    ],
)
def test_checks_reject_a_policy_without_terms(args, capsys):
    # every check passes on an empty potential, so a PASS there says nothing
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert "admits no potential term to check" in err


@pytest.mark.parametrize("command", ["potential", "verify", "ellipse"])
def test_t0_bound_flag_is_rejected(command, capsys):
    # a policy is (n_max, deg_max); there is no t0 bound to set
    with pytest.raises(SystemExit) as exc:
        main([command, "--t0max", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --t0max 3" in capsys.readouterr().err


def test_ellipse_subcommand(capsys):
    code, out, _ = run_cli(["ellipse", "--nmax", "2", "--degmax", "6"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["violations"] == []
    assert report["checked"] > 0


def test_ellipse_needs_two_indices(capsys):
    code, _, err = run_cli(["ellipse", "--nmax", "1"], capsys)
    assert code == 2


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
    # message is the out-of-range A, also when warnings are errors
    moments = tmp_path / "m.json"
    moments.write_text(json.dumps({"t0": 0.5, "t": [[1e200, 0]]}))
    args = ["map", "--nmax", "3", "--degmax", "4", "--in", str(moments)]
    for options in ((), ("-W", "error")):
        run = taumap_process(args, tmp_path, *options)
        assert run.returncode == 2
        assert run.stdout == b""
        assert run.stderr.startswith(b"error: A = d0^2 F_reg = nan puts p")
        assert run.stderr.count(b"\n") == 1


def test_missing_file_is_diagnosed(capsys):
    code, _, err = run_cli(["map", "--in", "/nonexistent/m.json"], capsys)
    assert code == 2


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
