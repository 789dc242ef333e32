"""Committed regression snapshots regenerate byte-for-byte."""

import pathlib

from taumap.cli import main

SNAPSHOTS = pathlib.Path(__file__).parent / "snapshots"


def test_coeffs_snapshot(tmp_path):
    out = tmp_path / "coeffs.json"
    assert main(["coeffs", "--imax", "4", "--degmax", "6", "--out", str(out)]) == 0
    assert out.read_text() == (SNAPSHOTS / "coeffs_w4.json").read_text()


def test_potential_snapshot(tmp_path):
    out = tmp_path / "potential.json"
    assert main(["potential", "--nmax", "2", "--degmax", "4", "--out", str(out)]) == 0
    assert out.read_text() == (SNAPSHOTS / "potential_n2_d4.json").read_text()
