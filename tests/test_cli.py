"""Command-line interface: exit codes, file outputs, JSON round-trips."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import mubc
from mubc import (
    MUConfiguration,
    ProductVector,
    QuadNum,
    SearchProblem,
    config_from_json,
    config_to_json,
    verify_mu,
)
from mubc import manifest
from mubc.cli import build_parser, main
from mubc.manifest import build_manifest, fixture_config, load_fixture

from embedding import embed

OK, FALSE, INPUT_ERROR, NO_CONVERGENCE = 0, 1, 2, 3


def read_out(path):
    """The JSON a command's --out wrote, parsed strictly: a bare NaN,
    Infinity or -Infinity token is not JSON (RFC 8259) and fails."""

    def refuse(token):
        raise AssertionError(f"{path} holds the bare token {token}, which is not JSON")

    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=refuse)


@pytest.fixture()
def write_json(tmp_path):
    def _write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture()
def golden5_path(write_json):
    return write_json("golden5.json", load_fixture("golden5.json"))


@pytest.fixture()
def asym_path(write_json):
    return write_json("asym.json", load_fixture("asymmetric-triple.json"))


@pytest.fixture()
def sym_path(write_json):
    return write_json("sym.json", load_fixture("symmetric-triple.json"))


class TestFixtures:
    def test_fixtures_load_and_verify(self):
        for name in ("asymmetric-triple.json", "symmetric-triple.json", "golden5.json"):
            cfg = fixture_config(name)
            tolerance = 1e-12 if cfg.mode == "numeric" else 1e-12
            assert verify_mu(cfg, tolerance=tolerance).verdict, name

    @pytest.mark.parametrize("name", ["asymmetric-triple.json", "symmetric-triple.json", "golden5.json"])
    def test_fixture_config_is_parsed_once_and_frozen(self, name):
        cfg = fixture_config(name)
        assert fixture_config(name) is cfg
        assert cfg == config_from_json(load_fixture(name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.target_k = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.vectors[0].factors[0].q = 2

    def test_load_fixture_returns_a_fresh_copy(self):
        blob = load_fixture("golden5.json")
        blob["K"] = "2"
        assert load_fixture("golden5.json")["K"] != "2"

    def test_golden5_is_exact(self):
        cfg = fixture_config("golden5.json")
        assert cfg.mode == "exact"
        assert all(
            isinstance(f.q, QuadNum) and isinstance(f.p, QuadNum)
            for v in cfg.vectors
            for f in v.factors
        )


class TestVerifyCommand:
    def test_mu_config_exits_zero(self, golden5_path, capsys):
        assert main(["verify", golden5_path]) == OK
        out = capsys.readouterr().out
        assert "MU" in out

    def test_not_mu_exits_one(self, write_json):
        bad = {
            "N": 1,
            "mode": "exact",
            "hbar": 1.0,
            "K": "1",
            "vectors": [[["0", "1"]], [["1", "0"]], [["1", "2"]]],
        }
        path = write_json("bad.json", bad)
        assert main(["verify", path]) == FALSE

    @pytest.mark.parametrize("factor, code", ((1, OK), (3, FALSE)))
    def test_target_below_float_range(self, factor, code, write_json, tmp_path):
        r = QuadNum.root()
        k = QuadNum(1)
        for _ in range(100):
            k = k / r
        config = {
            "N": 1,
            "mode": "exact",
            "hbar": 1.0,
            "K": str(k),
            "vectors": [[["1", "0"]], [["0", str(factor * k)]]],
        }
        out = tmp_path / "report.json"
        assert main(["verify", write_json("tiny.json", config), "--out", str(out)]) == code
        blob = read_out(out)
        assert blob["max_deviation"] == factor - 1
        assert blob["pairs"][0]["magnitude"] == float(embed(factor * k, 300)) > 0

    def test_parallel_pair_writes_an_inf_maximum(self, write_json, tmp_path, capsys):
        config = {"N": 1, "mode": "numeric", "K": 1.0, "vectors": [[[1.0, 0.0]], [[0.0, 1.0]], [[0.0, 2.0]]]}
        out = tmp_path / "report.json"
        assert main(["verify", write_json("parallel.json", config), "--out", str(out)]) == FALSE
        assert "max relative deviation: inf" in capsys.readouterr().out
        blob = read_out(out)
        assert blob["max_deviation"] == "inf"
        assert blob["parallel_pairs"] == [[1, 2]]
        assert [pair["deviation"] for pair in blob["pairs"]] == [0.0, 1.0, "inf"]

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"vectors": [[1,', encoding="utf-8")
        assert main(["verify", str(path)]) == INPUT_ERROR
        err = capsys.readouterr().err
        assert "broken.json:1:" in err

    def test_missing_file_exits_two(self):
        assert main(["verify", "/nonexistent/nope.json"]) == INPUT_ERROR

    def test_missing_field_diagnostic(self, write_json, capsys):
        path = write_json("incomplete.json", {"mode": "exact"})
        assert main(["verify", path]) == INPUT_ERROR
        assert "vectors" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("vectors", [[1, 0], [0, 1]]),
            ("hbar", -1),
            ("hbar", 0),
            ("hbar", "x"),
            ("hbar", math.inf),
            ("N", "two"),
            ("N", 1.5),
            ("vectors", [[[0.0, math.nan]], [[1.0, 0.0]]]),
            ("vectors", [[[0.0, -1.0]], [[math.inf, 0.0]]]),
            ("K", -math.inf),
            ("K", 10**400),
        ],
    )
    def test_malformed_numeric_config_exits_two(self, field, value, write_json, capsys):
        config = {"N": 1, "mode": "numeric", "K": 1.0, "vectors": [[[0.0, -1.0]], [[1.0, 0.0]]]}
        path = write_json("bad.json", {**config, field: value})
        assert main(["verify", path]) == INPUT_ERROR
        assert capsys.readouterr().err.startswith("input error:")

    def test_infer_k(self, write_json):
        cfg = {
            "N": 1,
            "mode": "exact",
            "hbar": 1.0,
            "K": None,
            "vectors": [[["0", "-2"]], [["2", "0"]], [["2", "2"]]],
        }
        path = write_json("infer.json", cfg)
        assert main(["verify", path, "--infer-k"]) == OK

    def test_tolerance_flag(self, sym_path):
        assert main(["verify", sym_path, "--tolerance", "1e-15"]) == OK

    def test_mode_flag_rejects_the_other_mode(self, golden5_path, capsys):
        assert main(["verify", golden5_path, "--mode", "exact"]) == OK
        assert main(["verify", golden5_path, "--mode", "numeric"]) == INPUT_ERROR
        assert capsys.readouterr().err.endswith("field 'mode' is 'exact', --mode requested 'numeric'\n")

    def test_out_report(self, golden5_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", golden5_path, "--out", str(out)]) == OK
        blob = read_out(out)
        assert blob["verdict"] is True
        assert len(blob["pairs"]) == 10

    def test_csv(self, golden5_path, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["verify", golden5_path, "--csv", str(out)]) == OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 11  # header + 10 pairs
        assert lines[0].split(",")[0] == "i"


class TestCertifyCommand:
    def test_asymmetric_triple(self, asym_path, capsys):
        assert main(["certify-n1", asym_path]) == OK
        out = capsys.readouterr().out
        assert "certificate valid: yes" in out
        # one row per sign pattern
        assert sum(line.count("+") + line.count("-") >= 3 for line in out.splitlines()) >= 8

    def test_symmetric_triple(self, sym_path):
        assert main(["certify-n1", sym_path]) == OK

    def test_non_triple_rejected(self, golden5_path):
        assert main(["certify-n1", golden5_path]) == INPUT_ERROR

    def test_certificate_out(self, asym_path, tmp_path):
        out = tmp_path / "cert.json"
        assert main(["certify-n1", asym_path, "--out", str(out)]) == OK
        blob = read_out(out)
        assert blob["valid"] is True
        assert len(blob["records"]) == 8

    def test_counterexample_at_tolerance_one(self, sym_path, tmp_path, capsys):
        # a genuine triple's pattern residuals are at least K in magnitude,
        # so a relative tolerance of 1 admits a pattern as a fourth direction
        out = tmp_path / "counterexample.json"
        assert main(["certify-n1", sym_path, "--tolerance", "1", "--out", str(out)]) == FALSE
        printed = capsys.readouterr().out
        assert "counterexample: a fourth direction exists" in printed
        assert "direction: (" in printed
        blob = read_out(out)
        assert len(blob["direction"]) == 2
        assert len(blob["signs"]) == 3


class TestEnumerateCommand:
    def test_basic(self, capsys):
        assert main(["enumerate-n1", "--k", "1", "--height", "1"]) == OK
        out = capsys.readouterr().out
        assert "class" in out

    def test_emitted_configs_are_readable(self, tmp_path):
        out = tmp_path / "classes.json"
        assert main(["enumerate-n1", "--k", "1", "--height", "1", "--out", str(out)]) == OK
        blobs = read_out(out)
        assert blobs
        for blob in blobs:
            cfg = config_from_json(blob)
            assert verify_mu(cfg).verdict

    def test_unreachable_k_exits_one(self, capsys):
        assert main(["enumerate-n1", "--k", "50", "--height", "1"]) == FALSE

    def test_bad_k(self):
        assert main(["enumerate-n1", "--k", "not-a-number", "--height", "1"]) == INPUT_ERROR

    def test_height_above_cap_exits_two(self, capsys):
        assert main(["enumerate-n1", "--k", "1", "--height", "100000000"]) == INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_nonpositive_k_exits_two(self, k, capsys):
        assert main(["enumerate-n1", "--k", k, "--height", "1"]) == INPUT_ERROR
        assert capsys.readouterr().err.startswith("input error:")


ASYMMETRIC_EXACT = {"N": 1, "mode": "exact", "K": "1", "vectors": [[["0", "-1"]], [["1", "0"]], [["1", "1"]]]}


# Over R^2 = 2 (R = sqrt 2) the pair (1, 0), (1, 1 + R) has product -1 - R,
# of magnitude 2.414..., where the golden 1 + R would read 2.618...
SQRT2_TRIPLE = {
    "N": 1, "mode": "exact", "K": "1", "ambient": [0, 1, 2, 1],
    "vectors": [[["0", "-1"]], [["1", "0"]], [["1", "1 + R"]]],
}


def test_exact_scalars_as_ints_and_dicts(write_json, tmp_path, capsys):
    # a bare int, a dict naming the config's ambient and a dict naming none
    # (which takes the config's) read as the same elements as the strings
    ints_and_dicts = {
        **SQRT2_TRIPLE,
        "K": {"p": [2, 2], "q": [0, 1]},
        "vectors": [
            [[0, -1]],
            [[1, 0]],
            [[{"p": [1, 1], "q": [0, 1], "ambient": [0, 1, 2, 1]}, {"p": [3, 3], "q": [2, 2]}]],
        ],
    }
    reports = []
    for name, config in (("strings", SQRT2_TRIPLE), ("ints-and-dicts", ints_and_dicts)):
        out = tmp_path / f"{name}-report.json"
        assert main(["verify", write_json(f"{name}.json", config), "--out", str(out)]) == FALSE
        reports.append(read_out(out))
    assert reports[0] == reports[1]
    assert reports[1]["pairs"][2]["value"] == "-1 - R"
    assert math.isclose(reports[1]["pairs"][2]["magnitude"], 1 + math.sqrt(2), rel_tol=1e-15)
    capsys.readouterr()
    # a dict over another ambient is refused, not read over the config's
    golden_entry = {"p": [1, 1], "q": [1, 1], "ambient": [1, 1, 1, 1]}
    mixed = {**SQRT2_TRIPLE, "vectors": [[[0, -1]], [[1, 0]], [[1, golden_entry]]]}
    assert main(["verify", write_json("mixed.json", mixed)]) == INPUT_ERROR
    assert "ambient mismatch" in capsys.readouterr().err


# every entry and K name the golden ambient, the file the sqrt-2 one
FOREIGN_ENTRIES = {
    "N": 1, "mode": "exact", "ambient": [0, 1, 2, 1],
    "K": {"p": [1, 1], "q": [0, 1], "ambient": [1, 1, 1, 1]},
    "vectors": [
        [[{"p": [1, 1], "q": [0, 1], "ambient": [1, 1, 1, 1]}, {"p": [0, 1], "q": [1, 1], "ambient": [1, 1, 1, 1]}]],
        [[{"p": [1, 1], "q": [0, 1], "ambient": [1, 1, 1, 1]}, {"p": [0, 1], "q": [0, 1], "ambient": [1, 1, 1, 1]}]],
    ],
}
# only K names the golden ambient
FOREIGN_K = {**SQRT2_TRIPLE, "K": {"p": [1, 1], "q": [1, 1], "ambient": [1, 1, 1, 1]}}


@pytest.mark.parametrize("config", [FOREIGN_ENTRIES, FOREIGN_K], ids=["entries", "k"])
@pytest.mark.parametrize("flags", [[], ["--infer-k"]], ids=["plain", "infer-k"])
def test_foreign_ambient_scalars_exit_two(config, flags, write_json, capsys):
    # a dict over another ambient is never read over it, with or without K
    assert main(["verify", write_json("foreign.json", config), *flags]) == INPUT_ERROR
    assert "ambient mismatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("ambient", [1, 0, 1, 1]),
        ("ambient", [1, 1, 1]),
        ("K", {"p": [1, 0], "q": [0, 1]}),
        ("K", "1/0"),
        ("K", "abc"),
        ("--k", "1/0"),
    ],
)
def test_malformed_field_element_exits_two(field, value, write_json, capsys):
    if field == "--k":
        argv = ["enumerate-n1", "--k", value]
    else:
        argv = ["verify", write_json("bad.json", {**ASYMMETRIC_EXACT, field: value})]
    assert main(argv) == INPUT_ERROR
    assert capsys.readouterr().err.startswith("input error:")


class TestEquivalenceCommand:
    def test_found(self, asym_path, sym_path, capsys):
        assert main(["equivalence", asym_path, sym_path]) == OK
        out = capsys.readouterr().out
        assert "scale" in out

    def test_not_found(self, asym_path, write_json):
        other = {
            "N": 1,
            "mode": "exact",
            "hbar": 1.0,
            "K": "1",
            "vectors": [[["0", "1"]], [["1", "0"]], [["2", "1"]]],
        }
        path = write_json("other.json", other)
        assert main(["equivalence", asym_path, path]) == FALSE

    def test_non_triple(self, asym_path, golden5_path):
        assert main(["equivalence", asym_path, golden5_path]) == INPUT_ERROR

    def test_exact_near_miss_exits_one(self, write_json, tmp_path, capsys):
        # a third vector 1e-12 off (1, 1): exact triples are compared in
        # their field, the same triples as floats match within 1e-10
        def triple(name, mode, one, third_p):
            vectors = [[[one, 0 * one]], [[0 * one, one]], [[one, third_p]]]
            return write_json(name, {"N": 1, "mode": mode, "K": one, "vectors": vectors})

        unit = triple("unit.json", "exact", 1, 1)
        near = triple("near.json", "exact", 1, "1000000000001/1000000000000")
        out = tmp_path / "eq.json"
        assert main(["equivalence", unit, near, "--out", str(out)]) == FALSE
        assert capsys.readouterr().out == "no equivalence found\n"
        assert read_out(out) is None
        unit, near = triple("unit.json", "numeric", 1.0, 1.0), triple("near.json", "numeric", 1.0, 1.000000000001)
        assert main(["equivalence", unit, near, "--out", str(out)]) == OK
        assert read_out(out)["residual"] == pytest.approx(1e-12, rel=1e-3)

    def test_out(self, asym_path, sym_path, tmp_path):
        out = tmp_path / "eq.json"
        assert main(["equivalence", asym_path, sym_path, "--out", str(out)]) == OK
        blob = read_out(out)
        assert blob["residual"] < 1e-10
        assert blob["scale"] == pytest.approx(math.sqrt(math.sqrt(3.0) / 2.0), rel=1e-12)


class TestMetaplecticCommand:
    def test_overlap_quarter_rotation(self, write_json, capsys):
        path = write_json("j.json", {"N": 1, "ordering": "stacked", "rows": [[0.0, -1.0], [1.0, 0.0]]})
        assert main(["metaplectic", "overlap", path]) == OK
        out = capsys.readouterr().out
        assert "0.159154943" in out

    def test_overlap_identity_singular(self, write_json):
        path = write_json("eye.json", {"N": 1, "ordering": "stacked", "rows": [[1.0, 0.0], [0.0, 1.0]]})
        assert main(["metaplectic", "overlap", path]) == INPUT_ERROR

    def test_overlap_q_shear(self, write_json, capsys):
        # eigenvalue 1, so no Cayley matrix; M_qp = 0.7 gives 1/(2 pi 0.7)
        path = write_json("shear.json", {"N": 1, "ordering": "stacked", "rows": [[1.0, 0.7], [0.0, 1.0]]})
        assert main(["metaplectic", "overlap", path]) == OK
        assert "overlap_sq: 0.227364204417" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["overlap", "compose"])
    def test_not_symplectic_exits_two(self, command, write_json, capsys):
        # det 4, so M^t J M - J = 3 J; M_qp = 1 would give a constant
        bad = write_json("bad.json", {"N": 1, "ordering": "stacked", "rows": [[2.0, 1.0], [0.0, 2.0]]})
        shear = write_json("shear.json", {"N": 1, "ordering": "stacked", "rows": [[1.0, 0.7], [0.0, 1.0]]})
        argv = ["metaplectic", command, bad] + ([shear] if command == "compose" else [])
        assert main(argv) == INPUT_ERROR
        err = capsys.readouterr().err
        assert err == f"input error: {bad}: matrix is not symplectic: defect 3\n"

    @pytest.mark.parametrize("command", ["overlap", "compose"])
    def test_entry_scale_past_the_float_range_exits_two(self, command, write_json, capsys):
        # det 1, but the tolerance scale 1e200^2 is past the float range
        big = write_json("big.json", {"N": 1, "ordering": "stacked", "rows": [[1e200, 0.0], [0.0, 1e-200]]})
        argv = ["metaplectic", command, big] + ([big] if command == "compose" else [])
        assert main(argv) == INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {big}: matrix entry scale 1.000000e+200")
        assert "Traceback" not in err

    def test_overlap_hbar(self, write_json, capsys):
        path = write_json("j.json", {"N": 1, "ordering": "stacked", "rows": [[0.0, -1.0], [1.0, 0.0]]})
        assert main(["metaplectic", "overlap", path, "--hbar", "2"]) == OK
        assert "0.0795774715" in capsys.readouterr().out

    def test_compose(self, write_json, capsys):
        theta1, theta2 = 0.3, 1.1
        def rot(t):
            return [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]
        a = write_json("a.json", {"N": 1, "ordering": "stacked", "rows": rot(theta1)})
        b = write_json("b.json", {"N": 1, "ordering": "stacked", "rows": rot(theta2)})
        assert main(["metaplectic", "compose", a, b]) == OK
        want = 1.0 / (2 * math.pi * abs(math.sin(theta2 - theta1)))
        assert f"{want:.9f}"[:9] in capsys.readouterr().out

    def test_compose_same_matrix(self, write_json):
        path = write_json("r.json", {"N": 1, "ordering": "stacked", "rows": [[0.0, -1.0], [1.0, 0.0]]})
        assert main(["metaplectic", "compose", path, path]) == INPUT_ERROR

    def test_special_m(self, capsys):
        assert main(["metaplectic", "special-m", "--q", "1", "--p", "1"]) == OK
        out = capsys.readouterr().out
        assert "image" in out or "0" in out

    def test_special_m_exact(self, tmp_path):
        out = tmp_path / "m.json"
        rc = main([
            "metaplectic", "special-m", "--q", "3/4", "--p", "-2",
            "--mu", "1/3", "--mode", "exact", "--out", str(out),
        ])
        assert rc == OK
        blob = read_out(out)
        assert blob["ordering"] == "stacked"
        # emitted matrix spec is accepted back by the reader
        from mubc import MetaplecticSpec

        spec = MetaplecticSpec.from_json(blob)
        assert spec.to_json()["N"] == 1

    def test_special_m_exact_decides_in_the_field(self, capsys):
        # M_qp = -q = -1 decides the overlap; det(M - I) = 2 - p = -1e-12 plays no part
        argv = ["metaplectic", "special-m", "--mode", "exact", "--q", "1", "--p", "2000000000001/1000000000000"]
        assert main(argv) == OK
        assert "overlap_sq: 0.159154943092" in capsys.readouterr().out

    def test_special_m_exact_image_is_exact(self, capsys):
        # 2/3 has no float: the image from float rows read 1.85037170771e-18
        argv = ["metaplectic", "special-m", "--mode", "exact", "--q", "2/3", "--p", "1/5", "--mu", "1/7"]
        assert main(argv) == OK
        assert "image of (Q, P): (0, 1)\n" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("flag", ["--q", "--p", "--mu"])
    def test_special_m_non_finite_argument_exits_two(self, flag, value, capsys):
        args = {"--q": "1", "--p": "1", "--mu": "0", flag: value}
        argv = ["metaplectic", "special-m", *(f"{k}={v}" for k, v in args.items())]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == INPUT_ERROR
        assert not caught
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"input error: {flag[2:]} must be finite, got {float(value)}"]
        assert "Warning" not in captured.err

    @pytest.mark.parametrize("hbar", ["1e-300", "1e300"])
    def test_overlap_constant_out_of_float_range_exits_two(self, hbar, write_json, capsys):
        # J at N = 2: (2 pi hbar)^-2 overflows at 1e-300 and underflows at 1e300
        rows = [[0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0], [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
        path = write_json("j2.json", {"N": 2, "ordering": "stacked", "rows": rows})
        assert main(["metaplectic", "overlap", path, "--hbar", hbar]) == INPUT_ERROR
        assert capsys.readouterr().err.startswith("input error:")

    def test_matrix_not_symplectic(self, write_json):
        path = write_json("notm.json", {"N": 1, "ordering": "stacked", "rows": [[2.0, 0.0], [0.0, 1.0]]})
        assert main(["metaplectic", "overlap", path]) == INPUT_ERROR


class TestOracleCommand:
    def test_pair(self, write_json, capsys):
        a = write_json("A.json", {"Q": 1.0, "P": 1.0})
        b = write_json("B.json", {"Q": 1.0, "P": -1.0})
        assert main(["oracle", "pair", a, b]) == OK
        out = capsys.readouterr().out
        assert "converged: yes" in out
        assert "epsilon" in out

    def test_pair_parallel(self, write_json, capsys):
        a = write_json("A.json", {"Q": 1.0, "P": 1.0})
        b = write_json("B.json", {"Q": 2.0, "P": 2.0})
        assert main(["oracle", "pair", a, b]) == INPUT_ERROR
        assert "parallel" in capsys.readouterr().err.lower()

    def test_pair_state_field_diagnostics(self, write_json, capsys):
        a = write_json("A.json", {"Q": 1.0})
        b = write_json("B.json", {"Q": 1.0, "P": -1.0})
        assert main(["oracle", "pair", a, b]) == INPUT_ERROR
        assert "P" in capsys.readouterr().err

    def test_pair_out_json(self, write_json, tmp_path):
        a = write_json("A.json", {"Q": 1.0, "P": 1.0, "alpha": 0.5})
        b = write_json("B.json", {"Q": 1.0, "P": -1.0})
        out = tmp_path / "quad.json"
        assert main(["oracle", "pair", a, b, "--out", str(out)]) == OK
        blob = read_out(out)
        assert blob["converged"] is True
        assert blob["value"] == pytest.approx(1.0 / (4 * math.pi), rel=1e-6)
        assert blob["stats"]["levels"] == len(blob["epsilon_sequence"])
        assert blob["stats"]["capped_levels"] == 0
        assert blob["stats"]["stop"] == "converged"
        assert set(blob["stats"]) == {
            "levels", "stop", "panels", "reused_levels", "complex_exponentials",
            "capped_levels", "wall_s",
        }

    @pytest.mark.parametrize(
        "q, p",
        [
            # |I(eps)|^2, and the overlap itself, below the normal range
            (1.0, 1e307),
            (1.0, -1e307),
            # the chirp-rate gap below the normal range
            (1.0, 1e-323),
            # the chirp-rate gap itself overflows
            (0.5, 1.5e308),
        ],
    )
    def test_pair_past_the_float_range_exits_two(self, q, p, write_json, capsys):
        a = write_json("A.json", {"Q": q, "P": p})
        b = write_json("B.json", {"Q": q, "P": -p})
        assert main(["oracle", "pair", a, b]) == INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "float range" in err

    # at 2^-1020 the default eps are subnormal, but the unit frame's
    # eps / |du| and window are not, and the overlap 2^1019 / (2 pi) is in range
    @pytest.mark.parametrize(
        "p", [2.0**1000, -(2.0**1000), 2.0**-1000, -(2.0**-1000), 2.0**-1020, -(2.0**-1020)]
    )
    def test_pair_converges_near_the_float_range_ends(self, p, write_json, capsys, tmp_path):
        a = write_json("A.json", {"Q": 1.0, "P": p})
        b = write_json("B.json", {"Q": 1.0, "P": -p})
        out = tmp_path / "quad.json"
        assert main(["oracle", "pair", a, b, "--out", str(out)]) == OK
        assert "converged: yes" in capsys.readouterr().out
        want = 1.0 / (2 * math.pi * 2 * abs(p))
        assert read_out(out)["value"] == pytest.approx(want, rel=1e-12)

    def test_pair_out_writes_an_unbounded_error_as_a_string(self, write_json, tmp_path):
        # eps levels so small that every fine rule hits the panel cap: no
        # level is integrated, each raw and the value are nan and the error
        # estimate is inf
        a = write_json("A.json", {"Q": 1, "P": 1.5})
        b = write_json("B.json", {"Q": 0.7, "P": -0.4})
        out = tmp_path / "quad.json"
        epsilons = "1e-9,5e-10,2.5e-10,1.25e-10,6e-11"
        assert main(["oracle", "pair", a, b, "--epsilons", epsilons, "--out", str(out)]) == NO_CONVERGENCE
        blob = read_out(out)
        assert blob["error_estimate"] == "inf" and blob["value"] == "nan"
        assert [raw for _, raw in blob["epsilon_sequence"]] == ["nan"] * 5
        assert blob["stats"]["stop"] == "capped" and blob["stats"]["capped_levels"] == 5
        work = ("panels", "complex_exponentials")
        assert [blob["stats"][k] for k in work] == [0, 0]

    def test_pair_unconverged_exits_three(self, write_json, capsys):
        # explicit eps levels are never deepened, and five are too few here
        a = write_json("A.json", {"Q": 1.0, "P": 0.05})
        b = write_json("B.json", {"Q": 1.0, "P": 0.02})
        argv = ["oracle", "pair", a, b, "--epsilons", "0.1,0.05,0.025,0.0125,0.00625"]
        assert main(argv) == NO_CONVERGENCE
        assert "converged: no" in capsys.readouterr().out

    def test_scan(self, capsys):
        assert main(["oracle", "scan", "--thetas", "0,1.5707963267948966"]) == OK
        out = capsys.readouterr().out
        assert "agree" in out

    def test_scan_default_angles(self):
        assert main(["oracle", "scan"]) == OK

    def test_scan_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(["oracle", "scan", "--thetas", "0,2.0943951023931953,4.1887902047863905", "--csv", str(out)])
        assert rc == OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 pairs

    def test_scan_disagreement_exit(self, capsys):
        # angles pi apart give a parallel row; scan flags but the live rows pass
        assert main(["oracle", "scan", "--thetas", "0.2,3.3415926535897933,1.0"]) == OK


class TestSearchCommand:
    def test_seed_required(self, write_json):
        prob = SearchProblem(
            target_k=1.0,
            seeds=(
                ProductVector.of((0.0, -1.0)),
                ProductVector.of((1.0, 0.0)),
                ProductVector.of((1.0, 1.0)),
            ),
            free_slots=1,
            domain="real",
        )
        path = write_json("prob.json", prob.to_json())
        with pytest.raises(SystemExit):
            main(["search", path])

    def test_no_improvement_exits_one(self, write_json):
        prob = SearchProblem(
            target_k=1.0,
            seeds=(
                ProductVector.of((0.0, -1.0)),
                ProductVector.of((1.0, 0.0)),
                ProductVector.of((1.0, 1.0)),
            ),
            free_slots=1,
            domain="real",
        )
        path = write_json("prob.json", prob.to_json())
        assert main(["search", path, "--seed", "0", "--budget", "2000", "--restarts", "4"]) == FALSE

    def test_extension_exits_zero(self, write_json, tmp_path):
        prob = SearchProblem(
            target_k=1.0,
            seeds=(ProductVector.of((0.0, -1.0)), ProductVector.of((1.0, 0.0))),
            free_slots=1,
            domain="real",
        )
        path = write_json("pair.json", prob.to_json())
        out = tmp_path / "report.json"
        rc = main([
            "search", path, "--seed", "3", "--budget", "20000",
            "--restarts", "10", "--out", str(out),
        ])
        assert rc == OK
        blob = read_out(out)
        assert blob["outcome"] == "extended"
        assert blob["residual"] <= 1e-9
        assert blob["pair_residuals"]

    def test_problem_round_trip(self, write_json):
        prob = SearchProblem(
            target_k=QuadNum(1),
            seeds=(
                ProductVector.of((QuadNum(0), QuadNum(-1))),
                ProductVector.of((QuadNum(1), QuadNum(0))),
            ),
            free_slots=1,
            domain="golden-lattice",
            height=1,
        )
        blob = prob.to_json()
        back = SearchProblem.from_json(blob)
        assert back.to_json() == blob
        path = write_json("lat.json", blob)
        assert main(["search", path, "--seed", "0", "--budget", "10000"]) == OK

    def test_many_chart_coordinates_exit_promptly(self, write_json, tmp_path, capsys):
        # N = 8 and four free slots: 32 coordinates of the one chart
        prob = SearchProblem(
            target_k=1.0,
            seeds=(ProductVector.of(*[(1.0, 0.0)] * 8), ProductVector.of(*[(0.0, 1.0)] * 8)),
            free_slots=4,
            domain="real",
        )
        path = write_json("wide.json", prob.to_json())
        out = tmp_path / "report.json"
        start = time.perf_counter()
        rc = main(["search", path, "--seed", "0", "--budget", "300", "--restarts", "8", "--out", str(out)])
        assert time.perf_counter() - start < 20.0
        assert rc in (OK, FALSE)
        assert "Traceback" not in capsys.readouterr().err
        stats = read_out(out)["stats"]
        assert set(stats) == {"budget_hit", "gradient_evaluations", "gauss_newton_steps", "share_stops"}

    @pytest.mark.parametrize("k, free_slots", [(0, 1), (-1, 1), (0, 0)])
    def test_nonpositive_k_exits_two(self, k, free_slots, write_json, capsys):
        # one seed has no pair for the seed check to reject K with; K = 0
        # once ended in a math domain error, or with no free slot in exhausted
        path = write_json("k.json", {"K": k, "seeds": [[[1.0, 0.0]]], "free_slots": free_slots, "domain": "real"})
        assert main(["search", path, "--seed", "0"]) == INPUT_ERROR
        err = capsys.readouterr().err
        assert "target K must be positive" in err
        assert "Traceback" not in err


class TestReproduceCommand:
    def test_default_all_pass(self, capsys):
        assert main(["reproduce"]) == OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_strict_tolerance_fails_quadrature_claims(self, capsys):
        assert main(["reproduce", "--tolerance", "0"]) == FALSE
        out = capsys.readouterr().out
        assert "FAIL" in out
        # exact claims still pass at zero tolerance
        assert "PASS" in out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--hbar", "0"),
            ("--hbar", "-2"),
            ("--hbar", "inf"),
            ("--tolerance", "nan"),
            ("--tolerance", "-1e-9"),
            ("--tolerance", "abc"),
        ],
    )
    def test_invalid_flag_exits_two(self, flag, value, capsys):
        # rejected while parsing, before any claim is computed
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", flag, value])
        assert exc.value.code == INPUT_ERROR
        err = capsys.readouterr().err
        assert f"argument {flag}" in err
        assert "Traceback" not in err

    def test_negative_tolerance_exits_two(self, capsys):
        # a bare -1e-9 reads as a flag; the = form reaches the value check
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--tolerance=-1e-9"])
        assert exc.value.code == INPUT_ERROR
        assert "must be nonnegative" in capsys.readouterr().err

    def test_out_writes_bool_verdicts(self, tmp_path):
        out = tmp_path / "claims.json"
        assert main(["reproduce", "--out", str(out)]) == OK
        blob = read_out(out)
        assert blob["all_passed"] is True
        assert all(type(claim["passed"]) is bool for claim in blob["claims"])

    def test_csv(self, tmp_path):
        out = tmp_path / "manifest.csv"
        assert main(["reproduce", "--csv", str(out)]) == OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) >= 13  # header + 12 claims

    @pytest.mark.parametrize(
        "command, flag", [("reproduce", "--out"), ("reproduce", "--csv"), ("verify", "--out")]
    )
    def test_write_into_a_missing_directory_exits_two(self, command, flag, asym_path, tmp_path, capsys):
        target = str(tmp_path / "missing" / "x.json")
        argv = ["reproduce"] if command == "reproduce" else ["verify", asym_path]
        assert main(argv + [flag, target]) == INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {target}: ")
        assert "Traceback" not in err

    def test_repeat_runs_write_identical_bytes(self, tmp_path):
        # the first run parses the fixtures and draws the seeded inputs afresh,
        # the second reuses them; every claim is recomputed either way
        fixture_config.cache_clear()
        manifest._seeded_draws.cache_clear()
        outs = [tmp_path / "first.json", tmp_path / "second.json"]
        for out in outs:
            assert main(["reproduce", "--include-search", "--out", str(out)]) == OK
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_seeded_draws_match_the_seeded_loops(self):
        # the shear and rotation-pair draws, written out as the claims drew them
        rng = np.random.default_rng(8)
        shears = []
        for _ in range(20):
            q = float(rng.uniform(0.3, 2.5) * rng.choice((-1.0, 1.0)))
            p = float(rng.uniform(-2.0, 2.0))
            mu = float(rng.uniform(-2.0, 2.0))
            shears.append((q, p, mu))
        rng = np.random.default_rng(9)
        rotations = []
        while len(rotations) < 10:
            theta_a = float(rng.uniform(0.0, math.pi))
            theta_b = float(rng.uniform(0.0, math.pi))
            if abs(math.sin(theta_b - theta_a)) < 0.05:
                continue
            rotations.append((theta_a, theta_b))
        assert manifest._seeded_draws() == (tuple(shears), tuple(rotations))


LEAF_FLAGS = {
    "verify": "--tolerance --mode --out --infer-k --csv",
    "search": "--out --seed --budget --restarts",
    "certify-n1": "--tolerance --mode --out",
    "enumerate-n1": "--out --k --height --csv",
    "equivalence": "--tolerance --mode --out",
    "metaplectic overlap": "--hbar --out",
    "metaplectic compose": "--hbar --out",
    "metaplectic special-m": "--hbar --mode --out --q --p --mu",
    "oracle pair": "--hbar --out --epsilons",
    "oracle scan": "--hbar --tolerance --out --thetas --csv",
    "reproduce": "--hbar --tolerance --out --csv --include-search",
}
TOLERANCE_DEFAULTS = {
    "verify": 1e-12,
    "certify-n1": 1e-12,
    "equivalence": 1e-10,
    "oracle scan": 1e-5,
    "reproduce": 1e-9,
}


def _parsers(parser, path=()):
    """(command path, parser) for every parser under the root, groups included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield path + (name,), child
                yield from _parsers(child, path + (name,))


class TestFlagContract:
    """Each command takes only the flags whose value can change its output
    or exit code; the metaplectic and oracle groups take none."""

    def test_each_parser_takes_its_flags(self):
        taken = {}
        for path, parser in _parsers(build_parser()):
            flags = [opt for a in parser._actions for opt in a.option_strings if opt not in ("-h", "--help")]
            taken[" ".join(path)] = " ".join(flags)
        assert taken == {**LEAF_FLAGS, "metaplectic": "", "oracle": ""}
        assert sum(len(flags.split()) for flags in taken.values()) == 42

    def test_defaults(self):
        for path, parser in _parsers(build_parser()):
            name = " ".join(path)
            if "--hbar" in LEAF_FLAGS.get(name, ""):
                assert parser.get_default("hbar") == 1.0, name
            assert parser.get_default("tolerance") == TOLERANCE_DEFAULTS.get(name), name

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a group names the flag, not its value read as the action
            (["metaplectic", "--hbar", "2", "overlap", "M"], "error: unrecognized arguments: --hbar (a flag goes after"),
            (["metaplectic", "--hbar=2", "overlap", "M"], "unrecognized arguments: --hbar=2"),
            (["oracle", "--out", "F", "pair", "A", "B"], "error: unrecognized arguments: --out (a flag goes after"),
            (["oracle", "--out=F", "pair", "A", "B"], "unrecognized arguments: --out=F"),
            (["verify", "C", "--hbar", "2"], "unrecognized arguments: --hbar 2"),
            (["search", "P", "--seed", "0", "--tolerance", "1"], "unrecognized arguments: --tolerance 1"),
            (["certify-n1", "C", "--hbar", "2"], "unrecognized arguments: --hbar 2"),
            (["enumerate-n1", "--mode", "exact"], "unrecognized arguments: --mode exact"),
            (["equivalence", "A", "B", "--hbar", "2"], "unrecognized arguments: --hbar 2"),
            (["metaplectic", "overlap", "M", "--mode", "exact"], "unrecognized arguments: --mode exact"),
            (["metaplectic", "compose", "A", "B", "--tolerance", "1"], "unrecognized arguments: --tolerance 1"),
            (["metaplectic", "special-m", "--q", "1", "--p", "1", "--tolerance", "1"], "unrecognized arguments: --tolerance 1"),
            (["oracle", "pair", "A", "B", "--mode", "numeric"], "unrecognized arguments: --mode numeric"),
            (["oracle", "scan", "--mode", "numeric"], "unrecognized arguments: --mode numeric"),
            (["reproduce", "--mode", "exact"], "unrecognized arguments: --mode exact"),
            (["--hbar", "2", "reproduce"], "mubc: error: unrecognized arguments: --hbar (a flag goes after"),
            (["metaplectic", "--tolerance", "1", "compose", "A", "B"], "unrecognized arguments: --tolerance (a flag"),
        ],
    )
    def test_flags_a_command_does_not_read_exit_two(self, argv, message, tmp_path, monkeypatch, capsys):
        # rejected while parsing: no handler runs and no file is written
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == INPUT_ERROR
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())


def run_alone(argv):
    """(exit code, stdout) of mubc run on argv by a fresh interpreter."""
    src = str(Path(mubc.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from mubc.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    return done.returncode, done.stdout


def test_calls_in_one_process_match_fresh_runs(asym_path, capsys):
    # the parser is built once per process; no call may see another's flags
    runs = (
        ["reproduce", "--hbar", "2"],
        ["reproduce"],
        ["verify", asym_path, "--infer-k"],
        ["verify", asym_path],
    )
    for argv in runs:
        code = main(argv)
        assert (code, capsys.readouterr().out) == run_alone(argv), argv


class TestManifest:
    def test_default_claims_pass(self):
        entries = build_manifest()
        assert len(entries) == 12
        assert all(entry.passed for entry in entries)

    def test_hbar_two_claims_pass(self):
        entries = build_manifest(hbar=2.0)
        assert all(entry.passed for entry in entries)

    def test_zero_tolerance_splits_exact_from_quadrature(self):
        entries = build_manifest(tolerance=0.0)
        failed = {entry.claim for entry in entries if not entry.passed}
        passed = {entry.claim for entry in entries if entry.passed}
        assert failed  # float-convergence claims cannot meet tolerance 0
        assert "golden-five-exact" in passed
        assert "asymmetric-triple-exact" in passed
        assert "no-fourth-certificates" in passed

    def test_search_claims_follow_the_others(self):
        entries = build_manifest(include_search=True)
        assert [entry.claim for entry in entries] == [
            "position-momentum-constant",
            "rotation-law-symplectic",
            "rotation-law-metaplectic",
            "rotation-law-oracle",
            "symmetric-triple",
            "symmetric-triple-discrepancy",
            "asymmetric-triple-exact",
            "golden-five-exact",
            "no-fourth-certificates",
            "triple-equivalence",
            "shear-prefactor",
            "composition-rotations",
            "search-lattice-recovery",
            "search-real-no-improvement",
        ]
        assert all(entry.passed for entry in entries)


QUARTER_TURN = {"N": 1, "ordering": "stacked", "rows": [[0.0, -1.0], [1.0, 0.0]]}
LATTICE_PROBLEM = {
    "K": "1",
    "seeds": [[["0", "-1"]], [["1", "0"]]],
    "free_slots": 1,
    "domain": "golden-lattice",
    "height": 1,
}
STATE = {"Q": 1.0, "P": 1.0}


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("matrix", "rows", [["a", 1.0], [1.0, 0.0]]),
        ("matrix", "rows", [[0.0, -1.0], [1.0]]),
        ("matrix", "rows", [[0.0, math.nan], [1.0, 0.0]]),
        ("matrix", "rows", "x"),
        ("matrix", "N", "x"),
        ("matrix", "N", 1.0),
        ("problem", "free_slots", "x"),
        ("problem", "free_slots", 1.7),
        ("problem", "height", "x"),
        ("problem", "hbar", "x"),
        ("state", "Q", math.nan),
        ("state", "P", "x"),
        ("state", "alpha", math.inf),
        ("state", "hbar", True),
        ("epsilons", None, "0.1,0.05"),
        ("epsilons", None, "0.1,0.05,0.02,0.01,-0.005"),
        ("epsilons", None, "nan,0.1,0.05,0.02,0.01"),
        ("thetas", None, "nan,1"),
        ("thetas", None, "x,1"),
        ("special-m", None, "abc"),
    ],
)
def test_malformed_input_exits_two(kind, field, value, write_json, capsys):
    if kind == "matrix":
        argv = ["metaplectic", "overlap", write_json("m.json", {**QUARTER_TURN, field: value})]
    elif kind == "problem":
        path = write_json("p.json", {**LATTICE_PROBLEM, field: value})
        argv = ["search", path, "--seed", "0"]
    elif kind == "thetas":
        argv = ["oracle", "scan", "--thetas", value]
    elif kind == "special-m":
        argv = ["metaplectic", "special-m", "--q", value, "--p", "1"]
    else:
        state = {**STATE, field: value} if kind == "state" else STATE
        other = write_json("b.json", {"Q": 1.0, "P": -1.0})
        argv = ["oracle", "pair", write_json("a.json", state), other]
        if kind == "epsilons":
            argv += ["--epsilons", value]
    assert main(argv) == INPUT_ERROR
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize(
    "command, content",
    [
        ("equivalence", [1, 2]),
        ("oracle", {"Q": 0.0, "P": 0.0}),
        ("search", {**LATTICE_PROBLEM, "domain": "bogus"}),
        ("metaplectic", {"rows": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}),
        ("verify", {**ASYMMETRIC_EXACT, "mode": "bogus"}),
        ("verify", {**ASYMMETRIC_EXACT, "vectors": 5}),
        ("verify", {**ASYMMETRIC_EXACT, "N": 2}),
        ("verify", {**ASYMMETRIC_EXACT, "K": {"p": [1, 1]}}),
        ("certify-n1", {**ASYMMETRIC_EXACT, "K": None}),
        ("oracle", [1.0, 1.0]),
        ("metaplectic", {"ordering": "diag", "rows": [[0.0, -1.0], [1.0, 0.0]]}),
        ("metaplectic", {"N": 2, "rows": [[0.0, -1.0], [1.0, 0.0]]}),
        ("search", {k: v for k, v in LATTICE_PROBLEM.items() if k != "domain"}),
    ],
)
def test_content_errors_name_the_file(command, content, asym_path, write_json, capsys):
    bad = write_json("bad.json", content)
    argv = {
        "verify": ["verify", bad],
        "certify-n1": ["certify-n1", bad],
        "equivalence": ["equivalence", asym_path, bad],
        "oracle": ["oracle", "pair", bad, write_json("b.json", STATE)],
        "search": ["search", bad, "--seed", "0"],
        "metaplectic": ["metaplectic", "overlap", bad],
    }[command]
    assert main(argv) == INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {bad}: ")
    assert err.count(bad) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "seeds, free_slots, entries",
    [
        # N = 1, one seed: the box, 200001^2 values (298 GiB as int64 pairs)
        ([[["0", "-1"]]], 2, "40000400001"),
        # N = 2: the head choices, past int64 as well
        ([[["0", "-1"], ["1", "0"]]], 1, "1600032000240000800001"),
    ],
    ids=["n1-box", "n2-choices"],
)
def test_lattice_height_past_the_table_bound_exits_two(seeds, free_slots, entries, write_json, capsys):
    problem = {**LATTICE_PROBLEM, "seeds": seeds, "free_slots": free_slots, "height": 100000}
    assert main(["search", write_json("tall.json", problem), "--seed", "0"]) == INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert f"table of {entries} entries" in err and "lattice height 100000" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "form",
    [
        '"K": 9_DIGITS, "vectors": [[["0", "-1"]], [["1", "0"]]]',
        '"K": "1", "vectors": [[[9_DIGITS, "-1"]], [["1", "0"]]]',
        '"K": "1", "vectors": [[["9_DIGITS", "-1"]], [["1", "0"]]]',
        '"K": "1", "vectors": [[["1/9_DIGITS + R", "-1"]], [["1", "0"]]]',
    ],
    ids=["K-number", "entry-number", "entry-literal", "denominator-literal"],
)
def test_over_long_integers_exit_two(form, tmp_path, capsys):
    # 5000 digits pass Python's 4300-digit limit on converting a string to an int;
    # written as text, since json.dumps cannot print such an int either
    path = tmp_path / "long.json"
    path.write_text('{"N": 1, "mode": "exact", ' + form.replace("9_DIGITS", "9" * 5000) + "}")
    assert main(["verify", str(path)]) == INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {path}: ")
    assert "5000" in err or "4300" in err
    assert "Traceback" not in err


def test_printing_past_the_digit_limit_exits_two(tmp_path, capsys):
    # entries of 2501 digits parse, but K = X^2 has 5001 digits to print
    x = "9" * 2501
    path = tmp_path / "long.json"
    vectors = [[["0", "-" + x]], [[x, "0"]], [[x, x]]]
    path.write_text(json.dumps({"N": 1, "mode": "exact", "K": "1", "vectors": vectors}))
    assert main(["verify", str(path), "--infer-k"]) == INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "4300 digits" in err
    assert "Traceback" not in err


def test_equivalence_past_the_float_range_exits_two(asym_path, write_json, capsys):
    # the asymmetric triple's image under diag(1e200, 1e-200), det 1: the map's
    # tolerance scale 1e200^2 is past the float range, a limit and not a verdict
    image = {
        "N": 1,
        "mode": "numeric",
        "K": 1.0,
        "vectors": [[[0.0, -1e-200]], [[1e200, 0.0]], [[1e200, 1e-200]]],
    }
    assert main(["equivalence", asym_path, write_json("image.json", image)]) == INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("input error: matrix entry scale 1.000000e+200 puts the tolerance")
    assert "Traceback" not in err


@pytest.mark.parametrize("exponent", [-200, 200])
def test_equivalence_is_scale_free(asym_path, write_json, capsys, exponent):
    # the asymmetric triple times 1e+-200, whose column norms' squares under-
    # or overflow; K is not read by the equivalence search
    lam = 10.0 ** exponent
    scaled = {"N": 1, "mode": "numeric", "K": 1.0, "vectors": [[[0.0, -lam]], [[lam, 0.0]], [[lam, lam]]]}
    path = write_json("scaled.json", scaled)
    assert main(["equivalence", asym_path, path]) == OK
    out = capsys.readouterr().out
    assert f"scale: {lam:.12g}\n" in out and "permutation: [0, 1, 2]" in out
    assert main(["equivalence", path, asym_path]) == OK
    assert f"scale: {1 / lam:.12g}\n" in capsys.readouterr().out


def test_group_help_still_prints(capsys):
    for argv in (["metaplectic", "--help"], ["oracle", "-h"], ["--he"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: mubc" in capsys.readouterr().out


def test_matrix_file_hbar_is_not_read(write_json, capsys):
    # --hbar sets hbar; a matrix file's own hbar field is ignored
    path = write_json("m.json", {**QUARTER_TURN, "hbar": "x"})
    assert main(["metaplectic", "overlap", path]) == OK
    assert "0.159154943" in capsys.readouterr().out


class TestRoundTripInvariant:
    def test_config_json_round_trip_through_cli_reader(self, golden5_path):
        blob = json.loads(Path(golden5_path).read_text())
        cfg = config_from_json(blob)
        again = config_to_json(cfg)
        assert config_to_json(config_from_json(again)) == again

    def test_all_fixture_round_trips(self):
        for name in ("asymmetric-triple.json", "symmetric-triple.json", "golden5.json"):
            blob = load_fixture(name)
            emitted = config_to_json(config_from_json(blob))
            assert config_to_json(config_from_json(emitted)) == emitted


def test_verify_past_the_float_range_writes_strict_json(write_json, tmp_path, capsys):
    # the triple (1, 0), (0, 1), (1, 1) times 1e200: every product overflows
    # to inf, so the inferred K is inf and each deviation inf / inf is NaN,
    # which the maximum must show rather than drop (the verdict itself is a
    # false negative past the float range and is not pinned here)
    config = {"N": 1, "mode": "numeric", "vectors": [[[1e200, 0.0]], [[0.0, 1e200]], [[1e200, 1e200]]]}
    out = tmp_path / "report.json"
    main(["verify", write_json("big.json", config), "--infer-k", "--out", str(out)])
    assert "max relative deviation: nan" in capsys.readouterr().out
    blob = read_out(out)
    assert blob["max_deviation"] == "nan"
    assert [pair["deviation"] for pair in blob["pairs"]] == ["nan"] * 3
    assert [pair["magnitude"] for pair in blob["pairs"]] == ["inf"] * 3


@pytest.mark.parametrize("fixture", ["golden5.json", "symmetric-triple.json", "asymmetric-triple.json", None])
def test_finite_out_is_plain_json(fixture, write_json, tmp_path):
    # an --out of finite numbers only is what json.dumps writes unchanged:
    # verify on each bundled fixture, and reproduce
    argv = ["verify", write_json(fixture, load_fixture(fixture))] if fixture else ["reproduce"]
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == OK
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(read_out(out), indent=2) + "\n"
