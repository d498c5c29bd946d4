"""Tests of the benchmark itself, at tiny sizes.

Each workload's correctness check must count a planted wrong answer as a
failed item; the tracer must nest spans and split time exactly; the known
``reproduce --out`` defect is carried as an expected failure.

Run from the repository root: python3 -m pytest bench -q
"""

import contextlib
import dataclasses
import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from mubc import cli, oracle, symplectic  # noqa: E402
from mubc.exact import QuadNum  # noqa: E402
from mubc.symplectic import DirectionVector, ProductVector  # noqa: E402
from tracing import ITEM_SPAN, Tracer  # noqa: E402


def _first(workload_name, count, seed=0):
    workload = workloads.WORKLOADS[workload_name]
    return workload, list(itertools.islice(workload.inputs(seed), count))


def _fake_manifest(claims, failing=None):
    def build_manifest(hbar=1.0, tolerance=1e-9, include_search=False):
        return [
            cli.ManifestEntry(f"claim-{i}", "test", "1", "1", i != failing) for i in range(claims)
        ]

    return build_manifest


@pytest.mark.parametrize(
    "claims, failing, failed",
    [
        (workloads.REPRODUCE_CLAIMS, None, 0),
        (workloads.REPRODUCE_CLAIMS, 5, 2),
        (workloads.REPRODUCE_CLAIMS - 1, None, 2),
    ],
)
def test_reproduce_check_counts_a_fail_line(monkeypatch, claims, failing, failed):
    monkeypatch.setattr(cli, "build_manifest", _fake_manifest(claims, failing))
    workload, items = _first("reproduce", 2)
    assert run.run_items(workload, iter(items)).failed == failed


def test_oracle_check_counts_a_perturbed_value(monkeypatch):
    workload, pairs = _first("oracle-pairs", 2)
    assert run.run_items(workload, iter(pairs)).failed == 0
    real = oracle.overlap_quadrature

    def perturbed(a, b, **kwargs):
        result = real(a, b, **kwargs)
        return dataclasses.replace(result, value=result.value * (1.0 + 1e-3))

    monkeypatch.setattr(oracle, "overlap_quadrature", perturbed)
    assert run.run_items(workload, iter(pairs)).failed == 2


def test_golden_check_counts_a_non_mu_family(monkeypatch):
    workload, families = _first("golden-families", 2)
    assert run.run_items(workload, iter(families)).failed == 0
    real = workloads.build_family

    def one_entry_changed(base5, base3, words):
        five, triple = real(base5, base3, words)
        last = five.vectors[-1]
        head = last.factors[0]
        bad = ProductVector((DirectionVector(head.q, head.p + 1),) + last.factors[1:])
        return five.replace_vectors(five.vectors[:-1] + (bad,)), triple

    monkeypatch.setattr(workloads, "build_family", one_entry_changed)
    assert run.run_items(workload, iter(families)).failed == 2


def test_raising_item_counts_as_failed(monkeypatch):
    workload, families = _first("golden-families", 1)

    def broken(*args):
        raise ArithmeticError("planted")

    monkeypatch.setattr(workloads, "build_family", broken)
    loop = run.run_items(workload, iter(families))
    assert loop.failed == 1 and "planted" in loop.errors[0]


@pytest.mark.xfail(
    strict=True,
    raises=TypeError,
    reason="reproduce --out: claims rotation-law-metaplectic, shear-prefactor and "
    "composition-rotations store a numpy.bool_ in 'passed', which json cannot serialise",
)
def test_reproduce_out_writes_the_claims(tmp_path):
    out = tmp_path / "claims.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["reproduce", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["all_passed"] is True


def test_tracer_nests_spans_and_splits_time():
    config = cli.fixture_config("golden5.json")
    original_verify, original_mul = symplectic.verify_mu, QuadNum.__dict__["__mul__"]
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.run_item(7, symplectic.verify_mu, config).verdict
    finally:
        tracer.uninstall()
    assert symplectic.verify_mu is original_verify
    assert QuadNum.__dict__["__mul__"] is original_mul

    root, verify = tracer.spans[0], tracer.spans[1]
    assert (root[0], verify[0], verify[3]) == (ITEM_SPAN, "symplectic.verify_mu", 0)
    products = [s for s in tracer.spans if s[0] == "symplectic.symp_product"]
    assert len(products) == 10 and {s[3] for s in products} == {1}
    assert {s[4] for s in tracer.spans} == {7}
    assert tracer.ops["mul"][0] > 0
    # every second of the item lands in exactly one self time
    self_total = sum(stat[1] for stat in tracer.stats.values()) + sum(s for _, s in tracer.ops.values())
    assert self_total == pytest.approx(root[2] - root[1], rel=1e-9)


def test_item_times_scale_by_the_kernel_times_around_them():
    ref = run.REFERENCE_KERNEL_S
    # the host ran at half the reference speed around item 0, at it around item 1
    got = run.scaled([1.0, 3.0], [2 * ref, 2 * ref, ref])
    assert got == pytest.approx([0.5, 3.0 / 1.5])


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reproduce", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""
