"""The reproduced claims: every bundled numeric result, recomputed and graded.

`build_manifest` computes the claims in report order. The two triples and
the golden five-set come from the bundled fixtures, so each of their vectors
is written down once, in `fixtures/`.

The claims' fixed inputs (the parsed fixtures and the seeded random draws)
are built once per process and shared read-only; every claim is recomputed
from them on each call.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
from dataclasses import dataclass

import numpy as np

from .metaplectic import compose_overlap_sq, genmu_overlap_sq, rotation_matrix, special_m
from .oracle import ChirpState, direction_for_angle, overlap_quadrature
from .search import (
    InfeasibilityCertificate,
    SearchProblem,
    certify_no_fourth,
    find_equivalence,
    search_extension,
)
from .symplectic import (
    DirectionVector,
    MUConfiguration,
    ProductVector,
    config_from_json,
    overlap_magnitude_sq,
    verify_mu,
)


@dataclass
class ManifestEntry:
    claim: str
    provenance: str
    computed: str
    expected: str
    passed: bool
    detail: str = ""


def load_fixture(name: str) -> dict:
    """A fresh, mutable copy of a bundled fixture's JSON."""
    resource = importlib.resources.files("mubc").joinpath(f"fixtures/{name}")
    return json.loads(resource.read_text(encoding="utf-8"))


@functools.cache
def fixture_config(name: str) -> MUConfiguration:
    """The parsed fixture, built once per process: a frozen configuration
    of tuples and exact scalars, so every caller can share it."""
    return config_from_json(load_fixture(name))


def fmt(x) -> str:
    """Display form of a value in claims and command-line tables."""
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _rel_gap(computed: float, expected: float) -> float:
    if computed == expected:
        return 0.0
    return abs(computed - expected) / max(abs(expected), 1e-300)


ROTATION_ANGLES = (math.pi / 6, math.pi / 4, math.pi / 3, 2 * math.pi / 3)


@functools.cache
def _seeded_draws() -> tuple[tuple[tuple[float, float, float], ...], tuple[tuple[float, float], ...]]:
    """The shear claim's 20 (q, p, mu) draws and the composition claim's 10
    rotation pairs (theta_a, theta_b), from their fixed seeds; drawn once
    per process."""
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
    return tuple(shears), tuple(rotations)


def build_manifest(
    hbar: float = 1.0, tolerance: float = 1e-9, include_search: bool = False
) -> list[ManifestEntry]:
    """Recompute every bundled numeric claim and grade it, in report order.

    Exact-arithmetic claims are graded exactly and hold at any tolerance;
    floating-point claims are graded at the given relative tolerance, so
    tolerance = 0 fails the quadrature rows while exact rows still pass.
    The two search claims come last and run only with include_search.
    """
    symmetric = fixture_config("symmetric-triple.json")
    asymmetric = fixture_config("asymmetric-triple.json")
    golden = fixture_config("golden5.json")
    entries: list[ManifestEntry] = []

    # position vs momentum bases: the constant overlap magnitude
    position = DirectionVector(0.0, 1.0)
    computed = overlap_magnitude_sq(position, DirectionVector(1.0, 0.0), hbar=hbar)
    expected = 1.0 / (2.0 * math.pi * hbar)
    entries.append(
        ManifestEntry(
            "position-momentum-constant",
            "analytic",
            fmt(computed),
            fmt(expected),
            _rel_gap(computed, expected) <= tolerance,
        )
    )

    # rotated bases at four angles, three independent routes
    worst_sym = worst_meta = worst_oracle = 0.0
    oracle_ok = True
    metas = genmu_overlap_sq(np.array([rotation_matrix(t) for t in ROTATION_ANGLES]), hbar=hbar)
    for theta, meta in zip(ROTATION_ANGLES, metas):
        expected = 1.0 / (2.0 * math.pi * hbar * abs(math.sin(theta)))
        sym = overlap_magnitude_sq(direction_for_angle(theta), position, hbar=hbar)
        worst_sym = max(worst_sym, _rel_gap(sym, expected))
        worst_meta = max(worst_meta, _rel_gap(meta, expected))
        state_a = ChirpState(direction_for_angle(-theta / 2.0), 0.0, hbar)
        state_b = ChirpState(direction_for_angle(theta / 2.0), 0.0, hbar)
        result = overlap_quadrature(state_a, state_b)
        oracle_ok = oracle_ok and result.converged
        worst_oracle = max(worst_oracle, _rel_gap(result.value, expected))
    law = "1/(2*pi*hbar*|sin theta|)"
    entries += [
        ManifestEntry(
            "rotation-law-symplectic",
            "analytic",
            f"max gap {fmt(worst_sym)}",
            law,
            worst_sym <= tolerance,
            "angles pi/6, pi/4, pi/3, 2pi/3",
        ),
        ManifestEntry(
            "rotation-law-metaplectic",
            "cross-check",
            f"max gap {fmt(worst_meta)}",
            law,
            worst_meta <= tolerance,
            "Cayley law as 1/|det M_qp| on rotation matrices",
        ),
        ManifestEntry(
            "rotation-law-oracle",
            "quadrature",
            f"max gap {fmt(worst_oracle)}",
            law,
            oracle_ok and worst_oracle <= tolerance,
            "damped-integral extrapolation, chirp-chirp branch",
        ),
    ]

    # the symmetric triple with the corrected second components 1/2
    report = verify_mu(symmetric, tolerance=max(tolerance, 1e-15))
    overlap = overlap_magnitude_sq(symmetric.vectors[0], symmetric.vectors[1], hbar=hbar)
    overlap_expected = 1.0 / (math.pi * hbar * math.sqrt(3.0))
    entries.append(
        ManifestEntry(
            "symmetric-triple",
            "analytic",
            f"deviation {fmt(report.max_deviation)}, overlap {fmt(overlap)}",
            f"deviation 0, overlap {fmt(overlap_expected)}",
            report.verdict and _rel_gap(overlap, overlap_expected) <= max(tolerance, 1e-15),
            "vectors (0,-1), (sqrt3/2, 1/2), (-sqrt3/2, 1/2) at K = sqrt3/2",
        )
    )

    # the commonly quoted variant with second components 1 is not MU;
    # reproducing that failure is itself a check
    first, *rest = symmetric.vectors
    variant = symmetric.replace_vectors(
        [first] + [ProductVector.of((v.factors[0].q, 1.0)) for v in rest]
    )
    variant_report = verify_mu(variant, tolerance=1e-6, infer_k=True)
    entries.append(
        ManifestEntry(
            "symmetric-triple-discrepancy",
            "cross-check",
            f"verdict {fmt(variant_report.verdict)}",
            "verdict no",
            not variant_report.verdict,
            "variant with second components 1 has unequal pair products",
        )
    )

    # asymmetric triple, exact integer arithmetic
    asym_report = verify_mu(asymmetric)
    entries.append(
        ManifestEntry(
            "asymmetric-triple-exact",
            "exact-field",
            f"verdict {fmt(asym_report.verdict)}",
            "verdict yes",
            asym_report.verdict and asym_report.max_deviation == 0.0,
            "vectors (0,-1), (1,0), (1,1) at K = 1",
        )
    )

    # golden five-set, exact golden-field arithmetic end to end
    golden_report = verify_mu(golden)
    entries.append(
        ManifestEntry(
            "golden-five-exact",
            "exact-field",
            f"verdict {fmt(golden_report.verdict)} over {len(golden_report.pairs)} pairs",
            "verdict yes over 10 pairs",
            golden_report.verdict
            and golden_report.max_deviation == 0.0
            and len(golden_report.pairs) == 10,
            "all pairwise products are golden units of magnitude 1",
        )
    )

    # no fourth direction joins either triple
    certificates = [
        certify_no_fourth(*(v.factors[0] for v in triple.vectors), triple.target_k)
        for triple in (asymmetric, symmetric)
    ]
    both_valid = all(
        isinstance(cert, InfeasibilityCertificate) and cert.valid for cert in certificates
    )
    entries.append(
        ManifestEntry(
            "no-fourth-certificates",
            "exact-field",
            "both certificates valid" if both_valid else "certificate failed",
            "8 contradicted sign patterns per triple",
            both_valid,
            "asymmetric triple (exact) and symmetric triple (numeric)",
        )
    )

    # the two triples are linearly equivalent up to a positive scale
    equivalence = find_equivalence(asymmetric, symmetric)
    entries.append(
        ManifestEntry(
            "triple-equivalence",
            "cross-check",
            "none" if equivalence is None else f"residual {fmt(equivalence.residual)}",
            "residual < 1e-10",
            equivalence is not None and equivalence.residual < 1e-10,
            ""
            if equivalence is None
            else f"scale {fmt(equivalence.scale)}, permutation {list(equivalence.permutation)}",
        )
    )

    # shear-normalized matrices: overlap depends only on Q
    shears, rotations = _seeded_draws()
    worst_shear = 0.0
    # M_qp = -q, with |q| >= 0.3, so every draw has a constant
    values = genmu_overlap_sq(np.array([special_m(q, p, mu) for q, p, mu in shears]), hbar=hbar)
    for (q, _, _), value in zip(shears, values):
        worst_shear = max(worst_shear, _rel_gap(value, 1.0 / (2.0 * math.pi * hbar * abs(q))))
    entries.append(
        ManifestEntry(
            "shear-prefactor",
            "cross-check",
            f"max gap {fmt(worst_shear)}",
            "1/(2*pi*hbar*|Q|)",
            worst_shear <= max(tolerance, 1e-10),
            "20 seeded random (Q, P, mu) draws",
        )
    )

    # composition of rotations matches the angle difference
    worst_comp = 0.0
    values = compose_overlap_sq(
        np.array([rotation_matrix(theta_a) for theta_a, _ in rotations]),
        np.array([rotation_matrix(theta_b) for _, theta_b in rotations]),
        hbar=hbar,
    )
    for (theta_a, theta_b), value in zip(rotations, values):
        expected = 1.0 / (2.0 * math.pi * hbar * abs(math.sin(theta_b - theta_a)))
        worst_comp = max(worst_comp, _rel_gap(value, expected))
    entries.append(
        ManifestEntry(
            "composition-rotations",
            "cross-check",
            f"max gap {fmt(worst_comp)}",
            "1/(2*pi*hbar*|sin dtheta|)",
            worst_comp <= max(tolerance, 1e-10),
            "10 seeded random rotation pairs",
        )
    )
    if not include_search:
        return entries

    # the golden search from the first four vectors finds the bundled fifth
    *seeds, fifth = golden.vectors
    problem = SearchProblem(golden.target_k, tuple(seeds), 1, "golden-lattice", height=2)
    search_report = search_extension(problem, budget=800000)
    negated = ProductVector(tuple(f.scaled(-1) for f in fifth.factors))
    recovered = any(
        v == fifth or v == negated for solution in search_report.solutions for v in solution
    )
    entries.append(
        ManifestEntry(
            "search-lattice-recovery",
            "exact-field",
            f"outcome {search_report.outcome}, residual {fmt(search_report.residual)}, "
            f"{len(search_report.solutions)} completions",
            "outcome extended, residual 0, bundled fifth among completions",
            search_report.outcome == "extended"
            and search_report.residual == 0.0
            and recovered,
            f"{search_report.evaluations} heads enumerated, one linear solve per sign pattern",
        )
    )

    # descent over the reals cannot extend the asymmetric triple
    real_seeds = tuple(ProductVector.of(v.factors[0].as_floats()) for v in asymmetric.vectors)
    real_problem = SearchProblem(float(asymmetric.target_k), real_seeds, 1, "real")
    real_report = search_extension(real_problem, budget=4000, restarts=8, seed=0)
    entries.append(
        ManifestEntry(
            "search-real-no-improvement",
            "cross-check",
            f"outcome {real_report.outcome}",
            "outcome no-improvement",
            real_report.outcome == "no-improvement",
            "multi-start descent cannot extend the asymmetric triple",
        )
    )
    return entries
