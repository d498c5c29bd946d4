"""The three benchmark workloads: seeded inputs, one checked item at a time.

Each workload has ``inputs(seed)``, which prepares everything it can before
timing and returns an endless iterator of items made only from the seed, and ``run(item)``, which does one item's work through mubc's
public functions and returns ``(correct, info)``. ``info`` carries what
``describe`` needs to report the properties an optimisation depends on; it
is summarised after timing, never inside it.

Every call into mubc goes through a module attribute (``symplectic.verify_mu``
and so on), so the tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from collections import Counter

import numpy as np

from mubc import cli, metaplectic, oracle, search, symplectic
from mubc.errors import DegenerateBlock, SingularCayley
from mubc.exact import QuadNum
from mubc.symplectic import DirectionVector, ProductVector


def warm_up() -> None:
    """First call of every layer on tiny inputs: fills lazy caches
    (mpmath constants, Gauss-Legendre nodes, numpy linalg) before timing."""
    float(QuadNum.parse("1 + R") * QuadNum.root())
    triple = cli.fixture_config("asymmetric-triple.json")
    symplectic.verify_mu(triple)
    metaplectic.genmu_overlap_sq(metaplectic.rotation_matrix(0.5))
    a = oracle.ChirpState(DirectionVector(1.0, 0.5))
    b = oracle.ChirpState(DirectionVector(1.0, -0.5))
    oracle.overlap_quadrature(a, b, epsilons=(1.0, 0.5, 0.25, 0.125, 0.0625))
    search.search_extension(
        search.SearchProblem(triple.target_k, triple.vectors, 1, search.GOLDEN_LATTICE, 1)
    )
    cli.build_parser()


def _quantiles(values, cuts=(0.1, 0.5, 0.9)) -> dict:
    ordered = sorted(values)
    return {f"q{int(c * 100)}": float(np.quantile(ordered, c)) for c in cuts} if ordered else {}


# -- reproduce ----------------------------------------------------------------

REPRODUCE_ARGV = ("reproduce", "--include-search")
REPRODUCE_CLAIMS = 14


class Reproduce:
    """``mubc reproduce --include-search`` in-process, stdout captured.

    It runs without ``--out``: at this commit ``--out`` computes every claim
    and then exits 1 with a TypeError, because three claims store a
    ``numpy.bool_`` in ``passed`` and json cannot serialise it.
    """

    name = "reproduce"

    def inputs(self, seed: int):
        return itertools.repeat(REPRODUCE_ARGV)

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        return reproduce_correct(code, out.getvalue()), None

    def describe(self, infos) -> dict:
        return {"inputs": "fixed: the bundled claims; the seed does not apply"}


def reproduce_correct(code: int, text: str) -> bool:
    """Exit 0 and exactly REPRODUCE_CLAIMS claim lines, all PASS."""
    verdicts = [line.split()[0] for line in text.splitlines() if line.startswith(("PASS ", "FAIL "))]
    return code == 0 and len(verdicts) == REPRODUCE_CLAIMS and set(verdicts) == {"PASS"}


# -- oracle-pairs -------------------------------------------------------------

HBARS = (0.5, 1.0, 2.0)
POOL_PER_HBAR = 2000
DEEP_LEVELS = 13
_GOLDEN_STRIDE = (math.sqrt(5.0) - 1.0) / 2.0


def _draw_state(rng: np.random.Generator, hbar: float) -> oracle.ChirpState:
    while True:
        q = float(rng.uniform(-2.0, 2.0))
        p = float(rng.uniform(-2.0, 2.0))
        if abs(q) >= 0.25 and abs(p) >= 1e-3:
            return oracle.ChirpState(DirectionVector(q, p), hbar=hbar)


def draw_pair(rng: np.random.Generator, hbar: float):
    """One chirp-state pair with |symplectic product| >= 0.05."""
    while True:
        a, b = _draw_state(rng, hbar), _draw_state(rng, hbar)
        if abs(a.direction.p * b.direction.q - a.direction.q * b.direction.p) >= 0.05:
            return a, b


def chirp_gap(pair) -> float:
    a, b = pair
    return abs(a.quad_rate - b.quad_rate)


class OraclePairs:
    """Overlaps of seeded chirp-state pairs through the quadrature oracle.

    A pair's cost and whether it needs the deep ladder depend on its chirp
    gap |du|. Pairs are drawn by the recipe into a pool per hbar, and item k
    takes the pool's pair at quantile frac(offset + k * 0.618...), so every
    prefix of the item stream spreads evenly over |du|. Throughput then does
    not hinge on how many slow-chirp pairs one seed happens to draw.
    """

    name = "oracle-pairs"

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        pools = [
            sorted((draw_pair(rng, hbar) for _ in range(POOL_PER_HBAR)), key=chirp_gap)
            for hbar in HBARS
        ]
        offset = float(rng.random())
        return (
            pools[k % len(pools)][int(((offset + k * _GOLDEN_STRIDE) % 1.0) * POOL_PER_HBAR)]
            for k in itertools.count()
        )

    def run(self, pair):
        a, b = pair
        result = oracle.overlap_quadrature(a, b)
        deep = not result.converged
        if deep:
            # the fallback criterion 11 of the acceptance gate uses today
            ladder = oracle.default_epsilons(a.quad_rate - b.quad_rate, levels=DEEP_LEVELS)
            result = oracle.overlap_quadrature(a, b, epsilons=ladder)
        want = symplectic.overlap_magnitude_sq(
            ProductVector((a.direction,)), ProductVector((b.direction,)), hbar=a.hbar
        )
        correct = result.converged and abs(result.value - want) <= max(1e-5 * want, result.error_estimate)
        return correct, (chirp_gap(pair), deep)

    def describe(self, infos) -> dict:
        gaps = [gap for gap, _ in infos]
        return {
            "deep_ladder_share": sum(deep for _, deep in infos) / max(1, len(infos)),
            "chirp_gap_quantiles": _quantiles(gaps),
        }


# -- golden-families ----------------------------------------------------------

_R = QuadNum.root()
GENERATORS = {
    "shear-up": ((1, 1), (0, 1)),
    "shear-down": ((1, 0), (1, 1)),
    "scale-R": ((_R, 0), (0, _R - 1)),  # R^-1 = R - 1 in the golden ring
    "quarter-turn": ((0, -1), (1, 0)),
    "flip": ((1, 0), (0, -1)),
}
DET_ONE = tuple(name for name in GENERATORS if name != "flip")
MIN_DEPTH, MAX_DEPTH = 2, 8
PRODUCT_REL_TOL = 1e-12


def random_word(rng: random.Random, letters=tuple(GENERATORS)) -> tuple[str, ...]:
    return tuple(rng.choice(letters) for _ in range(rng.randint(MIN_DEPTH, MAX_DEPTH)))


def word_matrix(word) -> list[list[QuadNum]]:
    """Product of the word's generators as a 2x2 matrix of QuadNum."""
    rows = [[QuadNum(1), QuadNum(0)], [QuadNum(0), QuadNum(1)]]
    for letter in word:
        (a, b), (c, d) = GENERATORS[letter]
        rows = [[r[0] * a + r[1] * c, r[0] * b + r[1] * d] for r in rows]
    return rows


def block_diagonal(m1, m2) -> list[list[QuadNum]]:
    """Stacked-ordering (q1, q2, p1, p2) matrix acting as m1 on pair 1, m2 on pair 2."""
    z = QuadNum(0)
    (a1, b1), (c1, d1) = m1
    (a2, b2), (c2, d2) = m2
    return [[a1, z, b1, z], [z, a2, z, b2], [c1, z, d1, z], [z, c2, z, d2]]


def coefficient_bits(configs) -> int:
    bits = 0
    for config in configs:
        for vector in config.vectors:
            for factor in vector.factors:
                for x in (factor.q, factor.p):
                    for r in (x.p, x.q):
                        bits = max(bits, r.numerator.bit_length(), r.denominator.bit_length())
    return bits


def build_family(base5, base3, words):
    """Apply one seeded word to each factor slot: golden5 has two, the triple one."""
    five = base5
    for slot, word in enumerate(words[:2]):
        m = symplectic.UnsignedSymplecticMatrix.from_rows(word_matrix(word))
        five = symplectic.apply_transform(m, five, slot)
    m = symplectic.UnsignedSymplecticMatrix.from_rows(word_matrix(words[2]))
    return five, symplectic.apply_transform(m, base3, 0)


class GoldenFamilies:
    """Seeded golden-field families, verified, certified and searched exactly.

    Transforming every factor slot by a word over unimodular golden
    generators keeps each family MU at K = 1 with integral entries; word
    depth sets the coefficient size.
    """

    name = "golden-families"

    def inputs(self, seed: int):
        rng = random.Random(seed)
        base5 = cli.fixture_config("golden5.json")
        base3 = cli.fixture_config("asymmetric-triple.json")
        return (
            (base5, base3, tuple(random_word(rng) for _ in range(3)), rng.getrandbits(32))
            for _ in itertools.count()
        )

    def run(self, item):
        base5, base3, words, metaplectic_seed = item
        five, triple = build_family(base5, base3, words)
        correct = all(
            symplectic.config_from_json(symplectic.config_to_json(c)) == c for c in (five, triple)
        )
        correct = correct and all(symplectic.verify_mu(c).verdict for c in (five, triple))
        correct = correct and all(
            symplectic.symp_product(u, v) == symplectic.expanded_product(u, v)
            for u, v in itertools.combinations(five.vectors, 2)
        )
        if correct:
            directions = [v.factors[0] for v in triple.vectors]
            certificate = search.certify_no_fourth(*directions, triple.target_k)
            correct = isinstance(certificate, search.InfeasibilityCertificate) and certificate.valid
        if correct:
            problem = search.SearchProblem(
                triple.target_k, triple.vectors, 1, search.GOLDEN_LATTICE, height=2
            )
            report = search.search_extension(problem)
            correct = report.outcome == "exhausted" and not report.solutions
        correct = correct and _product_law_holds(random.Random(metaplectic_seed))
        return correct, (words, five, triple)

    def describe(self, infos) -> dict:
        depths = Counter(len(word) for words, _, _ in infos for word in words)
        return {
            "word_depth_histogram": {str(d): depths[d] for d in sorted(depths)},
            "max_coefficient_bits": max(
                (coefficient_bits((five, triple)) for _, five, triple in infos), default=0
            ),
        }


def _regular_unit(rng: random.Random):
    """A det-1 golden matrix with a Cayley transform, and its N=1 constant;
    words whose Cayley transform is singular are redrawn."""
    while True:
        m = word_matrix(random_word(rng, DET_ONE))
        try:
            return m, metaplectic.genmu_overlap_sq(m)
        except (SingularCayley, DegenerateBlock):
            continue


def _product_law_holds(rng: random.Random) -> bool:
    """The N=2 constant of diag(m1, m2) equals the product of the N=1 constants
    (to float rounding: each constant is a float of an exact determinant)."""
    m1, c1 = _regular_unit(rng)
    m2, c2 = _regular_unit(rng)
    joint = metaplectic.genmu_overlap_sq(block_diagonal(m1, m2))
    return math.isclose(joint, c1 * c2, rel_tol=PRODUCT_REL_TOL)


WORKLOADS = {w.name: w for w in (Reproduce(), OraclePairs(), GoldenFamilies())}
