"""First-principles quadrature oracle against the closed-form overlap law."""

import math
from collections import Counter

import mpmath
import numpy as np
import pytest

from mubc import oracle, symplectic
from mubc import (
    ChirpState,
    ContextMismatch,
    DirectionVector,
    InvalidDirection,
    ParallelDirections,
    ProductVector,
    chirp_eval,
    default_epsilons,
    direction_for_angle,
    fresnel_reference,
    overlap_magnitude_sq,
    overlap_quadrature,
    pairwise_unbiased_scan,
)


def random_chirp(rng, hbar=1.0, min_q=0.25):
    # |Q| bounded away from 0 keeps the pair on the generic chirp branch
    while True:
        q = float(rng.uniform(-2.0, 2.0))
        p = float(rng.uniform(-2.0, 2.0))
        if abs(q) >= min_q and abs(p) >= 1e-3:
            return ChirpState(DirectionVector(q, p), alpha=float(rng.uniform(-1, 1)), hbar=hbar)


def nonparallel_pair(rng, hbar=1.0, min_sp=0.05):
    while True:
        a = random_chirp(rng, hbar)
        b = random_chirp(rng, hbar)
        sp = a.direction.p * b.direction.q - a.direction.q * b.direction.p
        if abs(sp) >= min_sp:
            return a, b


class TestChirpEval:
    def test_flat_magnitude(self):
        state = ChirpState(DirectionVector(0.7, -1.3), alpha=0.4)
        want = 1.0 / (2 * math.pi * abs(0.7))
        for x in np.linspace(-40.0, 40.0, 1000):
            val = chirp_eval(state, float(x))
            assert abs(abs(val) ** 2 - want) <= 1e-15 * want

    def test_flat_magnitude_random_states(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            state = random_chirp(rng, hbar=float(rng.choice([0.5, 1.0, 2.0])))
            want = 1.0 / (2 * math.pi * state.hbar * abs(state.direction.q))
            xs = rng.uniform(-10, 10, size=50)
            for x in xs:
                assert abs(abs(chirp_eval(state, float(x))) ** 2 - want) <= 1e-13 * want

    def test_unit_phase_at_alpha_over_p(self):
        state = ChirpState(DirectionVector(1.5, 2.0), alpha=3.0)
        val = chirp_eval(state, 3.0 / 2.0)
        # exponent vanishes: value is the real positive prefactor
        assert val.imag == 0.0
        assert val.real > 0
        assert abs(val.real - math.sqrt(1.0 / (2 * math.pi * 1.5))) <= 1e-15

    def test_p_scaling_leaves_modulus(self):
        base = ChirpState(DirectionVector(1.2, 0.8), alpha=0.3)
        scaled = ChirpState(DirectionVector(1.2, 0.8 * 7.0), alpha=0.3)
        for x in (0.0, 1.1, -2.3):
            assert abs(chirp_eval(base, x)) == pytest.approx(
                abs(chirp_eval(scaled, x)), rel=1e-14
            )

    def test_branch_labels(self):
        assert ChirpState(DirectionVector(1.0, 1.0)).branch == "chirp"
        assert ChirpState(DirectionVector(0.0, 1.0)).branch == "delta"
        assert ChirpState(DirectionVector(1.0, 0.0)).branch == "plane"

    def test_degenerate_direction(self):
        with pytest.raises(InvalidDirection):
            ChirpState(DirectionVector(0.0, 0.0))


class TestQuadrature:
    def test_reference_pair(self):
        res = overlap_quadrature(
            ChirpState(DirectionVector(1.0, 1.0)), ChirpState(DirectionVector(1.0, -1.0))
        )
        want = 1.0 / (4 * math.pi)
        assert res.converged
        assert abs(res.value - want) <= 1e-6 * want

    def test_parallel_directions(self):
        with pytest.raises(ParallelDirections):
            overlap_quadrature(
                ChirpState(DirectionVector(1.0, 1.0), alpha=0.0),
                ChirpState(DirectionVector(1.0, 1.0), alpha=1.0),
            )
        with pytest.raises(ParallelDirections):
            overlap_quadrature(
                ChirpState(DirectionVector(1.0, 1.0)),
                ChirpState(DirectionVector(-2.0, -2.0)),
            )

    def test_rotation_against_position(self):
        # the partner with Q=0 reduces to pointwise evaluation
        for theta in (math.pi / 6, math.pi / 4, math.pi / 3, 2 * math.pi / 3):
            res = overlap_quadrature(
                ChirpState(direction_for_angle(theta)),
                ChirpState(DirectionVector(0.0, 1.0)),
            )
            want = 1.0 / (2 * math.pi * abs(math.sin(theta)))
            assert res.converged
            assert abs(res.value - want) <= 1e-5 * want

    def test_eigenvalue_offsets_do_not_shift_magnitude(self):
        base = overlap_quadrature(
            ChirpState(DirectionVector(1.0, 1.0)), ChirpState(DirectionVector(1.0, -1.0))
        )
        offset = overlap_quadrature(
            ChirpState(DirectionVector(1.0, 1.0), alpha=0.7),
            ChirpState(DirectionVector(1.0, -1.0), alpha=-0.4),
        )
        assert offset.value == pytest.approx(base.value, rel=1e-9)

    def test_hbar_mismatch(self):
        with pytest.raises(ContextMismatch):
            overlap_quadrature(
                ChirpState(DirectionVector(1.0, 1.0), hbar=1.0),
                ChirpState(DirectionVector(1.0, -1.0), hbar=2.0),
            )

    def test_error_estimate_bounds_last_step(self):
        res = overlap_quadrature(
            ChirpState(DirectionVector(1.0, 1.0)), ChirpState(DirectionVector(1.0, -1.0))
        )
        assert res.error_estimate >= abs(res.value - res.extrapolants[-1])
        assert res.error_estimate >= 0

    def test_extrapolant_differences_shrink(self):
        res = overlap_quadrature(
            ChirpState(DirectionVector(1.0, 1.0)), ChirpState(DirectionVector(1.0, -1.0))
        )
        assert res.converged
        diffs = [
            abs(res.extrapolants[i + 1] - res.extrapolants[i])
            for i in range(len(res.extrapolants) - 1)
        ]
        assert diffs[-1] < diffs[0]
        assert diffs[-1] <= 1e-9 * abs(res.value)

    def test_raw_sequence_approaches_limit(self):
        res = overlap_quadrature(
            ChirpState(DirectionVector(1.0, 1.0)), ChirpState(DirectionVector(1.0, -1.0))
        )
        gaps = [abs(raw - res.value) for _, raw in res.epsilon_sequence]
        assert gaps[-1] < gaps[0]

    def test_custom_epsilons(self):
        eps = [0.05, 0.025, 0.0125, 0.00625, 0.003125]
        res = overlap_quadrature(
            ChirpState(DirectionVector(1.0, 1.0)),
            ChirpState(DirectionVector(1.0, -1.0)),
            epsilons=eps,
        )
        want = 1.0 / (4 * math.pi)
        assert abs(res.value - want) <= 1e-5 * want
        assert len(res.epsilon_sequence) == len(eps)
        assert res.stats["stop"] == "converged"

    def test_adaptive_ladder_deepens_until_converged(self):
        a, b = ChirpState(DirectionVector(1.0, 0.02)), ChirpState(DirectionVector(1.0, -0.02))
        du = a.quad_rate - b.quad_rate
        given = overlap_quadrature(a, b, epsilons=default_epsilons(du))
        assert not given.converged and given.stats["stop"] == "ladder-end"
        res = overlap_quadrature(a, b)
        levels = res.stats["levels"]
        assert res.converged and 9 < levels <= 13
        assert res.stats["stop"] == "converged"
        assert tuple(e for e, _ in res.epsilon_sequence) == default_epsilons(du, levels)
        shallower = overlap_quadrature(a, b, epsilons=default_epsilons(du, levels - 1))
        assert not shallower.converged
        # levels already evaluated are reused, not recomputed
        one_pass = overlap_quadrature(a, b, epsilons=default_epsilons(du, levels))
        assert res.stats["panels"] == one_pass.stats["panels"]
        assert abs(res.value - 1.0 / (2 * math.pi * 0.04)) <= 1e-6 * res.value
        # a gap ten times slower runs all 13 default levels unconverged
        slow = overlap_quadrature(
            ChirpState(DirectionVector(1.0, 0.002)), ChirpState(DirectionVector(1.0, -0.002))
        )
        assert not slow.converged and slow.stats["levels"] == 13
        assert slow.stats["stop"] == "ladder-end"

    def test_panel_cap_marks_level_unresolved(self, monkeypatch):
        # the clamped fine rule equals the coarse one, so a zero local error
        # would hide a value that is far off (true value 0.1098)
        monkeypatch.setattr(oracle, "_MAX_PANELS", 300)
        a = ChirpState(DirectionVector(1.0, 1.5))
        b = ChirpState(DirectionVector(0.7, -0.4))
        res = overlap_quadrature(a, b)
        assert res.converged is False
        assert not math.isfinite(res.error_estimate) or res.error_estimate > 1.0
        assert res.stats["capped_levels"] >= 1
        assert res.stats["stop"] == "capped"
        assert math.inf in res.local_errors

    def test_stats_count_work(self):
        res = overlap_quadrature(
            ChirpState(DirectionVector(1.0, 1.0)), ChirpState(DirectionVector(1.0, -1.0))
        )
        stats = res.stats
        assert stats["levels"] == len(res.epsilon_sequence) == 9
        assert stats["capped_levels"] == 0
        assert stats["wall_s"] > 0
        du = 1.0  # chirp rates 0.5 and -0.5
        counts = [
            oracle._panel_count(du, eps, scale)[0]
            for eps, _ in res.epsilon_sequence
            for scale in (1, 2)
        ]
        assert stats["panels"] == sum(counts)
        # per rule: panel 0 and the node factors; the stride table's two
        # factors, min(16, S) and ceil(S / 16) entries for S = min(256,
        # count - 1); one head per started row of 256 panels 1..count-1
        def exponentials(count):
            stride = min(oracle._EXP_STRIDE, count - 1)
            split = min(oracle._EXP_SPLIT, stride) + -(-stride // oracle._EXP_SPLIT)
            return 2 * len(oracle._NODES) + split + -(-(count - 1) // oracle._EXP_STRIDE)

        assert stats["complex_exponentials"] == sum(exponentials(c) for c in counts)

    def test_never_consults_the_closed_form(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must stay independent of the closed form")

        monkeypatch.setattr(symplectic, "symp2", forbidden)
        monkeypatch.setattr(symplectic, "symp_product", forbidden)
        monkeypatch.setattr(oracle, "fresnel_reference", forbidden)
        res = overlap_quadrature(
            ChirpState(DirectionVector(1.2, 0.8), alpha=0.3),
            ChirpState(DirectionVector(-0.5, 1.1)),
        )
        assert res.converged
        assert res.value == pytest.approx(1.0 / (2 * math.pi * abs(0.8 * -0.5 - 1.2 * 1.1)), rel=1e-6)

    def test_default_epsilons_shape(self):
        eps = default_epsilons(1.0)
        assert len(eps) == 9
        assert eps[0] == pytest.approx(0.1)
        for a, b in zip(eps, eps[1:]):
            assert b == pytest.approx(a / 2)
        # damping scale tracks the chirp-rate gap
        wide = default_epsilons(5.0)
        assert wide[0] == pytest.approx(0.5)


def _t_space_panel_integral(du, eps, count):
    """Reference: Gauss-Legendre on the equal-phase panels in t, 65536 panels
    per chunk, as the oracle integrated before it moved to s = t^2."""
    length = oracle._TRUNCATION / math.sqrt(eps)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    total = 0.0 + 0.0j
    chunk = 65536
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        k = np.arange(start, stop + 1, dtype=float)
        breaks = length * np.sqrt(k / count)
        mids = 0.5 * (breaks[1:] + breaks[:-1])
        halves = 0.5 * (breaks[1:] - breaks[:-1])
        points = mids[:, None] + halves[:, None] * nodes[None, :]
        scale = halves[:, None] * weights[None, :]
        total += complex(np.sum(np.exp((1j * du - eps) * points * points) * scale))
    return 2.0 * total


# one (du, panels_scale) per level of the 13-level ladder: both signs,
# 10^-2.5 <= |du| <= 10, and counts past one 65536-panel block at levels
# 9-11. The rules levels 9 and 10 draw here have 52538 panels, so those
# two take panels_scale 4; the kernel integrates any count.
_PARITY_DU = (10**-2.5, -0.05, 0.4, -1.0, 3.0, -10.0)


@pytest.mark.parametrize("level", range(13))
def test_s_space_panels_match_t_space(level):
    du = _PARITY_DU[level % len(_PARITY_DU)]
    eps = default_epsilons(du, 13)[level]
    scale = 4 if level in (9, 10) else 1 + level % 2
    count = oracle._panel_count(du, eps, scale)[0]
    if level in (9, 10, 11):
        assert count > 65536
    want = _t_space_panel_integral(du, eps, count)
    (got,) = oracle._damped_integrals(du, [(eps, count)], Counter())
    assert abs(got - want) <= 1e-11 * abs(want)


# count - 1 panels in s: below one stride, whole strides, a partial last
# stride, and the same after a full 65536-panel block
@pytest.mark.parametrize("count", (4, 200, 257, 513, 700, 65537, 65538, 65536 + 513, 65536 + 700))
def test_stride_padding_matches_t_space(count):
    # du for one phase cycle per panel, as _panel_count lays them out
    eps = 0.01
    du = -count * oracle._PANEL_PHASE * eps / oracle._TRUNCATION**2
    want = _t_space_panel_integral(du, eps, count)
    (got,) = oracle._damped_integrals(du, [(eps, count)], Counter())
    assert abs(got - want) <= 1e-11 * abs(want)


@pytest.fixture
def empty_inverse_roots(monkeypatch):
    monkeypatch.setattr(oracle, "_INVERSE_ROOTS", oracle._InverseRoots())


def test_mixed_batch_matches_one_rule_batches(monkeypatch, empty_inverse_roots):
    # one du; each rule's eps gives it one phase cycle per panel, so one
    # batch holds a rule below one stride, a partial last stride, exactly
    # one block and one past it
    du = -1.0
    counts = (4, 257, 700, 65537, 65536 + 700)
    rules = [(-du * oracle._TRUNCATION**2 / (c * oracle._PANEL_PHASE), c) for c in counts]
    singles = []
    single_work = Counter()
    for rule in rules:
        singles += oracle._damped_integrals(du, [rule], single_work)
    monkeypatch.setattr(oracle, "_INVERSE_ROOTS", oracle._InverseRoots())
    batch_work = Counter()
    batch = oracle._damped_integrals(du, rules, batch_work)
    assert len(batch) == len(rules)
    for got, single, (eps, count) in zip(batch, singles, rules):
        assert abs(got - single) <= 1e-15 * abs(single)
        want = _t_space_panel_integral(du, eps, count)
        assert abs(got - want) <= 1e-11 * abs(want)
    assert batch_work == single_work
    assert set(batch_work) == {"panels", "complex_exponentials", "inverse_roots"}


# literals on an empty table: a ladder that deepens to 11 levels, and one
# whose levels 3-9 hit a panel cap of 300 and so run only their fine
# rules; grid overrides the oracle's grid constants. Levels and panels are
# those of every kernel before this one; the exponentials follow
# test_stats_count_work's formula, and the table entries are row 0's 4096
# roots plus 1536 powers per further row the widest rule reads (2102 and
# 300 panels: 8 rows and 1 row)
@pytest.mark.parametrize(
    "pair, grid, stats",
    [
        (((1.0, 0.02), (1.0, -0.02)), {}, (11, 6330, 1184, 4096 + 8 * 1536)),
        (((1.0, 1.5), (0.7, -0.4)), {"_MAX_PANELS": 300}, (9, 2565, 689, 4096 + 1536)),
    ],
)
def test_ladder_work_is_pinned(monkeypatch, empty_inverse_roots, pair, grid, stats):
    for name, value in grid.items():
        monkeypatch.setattr(oracle, name, value)
    a, b = (ChirpState(DirectionVector(*d)) for d in pair)
    res = overlap_quadrature(a, b)
    keys = ("levels", "panels", "complex_exponentials", "inverse_roots")
    assert tuple(res.stats[k] for k in keys) == stats


def _exact_inverse_roots(panels):
    """(2k + 1 + x_j)^(-1/2) for each panel k and node x_j, rounded once
    from 40 digits."""
    with mpmath.workdps(40):
        nodes = [mpmath.mpf(x) for x in oracle._NODES]
        return np.array([[float(1 / mpmath.sqrt(2 * k + 1 + x)) for x in nodes] for k in panels])


def _row_roots(powers):
    """(rows, 256, nodes): the six-term sums of table rows, [q, r, j]."""
    return np.einsum("jm,qmr->qrj", oracle._MOMENT_WEIGHTS, powers)


@pytest.mark.parametrize("panel", (257, 258, 65536, 65537))
def test_six_term_table_matches_inverse_roots(empty_inverse_roots, panel):
    # the first two panels past row 0, the table's last panel and the first
    # panel past the table, which is computed and not kept
    row, column = divmod(panel - 1, oracle._EXP_STRIDE)
    powers = oracle._INVERSE_ROOTS.rows(row, row + 1, Counter())
    (got,) = _row_roots(powers)[:, column]
    want = _exact_inverse_roots([panel])[0]
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
    # the first term left out, binomial(-1/2, 6) (x / (2k + 1))^6, relative
    assert 231 / 1024 * (max(abs(oracle._NODES)) / 515) ** 6 < 2.0**-56


def test_inverse_root_rows_match_direct(empty_inverse_roots):
    # row 0 holds the node roots of panels 1..256 and fills whole on first
    # use; rows 1..255 hold powers whose six-term sums are the roots, filled
    # whole and in place up to the last row read; rows past the table are
    # computed and counted per read, never kept
    table = oracle._INVERSE_ROOTS
    stride, row_size = oracle._EXP_STRIDE, oracle._TERMS * oracle._EXP_STRIDE
    work = Counter()
    table.fill(1, work)
    assert table.filled == 1
    assert work["inverse_roots"] == table.roots.size == stride * len(oracle._NODES)
    want = _exact_inverse_roots(range(1, stride + 1))
    assert np.all(np.abs(table.roots - want) <= 4 * np.spacing(want))
    for start, stop in ((1, 2), (1, 20), (5, 19), (10, 256), (256, 258)):
        filled = table.filled
        work = Counter()
        got = _row_roots(table.rows(start, stop, work))
        panels = 1 + np.arange(start * stride, stop * stride)
        want = 1.0 / np.sqrt(np.add.outer(2.0 * panels + 1.0, oracle._NODES))
        assert np.all(np.abs(got.reshape(want.shape) - want) <= 4 * np.spacing(want))
        if start < oracle._TABLE_ROWS:
            assert table.filled == max(filled, stop)
            assert work["inverse_roots"] == (table.filled - filled) * row_size
        else:
            assert table.filled == filled == oracle._TABLE_ROWS
            assert work["inverse_roots"] == (stop - start) * row_size


def test_largest_rule_keeps_one_block(empty_inverse_roots):
    count = oracle._MAX_PANELS
    rows = -(-(count - 1) // oracle._EXP_STRIDE)
    row_size = oracle._TERMS * oracle._EXP_STRIDE
    work = Counter()
    (first,) = oracle._damped_integrals(1.0, [(1e-4, count)], work)
    table = oracle._INVERSE_ROOTS
    assert table.filled == oracle._TABLE_ROWS == table.powers.shape[0] + 1
    assert work["inverse_roots"] == table.roots.size + (rows - 1) * row_size
    work.clear()
    assert oracle._damped_integrals(1.0, [(1e-4, count)], work) == [first]
    assert work["inverse_roots"] == (rows - oracle._TABLE_ROWS) * row_size


def test_repeat_pair_reuses_the_table(empty_inverse_roots):
    a, b = ChirpState(DirectionVector(1.0, 1.0)), ChirpState(DirectionVector(1.0, -1.0))
    first = overlap_quadrature(a, b)
    second = overlap_quadrature(a, b)
    widest = max(oracle._panel_count(1.0, eps, 2)[0] for eps, _ in first.epsilon_sequence)
    rows = -(-(widest - 1) // oracle._EXP_STRIDE)
    assert rows <= oracle._TABLE_ROWS
    table = oracle._INVERSE_ROOTS
    row_size = oracle._TERMS * oracle._EXP_STRIDE
    assert first.stats["inverse_roots"] == table.roots.size + (rows - 1) * row_size
    assert second.stats["inverse_roots"] == 0
    assert second.value == first.value
    assert second.epsilon_sequence == first.epsilon_sequence


@pytest.mark.parametrize("du", (10**-2.5, -0.05, 0.4, -1.0, 3.0, -10.0))
def test_panels_match_erf_reference(du):
    # the truncated integral is sqrt(pi) erf(sqrt(-a) L) / sqrt(-a) with
    # a = i du - eps and L = truncation / sqrt(eps); the untruncated one
    # drops the erf
    tail_bound = oracle._TAIL_MARGIN * oracle._LOCAL_REL_TOL
    with mpmath.workdps(40):
        for eps in default_epsilons(du, 13):
            root = mpmath.sqrt(-mpmath.mpc(-eps, du))
            length = mpmath.mpf(oracle._TRUNCATION) / mpmath.sqrt(eps)
            want = mpmath.sqrt(mpmath.pi) * mpmath.erf(root * length) / root
            full = mpmath.sqrt(mpmath.pi) / root
            assert abs(abs(want) ** 2 - abs(full) ** 2) <= tail_bound * abs(full) ** 2
            for scale in (1, 2):
                count = oracle._panel_count(du, eps, scale)[0]
                (got,) = oracle._damped_integrals(du, [(eps, count)], Counter())
                assert abs(got - want) <= 1e-12 * abs(want)


def test_truncation_follows_the_tolerance():
    assert oracle._TRUNCATION == pytest.approx(5.678, abs=1e-3)
    assert math.exp(-oracle._TRUNCATION**2) == pytest.approx(oracle._TAIL_MARGIN * oracle._LOCAL_REL_TOL)


class TestFresnel:
    def test_matches_formula_random_pairs(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            a, b = nonparallel_pair(rng, hbar=float(rng.choice([0.5, 1.0, 2.0])))
            got = fresnel_reference(a, b)
            want = overlap_magnitude_sq(
                ProductVector.of((a.direction.q, a.direction.p)),
                ProductVector.of((b.direction.q, b.direction.p)),
                hbar=a.hbar,
            )
            assert got == pytest.approx(want, rel=1e-10)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(33)
        converged = 0
        for _ in range(20):
            a, b = nonparallel_pair(rng)
            res = overlap_quadrature(a, b)
            converged += res.converged
            tol = max(res.error_estimate, 1e-10 * abs(res.value))
            assert abs(fresnel_reference(a, b) - res.value) <= 10 * tol
        # non-convergence is a reported outcome, but must stay rare here
        assert converged >= 18

    def test_symmetric(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            a, b = nonparallel_pair(rng)
            assert fresnel_reference(a, b) == pytest.approx(
                fresnel_reference(b, a), rel=1e-14
            )

    def test_parallel_directions(self):
        with pytest.raises(ParallelDirections):
            fresnel_reference(
                ChirpState(DirectionVector(1.0, 1.0)),
                ChirpState(DirectionVector(2.0, 2.0)),
            )


def test_oracle_agreement_seeded_pairs():
    # 50 seeded pairs across three hbar values
    rng = np.random.default_rng(35)
    hbars = [0.5, 1.0, 2.0]
    for i in range(50):
        hbar = hbars[i % 3]
        a, b = nonparallel_pair(rng, hbar=hbar)
        res = overlap_quadrature(a, b)
        want = overlap_magnitude_sq(
            ProductVector.of((a.direction.q, a.direction.p)),
            ProductVector.of((b.direction.q, b.direction.p)),
            hbar=hbar,
        )
        assert res.converged, f"pair {i} failed to converge"
        tol = max(1e-5 * want, res.error_estimate)
        assert abs(res.value - want) <= tol, f"pair {i} off by {abs(res.value-want):.3g}"


def test_hbar_scaling():
    a_dir, b_dir = DirectionVector(1.0, 1.0), DirectionVector(1.0, -1.0)
    values = {}
    for hbar in (0.5, 1.0, 2.0):
        res = overlap_quadrature(
            ChirpState(a_dir, hbar=hbar), ChirpState(b_dir, hbar=hbar)
        )
        formula = overlap_magnitude_sq(
            ProductVector.of((1.0, 1.0)), ProductVector.of((1.0, -1.0)), hbar=hbar
        )
        assert res.value == pytest.approx(formula, rel=1e-6)
        values[hbar] = res.value
    assert values[0.5] == pytest.approx(2 * values[1.0], rel=1e-6)
    assert values[2.0] == pytest.approx(0.5 * values[1.0], rel=1e-6)


class TestScan:
    def test_two_angles(self):
        result = pairwise_unbiased_scan([0.0, math.pi / 2])
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.formula == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)
        assert row.agree
        assert result.all_agree

    def test_threefold_symmetric(self):
        result = pairwise_unbiased_scan([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
        assert len(result.rows) == 3
        want = 1.0 / (math.pi * math.sqrt(3.0))
        for row in result.rows:
            assert row.formula == pytest.approx(want, rel=1e-12)
            assert row.oracle == pytest.approx(want, rel=1e-5)
            assert row.agree
        assert result.all_agree

    def test_pi_sixth_separation(self):
        result = pairwise_unbiased_scan([0.3, 0.3 + math.pi / 6])
        row = result.rows[0]
        assert row.formula == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert row.agree

    def test_hbar(self):
        for hbar in (0.5, 2.0):
            result = pairwise_unbiased_scan([0.0, math.pi / 2], hbar=hbar)
            assert result.rows[0].formula == pytest.approx(
                1.0 / (2 * math.pi * hbar), rel=1e-12
            )
            assert result.rows[0].agree

    def test_coincident_angles_flagged_not_fatal(self):
        result = pairwise_unbiased_scan([0.0, 0.0, math.pi / 2])
        parallel_rows = [row for row in result.rows if row.parallel]
        live_rows = [row for row in result.rows if not row.parallel]
        assert len(parallel_rows) == 1
        assert parallel_rows[0].agree is None
        assert all(row.agree for row in live_rows)
        assert result.all_agree

    def test_angle_multiple_of_pi_apart(self):
        result = pairwise_unbiased_scan([0.2, 0.2 + math.pi])
        assert result.rows[0].parallel

    def test_special_branches_through_scan(self):
        # theta=0 is the delta branch, theta=pi/2 the plane branch
        result = pairwise_unbiased_scan([0.0, math.pi / 2, math.pi / 4])
        for row in result.rows:
            assert row.agree
        branches = {row.oracle_branch for row in result.rows}
        assert "delta-reduction" in branches

    def test_json(self):
        result = pairwise_unbiased_scan([0.0, math.pi / 2])
        blob = result.to_json()
        assert blob["hbar"] == 1.0
        assert len(blob["rows"]) == 1
        assert blob["rows"][0]["agree"] is True
