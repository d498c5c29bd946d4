"""First-principles quadrature oracle against the closed-form overlap law."""

import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mubc import oracle, symplectic
from mubc import (
    ChirpState,
    ContextMismatch,
    DirectionVector,
    InvalidDirection,
    InvalidProblem,
    LimitExceeded,
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

    def test_identity_is_direction_alpha_and_hbar(self):
        # the floats derived from the direction stay out of ==, hash and repr
        a = ChirpState(DirectionVector(1.0, 0.5), alpha=0.3, hbar=2.0)
        b = ChirpState(DirectionVector(1.0, 0.5), alpha=0.3, hbar=2.0)
        assert a == b and hash(a) == hash(b) == hash((a.direction, 0.3, 2.0))
        assert repr(a) == "ChirpState(direction=DirectionVector(q=1.0, p=0.5), alpha=0.3, hbar=2.0)"
        assert a != ChirpState(DirectionVector(1.0, 0.5), alpha=0.3)
        # an exact direction is read through its floats
        exact = ChirpState(DirectionVector(1, Fraction(1, 3)), alpha=0.3, hbar=2.0)
        assert exact.quad_rate == (1 / 3) / 4.0 and exact.linear_rate == -0.3 / 2.0


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
        # the default ladder settles at 5 levels, one step; 7 give three
        res = overlap_quadrature(
            ChirpState(DirectionVector(1.0, 1.0)),
            ChirpState(DirectionVector(1.0, -1.0)),
            epsilons=default_epsilons(1.0, 7),
        )
        assert res.converged
        assert len(res.extrapolants) == 4
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

    @pytest.mark.parametrize("bad", (0.0, -0.003125, math.inf, math.nan))
    def test_custom_epsilons_must_be_positive_and_finite(self, bad):
        with pytest.raises(InvalidProblem):
            overlap_quadrature(
                ChirpState(DirectionVector(1.0, 1.0)),
                ChirpState(DirectionVector(1.0, -1.0)),
                epsilons=[0.05, 0.025, 0.0125, 0.00625, bad],
            )

    def test_custom_epsilons_must_be_distinct(self):
        # a repeated level would put two equal abscissae in one Neville window
        with pytest.raises(InvalidProblem, match="distinct"):
            overlap_quadrature(
                ChirpState(DirectionVector(1.0, 1.0)),
                ChirpState(DirectionVector(1.0, -1.0)),
                epsilons=[0.1, 0.1, 0.05, 0.025, 0.0125],
            )

    @pytest.mark.parametrize(
        "p, eps",
        [
            # eps / |du| overflows
            (1e-300, 1e10),
            # eps / |du| is finite but the unit window's s-range T^2 |du| / eps is not
            (1e300, 1e-10),
            # eps / |du| underflows to 0
            (1e10, 5e-324),
        ],
    )
    def test_custom_epsilons_past_the_float_range_relative_to_the_gap(self, p, eps):
        # the pair (1, p), (1, -p) has chirp-rate gap p
        with pytest.raises(LimitExceeded, match="float range"):
            overlap_quadrature(
                ChirpState(DirectionVector(1.0, p)),
                ChirpState(DirectionVector(1.0, -p)),
                epsilons=[eps * 2.0**m for m in range(5)],
            )

    @pytest.mark.parametrize("p", (5e-324, -5e-324, 1e-320))
    def test_underflowing_chirp_rate_gap_is_a_limit(self, p):
        # symplectic product 2 p, not parallel; the chirp rates p / 2 round
        # to 0 at +-5e-324 and the gap is subnormal at 1e-320
        a, b = ChirpState(DirectionVector(1.0, p)), ChirpState(DirectionVector(1.0, -p))
        for route in (overlap_quadrature, fresnel_reference):
            with pytest.raises(LimitExceeded, match="chirp-rate gap underflows"):
                route(a, b)

    def test_adaptive_ladder_deepens_until_converged(self):
        # the default ladder no longer deepens: the gap ten times slower
        # than (1, +-0.02), which ran all 13 levels of the former ladder
        # with a floor unconverged, settles in the 5 levels every pair takes
        slow = overlap_quadrature(
            ChirpState(DirectionVector(1.0, 0.002)), ChirpState(DirectionVector(1.0, -0.002))
        )
        assert slow.converged and slow.stats["levels"] == 5
        assert slow.stats["stop"] == "converged"
        assert slow.stats["panels"] == 4779
        assert abs(slow.value - 1.0 / (2 * math.pi * 0.004)) <= 1e-12 * slow.value

    def test_panel_cap_marks_level_unresolved(self, monkeypatch):
        # the clamped fine rule equals the coarse one, so a zero local error
        # would hide a value that is far off (true value 0.1098); an
        # explicit ladder, integrated under the lowered cap
        monkeypatch.setattr(oracle, "_MAX_PANELS", 300)
        a = ChirpState(DirectionVector(1.0, 1.5))
        b = ChirpState(DirectionVector(0.7, -0.4))
        ladder = default_epsilons(a.quad_rate - b.quad_rate)
        res = overlap_quadrature(a, b, epsilons=ladder)
        assert res.converged is False
        assert not math.isfinite(res.error_estimate) or res.error_estimate > 1.0
        assert res.stats["capped_levels"] >= 1
        assert res.stats["stop"] == "capped"
        assert math.inf in res.local_errors
        # a capped level is not integrated, and a ladder holding one has no value
        capped = res.stats["capped_levels"]
        raws = [raw for _, raw in res.epsilon_sequence]
        assert all(math.isnan(raw) for raw in raws[-capped:])
        assert res.local_errors[-capped:] == (math.inf,) * capped
        assert math.isnan(res.value) and res.error_estimate == math.inf
        # the levels below the cap are integrated as they are without it
        monkeypatch.undo()
        full = overlap_quadrature(a, b, epsilons=ladder)
        assert raws[:-capped] == [raw for _, raw in full.epsilon_sequence][:-capped]
        assert res.local_errors[:-capped] == full.local_errors[:-capped]

    def test_stats_count_work(self, no_default_ladder):
        res = overlap_quadrature(
            ChirpState(DirectionVector(1.0, 1.0)), ChirpState(DirectionVector(1.0, -1.0))
        )
        stats = res.stats
        assert stats["levels"] == len(res.epsilon_sequence) == 5
        assert stats["capped_levels"] == 0
        assert stats["reused_levels"] == 0
        assert stats["wall_s"] > 0
        du = 1.0  # chirp rates 0.5 and -0.5
        counts = [
            oracle._panel_count(du, eps, scale)[0]
            for eps, _ in res.epsilon_sequence
            for scale in (1, 2)
        ]
        assert counts == [52, 104, 103, 206, 206, 412, 411, 822, 821, 1642]
        assert stats["panels"] == sum(counts) == 4779
        # per rule: panel 0, the node factors and one per panel 1..count-1
        exponentials = sum(count - 1 + 2 * len(oracle._NODES) for count in counts)
        assert stats["complex_exponentials"] == exponentials == 5089

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
        assert len(eps) == oracle._ORDER + 2 == 5
        assert eps[0] == pytest.approx(0.1)
        for a, b in zip(eps, eps[1:]):
            assert b == pytest.approx(a / 2)
        # damping scale tracks the chirp-rate gap, on both sides of 1
        assert default_epsilons(5.0)[0] == pytest.approx(0.5)
        assert default_epsilons(-0.004)[0] == pytest.approx(0.0004)
        assert default_epsilons(0.004, 12)[-1] == pytest.approx(0.0004 * 2.0**-11)

    @pytest.mark.parametrize("du", (0.0, -0.0, math.inf, -math.inf, math.nan))
    def test_default_epsilons_need_a_finite_gap(self, du):
        with pytest.raises(InvalidProblem):
            default_epsilons(du)

    @pytest.mark.parametrize("k", range(-1000, 1024, 41))
    def test_default_levels_fit_under_the_panel_cap(self, k):
        # panel counts do not depend on du, so no level of a 12-level
        # ladder is capped by construction; a 13th would be
        du = 2.0**k
        for eps in default_epsilons(du, 12):
            assert oracle._panel_count(du, eps, 2) == oracle._panel_count(1.0, eps / du, 2)
            assert not oracle._panel_count(du, eps, 2)[1]
        past = default_epsilons(du, 13)[-1]
        assert oracle._panel_count(du, past, 2) == (oracle._MAX_PANELS, True)


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


# one (du, panels_scale) per level of a 13-level default ladder: both
# signs, 10^-2.5 <= |du| <= 10, and counts past one 65536-panel block at
# levels 9-12. A level's counts do not depend on du, and level 9's rule has
# only 26,269 panels per unit of panels_scale, so levels 9 and 10 take
# panels_scale 4; the kernel integrates any count.
_PARITY_DU = (10**-2.5, -0.05, 0.4, -1.0, 3.0, -10.0)


@pytest.mark.parametrize("level", range(13))
def test_s_space_panels_match_t_space(level):
    du = _PARITY_DU[level % len(_PARITY_DU)]
    eps = default_epsilons(du, 13)[level]
    scale = 4 if level in (9, 10) else 1 + level % 2
    count = oracle._panel_count(du, eps, scale)[0]
    if level >= 9:
        assert count > 65536
    want = _t_space_panel_integral(du, eps, count)
    got = oracle._damped_integral(du, eps, count, Counter())
    assert abs(got - want) <= 1e-11 * abs(want)


# count - 1 panels in s: one block, one block and one panel, several
# blocks with a partial last one, the largest rule, and counts on either
# side of 256 and 65536 panels
@pytest.mark.parametrize(
    "count",
    (
        4, 200, 257, 513, 700,
        oracle._BLOCK, oracle._BLOCK + 1, oracle._BLOCK + 2,
        65537, 65538, 65536 + 513, 65536 + 700, oracle._MAX_PANELS,
    ),
)
def test_stride_padding_matches_t_space(count):
    # du for one phase cycle per panel, as _panel_count lays them out
    eps = 0.01
    du = -count * oracle._PANEL_PHASE * eps / oracle._TRUNCATION**2
    want = _t_space_panel_integral(du, eps, count)
    got = oracle._damped_integral(du, eps, count, Counter())
    assert abs(got - want) <= 1e-11 * abs(want)


@pytest.fixture
def no_default_ladder(monkeypatch):
    # no default ladder built yet
    monkeypatch.setattr(oracle, "_DEFAULT_LADDER", None)


# literals, each pair on the explicit ladder
# default_epsilons(du), integrated in one pass: the slow pair that
# deepened to 11 levels under the ladder with a floor now settles in the 5
# levels every pair takes, and a pair whose levels 2-4 hit a panel cap of
# 300 and so are not integrated: only levels 0 and 1 run, 104 + 52 and
# 206 + 103 panels; grid overrides the oracle's grid constants. The
# exponentials follow test_stats_count_work's formula, count + 31 per rule
@pytest.mark.parametrize(
    "pair, grid, stats",
    [
        (((1.0, 0.02), (1.0, -0.02)), {}, (5, 4779, 0, 5089)),
        (((1.0, 1.5), (0.7, -0.4)), {"_MAX_PANELS": 300}, (5, 465, 0, 589)),
    ],
)
def test_ladder_work_is_pinned(monkeypatch, no_default_ladder, pair, grid, stats):
    for name, value in grid.items():
        monkeypatch.setattr(oracle, name, value)
    a, b = (ChirpState(DirectionVector(*d)) for d in pair)
    keys = ("levels", "panels", "reused_levels", "complex_exponentials")
    ladder = default_epsilons(a.quad_rate - b.quad_rate)
    first, again = (overlap_quadrature(a, b, epsilons=ladder) for _ in range(2))
    assert tuple(first.stats[k] for k in keys) == stats
    # an explicit ladder is integrated by every call and never kept
    assert tuple(again.stats[k] for k in keys) == stats
    assert oracle._DEFAULT_LADDER is None


def test_repeat_pair_reuses_the_table(no_default_ladder):
    a, b = ChirpState(DirectionVector(1.0, 1.0)), ChirpState(DirectionVector(1.0, -1.0))
    first = overlap_quadrature(a, b)
    second = overlap_quadrature(a, b)
    assert first.stats["complex_exponentials"] == 5089
    # the first default call builds the unit ladder, the second rescales it
    assert first.stats["reused_levels"] == 0
    assert second.stats["complex_exponentials"] == 0
    assert second.stats["reused_levels"] == 5
    assert second.stats["panels"] == first.stats["panels"] == 4779
    assert second.value == first.value
    assert second.epsilon_sequence == first.epsilon_sequence


def test_second_default_pair_only_rescales(monkeypatch, no_default_ladder):
    first = overlap_quadrature(ChirpState(DirectionVector(1.0, 1.0)), ChirpState(DirectionVector(1.0, -1.0)))
    integrate = oracle._damped_integral
    calls = []

    def counted(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(oracle, "_damped_integral", counted)
    a, b = ChirpState(DirectionVector(0.7, -0.4), hbar=2.0), ChirpState(DirectionVector(1.0, 1.5), hbar=2.0)
    second = overlap_quadrature(a, b)
    assert calls == []
    stats = second.stats
    assert stats["complex_exponentials"] == 0
    assert (stats["reused_levels"], stats["panels"], stats["levels"]) == (5, 4779, 5)
    assert (stats["stop"], stats["capped_levels"]) == ("converged", 0)
    assert list(stats) == list(first.stats)
    want = 1.0 / (2 * math.pi * 2.0 * abs(-0.4 * 1.0 - 0.7 * 1.5))
    assert second.converged and abs(second.value - want) <= min(1e-12 * want, second.error_estimate)
    # an explicit ladder, even the default one spelled out, integrates
    # both rules of every level in one pass
    explicit = overlap_quadrature(a, b, epsilons=default_epsilons(a.quad_rate - b.quad_rate))
    assert len(calls) == 10 and explicit.stats["reused_levels"] == 0
    assert explicit.converged and abs(explicit.value - want) <= min(1e-12 * want, explicit.error_estimate)


def _check_unit_frame(du, shift):
    """The pair (1, du), (1, -du), chirp-rate gap du, on the default
    ladder: each |I(eps)|^2 it reports, the unit ladder's rescaled, is
    prefactor^2 |I|^2 for the fine rule integrated at du itself. The pair
    at gap -du 2^shift then rescales every level too."""
    a, b = ChirpState(DirectionVector(1.0, du)), ChirpState(DirectionVector(1.0, -du))
    res = overlap_quadrature(a, b)
    assert res.converged and res.stats["levels"] == 5
    prefactor = a.amplitude * b.amplitude
    for eps, raw in res.epsilon_sequence:
        fine = oracle._panel_count(1.0, eps / abs(du), 2)[0]
        integral = oracle._damped_integral(du, eps, fine, Counter())
        want = prefactor**2 * abs(integral) ** 2
        assert abs(raw - want) <= 1e-13 * want
    p = -math.ldexp(du, shift)
    again = overlap_quadrature(ChirpState(DirectionVector(1.0, p)), ChirpState(DirectionVector(1.0, -p)))
    want = 1.0 / (2 * math.pi * 2 * abs(p))
    assert again.stats["reused_levels"] == 5 and again.stats["complex_exponentials"] == 0
    assert again.converged and again.stats["panels"] == 4779
    assert abs(again.value - want) <= min(1e-12 * want, again.error_estimate)


@pytest.mark.parametrize("sign", (1.0, -1.0))
@pytest.mark.parametrize("k", range(-60, 61, 6))
def test_unit_frame_matches_quadrature_at_the_gap(sign, k):
    _check_unit_frame(sign * 2.0**k, 7)


@given(
    st.floats(1.0, 2.0, exclude_max=True),
    st.integers(-60, 60),
    st.sampled_from((1.0, -1.0)),
    st.integers(-20, 20).filter(bool),
)
@settings(max_examples=20, deadline=None)
def test_unit_frame_matches_quadrature_at_drawn_gaps(mantissa, k, sign, shift):
    _check_unit_frame(sign * math.ldexp(mantissa, k), shift)


def _erf_integrals(du, eps):
    """The truncated integral sqrt(pi) erf(sqrt(-a) L) / sqrt(-a), with
    a = i du - eps and L = truncation / sqrt(eps), and the untruncated one,
    which drops the erf, to 40 digits."""
    with mpmath.workdps(40):
        root = mpmath.sqrt(-mpmath.mpc(-eps, du))
        length = mpmath.mpf(oracle._TRUNCATION) / mpmath.sqrt(eps)
        return mpmath.sqrt(mpmath.pi) * mpmath.erf(root * length) / root, mpmath.sqrt(mpmath.pi) / root


@pytest.mark.parametrize("du", (10**-2.5, -0.05, 0.4, -1.0, 3.0, -10.0))
def test_panels_match_erf_reference(du):
    tail_bound = oracle._TAIL_MARGIN * oracle._LOCAL_REL_TOL
    with mpmath.workdps(40):
        for eps in default_epsilons(du, 13):
            want, full = _erf_integrals(du, eps)
            assert abs(abs(want) ** 2 - abs(full) ** 2) <= tail_bound * abs(full) ** 2
            for scale in (1, 2):
                count = oracle._panel_count(du, eps, scale)[0]
                got = oracle._damped_integral(du, eps, count, Counter())
                assert abs(got - want) <= 1e-12 * abs(want)


# fine rules of the 13-level ladder whose phase du h k reaches 2.5e6; a
# fine rule turns by about pi per panel, so rounding that phase errs in a
# pattern that adds up over the panels: 1.5e-12 to 4.1e-12 off here when
# a (h k) is rounded, 3.1e-14 to 3.8e-13 when (a h) k is. Reduced mod
# 2 pi from an exact product, about 5e-15.
@pytest.mark.parametrize("du, level", ((10**-2.5, 12), (-0.05, 11), (3.0, 12)))
def test_fine_rule_phase_rounding_does_not_add_up(du, level):
    eps = default_epsilons(du, 13)[level]
    count = oracle._panel_count(du, eps, 2)[0]
    want, _ = _erf_integrals(du, eps)
    got = oracle._damped_integral(du, eps, count, Counter())
    assert abs(got - want) <= 2e-14 * abs(want)


@pytest.mark.parametrize("k", range(-1000, 1001, 50))
def test_ladder_is_scale_covariant(k):
    # the damped integral at (du, eps) is the one at (1, eps / |du|), and
    # the ladder's eps are proportional to |du|: every scale takes the same
    # levels and panels
    p = 2.0**k
    res = overlap_quadrature(ChirpState(DirectionVector(1.0, p)), ChirpState(DirectionVector(1.0, -p)))
    want = 1.0 / (2 * math.pi * 2 * p)
    assert res.converged and res.stats["levels"] == 5
    assert res.stats["panels"] == 4779
    assert abs(res.value - want) <= min(1e-12 * want, res.error_estimate)


@given(
    st.floats(1.0, 2.0, exclude_max=True),
    st.floats(1.0, 2.0, exclude_max=True),
    st.floats(1.0, 2.0, exclude_max=True),
    st.integers(-1000, 1000),
)
@settings(max_examples=40, deadline=None)
def test_ladder_is_scale_covariant_at_drawn_mantissas(qa, pa, pb, k):
    pa, pb = math.ldexp(pa, k), math.ldexp(pb, k)
    res = overlap_quadrature(
        ChirpState(DirectionVector(qa, pa)), ChirpState(DirectionVector(1.0, -pb))
    )
    want = 1.0 / (2 * math.pi * (pa + qa * pb))
    assert res.converged and res.stats["levels"] == 5
    assert res.stats["panels"] == 4779
    assert abs(res.value - want) <= min(1e-12 * want, res.error_estimate)


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
