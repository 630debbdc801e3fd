import math
import random
import struct
import sys
from dataclasses import replace

import pytest
from hypothesis import assume, given, strategies as st

from spotrank.grids import AverageRatingScorer, GridSpec, ImprovedScorer, WilsonScorer, check_grid
from spotrank.scoring import (
    Bound,
    ConfigError,
    EXP,
    InconsistentMaximaError,
    LINEAR,
    LOG10,
    Maxima,
    ScoringConfig,
    SiKind,
    SiTransform,
    VoteTally,
    WholeSiVariant,
    average_rating,
    check_coverage,
    combined_range,
    combined_score,
    effective_maxima,
    poly,
    si_range,
    spotlight_index,
    wilson_interval,
)
from spotrank.simulate import AnswerProfile
from spotrank.state import NegativeCountError, QuestionState

from helpers import spotlight_index_reference, wilson_bisect, wilson_interval_reference

ALL_KINDS = list(SiKind)
ALL_TRANSFORMS = [LINEAR, LOG10, EXP, poly(2.0)]


def consistent_case(u, d, extra_n, extra_u, extra_d, floor):
    """A tally plus maxima that dominate it, as a live question would produce."""
    tally = VoteTally(u, d)
    maxima = effective_maxima(tally.n + extra_n, u + extra_u, d + extra_d, floor)
    return tally, maxima


tallies = st.builds(VoteTally, st.integers(0, 2000), st.integers(0, 2000))

consistent_cases = st.builds(
    consistent_case,
    st.integers(0, 500),
    st.integers(0, 500),
    st.integers(0, 500),
    st.integers(0, 500),
    st.integers(0, 500),
    st.integers(1, 20),
)


# --- wilson interval ---------------------------------------------------------


def test_zero_z_collapses_to_proportion():
    iv = wilson_interval(VoteTally(5, 5), 0)
    assert (iv.lower, iv.upper) == (0.5, 0.5)


def test_no_votes_is_total_uncertainty():
    iv = wilson_interval(VoteTally(0, 0), 2)
    assert (iv.lower, iv.upper) == (0.0, 1.0)


def test_unanimous_lower_closed_form():
    iv = wilson_interval(VoteTally(10, 0), 2)
    assert iv.lower == pytest.approx(10 / 14, abs=1e-12)
    assert iv.upper == 1.0


def test_against_frozen_bisection_value():
    # frozen output of wilson_bisect(1, 3, 1.96)
    iv = wilson_interval(VoteTally(1, 3), 1.96)
    assert iv.lower == pytest.approx(0.045586062644636216, abs=1e-10)
    assert iv.upper == pytest.approx(0.6993639475573634, abs=1e-10)


def test_negative_z_rejected():
    with pytest.raises(ValueError):
        wilson_interval(VoteTally(1, 1), -0.5)


@pytest.mark.parametrize("z", [-1.0, math.nan, math.inf, -math.inf, 2**1024],
                         ids=["-1", "nan", "inf", "-inf", "2**1024"])
def test_z_outside_the_config_rule_is_refused_by_every_scalar_entry_point(z):
    with pytest.raises(ValueError, match="^z must be non-negative$"):
        wilson_interval(VoteTally(3, 1), z)
    with pytest.raises(ValueError, match="^z must be non-negative$"):
        wilson_interval(VoteTally(0, 0), z)
    with pytest.raises(ConfigError) as exc_info:
        ScoringConfig(z=z)
    assert (exc_info.value.field, exc_info.value.reason) == (
        "z", f"must be a non-negative real, got {z}")


_FLOAT_MAX = sys.float_info.max
_REAL_VALUES = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0.0": -0.0, "5e-324": 5e-324,
    "1.0": 1.0, "float_max": _FLOAT_MAX, "True": True, "-1": -1, "2**1024": 2**1024,
    "10**400": 10**400, "-10**400": -(10**400), "10**5000": 10**5000, "-10**5000": -(10**5000),
}
# past str's 4300-digit limit a message names the integer by its size
_SPELLED = {10**5000: "an integer of 16610 bits", -(10**5000): "a negative integer of 16610 bits"}


def _spelled(value) -> str:
    return _SPELLED[value] if value in _SPELLED else f"{value}"
# the values among _REAL_VALUES each rule accepts; it refuses every other one
_NON_NEGATIVE = (-0.0, 5e-324, 1.0, _FLOAT_MAX, True)
_UNIT = (-0.0, 5e-324, 1.0, True)
_POSITIVE = (5e-324, 1.0, _FLOAT_MAX, True)


# check -> (call, accepted values, the error it refuses a value with)
_REAL_PARAMETER_CHECKS = {
    "wilson_interval-z": (lambda v: wilson_interval(VoteTally(3, 1), v), _NON_NEGATIVE,
                          lambda v: (ValueError, "z must be non-negative")),
    "WilsonScorer-z": (WilsonScorer, _NON_NEGATIVE,
                       lambda v: (ValueError, "z must be non-negative")),
    "ScoringConfig-z": (lambda v: ScoringConfig(z=v), _NON_NEGATIVE,
                        lambda v: (ConfigError, ("z", f"must be a non-negative real, got {_spelled(v)}"))),
    "ScoringConfig-p_weight": (
        lambda v: ScoringConfig(p_weight=v), _UNIT,
        lambda v: (ConfigError, ("p_weight", f"must be in [0, 1], got {_spelled(v)}"))),
    "ScoringConfig-exponent": (
        lambda v: ScoringConfig(si_transform=poly(v)), _POSITIVE,
        lambda v: (ConfigError, ("si_transform.exponent",
                                 f"poly transform needs a positive exponent, got {_spelled(v)}"))),
    "AnswerProfile-up_probability": (
        lambda v: AnswerProfile("a", v, 1.0), _UNIT,
        lambda v: (ValueError, f"up_probability must be in [0, 1], got {_spelled(v)}")),
    "AnswerProfile-arrival_weight": (
        lambda v: AnswerProfile("a", 0.5, v), _POSITIVE,
        lambda v: (ValueError, f"arrival_weight must be positive and finite, got {_spelled(v)}")),
}


@pytest.mark.parametrize("value", list(_REAL_VALUES.values()), ids=list(_REAL_VALUES))
@pytest.mark.parametrize("check", list(_REAL_PARAMETER_CHECKS))
def test_each_real_parameter_is_accepted_or_refused_with_its_own_error(check, value):
    """z, P, the poly exponent and a profile's probability and weight each
    have one exact rule; an int past float range is refused by it, never
    converted (OverflowError is not a ValueError), and one past str's digit
    limit is quoted by its size."""
    call, accepted, error = _REAL_PARAMETER_CHECKS[check]
    if value in accepted:
        call(value)
        return
    expected_type, expected = error(value)
    with pytest.raises(ValueError) as exc_info:
        call(value)
    assert type(exc_info.value) is expected_type
    if expected_type is ConfigError:
        assert (exc_info.value.field, exc_info.value.reason) == expected
    else:
        assert str(exc_info.value) == expected


def test_scalar_kernel_converts_the_vote_total_to_float():
    """The documented int->float limit: a total inside float range scores,
    one past it raises OverflowError.  The CLI refuses any count past int64
    before it gets here (tests/test_cli.py)."""
    big = 2**1000
    assert combined_score(VoteTally(big, 0), Maxima(big, big, 1), ScoringConfig()).combined == 1.0
    rejected = combined_score(VoteTally(0, big), Maxima(big, 1, big), ScoringConfig())
    assert rejected.wilson.upper == pytest.approx(4.0 / big)
    huge = 10**400
    with pytest.raises(OverflowError):
        combined_score(VoteTally(huge, 0), Maxima(huge, huge, 1), ScoringConfig())
    with pytest.raises(OverflowError):
        wilson_interval(VoteTally(0, huge), 0.0)


@pytest.mark.parametrize("z", [1.0, 2.0, 5.0, 10.0])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 100, 999, 1000])
def test_extreme_proportion_closed_forms(n, z):
    unanimous = wilson_interval(VoteTally(n, 0), z)
    assert unanimous.lower == pytest.approx(n / (n + z * z), abs=1e-12)
    assert unanimous.upper == 1.0
    rejected = wilson_interval(VoteTally(0, n), z)
    assert rejected.lower == 0.0
    assert rejected.upper == pytest.approx(z * z / (n + z * z), abs=1e-12)


@given(u=st.integers(0, 60), d=st.integers(0, 60), z=st.sampled_from([0.5, 1.0, 1.96, 2.0, 5.0]))
def test_matches_bisection_oracle(u, d, z):
    iv = wilson_interval(VoteTally(u, d), z)
    lower, upper = wilson_bisect(u, d, z)
    assert iv.lower == pytest.approx(lower, abs=1e-10)
    assert iv.upper == pytest.approx(upper, abs=1e-10)


@given(u=st.integers(0, 1000), d=st.integers(0, 1000), z=st.floats(0, 50))
def test_interval_contains_proportion(u, d, z):
    tally = VoteTally(u, d)
    iv = wilson_interval(tally, z)
    assert 0.0 <= iv.lower <= iv.upper <= 1.0
    if tally.n > 0:
        assert iv.lower <= tally.up / tally.n <= iv.upper


@given(u=st.integers(0, 1000), d=st.integers(0, 1000))
def test_zero_z_is_exact_proportion(u, d):
    tally = VoteTally(u, d)
    if tally.n == 0:
        return
    iv = wilson_interval(tally, 0.0)
    assert iv.lower == iv.upper == tally.up / tally.n


@pytest.mark.parametrize("z", [0.0, 2.0, 5.0, 10.0])
def test_lower_bound_monotone_exhaustive(z):
    top = 200
    lower = [
        [wilson_interval(VoteTally(u, d), z).lower for d in range(top + 1)]
        for u in range(top + 2)
    ]
    for u in range(top + 1):
        for d in range(top + 1):
            assert lower[u + 1][d] >= lower[u][d]   # extra up-vote never hurts
            if d < top:
                assert lower[u][d + 1] <= lower[u][d]  # extra down-vote never helps


# --- average rating ----------------------------------------------------------


@pytest.mark.parametrize(
    "up,down,expected", [(3, 1, 0.75), (0, 0, 0.0), (0, 7, 0.0)]
)
def test_average_rating(up, down, expected):
    assert average_rating(VoteTally(up, down)) == expected


@given(up=st.integers(0, 2**63 - 1), down=st.integers(0, 2**63 - 1))
def test_average_rating_is_the_zero_z_lower_bound_bit_for_bit(up, down):
    # the grids evaluate the average rating as this bound
    tally = VoteTally(up, down)
    assert bits(average_rating(tally)) == bits(wilson_interval(tally, 0.0).lower)


# --- effective maxima --------------------------------------------------------


def test_floor_replaces_zero():
    assert effective_maxima(0, 0, 0, 1) == Maxima(1, 1, 1)


def test_floor_shrinks_early_bias():
    assert effective_maxima(7, 3, 2, 10) == Maxima(10, 10, 10)


def test_floor_inactive_above_threshold():
    assert effective_maxima(500, 300, 200, 10) == Maxima(500, 300, 200)


def test_floor_must_be_positive():
    with pytest.raises(ValueError):
        effective_maxima(5, 5, 5, 0)


# --- spotlight index ---------------------------------------------------------


def test_whole_linear_worked_trio():
    maxima = Maxima(100, 100, 100)
    values = [
        spotlight_index(VoteTally(n, 0), maxima, SiKind.WHOLE) for n in (1, 50, 100)
    ]
    assert values == [0.01, 0.50, 1.00]


@pytest.mark.parametrize("n,expected", [(9, 0.25), (99, 0.5), (999, 0.75), (9999, 1.0)])
def test_log_whole_decade_ladder(n, expected):
    maxima = Maxima(9999, 9999, 9999)
    si = spotlight_index(VoteTally(n, 0), maxima, SiKind.WHOLE, LOG10)
    assert si == pytest.approx(expected, abs=1e-12)


def test_net_zero_at_even_split():
    maxima = Maxima(40, 40, 40)
    for transform in (LINEAR, LOG10, poly(2.0), poly(0.5)):
        assert spotlight_index(VoteTally(7, 7), maxima, SiKind.NET, transform) == 0.0
    # the exponential net form has no sign factor: exp(u - d - n_max) > 0 even at u = d
    assert spotlight_index(VoteTally(7, 7), maxima, SiKind.NET, EXP) == math.exp(-40)


def test_exp_whole_at_max_is_one():
    assert spotlight_index(VoteTally(5, 4), Maxima(9, 9, 9), SiKind.WHOLE, EXP) == 1.0


def test_poly_net_hand_value():
    si = spotlight_index(VoteTally(30, 10), Maxima(100, 100, 100), SiKind.NET, poly(2.0))
    assert si == pytest.approx(0.04, abs=1e-12)


def test_upvote_and_downvote_normalizers():
    maxima = Maxima(20, 10, 8)
    assert spotlight_index(VoteTally(5, 2), maxima, SiKind.UPVOTE) == 0.5
    assert spotlight_index(VoteTally(5, 2), maxima, SiKind.DOWNVOTE) == -0.25


def test_whole_variants():
    maxima = Maxima(9, 9, 9)
    tally = VoteTally(3, 2)
    assert spotlight_index(tally, maxima, SiKind.WHOLE) == 5 / 9
    assert (
        spotlight_index(tally, maxima, SiKind.WHOLE, whole_variant=WholeSiVariant.SHIFT_DENOM)
        == 0.5
    )
    assert (
        spotlight_index(tally, maxima, SiKind.WHOLE, whole_variant=WholeSiVariant.SHIFT_BOTH)
        == 0.6
    )


def test_variants_only_touch_linear_whole():
    maxima = Maxima(9, 9, 9)
    tally = VoteTally(3, 2)
    for kind in (SiKind.NET, SiKind.POSITIVE, SiKind.UPVOTE):
        plain = spotlight_index(tally, maxima, kind)
        shifted = spotlight_index(tally, maxima, kind, whole_variant=WholeSiVariant.SHIFT_BOTH)
        assert plain == shifted
    log_plain = spotlight_index(tally, maxima, SiKind.WHOLE, LOG10)
    log_shifted = spotlight_index(
        tally, maxima, SiKind.WHOLE, LOG10, whole_variant=WholeSiVariant.SHIFT_BOTH
    )
    assert log_plain == log_shifted


def test_log_net_is_odd_in_vote_swap():
    maxima = Maxima(30, 30, 30)
    assert spotlight_index(VoteTally(2, 7), maxima, SiKind.NET, LOG10) == -spotlight_index(
        VoteTally(7, 2), maxima, SiKind.NET, LOG10
    )


def test_exp_uses_difference_not_quotient():
    # e^800 / e^1000 would be inf/inf = nan; the difference form stays exact
    maxima = Maxima(1000, 1000, 1000)
    si = spotlight_index(VoteTally(800, 0), maxima, SiKind.POSITIVE, EXP)
    assert not math.isnan(si)
    assert si == math.exp(-200)


def test_exp_far_below_max_underflows_cleanly():
    maxima = Maxima(10**6, 10**6, 10**6)
    si = spotlight_index(VoteTally(0, 0), maxima, SiKind.WHOLE, EXP)
    assert si == 0.0  # true value is below the smallest double; no error, no nan
    near = spotlight_index(VoteTally(10**6 - 50, 0), maxima, SiKind.WHOLE, EXP)
    assert near == math.exp(-50)


# --- ranges ------------------------------------------------------------------


@pytest.mark.parametrize("transform", ALL_TRANSFORMS)
@pytest.mark.parametrize(
    "kind,expected",
    [
        (SiKind.WHOLE, (0.0, 1.0)),
        (SiKind.POSITIVE, (0.0, 1.0)),
        (SiKind.UPVOTE, (0.0, 1.0)),
        (SiKind.NET, (-1.0, 1.0)),
        (SiKind.NEGATIVE, (-1.0, 0.0)),
        (SiKind.DOWNVOTE, (-1.0, 0.0)),
    ],
)
def test_si_range_table(kind, expected, transform):
    assert si_range(kind, transform) == expected


@given(case=consistent_cases, kind=st.sampled_from(ALL_KINDS),
       transform=st.sampled_from(ALL_TRANSFORMS),
       variant=st.sampled_from(list(WholeSiVariant)))
def test_si_stays_in_range(case, kind, transform, variant):
    tally, maxima = case
    lo, hi = si_range(kind, transform)
    si = spotlight_index(tally, maxima, kind, transform, variant)
    assert lo <= si <= hi


# --- maxima coverage ---------------------------------------------------------


@given(case=consistent_cases, kind=st.sampled_from(ALL_KINDS))
def test_consistent_maxima_cover_their_tally(case, kind):
    tally, maxima = case
    check_coverage(kind, maxima, tally.up, tally.down)


# with maxima (10, 7, 8): the largest tally each kind's maximum covers, and
# one vote more; a maximum the kind does not divide by is never checked
@pytest.mark.parametrize("kind,fits,fails,field,message", [
    (SiKind.WHOLE, (6, 4), (6, 5), "n_max", "n_max=10 cannot cover u+d up to 11 for kind whole"),
    (SiKind.NET, (10, 0), (0, 11), "n_max", "n_max=10 cannot cover u+d up to 11 for kind net"),
    (SiKind.POSITIVE, (0, 10), (1, 10), "n_max",
     "n_max=10 cannot cover u+d up to 11 for kind positive"),
    (SiKind.NEGATIVE, (5, 5), (5, 6), "n_max",
     "n_max=10 cannot cover u+d up to 11 for kind negative"),
    (SiKind.UPVOTE, (7, 100), (8, 0), "u_max", "u_max=7 cannot cover u up to 8 for kind upvote"),
    (SiKind.DOWNVOTE, (100, 8), (0, 9), "d_max",
     "d_max=8 cannot cover d up to 9 for kind downvote"),
])
def test_coverage_rule_per_kind(kind, fits, fails, field, message):
    maxima = Maxima(10, 7, 8)
    check_coverage(kind, maxima, *fits)
    with pytest.raises(InconsistentMaximaError) as exc_info:
        check_coverage(kind, maxima, *fails)
    assert (exc_info.value.field, str(exc_info.value)) == (field, message)


def test_grids_and_the_package_reexport_the_coverage_error():
    import spotrank
    from spotrank import grids

    assert spotrank.InconsistentMaximaError is grids.InconsistentMaximaError
    assert grids.InconsistentMaximaError is InconsistentMaximaError


@given(
    u=st.integers(0, 1000),
    d=st.integers(0, 1000),
    extra=st.integers(0, 1000),
    k=st.integers(1, 1000),
    kind=st.sampled_from(ALL_KINDS),
)
def test_linear_si_scale_invariant(u, d, extra, k, kind):
    tally = VoteTally(u, d)
    maxima = effective_maxima(u + d + extra, u + extra, d + extra)
    scaled_tally = VoteTally(k * u, k * d)
    scaled_maxima = Maxima(k * maxima.n_max, k * maxima.u_max, k * maxima.d_max)
    assert spotlight_index(tally, maxima, kind) == spotlight_index(
        scaled_tally, scaled_maxima, kind
    )


@given(
    case_a=st.tuples(st.integers(0, 400), st.integers(0, 400)),
    case_b=st.tuples(st.integers(0, 400), st.integers(0, 400)),
    n_max_extra=st.integers(0, 100),
    kind=st.sampled_from(ALL_KINDS),
    transform=st.sampled_from([LOG10, EXP, poly(0.5), poly(2.0), poly(3.0)]),
)
def test_transforms_preserve_strict_order(case_a, case_b, n_max_extra, kind, transform):
    # bounded counts keep log and poly values inside double range, where the
    # monotone reshaping cannot collapse a strict inequality; exp(count - top)
    # is positive only while top - count <= 745, so exp is drawn there (its
    # underflow past that is pinned by test_exp_index_underflows_past_745)
    n_max = max(case_a[0] + case_a[1], case_b[0] + case_b[1], 1) + n_max_extra
    maxima = Maxima(n_max, max(case_a[0], case_b[0], 1), max(case_a[1], case_b[1], 1))
    tally_a, tally_b = VoteTally(*case_a), VoteTally(*case_b)
    if transform is EXP:
        assume(exp_depth(tally_a, maxima, kind) <= 745 and exp_depth(tally_b, maxima, kind) <= 745)
    linear_a = spotlight_index(tally_a, maxima, kind)
    linear_b = spotlight_index(tally_b, maxima, kind)
    if linear_a > linear_b:
        assert spotlight_index(tally_a, maxima, kind, transform) > spotlight_index(
            tally_b, maxima, kind, transform
        )


def exp_depth(tally: VoteTally, maxima: Maxima, kind: SiKind) -> int:
    """top - count of the exp index, whose value is exp(count - top)."""
    u, d = tally.up, tally.down
    count, top = {
        SiKind.WHOLE: (u + d, maxima.n_max), SiKind.NET: (u - d, maxima.n_max),
        SiKind.POSITIVE: (u, maxima.n_max), SiKind.NEGATIVE: (d, maxima.n_max),
        SiKind.UPVOTE: (u, maxima.u_max), SiKind.DOWNVOTE: (d, maxima.d_max),
    }[kind]
    return top - count


def test_exp_index_underflows_past_745():
    # the documented float64 limit of spotlight_index: exp(-746) is 0.0, so
    # (0, 0) and (246, 400) under net/exp with n_max = 746 tie at 0.0, while
    # their linear net indices, 0 and -154/746, are strictly ordered
    maxima = Maxima(746, 246, 400)
    a, b = VoteTally(0, 0), VoteTally(246, 400)
    assert spotlight_index(a, maxima, SiKind.NET) > spotlight_index(b, maxima, SiKind.NET)
    assert spotlight_index(a, maxima, SiKind.NET, EXP) == 0.0
    assert spotlight_index(b, maxima, SiKind.NET, EXP) == 0.0
    # one vote up, the index is exp(-745), the least subnormal, still positive
    assert spotlight_index(VoteTally(1, 0), maxima, SiKind.NET, EXP) == 5e-324


# --- the factored kernel against its branch-per-case form --------------------


def bits(x: float) -> bytes:
    """The double's bytes, so that 0.0 and -0.0 differ."""
    return struct.pack("<d", x)


def random_cases(rng: random.Random, count: int):
    """(tally, maxima) pairs from tiny to int64-sized counts.  Maxima cover
    the tally or fall short of it by a little, and reach past exp's
    underflow point (max - count >= 746) for some tallies."""
    cases = []
    for i in range(count):
        scale = (3, 60, 2000, 10**6, 2**62)[i % 5]
        u, d = rng.randint(0, scale), rng.randint(0, scale)
        if rng.random() < 0.2:
            d = u  # net is zero, the signed-zero case
        raw = [u + d, u, d]
        if rng.random() < 0.8:
            raw = [m + rng.choice((0, 1, rng.randint(0, 2000))) for m in raw]
        else:
            raw = [max(m - rng.randint(0, 50), 0) for m in raw]
        cases.append((VoteTally(u, d), effective_maxima(*raw)))
    return cases


@pytest.mark.parametrize("transform", [LINEAR, LOG10, EXP, poly(0.5), poly(2.0), poly(3.7)])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_spotlight_index_bits_match_branch_per_case_oracle(kind, transform):
    rng = random.Random(f"{kind.value}-{transform.name}-{transform.exponent}")
    for variant in WholeSiVariant:
        for tally, maxima in random_cases(rng, 600):
            expected = spotlight_index_reference(tally, maxima, kind, transform, variant)
            got = spotlight_index(tally, maxima, kind, transform, variant)
            assert bits(got) == bits(expected), (tally, maxima, variant, got, expected)


def test_wilson_interval_bits_match_oracle_with_zero_z_branch():
    rng = random.Random(1927)
    z_values = [0.0, -0.0, 0.5, 1.0, 1.96, 2.0, 10.0]
    for i, (tally, _) in enumerate(random_cases(rng, 20000)):
        z = z_values[i % len(z_values)] if i % 2 else rng.uniform(0.0, 25.0)
        got = wilson_interval(tally, z)
        expected = wilson_interval_reference(tally, z)
        for bound in Bound:
            assert bits(got.pick(bound)) == bits(expected.pick(bound)), (tally, z, bound)


@pytest.mark.parametrize("bound", list(Bound))
def test_combined_score_bits_match_oracles(bound):
    rng = random.Random(bound.value)
    transforms = [LINEAR, LOG10, EXP, poly(2.5)]
    variants = list(WholeSiVariant)
    for i, (tally, maxima) in enumerate(random_cases(rng, 6000)):
        kind = ALL_KINDS[i % len(ALL_KINDS)]
        transform = transforms[(i // len(ALL_KINDS)) % len(transforms)]
        variant = variants[i % len(variants)]
        config = ScoringConfig(z=rng.choice([0.0, 1.96, rng.uniform(0, 10)]),
                               p_weight=rng.random(), si_kind=kind, si_transform=transform,
                               bound=bound, whole_variant=variant)
        got = combined_score(tally, maxima, config)
        used = wilson_interval_reference(tally, config.z).pick(bound)
        si = spotlight_index_reference(tally, maxima, kind, transform, variant)
        expected = config.p_weight * used + (1.0 - config.p_weight) * si
        assert bits(got.wilson_used) == bits(used)
        assert bits(got.si) == bits(si)
        assert bits(got.combined) == bits(expected), (tally, maxima, config)


# --- combined score ----------------------------------------------------------


def test_full_weight_is_pure_wilson():
    config = ScoringConfig(z=2.0, p_weight=1.0)
    b = combined_score(VoteTally(12, 4), Maxima(30, 20, 10), config)
    assert b.combined == b.wilson_used == b.wilson.lower


def test_zero_weight_is_pure_si():
    config = ScoringConfig(z=2.0, p_weight=0.0)
    b = combined_score(VoteTally(12, 4), Maxima(30, 20, 10), config)
    assert b.combined == b.si


def test_upper_bound_selection():
    config = ScoringConfig(z=2.0, p_weight=1.0, bound=Bound.UPPER)
    b = combined_score(VoteTally(3, 3), Maxima(10, 5, 5), config)
    assert b.wilson_used == b.wilson.upper
    assert b.combined == b.wilson.upper


def test_controversial_answer_outranks_small_unanimous_at_half_weight():
    maxima = Maxima(1000, 500, 500)
    controversial = VoteTally(500, 500)
    unanimous = VoteTally(10, 0)
    blend = ScoringConfig(z=2.0, p_weight=0.5)
    wilson_only = ScoringConfig(z=2.0, p_weight=1.0)
    assert (
        combined_score(controversial, maxima, blend).combined
        > combined_score(unanimous, maxima, blend).combined
    )
    assert (
        combined_score(controversial, maxima, wilson_only).combined
        < combined_score(unanimous, maxima, wilson_only).combined
    )


def test_negative_scores_survive_unclamped():
    config = ScoringConfig(z=2.0, p_weight=0.5, si_kind=SiKind.NET)
    b = combined_score(VoteTally(0, 90), Maxima(100, 50, 90), config)
    assert b.combined < 0.0


@given(case=consistent_cases, p_weight=st.floats(0, 1), z=st.floats(0, 25),
       kind=st.sampled_from(ALL_KINDS), transform=st.sampled_from(ALL_TRANSFORMS))
def test_combined_respects_blend_and_range(case, p_weight, z, kind, transform):
    tally, maxima = case
    config = ScoringConfig(z=z, p_weight=p_weight, si_kind=kind, si_transform=transform)
    b = combined_score(tally, maxima, config)
    assert b.combined == p_weight * b.wilson_used + (1.0 - p_weight) * b.si
    lo, hi = combined_range(kind, p_weight)
    assert lo - 1e-12 <= b.combined <= hi + 1e-12


@pytest.mark.parametrize(
    "kind,p_weight,expected",
    [
        (SiKind.WHOLE, 0.5, (0.0, 1.0)),
        (SiKind.NET, 0.25, (-0.75, 1.0)),
        (SiKind.NEGATIVE, 0.25, (-0.75, 0.25)),
        (SiKind.DOWNVOTE, 1.0, (0.0, 1.0)),
    ],
)
def test_combined_range_values(kind, p_weight, expected):
    assert combined_range(kind, p_weight) == pytest.approx(expected, abs=0)


@given(kind=st.sampled_from(ALL_KINDS), p_weight=st.floats(0, 1))
def test_combined_range_is_the_blend_of_its_endpoints(kind, p_weight):
    si_lo, si_hi = si_range(kind)
    lo, hi = combined_range(kind, p_weight)
    assert bits(lo) == bits(p_weight * 0.0 + (1.0 - p_weight) * si_lo)
    assert bits(hi) == bits(p_weight * 1.0 + (1.0 - p_weight) * si_hi)


# --- config validation -------------------------------------------------------


def test_valid_config_builds_and_replace_rechecks():
    config = ScoringConfig(z=2.0, p_weight=0.5)
    assert replace(config, p_weight=1.0).p_weight == 1.0
    with pytest.raises(ConfigError) as exc_info:
        replace(config, p_weight=2.0)
    assert exc_info.value.field == "p_weight"


# a config that cannot be built cannot reach a ranking path (QuestionState.rank,
# rank_answers, combined_score, simulate): P = 5 used to rank, poly(nan) to score
# NaN above every real score, and poly(-1.0) to divide by zero on an unvoted tally
@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"p_weight": 5}, "p_weight"),
        ({"p_weight": 1.5}, "p_weight"),
        ({"p_weight": -0.1}, "p_weight"),
        ({"z": -1.0}, "z"),
        ({"si_transform": SiTransform("poly", 0.0)}, "si_transform.exponent"),
        ({"si_transform": SiTransform("poly", -2.0)}, "si_transform.exponent"),
        ({"si_transform": poly(-1.0)}, "si_transform.exponent"),
        ({"si_transform": poly(math.nan)}, "si_transform.exponent"),
        ({"n_max_floor": 0}, "n_max_floor"),
        # past str's digit limit: quoted by its size
        ({"n_max_floor": -(10**5000)}, "n_max_floor"),
    ],
)
def test_invalid_configs_name_the_field(kwargs, field):
    with pytest.raises(ConfigError) as exc_info:
        ScoringConfig(**kwargs)
    assert exc_info.value.field == field
    assert field in str(exc_info.value)


@pytest.mark.parametrize("call,error,message", [
    (lambda: VoteTally(-(10**5000), 0), ValueError,
     f"vote counts must be non-negative, got ({_spelled(-(10**5000))}, 0)"),
    (lambda: check_grid(GridSpec(10**5000, 0, Maxima(1, 1, 1), ImprovedScorer(ScoringConfig()))),
     InconsistentMaximaError,
     f"n_max=1 cannot cover u+d up to {_spelled(10**5000)} for kind whole"),
    (lambda: check_grid(GridSpec(0, 10**5000, Maxima(1, 1, 1), AverageRatingScorer())),
     MemoryError, f"a grid row of {_spelled(10**5000)} cells does not fit in memory"),
    (lambda: check_grid(GridSpec(10**5000, 0, Maxima(1, 1, 1), AverageRatingScorer())),
     ValueError,
     f"a grid of {_spelled(10**5000)} x 1 cells has more cells than an int64 can count"),
    (lambda: QuestionState("q").apply_delta("a", -(10**5000), 0), NegativeCountError,
     f"event would drive answer 'a' to ({_spelled(-(10**5000))}, 0)"),
], ids=["VoteTally", "check_coverage", "grid-row", "grid-int64", "apply_delta"])
def test_a_message_quotes_an_integer_past_the_str_limit_by_its_size(call, error, message):
    with pytest.raises(error) as exc_info:
        call()
    assert type(exc_info.value) is error
    assert str(exc_info.value) == message


# --- type invariants ---------------------------------------------------------


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        VoteTally(-1, 0)
    with pytest.raises(ValueError):
        VoteTally(0, -3)


def test_maxima_must_be_floored():
    with pytest.raises(ValueError):
        Maxima(0, 1, 1)


def test_unknown_transform_rejected():
    with pytest.raises(ValueError):
        SiTransform("cubic")
