"""Pure scoring functions: Wilson interval bounds, spotlight indices, blends.

Everything in this module is a stateless function of its arguments, so it is
safe to call concurrently.  The combined score for one answer is

    score = p_weight * wilson_bound + (1 - p_weight) * spotlight_index

where the Wilson bound is the classic "sort by confidence" interval bound for
the up-vote proportion, and the spotlight index measures how much voting
attention the answer has received relative to the most-voted answer under the
same question.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum


class ConfigError(ValueError):
    """Raised by :class:`ScoringConfig` and :class:`SiTransform`; names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.reason = message


class InconsistentMaximaError(ValueError):
    """Raised by :func:`check_coverage`; ``field`` names the maximum too small."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class VoteTally:
    """Up/down vote counts for a single answer."""

    up: int
    down: int

    def __post_init__(self):
        if self.up < 0 or self.down < 0:
            raise ValueError(
                f"vote counts must be non-negative, got ({_quote(self.up)}, {_quote(self.down)})")

    @property
    def n(self) -> int:
        return self.up + self.down


@dataclass(frozen=True)
class Maxima:
    """Per-question vote maxima after the floor convention (all >= 1).

    ``u_max`` and ``d_max`` need not come from the same answer, so in general
    ``n_max != u_max + d_max``.
    """

    n_max: int
    u_max: int
    d_max: int

    def __post_init__(self):
        if min(self.n_max, self.u_max, self.d_max) < 1:
            raise ValueError(
                "maxima must be >= 1; raw counts go through effective_maxima() first"
            )


class SiKind(Enum):
    """Which vote aggregate the spotlight index is built from."""

    WHOLE = "whole"        # (u + d) / n_max
    NET = "net"            # (u - d) / n_max
    POSITIVE = "positive"  # u / n_max
    NEGATIVE = "negative"  # -d / n_max
    UPVOTE = "upvote"      # u / u_max
    DOWNVOTE = "downvote"  # -d / d_max


_TRANSFORM_NAMES = ("linear", "log", "exp", "poly")
# the upper end of every real parameter's one comparison chain: NaN fails
# every comparison, and +-inf and an int beyond float range fail the bound
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class SiTransform:
    """Monotone reshaping of a spotlight index.

    * ``linear`` - the plain ratio.
    * ``log``    - base-10 logarithm with +1 offsets, e.g. whole index
      log10(n + 1) / log10(n_max + 1); fast early growth that flattens out.
    * ``exp``    - exp(count - max); negligible until the count nears the max.
    * ``poly``   - power function (ratio ** exponent), exponent > 0; slow
      early growth that accelerates late.

    ``exponent`` is only consulted, and checked, by ``poly``: a bad one
    raises :class:`ConfigError` naming ``si_transform.exponent``.
    """

    name: str
    exponent: float = 1.0

    def __post_init__(self):
        if self.name not in _TRANSFORM_NAMES:
            raise ValueError(f"unknown transform {self.name!r}, expected one of {_TRANSFORM_NAMES}")
        if self.name == "poly" and not 0.0 < self.exponent <= _FLOAT_MAX:
            raise ConfigError("si_transform.exponent", "poly transform needs a positive exponent, "
                                                       f"got {_quote(self.exponent)}")


LINEAR = SiTransform("linear")
LOG10 = SiTransform("log")
EXP = SiTransform("exp")


def poly(exponent: float) -> SiTransform:
    """Power-function transform with the given exponent (must be > 0)."""
    return SiTransform("poly", exponent)


class WholeSiVariant(Enum):
    """Denominator convention for the *linear whole* index only."""

    PLAIN = "plain"                    # n / n_max
    SHIFT_DENOM = "shift-denom"        # n / (n_max + 1)
    SHIFT_BOTH = "shift-both"          # (n + 1) / (n_max + 1)


class Bound(Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class ScoringConfig:
    """Knobs of the blended score.

    ``z`` is the normal quantile controlling interval width, ``p_weight`` the
    weight of the Wilson term (1 - p_weight goes to the spotlight index).
    Ranking normally uses the lower bound; the conservative choice.  A config
    checks itself when it is built (and when ``dataclasses.replace`` rebuilds
    it), raising :class:`ConfigError` naming the first bad field.  ``z`` is
    stored as a float, so every kernel squares the same float.
    """

    z: float = 2.0
    p_weight: float = 0.5
    si_kind: SiKind = SiKind.WHOLE
    si_transform: SiTransform = LINEAR
    bound: Bound = Bound.LOWER
    n_max_floor: int = 1
    whole_variant: WholeSiVariant = WholeSiVariant.PLAIN

    def __post_init__(self):
        if not 0.0 <= self.p_weight <= 1.0:
            raise ConfigError("p_weight", f"must be in [0, 1], got {_quote(self.p_weight)}")
        if not _valid_z(self.z):
            raise ConfigError("z", f"must be a non-negative real, got {_quote(self.z)}")
        object.__setattr__(self, "z", float(self.z))
        if self.n_max_floor < 1:
            raise ConfigError("n_max_floor", f"must be >= 1, got {_quote(self.n_max_floor)}")


@dataclass(frozen=True)
class WilsonInterval:
    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError(f"malformed interval ({self.lower}, {self.upper})")

    def pick(self, bound: Bound) -> float:
        return self.lower if bound is Bound.LOWER else self.upper


@dataclass(frozen=True)
class ScoreBreakdown:
    """One answer's score with its components: combined = P*w + (1-P)*si."""

    wilson: WilsonInterval
    si: float
    combined: float


def _wilson_roots(up, n, z: float, sqrt, maximum, minimum):
    """Both clamped bounds of the Wilson interval for n > 0 votes.

    Only ``+ - * /``, ``sqrt`` and the clamps ``maximum``/``minimum``, which
    numpy rounds and picks exactly as Python does, so a grid that passes
    arrays and numpy's functions gets the scalar bits.  The exact roots
    bracket p and lie in [0, 1]; the clamps shave float dust only.
    """
    p = up / n
    zz = z * z
    center = p + zz / (2.0 * n)
    spread = (z / (2.0 * n)) * sqrt(4.0 * n * p * (1.0 - p) + zz)
    denom = 1.0 + zz / n
    return (maximum(0.0, minimum((center - spread) / denom, p)),
            minimum(1.0, maximum((center + spread) / denom, p)))


_UNVOTED = WilsonInterval(0.0, 1.0)  # no votes: total uncertainty


def _valid_z(z: float) -> bool:
    """The one rule for z, a finite non-negative real; one comparison chain,
    since :func:`wilson_interval` checks it once per tally."""
    return 0.0 <= z <= _FLOAT_MAX


def _quote(value) -> str:
    """``value`` as a message quotes it; an integer past ``str``'s limit, by its size."""
    try:
        return f"{value}"
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def wilson_interval(tally: VoteTally, z: float) -> WilsonInterval:
    """Both bounds of the Wilson score interval for the up-vote proportion.

    With no votes the interval is (0, 1).  Otherwise

        (p + z^2/2n +- z/2n * sqrt(4n*p*(1-p) + z^2)) / (1 + z^2/n)

    which with z = 0 collapses to the sample proportion exactly.  ``z`` must
    be a finite non-negative real.  The counts are exact ints, but the
    arithmetic converts the vote total to float: a total such as ``2**1000``
    scores, and one past float range (``10**400``) raises ``OverflowError``.
    """
    if not _valid_z(z):
        raise ValueError("z must be non-negative")
    n = tally.n
    if n == 0:
        return _UNVOTED
    return WilsonInterval(*_wilson_roots(tally.up, n, z, math.sqrt, max, min))


def effective_maxima(raw_n_max: int, raw_u_max: int, raw_d_max: int, floor: int = 1) -> Maxima:
    """Apply the floor convention to raw per-question maxima.

    floor = 1 is the zero-denominator guard for brand-new questions; a larger
    floor (e.g. 10) additionally damps the early-vote bias while the question
    is young.
    """
    if floor < 1:
        raise ValueError("floor must be >= 1")
    return Maxima(max(raw_n_max, floor), max(raw_u_max, floor), max(raw_d_max, floor))


def _si_parts(u, d, maxima: Maxima, kind: SiKind, transform: SiTransform,
              whole_variant: WholeSiVariant):
    """``(count, top, negate, variant)``: the index is ``-f(count, top)`` if
    negate, under ``variant``, the whole variant for WHOLE and PLAIN otherwise.

    Only ``+``, ``-``, ``abs`` and ``<``, so it runs on ints and on integer
    numpy arrays alike.  Net under exp keeps the signed difference; under the
    other transforms it is sgn(u-d) * f(|u-d|).
    """
    if kind is SiKind.WHOLE:
        return u + d, maxima.n_max, False, whole_variant
    plain = WholeSiVariant.PLAIN
    if kind is SiKind.NET:
        if transform.name == "exp":
            return u - d, maxima.n_max, False, plain
        return abs(u - d), maxima.n_max, u < d, plain
    if kind is SiKind.POSITIVE:
        return u, maxima.n_max, False, plain
    if kind is SiKind.NEGATIVE:
        return d, maxima.n_max, True, plain
    if kind is SiKind.UPVOTE:
        return u, maxima.u_max, False, plain
    return d, maxima.d_max, True, plain


def _si_of_count(count: int, top: int, transform: SiTransform, whole_variant: WholeSiVariant) -> float:
    """The transformed ratio of one integer count to its maximum, under the
    whole variant that :func:`_si_parts` picked."""
    name = transform.name
    if name == "linear":
        if whole_variant is WholeSiVariant.PLAIN:
            return count / top
        if whole_variant is WholeSiVariant.SHIFT_DENOM:
            return count / (top + 1)
        return (count + 1) / (top + 1)
    if name == "log":
        return math.log10(count + 1) / math.log10(top + 1)
    if name == "exp":
        return math.exp(count - top)
    # poly: take the ratio first so large counts cannot overflow
    return (count / top) ** transform.exponent


def spotlight_index(
    tally: VoteTally,
    maxima: Maxima,
    kind: SiKind,
    transform: SiTransform = LINEAR,
    whole_variant: WholeSiVariant = WholeSiVariant.PLAIN,
) -> float:
    """Attention level of one answer relative to the question's most-voted one.

    ``maxima`` must already be floored (see :func:`effective_maxima`), which
    guarantees positive denominators.  Under the linear, log and poly
    transforms net indices use sgn(u-d) * f(|u-d|), so they are exactly 0 at
    u = d and odd around it.  Exp-net has no sign factor: it is
    exp(u - d - n_max), positive everywhere.  Exponential indices are
    evaluated as exp(count - max) with the subtraction done first; never as a
    quotient of two huge exponentials.

    That is the float64 limit of the exp transform: exp(count - max) is 0.0
    once max - count exceeds 745 (exp(-745) is the least subnormal, 5e-324),
    so two tallies that far below the maximum tie at 0.0 even where their
    linear indices are strictly ordered.
    """
    count, top, negate, variant = _si_parts(tally.up, tally.down, maxima, kind, transform,
                                            whole_variant)
    si = _si_of_count(count, top, transform, variant)
    return -si if negate else si


def check_coverage(kind: SiKind, maxima: Maxima, up: int, down: int) -> None:
    """Raise :class:`InconsistentMaximaError` unless the floored ``maxima`` cover
    the tally for ``kind``; covered, every transform keeps the index within
    [0, 1] for whole, positive and upvote, [-1, 1] for net and [-1, 0] for
    negative and downvote."""
    if kind is SiKind.UPVOTE:
        field, counted, count = "u_max", "u", up
    elif kind is SiKind.DOWNVOTE:
        field, counted, count = "d_max", "d", down
    else:  # the four kinds that divide by n_max
        field, counted, count = "n_max", "u+d", up + down
    top = getattr(maxima, field)
    if top < count:
        raise InconsistentMaximaError(field, f"{field}={_quote(top)} cannot cover {counted} up to "
                                             f"{_quote(count)} for kind {kind.value}")


def _blend(p_weight, w, si):
    """The score's one blend, for floats and numpy columns alike."""
    return p_weight * w + (1.0 - p_weight) * si


def combined_score(tally: VoteTally, maxima: Maxima, config: ScoringConfig) -> ScoreBreakdown:
    """Blend the configured Wilson bound with the spotlight index.

    The blend is the exact affine combination; negative results are meaningful
    (an answer judged worse than an unrated one) and are never clamped.
    """
    interval = wilson_interval(tally, config.z)
    used = interval.pick(config.bound)
    si = spotlight_index(tally, maxima, config.si_kind, config.si_transform, config.whole_variant)
    return ScoreBreakdown(interval, si, _blend(config.p_weight, used, si))

