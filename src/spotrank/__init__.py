"""Vote-based content scoring and ranking.

Blends the Wilson score interval bound (the classic "sort by confidence"
score for up/down votes) with a per-question spotlight index that measures
how much voting attention an answer has drawn relative to the most-voted
answer.  The blend keeps the small-sample correction of the interval bound
while letting heavily-voted, even controversial, answers surface.
"""

from .scoring import (
    Bound,
    ConfigError,
    EXP,
    InconsistentMaximaError,
    LINEAR,
    LOG10,
    Maxima,
    ScoreBreakdown,
    ScoringConfig,
    SiKind,
    SiTransform,
    VoteTally,
    WholeSiVariant,
    WilsonInterval,
    combined_score,
    effective_maxima,
    poly,
    spotlight_index,
    wilson_interval,
)
from .state import (
    AnswerEntry,
    NegativeCountError,
    QuestionSnapshot,
    QuestionState,
    RankedList,
    UnknownQuestionError,
    VoteEvent,
    rank_answers,
)
from .grids import (
    AverageRatingScorer,
    GridSpec,
    ScoreGrid,
    SweepSpec,
    WilsonScorer,
    emit_csv,
    grid_scores,
)
from .simulate import (
    AnswerProfile,
    SplitMix64,
    StabilityReport,
    StreamSpec,
    Trajectory,
    generate_events,
    kendall_tau,
    simulate,
    stability_report,
)

__version__ = "0.1.0"
