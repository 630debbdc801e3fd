"""Dense score grids over (u, d) and parameter sweeps, emitted as CSV.

The grids are the numeric surfaces behind contour plots of the scoring rules:
cell (i, j) holds the score at u = i*step, d = j*step under one fixed maxima
snapshot.  Cells are computed by the scalar kernel in :mod:`spotrank.scoring`,
so each one is bit for bit the ``combined_score`` of its tally for counts
below ``2**53``, the float64 limit: the Wilson bound runs that kernel's
arithmetic on numpy columns, and the spotlight index is the scalar function
evaluated once per distinct count, then gathered.

A grid is evaluated in blocks of whole rows, at most ``_BLOCK_CELLS`` cells
each (always at least one row): the d axis and the spotlight table are built
once per grid, the Wilson and blend arithmetic runs per block.  Every cell is
elementwise, so the blocks give the bits of a whole-grid evaluation, and
:func:`emit_csv` writes each block as it is computed, so memory stays at one
block whatever the grid's size.

Output is data, not images: long-format CSV with a ``u,d,score`` header and
``#`` metadata comments, consumable by any plotting tool.

numpy is imported by the functions that build arrays, not at module level,
so importing this module (and the package) does not load it.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import chain, product
from pathlib import Path
from typing import Iterator, TextIO, Union

from .scoring import (
    Bound,
    ConfigError,
    InconsistentMaximaError,
    Maxima,
    ScoringConfig,
    SiKind,
    SiTransform,
    WholeSiVariant,
    _FLOAT_MAX,
    _UNVOTED,
    _blend,
    _quote,
    _si_of_count,
    _si_parts,
    _valid_z,
    _wilson_roots,
    check_coverage,
)

# cells per block: a block's float64 temporaries stay small, and numpy's
# per-call cost is shared by thousands of cells
_BLOCK_CELLS = 8192
# numpy refuses (with a ValueError) an array of more bytes than sys.maxsize
_MAX_ROW_CELLS = sys.maxsize // 8


@dataclass(frozen=True)
class WilsonScorer:
    """Original Wilson interval bound, no spotlight term."""

    z: float
    bound: Bound = Bound.LOWER

    def __post_init__(self):
        if not _valid_z(self.z):
            raise ValueError("z must be non-negative")


@dataclass(frozen=True)
class AverageRatingScorer:
    """Plain up-vote proportion baseline (0 for unvoted cells)."""


@dataclass(frozen=True)
class ImprovedScorer:
    """The blended score under a full :class:`ScoringConfig`."""

    config: ScoringConfig


Scorer = Union[WilsonScorer, AverageRatingScorer, ImprovedScorer]


@dataclass(frozen=True)
class GridSpec:
    """Axes, fixed maxima and scorer for one grid.

    ``u_max_grid``/``d_max_grid`` are inclusive axis tops; cells are every
    ``step`` votes.  ``maxima`` must cover the whole grid for the scorer's
    kind, that is its :attr:`last_cell` (checked by :func:`grid_scores` and
    :func:`emit_csv`).
    """

    u_max_grid: int
    d_max_grid: int
    maxima: Maxima
    scorer: Scorer
    step: int = 1

    def __post_init__(self):
        if self.u_max_grid < 0 or self.d_max_grid < 0:
            raise ValueError("axis bounds must be non-negative")
        if self.step < 1:
            raise ValueError("step must be >= 1")

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols): the number of u values and of d values."""
        return self.u_max_grid // self.step + 1, self.d_max_grid // self.step + 1

    @property
    def last_cell(self) -> tuple[int, int]:
        """The largest (u, d) cell: each axis top rounded down to a multiple of ``step``."""
        return (self.u_max_grid - self.u_max_grid % self.step,
                self.d_max_grid - self.d_max_grid % self.step)


@dataclass(frozen=True, eq=False)
class ScoreGrid:
    """Row-major score matrix: ``scores[i, j]`` is the cell at (u_values[i], d_values[j])."""

    u_values: np.ndarray
    d_values: np.ndarray
    scores: np.ndarray
    metadata: dict[str, str]


def _slug_number(x: float) -> str:
    """``x`` as ``:g`` writes it where that reads back as ``x``, else in full."""
    return format(x, "g") if abs(x) <= _FLOAT_MAX and float(format(x, "g")) == x else _quote(x)


@dataclass(frozen=True)
class SweepPoint:
    z: float
    p_weight: float
    kind: SiKind
    transform: SiTransform

    def slug(self) -> str:
        """Filename fragment, distinct for distinct points, e.g. ``z2_p0.5_whole_linear``."""
        t = self.transform.name
        if t == "poly":
            t += _slug_number(self.transform.exponent)
        return f"z{_slug_number(self.z)}_p{_slug_number(self.p_weight)}_{self.kind.value}_{t}"

    def config(self, base: ScoringConfig) -> ScoringConfig:
        return replace(base, z=self.z, p_weight=self.p_weight, si_kind=self.kind,
                       si_transform=self.transform)


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian sweep over z, p_weight, kind and transform on one base grid.

    Every point is checked here, one at a time in sweep order, so any spec
    can be swept: its config is built, then :func:`check_grid` runs on its
    grid.  A bad config or uncovered grid raises its own error, prefixed
    ``sweep point <slug>: ``; a grid too large raises as :func:`check_grid` does.
    """

    base: GridSpec
    z_values: tuple[float, ...]
    p_values: tuple[float, ...]
    kinds: tuple[SiKind, ...]
    transforms: tuple[SiTransform, ...]

    def __post_init__(self):
        if not isinstance(self.base.scorer, ImprovedScorer):
            raise ValueError("sweep varies blended-score parameters; base scorer must be ImprovedScorer")
        for name in ("z_values", "p_values", "kinds", "transforms"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be non-empty")
        for _ in self.points():  # drawing a point checks it
            pass

    def points(self) -> Iterator[tuple[SweepPoint, GridSpec]]:
        """Each point and its checked grid spec, in z-outer, then P, kind, transform order."""
        base = self.base
        base_config = base.scorer.config  # type: ignore[union-attr]
        for values in product(self.z_values, self.p_values, self.kinds, self.transforms):
            point = SweepPoint(*values)
            try:
                grid = replace(base, scorer=ImprovedScorer(point.config(base_config)))
                check_grid(grid)
            except (ConfigError, InconsistentMaximaError) as exc:
                exc.args = (f"sweep point {point.slug()}: {exc}",)  # type and field kept
                raise
            yield point, grid


def _wilson_bound_grid(U: np.ndarray, D: np.ndarray, z: float, bound: Bound) -> np.ndarray:
    import numpy as np

    N = U + D
    lower, upper = _wilson_roots(U, np.maximum(N, 1.0), z, np.sqrt, np.maximum, np.minimum)
    return np.where(N > 0, lower if bound is Bound.LOWER else upper, _UNVOTED.pick(bound))


def _metadata(spec: GridSpec) -> dict[str, str]:
    scorer = spec.scorer
    meta: dict[str, str] = {}
    if isinstance(scorer, AverageRatingScorer):
        meta["scorer"] = "average"
    elif isinstance(scorer, WilsonScorer):
        meta["scorer"] = "wilson"
        meta["z"] = format(scorer.z, ".12g")
        meta["bound"] = scorer.bound.value
    else:
        config = scorer.config
        meta["scorer"] = "improved"
        meta["z"] = format(config.z, ".12g")
        meta["p_weight"] = format(config.p_weight, ".12g")
        meta["kind"] = config.si_kind.value
        meta["transform"] = config.si_transform.name
        if config.si_transform.name == "poly":
            meta["poly_a"] = format(config.si_transform.exponent, ".12g")
        if config.whole_variant is not WholeSiVariant.PLAIN:
            meta["whole_variant"] = config.whole_variant.value
        meta["bound"] = config.bound.value
    meta["n_max"] = str(spec.maxima.n_max)
    meta["u_max"] = str(spec.maxima.u_max)
    meta["d_max"] = str(spec.maxima.d_max)
    meta["step"] = str(spec.step)
    return meta


def check_grid(spec: GridSpec) -> None:
    """Raise what evaluating ``spec`` would raise before its first cell.

    That is :class:`InconsistentMaximaError` if the maxima do not cover the
    last cell for the scorer's kind, :class:`MemoryError` if a row, a block's
    least size, has more float64 cells than an array can address, and
    :class:`ValueError` if an int64 cannot count them.  Its config, if any,
    was checked when it was built.
    """
    if isinstance(spec.scorer, ImprovedScorer):
        check_coverage(spec.scorer.config.si_kind, spec.maxima, *spec.last_cell)
    rows, cols = spec.shape
    if cols > _MAX_ROW_CELLS:
        raise MemoryError(f"a grid row of {_quote(cols)} cells does not fit in memory")
    if rows * cols > 2**63 - 1:  # a cell's index must fit in an int64
        raise ValueError(f"a grid of {_quote(rows)} x {_quote(cols)} cells has more cells "
                         "than an int64 can count")


def _row_blocks(spec: GridSpec) -> tuple[np.ndarray, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """``d_values`` and the grid's ``(u_values, scores)`` blocks, in u order.

    The spec is checked, and the d axis and the spotlight table are built,
    when this is called; the blocks are computed as they are drawn.
    """
    import numpy as np

    check_grid(spec)
    scorer = spec.scorer
    rows, cols = spec.shape
    step = spec.step
    d_values = np.arange(0, spec.d_max_grid + 1, step, dtype=np.int64)
    D = d_values.astype(np.float64)[None, :]
    per_block = max(1, _BLOCK_CELLS // cols)

    config = None
    if isinstance(scorer, ImprovedScorer):
        # every count is a multiple of step, so the scalar kernel runs once
        # per distinct multiple and the cells gather from that table
        config = scorer.config
        z, bound = config.z, config.bound
        transform = config.si_transform

        def si_parts(i: np.ndarray, j: np.ndarray):
            return _si_parts(i, j, spec.maxima, config.si_kind, transform, config.whole_variant)

        # each count is monotone in u and in d, or is |u - d|, least at the
        # origin: the four corners bound the grid's counts
        corners, top, _, variant = si_parts(np.array([0, 0, rows - 1, rows - 1]),
                                            np.array([0, cols - 1, 0, cols - 1]))
        lo, hi = int(corners.min()), int(corners.max())
        table = np.fromiter((_si_of_count(k * step, top, transform, variant)
                             for k in range(lo, hi + 1)), np.float64, hi - lo + 1)
        j = np.arange(cols)[None, :]
    elif isinstance(scorer, WilsonScorer):
        z, bound = scorer.z, scorer.bound
    else:  # the average rating is the Wilson lower bound at z = 0, bit for bit
        z, bound = 0.0, Bound.LOWER

    def blocks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for start in range(0, rows, per_block):
            i = np.arange(start, min(start + per_block, rows))
            u_values = i * np.int64(step)
            U = u_values.astype(np.float64)[:, None]
            scores = _wilson_bound_grid(U, D, z, bound)
            if config is not None:
                count, _, negate, _ = si_parts(i[:, None], j)
                si = table[count - lo]
                np.negative(si, out=si, where=negate)
                scores = _blend(config.p_weight, scores, si)
            yield u_values, scores

    return d_values, blocks()


def grid_scores(spec: GridSpec) -> ScoreGrid:
    """Evaluate the scorer over every (u, d) cell of the spec."""
    import numpy as np

    d_values, blocks = _row_blocks(spec)
    u_parts, score_parts = zip(*blocks)
    return ScoreGrid(np.concatenate(u_parts), d_values, np.concatenate(score_parts),
                     _metadata(spec))


def emit_csv(grid: Union[ScoreGrid, GridSpec], destination: Union[str, Path, TextIO]) -> None:
    """Write the grid as long-format CSV: ``#`` metadata, ``u,d,score`` header.

    Rows are u-major then d; scores carry 12 significant digits, which
    round-trips doubles at these magnitudes.  LF endings, UTF-8.  A
    :class:`GridSpec` is evaluated block by block, each block written as it
    is computed; its checks and first block come before the first byte.
    A :class:`ScoreGrid` is written as one block.
    """
    if isinstance(grid, GridSpec):
        metadata = _metadata(grid)
        d_values, blocks = _row_blocks(grid)
    else:
        metadata, d_values = grid.metadata, grid.d_values
        blocks = iter([(grid.u_values, grid.scores)])
    blocks = chain([next(blocks)], blocks)  # computed before the file is opened
    if isinstance(destination, (str, Path)):
        with _open_output(destination) as fh:
            _write_csv(metadata, d_values, blocks, fh)
    else:
        _write_csv(metadata, d_values, blocks, destination)


@contextmanager
def _open_output(path: Union[str, Path]) -> Iterator[TextIO]:
    """``path`` opened for UTF-8 text with LF endings, as every output file of
    the package is; an error writing it names it, as an error opening it does."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        exc.filename = path if exc.filename is None else exc.filename
        raise


def _write_csv(metadata: dict[str, str], d_values: np.ndarray,
               blocks: Iterator[tuple[np.ndarray, np.ndarray]], fh: TextIO) -> None:
    for key, value in metadata.items():
        fh.write(f"# {key}: {value}\n")
    fh.write("u,d,score\n")
    # One %-template per row formats every cell in a single C-level call;
    # "%.12g" renders floats exactly as format(s, ".12g") does.  Rows are
    # written one at a time so memory stays at one row of text.
    cells = [f"{d},%.12g\n" for d in d_values.tolist()]
    for u_values, scores in blocks:
        for u, row in zip(u_values.tolist(), scores):
            prefix = f"{u},"
            fh.write((prefix + prefix.join(cells)) % tuple(row.tolist()))

