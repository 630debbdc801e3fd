"""Dense score grids over (u, d) and parameter sweeps, emitted as CSV.

The grids are the numeric surfaces behind contour plots of the scoring rules:
cell (i, j) holds the score at u = i*step, d = j*step under one fixed maxima
snapshot.  Cells are computed by the scalar kernel in :mod:`spotrank.scoring`,
so each one is bit for bit the ``combined_score`` of its tally for counts
below ``2**53``, the float64 limit: the Wilson bound runs that kernel's
arithmetic on numpy columns, and the spotlight index is the scalar function
evaluated once per distinct count, then gathered.

Output is data, not images: long-format CSV with a ``u,d,score`` header and
``#`` metadata comments, consumable by any plotting tool.

numpy is imported by the functions that build arrays, not at module level,
so importing this module (and the package) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
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
    _si_of_count,
    _si_parts,
    _wilson_roots,
    check_coverage,
    validate_config,
)


@dataclass(frozen=True)
class WilsonScorer:
    """Original Wilson interval bound, no spotlight term."""

    z: float
    bound: Bound = Bound.LOWER

    def __post_init__(self):
        if self.z < 0:
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
    kind, that is its :attr:`last_cell` (checked by :func:`grid_scores`).
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


@dataclass(frozen=True)
class SweepPoint:
    z: float
    p_weight: float
    kind: SiKind
    transform: SiTransform

    def slug(self) -> str:
        """Deterministic filename fragment, e.g. ``z2_p0.5_whole_linear``."""
        t = self.transform.name
        if t == "poly":
            t += format(self.transform.exponent, "g")
        return f"z{self.z:g}_p{self.p_weight:g}_{self.kind.value}_{t}"

    def config(self, base: ScoringConfig) -> ScoringConfig:
        return replace(base, z=self.z, p_weight=self.p_weight, si_kind=self.kind,
                       si_transform=self.transform)


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian sweep over z, p_weight, kind and transform on one base grid.

    Every point is checked here, so any spec can be swept; a bad point raises
    its own error, prefixed ``sweep point <slug>: ``.
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
        # a config does not depend on the kind, nor coverage on z, P or the
        # transform: each is checked at the first point in sweep order with it
        base = self.base
        configs = [SweepPoint(z, p_weight, self.kinds[0], transform) for z, p_weight, transform
                   in product(self.z_values, self.p_values, self.transforms)]
        try:
            for point in configs:
                validate_config(point.config(base.scorer.config))
            for point in [replace(configs[0], kind=kind) for kind in self.kinds]:
                check_coverage(point.kind, base.maxima, *base.last_cell)
        except (ConfigError, InconsistentMaximaError) as exc:
            exc.args = (f"sweep point {point.slug()}: {exc}",)  # type and field kept
            raise


def _average_grid(U: np.ndarray, D: np.ndarray) -> np.ndarray:
    import numpy as np

    return U / np.maximum(U + D, 1.0)  # 0/1 at the unvoted origin


def _wilson_bound_grid(U: np.ndarray, D: np.ndarray, z: float, bound: Bound) -> np.ndarray:
    import numpy as np

    N = U + D
    p, lower, upper = _wilson_roots(U, np.maximum(N, 1.0), z, np.sqrt)
    if bound is Bound.LOWER:
        return np.where(N > 0, np.maximum(0.0, np.minimum(lower, p)), 0.0)
    return np.where(N > 0, np.minimum(1.0, np.maximum(upper, p)), 1.0)


def _si_grid(rows: int, cols: int, step: int, maxima: Maxima, config: ScoringConfig) -> np.ndarray:
    import numpy as np

    # every count is a multiple of step, so the scalar kernel runs once per
    # distinct multiple and the cells gather from that table
    transform = config.si_transform
    index, top, negate, variant = _si_parts(
        np.arange(rows)[:, None], np.arange(cols)[None, :], maxima, config.si_kind, transform,
        config.whole_variant,
    )
    lo, hi = int(index.min()), int(index.max())
    table = np.array([_si_of_count(k * step, top, transform, variant) for k in range(lo, hi + 1)])
    si = table[index - lo]
    return np.negative(si, out=si, where=negate)


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


def grid_scores(spec: GridSpec) -> ScoreGrid:
    """Evaluate the scorer over every (u, d) cell of the spec."""
    import numpy as np

    if isinstance(spec.scorer, ImprovedScorer):
        check_coverage(spec.scorer.config.si_kind, spec.maxima, *spec.last_cell)
    u_values = np.arange(0, spec.u_max_grid + 1, spec.step, dtype=np.int64)
    d_values = np.arange(0, spec.d_max_grid + 1, spec.step, dtype=np.int64)
    U = u_values.astype(np.float64)[:, None]
    D = d_values.astype(np.float64)[None, :]

    scorer = spec.scorer
    if isinstance(scorer, AverageRatingScorer):
        scores = _average_grid(U, D)
    elif isinstance(scorer, WilsonScorer):
        scores = _wilson_bound_grid(U, D, scorer.z, scorer.bound)
    else:
        config = validate_config(scorer.config)
        w = _wilson_bound_grid(U, D, config.z, config.bound)
        si = _si_grid(len(u_values), len(d_values), spec.step, spec.maxima, config)
        scores = config.p_weight * w + (1.0 - config.p_weight) * si
    return ScoreGrid(u_values, d_values, scores, _metadata(spec))


def sweep(spec: SweepSpec) -> Iterator[tuple[SweepPoint, ScoreGrid]]:
    """One grid per parameter tuple, in z-outer, then P, kind, transform order."""
    base = spec.base
    base_config = base.scorer.config  # type: ignore[union-attr]
    for values in product(spec.z_values, spec.p_values, spec.kinds, spec.transforms):
        point = SweepPoint(*values)
        yield point, grid_scores(replace(base, scorer=ImprovedScorer(point.config(base_config))))


def emit_csv(grid: ScoreGrid, destination: Union[str, Path, TextIO]) -> None:
    """Write the grid as long-format CSV: ``#`` metadata, ``u,d,score`` header.

    Rows are u-major then d; scores carry 12 significant digits, which
    round-trips doubles at these magnitudes.  LF endings, UTF-8.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            _write_csv(grid, fh)
    else:
        _write_csv(grid, destination)


def _write_csv(grid: ScoreGrid, fh: TextIO) -> None:
    for key, value in grid.metadata.items():
        fh.write(f"# {key}: {value}\n")
    fh.write("u,d,score\n")
    # One %-template per row formats every cell in a single C-level call;
    # "%.12g" renders floats exactly as format(s, ".12g") does.  Rows are
    # written one at a time so memory stays at one row of text.
    cells = [f"{d},%.12g\n" for d in grid.d_values.tolist()]
    for i, u in enumerate(grid.u_values.tolist()):
        prefix = f"{u},"
        fh.write((prefix + prefix.join(cells)) % tuple(grid.scores[i].tolist()))


def load_csv(source: Union[str, Path, TextIO]) -> ScoreGrid:
    """Read a grid written by :func:`emit_csv` back into memory."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _read_csv(fh)
    return _read_csv(source)


def _read_csv(fh: TextIO) -> ScoreGrid:
    import numpy as np

    metadata: dict[str, str] = {}
    rows: list[tuple[int, int, float]] = []
    header_seen = False
    for line in fh:
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            metadata[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line != "u,d,score":
                raise ValueError(f"unexpected header line {line!r}")
            header_seen = True
            continue
        u_text, d_text, s_text = line.split(",")
        rows.append((int(u_text), int(d_text), float(s_text)))
    if not header_seen:
        raise ValueError("missing u,d,score header")
    u_values = np.array(sorted({u for u, _, _ in rows}), dtype=np.int64)
    d_values = np.array(sorted({d for _, d, _ in rows}), dtype=np.int64)
    scores = np.empty((len(u_values), len(d_values)), dtype=np.float64)
    u_index = {int(u): i for i, u in enumerate(u_values)}
    d_index = {int(d): j for j, d in enumerate(d_values)}
    for u, d, s in rows:
        scores[u_index[u], d_index[d]] = s
    return ScoreGrid(u_values, d_values, scores, metadata)
