import io
from dataclasses import replace

import numpy as np
import pytest

from helpers import write_csv_reference
from spotrank.grids import (
    AverageRatingScorer,
    GridSpec,
    ImprovedScorer,
    InconsistentMaximaError,
    ScoreGrid,
    SweepSpec,
    WilsonScorer,
    emit_csv,
    grid_scores,
    load_csv,
    sweep,
)
from spotrank.scoring import (
    EXP,
    LINEAR,
    LOG10,
    Bound,
    ConfigError,
    Maxima,
    ScoringConfig,
    SiKind,
    VoteTally,
    WholeSiVariant,
    average_rating,
    combined_score,
    poly,
    wilson_interval,
)


def improved_spec(u_range=100, d_range=100, n_max=2000, step=1, **config_kwargs):
    config = ScoringConfig(**config_kwargs)
    return GridSpec(u_range, d_range, Maxima(n_max, n_max, n_max), ImprovedScorer(config), step)


# --- degeneracies -------------------------------------------------------------


def test_full_wilson_weight_equals_original_grid():
    improved = grid_scores(improved_spec(z=2.0, p_weight=1.0))
    original = grid_scores(
        GridSpec(100, 100, Maxima(2000, 2000, 2000), WilsonScorer(2.0), 1)
    )
    assert np.array_equal(improved.scores, original.scores)


def test_zero_wilson_weight_is_the_whole_index_plane():
    grid = grid_scores(improved_spec(z=2.0, p_weight=0.0, n_max=200))
    U = grid.u_values.astype(float)[:, None]
    D = grid.d_values.astype(float)[None, :]
    assert np.array_equal(grid.scores, (U + D) / 200)


def test_zero_z_full_weight_matches_average_rating_where_voted():
    improved = grid_scores(improved_spec(z=0.0, p_weight=1.0))
    average = grid_scores(GridSpec(100, 100, Maxima(2000, 2000, 2000), AverageRatingScorer(), 1))
    assert np.array_equal(improved.scores[1:, :], average.scores[1:, :])
    assert np.array_equal(improved.scores[0, 1:], average.scores[0, 1:])
    # they differ only at the unvoted origin: wilson lower 0 vs average 0
    assert improved.scores[0, 0] == average.scores[0, 0] == 0.0


def test_wilson_p1_closed_form_cell():
    grid = grid_scores(GridSpec(20, 0, Maxima(100, 100, 100), WilsonScorer(2.0), 1))
    assert grid.scores[10, 0] == pytest.approx(10 / 14, abs=1e-12)


# --- geometry -----------------------------------------------------------------


@pytest.mark.parametrize("u_range,d_range,step", [(10, 10, 3), (0, 0, 1), (7, 3, 2), (1000, 1000, 100)])
def test_grid_dimensions(u_range, d_range, step):
    grid = grid_scores(improved_spec(u_range, d_range, step=step, n_max=4000))
    assert grid.scores.shape == (u_range // step + 1, d_range // step + 1)
    assert grid.u_values[0] == 0 and grid.u_values[-1] == (u_range // step) * step


def test_cells_hold_step_multiples():
    grid = grid_scores(improved_spec(10, 10, step=5, z=2.0, p_weight=0.5))
    config = ScoringConfig(z=2.0, p_weight=0.5)
    maxima = Maxima(2000, 2000, 2000)
    for i, u in enumerate(grid.u_values):
        for j, d in enumerate(grid.d_values):
            expected = combined_score(VoteTally(int(u), int(d)), maxima, config).combined
            assert grid.scores[i, j] == pytest.approx(expected, abs=1e-12)


# --- structure properties -------------------------------------------------------


@pytest.mark.parametrize("z", [0.5, 2.0, 5.0])
def test_wilson_lower_grid_monotone(z):
    grid = grid_scores(GridSpec(150, 150, Maxima(300, 300, 300), WilsonScorer(z), 1))
    assert np.all(np.diff(grid.scores, axis=0) >= 0)  # more up-votes never hurt
    assert np.all(np.diff(grid.scores, axis=1) <= 0)  # more down-votes never help


def test_net_grid_antisymmetric_under_vote_swap():
    grid = grid_scores(improved_spec(80, 80, n_max=160, p_weight=0.0, si_kind=SiKind.NET))
    assert np.array_equal(grid.scores, -grid.scores.T)


def test_whole_grid_symmetric_under_vote_swap():
    grid = grid_scores(improved_spec(80, 80, n_max=160, p_weight=0.0))
    assert np.array_equal(grid.scores, grid.scores.T)


def test_linear_si_plane_scale_invariance():
    # the same base lattice scaled by k=2,3,4 with n_max scaled alike
    grids = [
        grid_scores(improved_spec(u_range=250 * k, d_range=250 * k, n_max=500 * k,
                                  step=k, p_weight=0.0))
        for k in (2, 3, 4)
    ]
    assert np.array_equal(grids[0].scores, grids[1].scores)
    assert np.array_equal(grids[1].scores, grids[2].scores)


def test_vectorized_matches_scalar_core():
    config = ScoringConfig(z=1.96, p_weight=0.37, si_kind=SiKind.NET, si_transform=LOG10)
    maxima = Maxima(300, 200, 200)
    grid = grid_scores(GridSpec(60, 60, maxima, ImprovedScorer(config), 3))
    for i, u in enumerate(grid.u_values):
        for j, d in enumerate(grid.d_values):
            expected = combined_score(VoteTally(int(u), int(d)), maxima, config).combined
            assert grid.scores[i, j] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("kind", [SiKind.UPVOTE, SiKind.DOWNVOTE])
@pytest.mark.parametrize("transform", [LINEAR, LOG10, poly(2.0)])
def test_vote_specific_kinds_match_scalar(kind, transform):
    config = ScoringConfig(z=2.0, p_weight=0.5, si_kind=kind, si_transform=transform)
    maxima = Maxima(100, 40, 35)
    grid = grid_scores(GridSpec(40, 35, maxima, ImprovedScorer(config), 5))
    for i, u in enumerate(grid.u_values):
        for j, d in enumerate(grid.d_values):
            expected = combined_score(VoteTally(int(u), int(d)), maxima, config).combined
            assert grid.scores[i, j] == pytest.approx(expected, abs=1e-12)


# Three geometries: every count at step 1; a step-7 grid whose maxima put
# exp(count - max) below the smallest double for some cells, subnormal for
# others and normal for the rest; and a step-2**50 grid whose u + d reaches
# 6 * 2**50, just below 2**53, the limit of the bit-for-bit claim.
EXACT_GEOMETRIES = [
    (60, 45, Maxima(140, 90, 70), 1),
    (420, 350, Maxima(1200, 800, 600), 7),
    (3 * 2**50, 3 * 2**50, Maxima(7 * 2**50, 7 * 2**50, 7 * 2**50), 2**50),
]
EXACT_CONFIGS = (
    [(kind, transform, WholeSiVariant.PLAIN)
     for kind in SiKind for transform in (LINEAR, LOG10, EXP, poly(2.5))]
    + [(SiKind.WHOLE, transform, variant)
       for transform in (LINEAR, LOG10, EXP, poly(2.5))
       for variant in (WholeSiVariant.SHIFT_DENOM, WholeSiVariant.SHIFT_BOTH)]
    # a variant set on another kind is ignored
    + [(SiKind.NET, LINEAR, WholeSiVariant.SHIFT_BOTH),
       (SiKind.UPVOTE, LINEAR, WholeSiVariant.SHIFT_DENOM)]
)


def assert_cells_are_bits_of(grid, score_of):
    """Every cell equals ``score_of(tally)`` bit for bit (so -0.0 != 0.0)."""
    expected = np.array([
        [score_of(VoteTally(u, d)) for d in grid.d_values.tolist()]
        for u in grid.u_values.tolist()
    ])
    differ = grid.scores.view(np.uint64) != expected.view(np.uint64)
    assert not differ.any(), (
        f"{int(differ.sum())} of {differ.size} cells differ, first at "
        f"(u, d) index {tuple(int(k) for k in np.argwhere(differ)[0])}"
    )


@pytest.mark.parametrize(
    "kind,transform,variant", EXACT_CONFIGS,
    ids=[f"{k.value}-{t.name}-{v.value}" for k, t, v in EXACT_CONFIGS],
)
def test_improved_grid_cells_are_combined_score_bits(kind, transform, variant):
    for u_range, d_range, maxima, step in EXACT_GEOMETRIES:
        for z in (0.0, 1.96):
            for bound in Bound:
                config = ScoringConfig(z=z, p_weight=0.37, si_kind=kind, si_transform=transform,
                                       bound=bound, whole_variant=variant)
                grid = grid_scores(GridSpec(u_range, d_range, maxima, ImprovedScorer(config), step))
                assert_cells_are_bits_of(
                    grid, lambda tally: combined_score(tally, maxima, config).combined
                )


@pytest.mark.parametrize("u_range,d_range,maxima,step", EXACT_GEOMETRIES)
def test_baseline_grid_cells_are_scalar_bits(u_range, d_range, maxima, step):
    for z in (0.0, 1.96):
        for bound in Bound:
            grid = grid_scores(GridSpec(u_range, d_range, maxima, WilsonScorer(z, bound), step))
            assert_cells_are_bits_of(grid, lambda tally: wilson_interval(tally, z).pick(bound))
    grid = grid_scores(GridSpec(u_range, d_range, maxima, AverageRatingScorer(), step))
    assert_cells_are_bits_of(grid, average_rating)


# --- coverage validation --------------------------------------------------------


def test_n_max_must_cover_total_votes():
    spec = improved_spec(u_range=600, d_range=600, n_max=1000)
    with pytest.raises(InconsistentMaximaError):
        grid_scores(spec)


def test_upvote_kind_checks_u_max():
    maxima = Maxima(2000, 50, 2000)
    spec = GridSpec(100, 100, maxima, ImprovedScorer(ScoringConfig(si_kind=SiKind.UPVOTE)), 1)
    with pytest.raises(InconsistentMaximaError):
        grid_scores(spec)


def test_downvote_kind_checks_d_max():
    maxima = Maxima(2000, 2000, 50)
    spec = GridSpec(100, 100, maxima, ImprovedScorer(ScoringConfig(si_kind=SiKind.DOWNVOTE)), 1)
    with pytest.raises(InconsistentMaximaError):
        grid_scores(spec)


def test_coverage_is_checked_at_the_last_cell_not_the_axis_tops():
    # step 7 on ranges 10 and 9: the last cell is (7, 7), so n_max 14 covers it
    spec = GridSpec(10, 9, Maxima(14, 14, 14), ImprovedScorer(ScoringConfig()), 7)
    assert spec.last_cell == (7, 7)
    assert grid_scores(spec).u_values.tolist() == [0, 7]
    SweepSpec(base=spec, z_values=(2.0,), p_values=(0.5,), kinds=tuple(SiKind),
              transforms=(LINEAR,))
    short = replace(spec, maxima=Maxima(13, 6, 6))
    with pytest.raises(InconsistentMaximaError, match="n_max=13 cannot cover u\\+d up to 14"):
        grid_scores(short)
    with pytest.raises(InconsistentMaximaError, match="u_max=6 cannot cover u up to 7"):
        SweepSpec(base=short, z_values=(2.0,), p_values=(0.5,), kinds=(SiKind.UPVOTE,),
                  transforms=(LINEAR,))


def test_baselines_need_no_maxima_coverage():
    maxima = Maxima(1, 1, 1)
    grid_scores(GridSpec(50, 50, maxima, WilsonScorer(2.0), 1))
    grid_scores(GridSpec(50, 50, maxima, AverageRatingScorer(), 1))


def test_invalid_geometry_rejected():
    maxima = Maxima(10, 10, 10)
    with pytest.raises(ValueError):
        GridSpec(-1, 5, maxima, AverageRatingScorer(), 1)
    with pytest.raises(ValueError):
        GridSpec(5, 5, maxima, AverageRatingScorer(), 0)


# --- CSV ------------------------------------------------------------------------


def test_csv_shape_header_and_metadata():
    grid = grid_scores(improved_spec(2, 2, n_max=10, z=2.0, p_weight=0.5))
    buffer = io.StringIO()
    emit_csv(grid, buffer)
    text = buffer.getvalue()
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    assert data[0] == "u,d,score"
    assert len(data) == 1 + 9  # header + 3x3 cells
    assert data[1].startswith("0,0,")
    assert data[2].startswith("0,1,")  # u-major, then d
    assert data[4].startswith("1,0,")
    meta = dict(line[1:].split(":", 1) for line in comments)
    meta = {k.strip(): v.strip() for k, v in meta.items()}
    assert meta["scorer"] == "improved"
    assert meta["z"] == "2"
    assert meta["p_weight"] == "0.5"
    assert meta["kind"] == "whole"
    assert meta["transform"] == "linear"
    assert meta["n_max"] == "10"
    assert not text.endswith("\r\n")
    assert text.endswith("\n")


def test_csv_round_trip(tmp_path):
    grid = grid_scores(improved_spec(12, 9, n_max=50, z=5.0, p_weight=0.25,
                                     si_kind=SiKind.NET, si_transform=LOG10, step=3))
    path = tmp_path / "grid.csv"
    emit_csv(grid, path)
    loaded = load_csv(path)
    assert np.array_equal(loaded.u_values, grid.u_values)
    assert np.array_equal(loaded.d_values, grid.d_values)
    assert np.max(np.abs(loaded.scores - grid.scores)) < 1e-9
    assert loaded.metadata["kind"] == "net"


def test_csv_single_cell_grid():
    grid = grid_scores(improved_spec(0, 0, n_max=10))
    buffer = io.StringIO()
    emit_csv(grid, buffer)
    data = [line for line in buffer.getvalue().splitlines() if not line.startswith("#")]
    assert data == ["u,d,score", "0,0,0"]


def test_csv_negative_scores_render():
    grid = grid_scores(improved_spec(0, 5, n_max=10, p_weight=0.0, si_kind=SiKind.NET))
    buffer = io.StringIO()
    emit_csv(grid, buffer)
    assert "0,5,-0.5" in buffer.getvalue().splitlines()


@pytest.mark.parametrize("spec", [
    improved_spec(0, 0, n_max=10),  # 1x1
    improved_spec(0, 40, n_max=50),  # 1xN
    improved_spec(40, 0, n_max=50),  # Nx1
    improved_spec(1000, 1000, n_max=2000, step=37, z=5.0, si_transform=LOG10),
    improved_spec(30, 60, n_max=100, p_weight=0.0, si_kind=SiKind.NET),  # negative scores
    # exp(d - n_max) underflows to (-)0.0 for most cells
    improved_spec(200, 900, n_max=2000, p_weight=0.0, si_kind=SiKind.NEGATIVE, si_transform=EXP),
    improved_spec(900, 200, n_max=2000, p_weight=0.3, si_kind=SiKind.NET, si_transform=EXP),
    GridSpec(50, 50, Maxima(100, 100, 100), WilsonScorer(1.5), 3),
    GridSpec(50, 50, Maxima(100, 100, 100), AverageRatingScorer(), 1),
], ids=["1x1", "1xN", "Nx1", "step37", "net-negative", "exp-underflow-negative",
        "exp-underflow-net", "wilson", "average"])
def test_csv_bytes_match_per_cell_reference(spec):
    grid = grid_scores(spec)
    expected, actual = io.StringIO(), io.StringIO()
    write_csv_reference(grid, expected)
    emit_csv(grid, actual)
    assert actual.getvalue() == expected.getvalue()


def test_csv_bytes_match_reference_on_special_values():
    specials = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e22,
                0.1 + 0.2, -123456789012345.6, 1.7976931348623157e308]
    grid = ScoreGrid(
        u_values=np.array([0, 7], dtype=np.int64),
        d_values=np.arange(len(specials), dtype=np.int64) * 5,
        scores=np.array([specials, specials[::-1]], dtype=np.float64),
        metadata={"scorer": "hand-built"},
    )
    expected, actual = io.StringIO(), io.StringIO()
    write_csv_reference(grid, expected)
    emit_csv(grid, actual)
    assert actual.getvalue() == expected.getvalue()
    assert "0,0,-0\n" in actual.getvalue() and "0,10,nan\n" in actual.getvalue()


# --- sweep ----------------------------------------------------------------------


def test_canonical_sweep_yields_twenty_grids_in_order():
    spec = SweepSpec(
        base=improved_spec(10, 10, n_max=40),
        z_values=(0.0, 1.0, 5.0, 25.0),
        p_values=(0.0, 0.25, 0.5, 0.75, 1.0),
        kinds=(SiKind.WHOLE,),
        transforms=(LINEAR,),
    )
    results = list(sweep(spec))
    assert len(results) == 20
    assert [point.z for point, _ in results[:5]] == [0.0] * 5
    assert [point.p_weight for point, _ in results[:5]] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert results[5][0].z == 1.0
    slugs = [point.slug() for point, _ in results]
    assert slugs[0] == "z0_p0_whole_linear"
    assert len(set(slugs)) == 20


def test_figure_series_sweep_shape():
    spec = SweepSpec(
        base=improved_spec(20, 20, n_max=80),
        z_values=(2.0, 5.0, 10.0),
        p_values=(0.5,),
        kinds=(SiKind.WHOLE, SiKind.NET, SiKind.POSITIVE),
        transforms=(LINEAR,),
    )
    assert len(list(sweep(spec))) == 9


def test_single_tuple_sweep_equals_direct_grid():
    spec = SweepSpec(
        base=improved_spec(8, 8, n_max=40),
        z_values=(2.0,),
        p_values=(0.25,),
        kinds=(SiKind.NET,),
        transforms=(LOG10,),
    )
    [(point, swept)] = list(sweep(spec))
    direct = grid_scores(improved_spec(8, 8, n_max=40, z=2.0, p_weight=0.25,
                                       si_kind=SiKind.NET, si_transform=LOG10))
    assert np.array_equal(swept.scores, direct.scores)
    assert point.slug() == "z2_p0.25_net_log"


def test_sweep_error_names_the_offending_tuple():
    spec = SweepSpec(
        base=improved_spec(30, 30, n_max=100),
        z_values=(2.0,),
        p_values=(0.5,),
        kinds=(SiKind.WHOLE, SiKind.UPVOTE),  # upvote needs u_max >= 30; maxima has 100, fine
        transforms=(LINEAR,),
    )
    assert len(list(sweep(spec))) == 2

    # the whole kind fits and upvote does not: the spec itself is refused,
    # so no grid of it is ever computed
    with pytest.raises(InconsistentMaximaError) as exc_info:
        SweepSpec(
            base=GridSpec(30, 30, Maxima(100, 10, 100),
                          ImprovedScorer(ScoringConfig()), 1),
            z_values=(2.0,),
            p_values=(0.5,),
            kinds=(SiKind.WHOLE, SiKind.UPVOTE),
            transforms=(LINEAR,),
        )
    assert exc_info.value.field == "u_max"
    assert str(exc_info.value) == (
        "sweep point z2_p0.5_upvote_linear: u_max=10 cannot cover u up to 30 for kind upvote")


def test_sweep_requires_improved_base():
    with pytest.raises(ValueError):
        SweepSpec(
            base=GridSpec(5, 5, Maxima(20, 20, 20), WilsonScorer(2.0), 1),
            z_values=(1.0,),
            p_values=(0.5,),
            kinds=(SiKind.WHOLE,),
            transforms=(LINEAR,),
        )


def test_sweep_rejects_empty_lists():
    with pytest.raises(ValueError):
        SweepSpec(
            base=improved_spec(5, 5, n_max=20),
            z_values=(),
            p_values=(0.5,),
            kinds=(SiKind.WHOLE,),
            transforms=(LINEAR,),
        )


def test_sweep_point_error_keeps_its_type_and_field():
    with pytest.raises(ConfigError) as exc_info:
        SweepSpec(
            base=GridSpec(2, 2, Maxima(10, 10, 10), ImprovedScorer(ScoringConfig()), 1),
            z_values=(2.0,),
            p_values=(0.5, 2.0),
            kinds=(SiKind.WHOLE,),
            transforms=(LINEAR,),
        )
    assert exc_info.value.field == "p_weight"
    assert str(exc_info.value).startswith("sweep point z2_p2_whole_linear: p_weight: ")
