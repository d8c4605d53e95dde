import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ridepool.embedding import (
    BipartiteLaplacian,
    EmbeddingConfig,
    GridIndex,
    InteractionMatrix,
    build_interaction_matrix,
    build_laplacian,
    compute_user_features,
    encode_location,
    grid_covering,
    propagate,
    read_features,
    write_features,
)
from ridepool.geo import GeoPoint
from ridepool.pipeline import embed_trips
from ridepool.scenario import generate_scenario, load_config

from conftest import scenario_instance

binary_matrices = arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.integers(0, 1),
)


def interactions_from(A):
    A = np.asarray(A, dtype=np.int64)
    return InteractionMatrix(user_ids=tuple(range(A.shape[0])), cells=tuple(range(A.shape[1])), matrix=A)


def propagate_oracle(prev, lap, w1, w2, activation):
    """Element-by-element re-evaluation of the propagation formula."""
    n, d = prev.shape
    out = np.zeros((n, d))
    for i in range(n):
        for j in range(d):
            term1 = 0.0
            for k in range(n):
                coef = lap[i][k] + (1.0 if i == k else 0.0)
                inner = 0.0
                for m in range(d):
                    inner += prev[k][m] * w1[m][j]
                term1 += coef * inner
            le = 0.0
            for k in range(n):
                le += lap[i][k] * prev[k][j]
            ew = 0.0
            for m in range(d):
                ew += prev[i][m] * w2[m][j]
            z = term1 + le * ew
            if activation == "relu":
                out[i][j] = max(z, 0.0)
            elif activation == "sigmoid":
                out[i][j] = 1.0 / (1.0 + math.exp(-z))
            else:
                out[i][j] = z
    return out


class TestEncodeLocation:
    GRID = GridIndex(anchor=GeoPoint(0.0, 0.0), cell_size=0.01, rows=4, cols=5)

    def test_anchor_is_cell_zero(self):
        assert encode_location(self.GRID, GeoPoint(0.0, 0.0)) == 0

    def test_one_cell_east(self):
        assert encode_location(self.GRID, GeoPoint(0.0, 0.01)) == 1

    def test_row_major_layout(self):
        assert encode_location(self.GRID, GeoPoint(0.015, 0.021)) == 1 * 5 + 2

    def test_clamps_west(self):
        assert encode_location(self.GRID, GeoPoint(0.005, -0.5)) == 0

    def test_clamps_far_corner(self):
        assert encode_location(self.GRID, GeoPoint(10.0, 10.0)) == 4 * 5 - 1

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            GridIndex(anchor=GeoPoint(0.0, 0.0), cell_size=0.0, rows=1, cols=1)

    def test_grid_covering_spans_points(self):
        points = [GeoPoint(0.0, 0.0), GeoPoint(0.035, 0.051)]
        grid = grid_covering(points, 0.01)
        assert grid.rows == 4 and grid.cols == 6
        # both points land inside without clamping ambiguity
        assert encode_location(grid, points[0]) == 0
        assert encode_location(grid, points[1]) == 3 * 6 + 5


class TestInteractionMatrix:
    def test_single_trip_two_cells(self):
        net, trips, _ = scenario_instance(seed=1, n_trips=1)
        t = trips[0]
        grid = grid_covering([t.origin_point, t.dest_point], 0.001)
        im = build_interaction_matrix([t], grid)
        assert im.matrix.sum() == 2

    def test_binary_idempotent_visits(self, line_net):
        from ridepool.shareability import make_trip

        # two trips by one user sharing a destination cell
        trips = [
            make_trip(line_net, 0, 0, line_net.nodes[0], line_net.nodes[3], 0.0),
            make_trip(line_net, 1, 0, line_net.nodes[1], line_net.nodes[3], 0.0),
        ]
        grid = grid_covering([p for t in trips for p in (t.origin_point, t.dest_point)], 0.005)
        im = build_interaction_matrix(trips, grid)
        dest_cell = encode_location(grid, trips[0].dest_point)
        assert im.matrix[0, im.cells.index(dest_cell)] == 1
        assert im.matrix.max() == 1

    def test_seeded_scenario_matches_exhaustive_scan(self):
        net, trips, _ = scenario_instance(seed=9, n_trips=12, user_mod=3)
        grid = grid_covering([p for t in trips for p in (t.origin_point, t.dest_point)], 0.004)
        im = build_interaction_matrix(trips, grid)
        endpoints = [encode_location(grid, p) for t in trips for p in (t.origin_point, t.dest_point)]
        assert im.cells == tuple(sorted(set(endpoints)))
        expected = np.zeros_like(im.matrix)
        for t in trips:
            row = im.user_ids.index(t.user_id)
            expected[row, im.cells.index(encode_location(grid, t.origin_point))] = 1
            expected[row, im.cells.index(encode_location(grid, t.dest_point))] = 1
        assert (im.matrix == expected).all()
        assert (im.matrix.sum(axis=1) >= 1).all()
        assert (im.matrix.sum(axis=0) >= 1).all()


def dense_laplacian(A):
    """The full (users + cells)^2 matrix D^-1/2 B D^-1/2, straight from the formula."""
    A = np.asarray(A, dtype=np.float64)
    n_users, n_cells = A.shape
    B = np.zeros((n_users + n_cells, n_users + n_cells))
    B[:n_users, n_users:] = A
    B[n_users:, :n_users] = A.T
    degree = B.sum(axis=1)
    inv_sqrt = np.array([1.0 / math.sqrt(d) if d > 0 else 0.0 for d in degree])
    return inv_sqrt[:, None] * B * inv_sqrt[None, :]


def materialized(lap):
    return lap @ np.eye(lap.shape[0])


class TestLaplacian:
    def test_single_entry(self):
        lap = build_laplacian(interactions_from([[1]]))
        assert (materialized(lap) == np.array([[0.0, 1.0], [1.0, 0.0]])).all()

    @given(binary_matrices)
    def test_symmetric_with_spectrum_bounded_by_one(self, A):
        # symmetric degree normalization bounds the spectral radius by 1
        # (row abs sums can exceed 1: A = [[1, 1]] yields a sqrt(2) row)
        lap = materialized(build_laplacian(interactions_from(A)))
        assert (lap == lap.T).all()
        assert np.isfinite(lap).all()
        eigenvalues = np.linalg.eigvalsh(lap)
        assert np.abs(eigenvalues).max() <= 1.0 + 1e-9

    def test_zero_degree_rows_stay_zero(self):
        lap = materialized(build_laplacian(interactions_from([[1, 0], [0, 0]])))
        assert not lap[1].any()  # user 1 visited nothing
        assert not lap[:, 3].any()  # cell 1 never visited

    @given(binary_matrices)
    def test_keeps_only_the_user_cell_block(self, A):
        lap = build_laplacian(interactions_from(A))
        n_users, n_cells = A.shape
        assert lap.shape == (n_users + n_cells, n_users + n_cells)
        assert lap.nbytes == n_users * n_cells * 8

    @given(
        binary_matrices,
        st.integers(1, 5),
        st.sampled_from(["relu", "sigmoid", "linear"]),
        st.integers(0, 2**32 - 1),
    )
    def test_operator_propagate_matches_dense(self, A, d, activation, seed):
        # one idle user and one unvisited cell, so both kinds of zero degree occur
        A = np.pad(A, ((0, 1), (0, 1)))
        n = sum(A.shape)
        rng = np.random.default_rng(seed)
        prev = rng.normal(size=(n, d))
        w1 = rng.normal(size=(d, d))
        w2 = rng.normal(size=(d, d))
        lap = build_laplacian(interactions_from(A))
        out = propagate(prev, lap, w1, w2, activation)
        expected = propagate(prev, dense_laplacian(A), w1, w2, activation)
        assert np.abs(out - expected).max() <= 1e-12


class TestPropagate:
    def test_zero_laplacian_identity(self):
        rng = np.random.default_rng(0)
        prev = rng.normal(size=(4, 3))
        out = propagate(prev, np.zeros((4, 4)), np.eye(3), rng.normal(size=(3, 3)), "linear")
        assert (out == prev).all()

    def test_relu_clamps_negative_preactivation(self):
        prev = np.ones((2, 2))
        out = propagate(prev, np.zeros((2, 2)), -np.eye(2), np.zeros((2, 2)), "relu")
        assert (out == 0.0).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            propagate(np.ones((2, 2)), np.zeros((3, 3)), np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            propagate(np.ones((2, 2)), np.zeros((2, 2)), np.eye(3), np.eye(2))

    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "linear"])
    def test_matches_elementwise_oracle_small(self, activation):
        rng = np.random.default_rng(42)
        prev = rng.normal(size=(5, 3))
        lap = rng.normal(size=(5, 5))
        w1 = rng.normal(size=(3, 3))
        w2 = rng.normal(size=(3, 3))
        out = propagate(prev, lap, w1, w2, activation)
        expected = propagate_oracle(prev, lap, w1, w2, activation)
        assert np.abs(out - expected).max() < 1e-9


class TestUserFeatures:
    def _features(self, **overrides):
        net, trips, _ = scenario_instance(seed=4, n_trips=10, user_mod=4)
        grid = grid_covering([p for t in trips for p in (t.origin_point, t.dest_point)], 0.004)
        cfg = EmbeddingConfig(**{"dim": 4, "layers": 2, "init_seed": 3, **overrides})
        return compute_user_features(trips, grid, cfg), cfg

    def test_length_is_layers_plus_one_times_dim(self):
        features, cfg = self._features()
        for vec in features.values():
            assert vec.shape == ((cfg.layers + 1) * cfg.dim,)

    def test_deterministic(self):
        f1, _ = self._features()
        f2, _ = self._features()
        assert set(f1) == set(f2)
        for uid in f1:
            assert (f1[uid] == f2[uid]).all()

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_all_finite(self, activation):
        features, _ = self._features(activation=activation, layers=4)
        for vec in features.values():
            assert np.isfinite(vec).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(dim=0)
        with pytest.raises(ValueError):
            EmbeddingConfig(layers=0)
        with pytest.raises(ValueError):
            EmbeddingConfig(activation="tanh")


def oracle_propagation(user_ids, A, layer0, rng, cfg):
    """Propagate from `layer0` over the block of `A`, scaled as the formula
    reads, drawing each layer's weights from `rng`."""
    A = np.asarray(A, dtype=np.float64)
    with np.errstate(divide="ignore"):
        user_scale, cell_scale = (np.where(d > 0.0, 1.0 / np.sqrt(d), 0.0) for d in (A.sum(axis=1), A.sum(axis=0)))
    lap = BipartiteLaplacian(user_scale[:, None] * A * cell_scale[None, :])
    layers = [layer0]
    for _ in range(cfg.layers):
        w1 = rng.uniform(-cfg.init_scale, cfg.init_scale, size=(cfg.dim, cfg.dim))
        w2 = rng.uniform(-cfg.init_scale, cfg.init_scale, size=(cfg.dim, cfg.dim))
        layers.append(propagate(layers[-1], lap, w1, w2, cfg.activation))
    stacked = np.concatenate(layers, axis=1)
    return {uid: stacked[i] for i, uid in enumerate(user_ids)}


def endpoint_cells(trips, grid):
    return [(t.user_id, encode_location(grid, p)) for t in trips for p in (t.origin_point, t.dest_point)]


def full_grid_features(trips, grid, cfg):
    """Every grid cell is a node: it has a column of A, zero when empty, and
    a row of the one layer-0 draw over users and cells."""
    user_ids = sorted({t.user_id for t in trips})
    A = np.zeros((len(user_ids), grid.n_cells))
    for uid, cell in endpoint_cells(trips, grid):
        A[user_ids.index(uid), cell] = 1.0
    rng = np.random.default_rng(cfg.init_seed)
    layer0 = rng.uniform(-cfg.init_scale, cfg.init_scale, size=(len(user_ids) + grid.n_cells, cfg.dim))
    return oracle_propagation(user_ids, A, layer0, rng, cfg)


def stream_features(trips, grid, cfg):
    """The full-grid features for grids too large to draw: a fresh stream is
    moved to each node's row (users, then every cell by id, then the
    weights), one 64-bit output per double and the period 2**128."""
    user_ids = sorted({t.user_id for t in trips})
    cells = sorted({cell for _, cell in endpoint_cells(trips, grid)})
    A = np.zeros((len(user_ids), len(cells)))
    for uid, cell in endpoint_cells(trips, grid):
        A[user_ids.index(uid), cells.index(cell)] = 1.0

    def stream_at(row):
        rng = np.random.default_rng(cfg.init_seed)
        rng.bit_generator.advance(row * cfg.dim % 2**128)
        return rng

    def rows_at(row, count):
        return stream_at(row).uniform(-cfg.init_scale, cfg.init_scale, size=(count, cfg.dim))

    layer0 = np.vstack([rows_at(0, len(user_ids))] + [rows_at(len(user_ids) + cell, 1) for cell in cells])
    return oracle_propagation(user_ids, A, layer0, stream_at(len(user_ids) + grid.n_cells), cfg)


def lattice_trips(ends, cell_size):
    """(user, (row, col), (row, col)) triples as trips whose endpoints sit
    mid-cell on a lattice of `cell_size` degrees."""

    def point(row_col):
        row, col = row_col
        return GeoPoint(40.0 + (row + 0.5) * cell_size, -74.0 + (col + 0.5) * cell_size)

    return [SimpleNamespace(user_id=uid, origin_point=point(o), dest_point=point(d)) for uid, o, d in ends]


def grid_over(trips, cell_size):
    return grid_covering([p for t in trips for p in (t.origin_point, t.dest_point)], cell_size)


def assert_same_features(features, expected):
    """The printed 9-digit values are identical and no value moves by more than 1e-15."""
    assert set(features) == set(expected)
    for uid in expected:
        assert [f"{v:.9g}" for v in features[uid]] == [f"{v:.9g}" for v in expected[uid]]
        assert np.abs(features[uid] - expected[uid]).max() <= 1e-15


@st.composite
def lattice_demand(draw):
    """A few trips on a lattice of up to 10 x 10 cells, most of them empty,
    at cell sizes down to 1e-9 deg, with a small seeded config."""
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    ends = draw(st.lists(st.tuples(st.integers(0, 4), cell, cell), min_size=1, max_size=8))
    cfg = EmbeddingConfig(
        dim=draw(st.integers(1, 5)),
        layers=draw(st.integers(1, 3)),
        activation=draw(st.sampled_from(["relu", "sigmoid"])),
        init_seed=draw(st.integers(0, 2**32 - 1)),
    )
    return ends, draw(st.sampled_from([1e-9, 1e-6, 1e-3, 0.02])), cfg


class TestOccupiedCells:
    """Features over the occupied cells only, against the full grid."""

    @settings(max_examples=150, deadline=None)
    @given(lattice_demand())
    def test_matches_the_full_grid(self, demand):
        ends, cell_size, cfg = demand
        trips = lattice_trips(ends, cell_size)
        grid = grid_over(trips, cell_size)
        assert_same_features(compute_user_features(trips, grid, cfg), full_grid_features(trips, grid, cfg))

    @pytest.mark.parametrize("cell_size", [1e-9, 0.02])
    @pytest.mark.parametrize(
        "ends",
        [
            [(0, (0, 0), (0, 5)), (1, (3, 2), (0, 5)), (2, (6, 6), (5, 7))],  # empty cells between and after occupied ones
            [(0, (2, 2), (2, 2)), (1, (0, 0), (4, 4)), (0, (2, 2), (1, 3))],  # both endpoints of a user in one cell
            [(0, (0, 0), (0, 0)), (3, (0, 0), (0, 0))],  # a single cell
        ],
        ids=["gaps", "one-cell-user", "single-cell"],
    )
    def test_named_layouts_match_the_full_grid(self, ends, cell_size):
        trips = lattice_trips(ends, cell_size)
        grid = grid_over(trips, cell_size)
        cfg = EmbeddingConfig(dim=3, layers=2, init_seed=7)
        expected = full_grid_features(trips, grid, cfg)
        assert_same_features(compute_user_features(trips, grid, cfg), expected)
        assert_same_features(stream_features(trips, grid, cfg), expected)

    @pytest.mark.parametrize("cell_size", [1e-10, 1e-19])
    def test_grid_beyond_int64(self, cell_size):
        # 20 x 20 deg: about 4e22 cells at 1e-10 deg, so cell ids and
        # n_cells x dim exceed int64; about 4e40 at 1e-19, past the period 2**128
        # (the far corner cell stays empty, so the draws past the last occupied cell are skipped too)
        corners = [GeoPoint(40.0, -74.0), GeoPoint(60.0, -60.0), GeoPoint(45.5, -60.25), GeoPoint(40.0, -54.0)]
        trips = [
            SimpleNamespace(user_id=0, origin_point=corners[0], dest_point=corners[1]),
            SimpleNamespace(user_id=1, origin_point=corners[2], dest_point=corners[3]),
            SimpleNamespace(user_id=1, origin_point=corners[3], dest_point=corners[0]),
        ]
        grid = grid_over(trips, cell_size)
        cfg = EmbeddingConfig(dim=4, layers=2, init_seed=11)
        assert grid.n_cells * cfg.dim > 2**63
        im = build_interaction_matrix(trips, grid)
        assert im.matrix.shape == (2, 4)
        assert_same_features(compute_user_features(trips, grid, cfg), stream_features(trips, grid, cfg))


class TestSpreadDemand:
    def test_arrays_grow_with_trips_not_with_the_grid(self):
        # demand spread over thousands of km: at the default 0.02 deg the
        # endpoints' grid has about 81 M cells, and a dense users x cells
        # matrix would need gigabytes; only occupied cells get a column
        cfg = load_config(text="[demand]\nn_trips = 20\nn_users = 12\nhotspot_spread_m = 5000000\n")
        _, trips = generate_scenario(cfg)
        grid = grid_over(trips, cfg.grid_cell_deg)
        assert grid.n_cells > 50_000_000
        n_users = len({t.user_id for t in trips})
        im = build_interaction_matrix(trips, grid)
        assert im.matrix.shape[0] == n_users and im.matrix.shape[1] <= 2 * len(trips)
        lap = build_laplacian(im)
        assert lap.block.shape == im.matrix.shape
        assert lap.shape == (n_users + im.matrix.shape[1],) * 2
        features = embed_trips(trips, cfg)
        assert len(features) == n_users
        assert all(np.isfinite(v).all() for v in features.values())


class TestFeatureIO:
    def test_round_trip(self, tmp_path):
        net, trips, _ = scenario_instance(seed=4, n_trips=6)
        grid = grid_covering([p for t in trips for p in (t.origin_point, t.dest_point)], 0.004)
        features = compute_user_features(trips, grid, EmbeddingConfig(dim=3, layers=2))
        path = tmp_path / "features.txt"
        write_features(features, path)
        loaded = read_features(path)
        assert set(loaded) == set(features)
        for uid in features:
            assert np.allclose(loaded[uid], features[uid], rtol=1e-8, atol=1e-12)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "features.txt"
        cases = [
            ("U 0\n", 1),  # no values
            ("U 0 1 2\nU 1 3 4\nU 0 5 6\n", 3),  # a second row for user 0
            ("U 0 1 2\n# note\nU 1 3\n", 3),  # narrower than the first row
            ("U 0 1 2\nU 1 3 4 5\n", 2),  # wider than the first row
            ("U 0 1 2\nU 1 nan 4\n", 2),  # not a number
            ("U 0 inf 2\n", 1),  # infinite
            ("U 0 1 2\nU 1 3 -inf\n", 2),  # minus infinity
        ]
        for text, lineno in cases:
            path.write_text(text)
            with pytest.raises(ValueError, match=f"features.txt:{lineno}: "):
                read_features(path)
