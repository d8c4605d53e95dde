import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ridepool.embedding import (
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

from conftest import scenario_instance

binary_matrices = arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.integers(0, 1),
)


def interactions_from(A):
    A = np.asarray(A, dtype=np.int64)
    return InteractionMatrix(user_ids=tuple(range(A.shape[0])), matrix=A)


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
        assert im.matrix[0, dest_cell] == 1
        assert im.matrix.max() == 1

    def test_seeded_scenario_matches_exhaustive_scan(self):
        net, trips, _ = scenario_instance(seed=9, n_trips=12, user_mod=3)
        grid = grid_covering([p for t in trips for p in (t.origin_point, t.dest_point)], 0.004)
        im = build_interaction_matrix(trips, grid)
        expected = np.zeros_like(im.matrix)
        for t in trips:
            row = im.user_ids.index(t.user_id)
            expected[row, encode_location(grid, t.origin_point)] = 1
            expected[row, encode_location(grid, t.dest_point)] = 1
        assert (im.matrix == expected).all()
        assert (im.matrix.sum(axis=1) >= 1).all()


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
        ]
        for text, lineno in cases:
            path.write_text(text)
            with pytest.raises(ValueError, match=f"features.txt:{lineno}: "):
                read_features(path)
