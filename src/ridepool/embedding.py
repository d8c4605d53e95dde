"""User context vectors from the user-location bipartite graph.

Locations are grid-encoded; visiting a cell links the user to it.  Feature
vectors come from layered propagation over the degree-normalized bipartite
adjacency L (users first, then cells):

    E_l = act((L @ E_{l-1} + E_{l-1}) @ W1_l + (L @ E_{l-1}) * (E_{l-1} @ W2_l))

with `*` element-wise.  L is zero outside its user x cell block and in empty
cells' columns, so it is kept as its user x occupied-cell block alone
(`BipartiteLaplacian`, the sparse propagation of LightGCN, He et al. 2020):
memory grows with users x occupied cells.  Per-layer user rows are concatenated
into the final context vector, layer 0 included.  No supervised training
happens here: weights are seeded random and fixed, which keeps runs
reproducible; a trained initializer is an extension point, not a requirement.
"""

import math

from dataclasses import dataclass

import numpy as np

from .geo import GeoPoint, read_records

_ACTIVATIONS = {
    "relu": lambda z: np.maximum(z, 0.0),
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
    "linear": lambda z: z,
}


@dataclass(frozen=True)
class GridIndex:
    """Row-major lattice of cells anchored at its south-west corner."""

    anchor: GeoPoint
    cell_size: float
    rows: int
    cols: int

    def __post_init__(self):
        if self.cell_size <= 0.0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid needs at least one row and one column")

    @property
    def n_cells(self):
        return self.rows * self.cols


def grid_covering(points, cell_size) -> GridIndex:
    """Smallest grid anchored at the points' south-west corner covering them all."""
    points = list(points)
    if not points:
        raise ValueError("cannot build a grid over zero points")
    lat0 = min(p.lat for p in points)
    lon0 = min(p.lon for p in points)
    rows = max(1, int(math.floor((max(p.lat for p in points) - lat0) / cell_size)) + 1)
    cols = max(1, int(math.floor((max(p.lon for p in points) - lon0) / cell_size)) + 1)
    return GridIndex(anchor=GeoPoint(lat0, lon0), cell_size=cell_size, rows=rows, cols=cols)


def encode_location(grid: GridIndex, p: GeoPoint) -> int:
    """Cell id = row*cols + col; points outside the extent clamp to the edge cells."""
    row = int(math.floor((p.lat - grid.anchor.lat) / grid.cell_size))
    col = int(math.floor((p.lon - grid.anchor.lon) / grid.cell_size))
    row = min(max(row, 0), grid.rows - 1)
    col = min(max(col, 0), grid.cols - 1)
    return row * grid.cols + col


@dataclass(frozen=True)
class InteractionMatrix:
    """Binary user x occupied-cell visit matrix: rows by sorted user id, columns by ascending cell id."""

    user_ids: tuple
    cells: tuple
    matrix: np.ndarray


@dataclass(frozen=True)
class EmbeddingConfig:
    dim: int = 16
    layers: int = 3
    activation: str = "relu"
    init_seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if self.activation not in ("relu", "sigmoid"):
            raise ValueError(f"activation must be relu or sigmoid, got {self.activation!r}")


def build_interaction_matrix(trips, grid: GridIndex) -> InteractionMatrix:
    """A[u][j] = 1 iff user u has a trip endpoint (origin or dest) in cell cells[j]."""
    visits = [(t.user_id, encode_location(grid, p)) for t in trips for p in (t.origin_point, t.dest_point)]
    user_ids = tuple(sorted({uid for uid, _ in visits}))
    cells = tuple(sorted({cell for _, cell in visits}))
    row = {uid: i for i, uid in enumerate(user_ids)}
    col = {cell: j for j, cell in enumerate(cells)}
    A = np.zeros((len(user_ids), len(cells)), dtype=np.int64)
    for uid, cell in visits:
        A[row[uid], col[cell]] = 1
    return InteractionMatrix(user_ids=user_ids, cells=cells, matrix=A)


@dataclass(frozen=True, eq=False)
class BipartiteLaplacian:
    """The symmetric normalized adjacency D^-1/2 B D^-1/2 of the bipartite
    graph B (users, then cells), held as its only nonzero block
    `D_u^-1/2 A D_c^-1/2` (users x cells).  `lap @ E` multiplies as the full
    (users + cells)^2 matrix would.
    """

    block: np.ndarray

    @property
    def shape(self):
        n = sum(self.block.shape)
        return (n, n)

    @property
    def nbytes(self):
        return self.block.nbytes

    def __matmul__(self, other):
        n_users = self.block.shape[0]
        return np.vstack((self.block @ other[n_users:], self.block.T @ other[:n_users]))


def _inv_sqrt(degree):
    with np.errstate(divide="ignore"):
        return np.where(degree > 0.0, 1.0 / np.sqrt(degree), 0.0)


def build_laplacian(interactions: InteractionMatrix) -> BipartiteLaplacian:
    """Degree-normalized user x cell block; zero-degree users and cells keep
    zero rows and columns instead of dividing by zero."""
    block = interactions.matrix.astype(np.float64)
    block *= _inv_sqrt(interactions.matrix.sum(axis=1))[:, None]
    block *= _inv_sqrt(interactions.matrix.sum(axis=0))
    return BipartiteLaplacian(block)


def propagate(prev: np.ndarray, lap, w1: np.ndarray, w2: np.ndarray, activation="relu") -> np.ndarray:
    """One propagation layer; `lap` is a dense matrix or a `BipartiteLaplacian`
    and `activation` a name from relu/sigmoid/linear."""
    n, d = prev.shape
    if lap.shape != (n, n):
        raise ValueError(f"laplacian shape {lap.shape} does not match embeddings {prev.shape}")
    if w1.shape != (d, d) or w2.shape != (d, d):
        raise ValueError(f"weight shapes {w1.shape}/{w2.shape} do not match dim {d}")
    lp = lap @ prev
    return _ACTIVATIONS[activation]((lp + prev) @ w1 + lp * (prev @ w2))


def compute_user_features(trips, grid: GridIndex, cfg: EmbeddingConfig) -> dict:
    """Seeded propagation over the trips' interaction graph, drawing as over
    the whole grid with the empty cells' layer-0 rows skipped, not drawn.
    Returns user_id -> concatenated per-layer rows.
    """
    interactions = build_interaction_matrix(trips, grid)
    lap = build_laplacian(interactions)
    rng = np.random.default_rng(cfg.init_seed)

    def skip(cells):  # PCG64 spends one 64-bit output per double; its period is 2**128
        rng.bit_generator.advance(cells * cfg.dim % 2**128)

    def draw(rows):
        return rng.uniform(-cfg.init_scale, cfg.init_scale, size=(rows, cfg.dim))

    layer0, passed = [draw(len(interactions.user_ids))], 0
    for cell in interactions.cells:
        skip(cell - passed)
        layer0.append(draw(1))
        passed = cell + 1
    skip(grid.n_cells - passed)
    layers = [np.concatenate(layer0)]
    for _ in range(cfg.layers):
        w1, w2 = draw(cfg.dim), draw(cfg.dim)
        layers.append(propagate(layers[-1], lap, w1, w2, cfg.activation))
    stacked = np.concatenate(layers, axis=1)
    return {uid: stacked[i].copy() for i, uid in enumerate(interactions.user_ids)}


def write_features(features: dict, path):
    """`U <user_id> <v_0> ... <v_k>` with 9-significant-digit values."""
    with open(path, "w") as fh:
        for uid in sorted(features):
            values = features[uid].tolist()  # Python floats format faster than numpy scalars
            fh.write(f"U {uid}" + " %.9g" * len(values) % tuple(values) + "\n")


def read_features(path) -> dict:
    """User vectors by id; every user appears once and every row has the
    width of the first."""
    features = {}

    def parse(fields):
        _, uid, *values = fields
        uid = int(uid)
        width = len(next(iter(features.values()), values))  # the first row's
        if uid in features:
            raise ValueError(f"a second row for user {uid}")
        if not values:
            raise ValueError(f"user {uid} has no values")
        if len(values) != width:
            raise ValueError(f"user {uid} has {len(values)} values, the first row {width}")
        features[uid] = np.array([float(v) for v in values], dtype=np.float64)

    read_records(path, "feature", {"U": None}, parse)
    return features
