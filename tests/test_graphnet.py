"""Digraph construction, degrees, connectivity, Laplacian, Perron weights."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_strongly_connected_adjacency, reachability_closure
from ifpsync import graphnet
from ifpsync.graphnet import Cells
from ifpsync import (
    BadDimensions,
    Digraph,
    NegativeWeight,
    NotSquare,
    NotStronglyConnected,
    SelfLoop,
    build_digraph,
    check_weak_coupling,
    connectivity,
    degrees,
    laplacian,
    perron_weights,
)


# ---------------------------------------------------------------------------
# build_digraph
# ---------------------------------------------------------------------------

class TestBuildDigraph:
    def test_bidirectional_pair(self):
        g = build_digraph([[0, 1], [1, 0]])
        assert g.n == 2
        assert [v.tolist() for v in g.arcs] == [[0, 1], [1, 0], [1.0, 1.0]]

    def test_single_arc(self):
        g = build_digraph([[0, 1], [0, 0]])
        assert g.n == 2
        assert [v.tolist() for v in g.arcs] == [[1], [0], [1.0]]

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            build_digraph([[1, 0], [0, 0]])

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            build_digraph([[0, -1], [1, 0]])

    def test_non_square_rejected(self):
        with pytest.raises(NotSquare):
            build_digraph([[0, 1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(BadDimensions, match=r"a\[0,1\]"):
            build_digraph([[0, weight], [1, 0]])


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------

class TestDegrees:
    def test_symmetric_pair(self):
        d_plus, d_minus = degrees(build_digraph([[0, 1], [1, 0]]))
        assert np.array_equal(d_plus, [1, 1])
        assert np.array_equal(d_minus, [1, 1])

    def test_row_and_column_sums(self):
        d_plus, d_minus = degrees(build_digraph([[0, 2], [0, 0]]))
        assert np.array_equal(d_plus, [2, 0])
        assert np.array_equal(d_minus, [0, 2])

    def test_unit_ring(self):
        a = np.zeros((3, 3))
        for i in range(3):
            a[i, (i - 1) % 3] = 1.0
        d_plus, _ = degrees(build_digraph(a))
        assert np.array_equal(d_plus, [1, 1, 1])


# ---------------------------------------------------------------------------
# arcs
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 10_000), n=st.integers(1, 12), density=st.floats(0.0, 1.0))
def test_arcs_are_the_support_ordered_by_tail(seed, n, density):
    rng = np.random.default_rng(seed)
    a = np.where(rng.random((n, n)) < density, rng.uniform(0.1, 2.0, (n, n)), 0.0)
    np.fill_diagonal(a, 0.0)
    k, j = np.nonzero(a.T)
    rows, cols = np.nonzero(a)
    for g in (build_digraph(a), build_digraph(Cells(n, rows, cols, a[rows, cols]))):
        tails, heads, weights = g.arcs
        assert np.array_equal(tails, k) and np.array_equal(heads, j)
        assert np.array_equal(weights, a[j, k])
        assert tails.dtype == heads.dtype == np.intp and weights.dtype == np.float64


def test_arcs_of_a_digraph_built_directly():
    g = Digraph(n=3, tails=np.array([0, 1, 2]), heads=np.array([1, 2, 0]),
                weights=np.array([1.0, 3.0, 2.0]))
    tails, heads, weights = g.arcs
    assert tails.tolist() == [0, 1, 2] and heads.tolist() == [1, 2, 0]
    assert weights.tolist() == [1.0, 3.0, 2.0]
    assert laplacian(g).tolist() == [[2.0, 0.0, -2.0], [-1.0, 1.0, 0.0], [0.0, -3.0, 3.0]]


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------

class TestConnectivity:
    def test_directed_ring_strongly_connected(self):
        a = np.zeros((3, 3))
        for i in range(3):
            a[i, (i - 1) % 3] = 1.0
        rep = connectivity(build_digraph(a))
        assert rep.strongly_connected
        assert rep.scc_count == 1

    def test_chain_quasi_strongly_connected_only(self):
        # arcs 0 -> 1 -> 2: row j holds arcs INTO node j
        a = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        rep = connectivity(build_digraph(a))
        assert not rep.strongly_connected
        assert rep.quasi_strongly_connected
        assert rep.scc_count == 3

    def test_isolated_nodes(self):
        rep = connectivity(build_digraph([[0, 0], [0, 0]]))
        assert not rep.strongly_connected
        assert not rep.quasi_strongly_connected
        assert rep.scc_count == 2


# ---------------------------------------------------------------------------
# laplacian
# ---------------------------------------------------------------------------

class TestLaplacian:
    def test_symmetric_pair(self):
        assert np.array_equal(
            laplacian(build_digraph([[0, 1], [1, 0]])), [[1, -1], [-1, 1]]
        )

    def test_direct_formula(self):
        assert np.array_equal(
            laplacian(build_digraph([[0, 2], [0, 0]])), [[2, -2], [0, 0]]
        )

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(11)
        a = random_strongly_connected_adjacency(rng, 5)
        ell = laplacian(build_digraph(a))
        assert np.max(np.abs(ell.sum(axis=1))) < 1e-13 * 5 * np.max(a)


# ---------------------------------------------------------------------------
# perron_weights
# ---------------------------------------------------------------------------

def svd_perron_oracle(a: np.ndarray) -> np.ndarray:
    """Right singular vector of L^T for its smallest singular value, signed
    positive and normalized to sum 1: the null vector computed independently
    of the bordered solve."""
    lap = np.diag(a.sum(axis=1)) - a
    _, _, vt = np.linalg.svd(lap.T)
    p = vt[-1]
    return p / p.sum()


def unchecked_digraph(a: np.ndarray) -> Digraph:
    """The Digraph whose arcs are the nonzero cells of a, ordered by tail,
    built without build_digraph, which would reject a negative or NaN
    weight."""
    tails, heads = np.nonzero(a.T)
    return Digraph(n=a.shape[0], tails=tails, heads=heads, weights=a[heads, tails])


def ring_with_hidden_weight(x: float) -> Digraph:
    """Directed 3-ring plus a[2, 0] = -x. The ring alone makes the graph
    strongly connected, and the negative arc shifts the null vector of L^T
    to [1 - x, 1, 1]."""
    return unchecked_digraph(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [-x, 1.0, 0.0]]))


def sparse_strongly_connected_adjacency(rng: np.random.Generator, n: int,
                                        in_arcs: int) -> np.ndarray:
    """A directed ring backbone plus about in_arcs random in-arcs per node,
    weights uniform in [0.1, 2.0]: the shape of a large certify input."""
    a = np.zeros((n, n))
    a[np.arange(n), np.arange(n) - 1] = rng.uniform(0.1, 2.0, n)
    j = np.repeat(np.arange(n), in_arcs)
    k = rng.integers(0, n, j.size)
    a[j[j != k], k[j != k]] = rng.uniform(0.1, 2.0, np.count_nonzero(j != k))
    return a


def ring_with_chord(n: int) -> np.ndarray:
    """Unit directed n-ring (arc i-1 -> i) plus the arc n/2 -> 0. It mixes so
    slowly that power iteration cannot meet its stop rule within the budget.
    Its Perron weights are 2 on nodes 1..n/2 and 1 elsewhere, up to scale."""
    a = np.zeros((n, n))
    a[np.arange(n), np.arange(n) - 1] = 1.0
    a[0, n // 2] = 1.0
    return a


@contextlib.contextmanager
def counting_dense_solves():
    """Yields a list that gets one entry per dense bordered solve."""
    calls = []

    def counted(*args, _real=graphnet._bordered_solve):
        calls.append(args)
        return _real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphnet, "_bordered_solve", counted)
        yield calls


@pytest.fixture
def dense_solves():
    with counting_dense_solves() as calls:
        yield calls


@pytest.fixture
def sweeps(monkeypatch):
    """A list that gets one entry per sweep of the Perron power iteration:
    per np.bincount call inside graphnet._power_iteration."""
    calls = []

    def counted(*args, _real=np.bincount, **kwargs):
        calls.append(args)
        return _real(*args, **kwargs)

    def iteration(*args, _real=graphnet._power_iteration):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "bincount", counted)
            return _real(*args)

    monkeypatch.setattr(graphnet, "_power_iteration", iteration)
    return calls


class TestPerronWeights:
    def test_symmetric_graph_gives_uniform_weights(self):
        a = np.array([[0, 1, 0.5], [1, 0, 2], [0.5, 2, 0]])
        p = perron_weights(build_digraph(a))
        assert np.allclose(p, 1 / 3, atol=1e-12)

    def test_unidirectional_ring_gives_uniform_weights(self):
        n = 4
        a = np.zeros((n, n))
        for i in range(n):
            a[i, (i - 1) % n] = 1.0
        p = perron_weights(build_digraph(a))
        assert np.allclose(p, 1 / n, atol=1e-12)

    def test_dense_three_node_solution(self):
        g = build_digraph([[0, 1, 0], [0, 0, 2], [3, 0, 0]])
        p = perron_weights(g)
        assert np.allclose(p, [6 / 11, 3 / 11, 2 / 11], atol=1e-12)
        assert np.max(np.abs(p @ laplacian(g))) < 1e-12
        assert not p.flags.writeable

    def test_rejects_non_strongly_connected(self):
        with pytest.raises(NotStronglyConnected):
            perron_weights(build_digraph([[0, 1], [0, 0]]))

    def test_single_node(self):
        assert np.array_equal(perron_weights(build_digraph([[0.0]])), [1.0])

    def test_matches_svd_oracle_at_n_300(self):
        rng = np.random.default_rng(300)
        a = random_strongly_connected_adjacency(rng, 300)
        p = perron_weights(build_digraph(a))
        q = svd_perron_oracle(a)
        assert np.max(np.abs(p - q)) <= 1e-12 * np.max(q)

    def test_rejects_singular_bordered_system(self):
        # null vector [-2, 1, 1] sums to zero, so the ones row is dependent
        with pytest.raises(NotStronglyConnected, match="singular"):
            perron_weights(ring_with_hidden_weight(3.0))

    @pytest.mark.parametrize("x", [1.0, 2.0])
    def test_rejects_non_positive_null_vector(self, x):
        with pytest.raises(NotStronglyConnected, match="not strictly positive"):
            perron_weights(ring_with_hidden_weight(x))

    def test_rejects_nan_solution_by_residual(self):
        a = np.array([[0.0, np.nan, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with np.errstate(invalid="ignore"):
            with pytest.raises(NotStronglyConnected, match="no numerical null vector"):
                perron_weights(unchecked_digraph(a))

    def test_large_sparse_graph_takes_the_sweeps(self, dense_solves):
        rng = np.random.default_rng(301)
        a = sparse_strongly_connected_adjacency(rng, 300, in_arcs=2)
        p = perron_weights(build_digraph(a))
        assert dense_solves == []
        q = svd_perron_oracle(a)
        assert np.max(np.abs(p - q)) <= 1e-12 * np.max(q)
        assert not p.flags.writeable

    def test_below_256_nodes_solves_densely(self, dense_solves):
        rng = np.random.default_rng(255)
        perron_weights(build_digraph(sparse_strongly_connected_adjacency(rng, 255, in_arcs=2)))
        assert len(dense_solves) == 1

    def test_slowly_mixing_ring_falls_back_to_the_dense_solve(self, dense_solves):
        n = 2000
        a = ring_with_chord(n)
        assert graphnet._power_iteration(build_digraph(a).arcs, a.sum(axis=1)) is None
        p = perron_weights(build_digraph(a))
        assert len(dense_solves) == 1
        exact = np.where((np.arange(n) >= 1) & (np.arange(n) <= n // 2), 2.0, 1.0)
        exact /= exact.sum()
        # the LU of this ill-conditioned system is 9e-12 relative from exact
        assert np.max(np.abs(p - exact)) <= 1e-10 * np.max(exact)

    @pytest.mark.parametrize("slow", [False, True])
    def test_certify_forms_no_dense_adjacency_unless_the_sweeps_give_way(self, slow, dense_solves):
        # a digraph from arcs, as the input reader gives them; the ring with
        # a chord mixes too slowly for the sweeps, so the dense solve runs
        n = 2000 if slow else 300
        a = ring_with_chord(n) if slow else sparse_strongly_connected_adjacency(
            np.random.default_rng(7), n, in_arcs=2)
        rows, cols = np.nonzero(a)
        g = build_digraph(Cells(n, rows, cols, a[rows, cols]))
        verdict = check_weak_coupling(g, np.full(n, 0.01))
        assert verdict.passes
        assert len(dense_solves) == slow

    @pytest.mark.parametrize("x", [1.0, 2.0])
    def test_large_ring_with_hidden_weight_rejected_as_before(self, x, dense_solves, sweeps):
        # the null vector of L^T is 1 - x on nodes 0 and 3..n-1 and 1 on nodes 1, 2;
        # the in-degree of node 2 is 1 - x, so P = D^-1 A has an infinite entry
        # at x = 1 and a negative one at x = 2, and the sweeps never start
        n = 300
        a = np.zeros((n, n))
        a[np.arange(n), np.arange(n) - 1] = 1.0
        a[2, 0] = -x
        message = "^null vector of L\\^T is not strictly positive$"
        with pytest.raises(NotStronglyConnected, match=message):
            perron_weights(unchecked_digraph(a))
        assert len(dense_solves) == 1
        assert sweeps == []

    def test_large_nan_entry_rejected_by_residual(self, dense_solves, sweeps):
        # d_plus[0] is NaN, so P has NaN entries and the sweeps never start
        n = 300
        a = np.zeros((n, n))
        a[np.arange(n), np.arange(n) - 1] = 1.0
        a[0, 2] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(NotStronglyConnected, match="no numerical null vector"):
                perron_weights(unchecked_digraph(a))
        assert len(dense_solves) == 1
        assert sweeps == []


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
def test_laplacian_row_sums_vanish(seed, n):
    rng = np.random.default_rng(seed)
    a = random_strongly_connected_adjacency(rng, n)
    ell = laplacian(build_digraph(a))
    assert np.max(np.abs(ell.sum(axis=1))) < 1e-13 * n * np.max(a)


@given(seed=st.integers(0, 10_000), n=st.integers(1, 12), density=st.floats(0.0, 1.0))
def test_laplacian_is_scattered_from_the_arcs(seed, n, density):
    rng = np.random.default_rng(seed)
    a = np.where(rng.random((n, n)) < density, rng.uniform(0.1, 2.0, (n, n)), 0.0)
    np.fill_diagonal(a, 0.0)
    rows, cols = np.nonzero(a)
    off = ~np.eye(n, dtype=bool)
    for g in (build_digraph(a), build_digraph(Cells(n, rows, cols, a[rows, cols]))):
        ell = laplacian(g)
        # bit for bit as diag(d_plus) - a has them, +0.0 off the arcs
        assert ell[off].tobytes() == (0.0 - a)[off].tobytes()
        assert np.diagonal(ell).tobytes() == degrees(g)[0].tobytes()


@given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
def test_perron_weights_positive_with_small_residual(seed, n):
    rng = np.random.default_rng(seed)
    g = build_digraph(random_strongly_connected_adjacency(rng, n))
    p = perron_weights(g)
    assert np.min(p) > 0
    assert abs(np.sum(p) - 1.0) < 1e-12
    assert np.max(np.abs(p @ laplacian(g))) < 1e-10


@given(seed=st.integers(0, 10_000), n=st.integers(2, 60))
def test_perron_weights_match_svd_oracle(seed, n):
    rng = np.random.default_rng(seed)
    a = random_strongly_connected_adjacency(rng, n)
    p = perron_weights(build_digraph(a))
    q = svd_perron_oracle(a)
    assert np.max(np.abs(p - q)) <= 1e-12 * np.max(q)


@given(seed=st.integers(0, 10_000), n=st.integers(256, 700), in_arcs=st.integers(1, 3))
def test_swept_perron_weights_match_the_dense_solve(seed, n, in_arcs):
    rng = np.random.default_rng(seed)
    a = sparse_strongly_connected_adjacency(rng, n, in_arcs)
    with counting_dense_solves() as calls:
        p = perron_weights(build_digraph(a))
    dense = graphnet._bordered_solve(build_digraph(a).arcs, a.sum(axis=1))
    dense /= dense.sum()
    if not calls:  # the sweeps' p passed the null-vector check
        assert np.max(np.abs(p - dense)) <= 1e-12 * np.max(dense)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
def test_perron_weights_invariant_under_weight_scaling(seed, n):
    rng = np.random.default_rng(seed)
    a = random_strongly_connected_adjacency(rng, n)
    p = perron_weights(build_digraph(a))
    for scale in (1e-12, 1e-6, 1e6, 1e12):
        ps = perron_weights(build_digraph(a * scale))
        assert np.max(np.abs(ps - p)) <= 1e-12 * np.max(p), scale


@given(seed=st.integers(0, 10_000), n=st.integers(2, 6), density=st.floats(0.0, 1.0))
def test_connectivity_matches_reachability_oracle(seed, n, density):
    rng = np.random.default_rng(seed)
    a = np.where(rng.random((n, n)) < density, rng.uniform(0.1, 2.0, (n, n)), 0.0)
    np.fill_diagonal(a, 0.0)
    rep = connectivity(build_digraph(a))
    reach = reachability_closure(a)
    off_diag = ~np.eye(n, dtype=bool)
    strongly = bool(np.all(reach[off_diag]))
    quasi = any(np.all(reach[:, r] | np.eye(n, dtype=bool)[:, r]) for r in range(n))
    assert rep.strongly_connected == strongly
    assert rep.quasi_strongly_connected == quasi


def _reaches_all(a: np.ndarray, root: int) -> bool:
    """BFS along arcs k -> j (column k of the row-incoming adjacency)."""
    seen = {root}
    frontier = [root]
    while frontier:
        k = frontier.pop()
        for j in np.flatnonzero(a[:, k] > 0).tolist():
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == a.shape[0]


@given(seed=st.integers(0, 10_000), n=st.integers(1, 40), arcs_per_node=st.floats(0.5, 2.5))
def test_quasi_strong_connectivity_matches_bfs_from_every_root(seed, n, arcs_per_node):
    rng = np.random.default_rng(seed)
    a = np.where(rng.random((n, n)) < arcs_per_node / n, 1.0, 0.0)
    np.fill_diagonal(a, 0.0)
    quasi = any(_reaches_all(a, root) for root in range(n))
    assert connectivity(build_digraph(a)).quasi_strongly_connected == quasi


@given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
def test_total_in_weight_equals_total_out_weight(seed, n):
    rng = np.random.default_rng(seed)
    a = random_strongly_connected_adjacency(rng, n)
    d_plus, d_minus = degrees(build_digraph(a))
    assert np.isclose(d_plus.sum(), d_minus.sum(), rtol=0, atol=1e-12 * max(1.0, a.sum()))
    assert np.isclose(d_plus.sum(), a.sum(), rtol=0, atol=1e-12 * max(1.0, a.sum()))
