"""Weighted digraphs: construction, connectivity, Laplacians, Perron weights.

A `Digraph` is its arc list: arc i runs from node ``tails[i]`` into node
``heads[i]`` with weight ``weights[i]``. In the adjacency convention,
``a[j, k] > 0`` means there is an arc from node ``k`` into node ``j``
(information flows k -> j), so row ``j`` collects the arcs *into* node ``j``
and the in-degree ``d_plus[j]`` is the sum of the weights of the arcs with
head ``j``. Every function here reads the arcs; the Laplacian and the
bordered matrix of the dense Perron solve are scattered from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import (
    BadDimensions, NegativeWeight, NotSquare, NotStronglyConnected, SelfLoop, numbers,
)

__all__ = [
    "Digraph",
    "ConnectivityReport",
    "build_digraph",
    "degrees",
    "connectivity",
    "laplacian",
    "perron_weights",
]

#: a solved p counts as a null vector of L^T only if
#: max|p^T L| <= _NULLSPACE_RTOL * max|L| * max|p|
_NULLSPACE_RTOL = 1e-9

#: graphs with at least this many nodes try power iteration before the dense
#: solve (measured crossover on 3-in-arc graphs: 1.38 against 1.43 ms at
#: n = 256, 4.96 against 2.61 ms at n = 512)
_SWEEP_MIN_N = 256
#: sweeps of the power iteration before it gives way to the dense solve
_SWEEP_BUDGET = 1000
#: the iteration stops once its estimated remaining error in q is at most
#: _SWEEP_RTOL * max(q)
_SWEEP_RTOL = 1e-14


class Cells(NamedTuple):
    """The nonzero cells of an n x n adjacency matrix in row-major order:
    a[rows[i], cols[i]] = values[i], every other cell zero (as
    `jsontext.loads` reads a matrix)."""

    n: int
    rows: NDArray[np.intp]
    cols: NDArray[np.intp]
    values: NDArray[np.float64]


@dataclass(frozen=True, eq=False)
class Digraph:
    """A weighted digraph on nodes 0..n-1: arc i runs from tails[i] into
    heads[i] with weight weights[i]. The arcs are ordered by tail, then head
    (as `build_digraph` orders them)."""

    n: int
    tails: NDArray[np.intp]
    heads: NDArray[np.intp]
    weights: NDArray[np.float64]

    @property
    def arcs(self) -> tuple[NDArray[np.intp], NDArray[np.intp], NDArray[np.float64]]:
        """(tails, heads, weights)."""
        return self.tails, self.heads, self.weights


@dataclass(frozen=True)
class ConnectivityReport:
    strongly_connected: bool
    quasi_strongly_connected: bool
    scc_count: int


def build_digraph(adjacency) -> Digraph:
    """Validate an adjacency matrix and wrap it as a Digraph.

    Parameters
    ----------
    adjacency : array_like or Cells
        Square matrix with non-negative entries and zero diagonal; entry
        (j, k) is the weight of the arc from node k into node j. A matrix
        gives its nonzero cells as the arcs; `Cells` (what `jsontext.loads`
        reads) give them without the matrix.

    Raises
    ------
    NotSquare, BadDimensions (an entry that is not a finite number),
    NegativeWeight, SelfLoop; each names the first bad cell in row-major
    order.
    """
    if isinstance(adjacency, Cells):
        n, heads, tails, weights = adjacency
    else:
        a = numbers("adjacency", adjacency, finite=False)  # one conversion, also of a JSON list
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise NotSquare(f"adjacency must be square and non-empty, got shape {a.shape}")
        n = a.shape[0]
        heads, tails = np.nonzero(a)
        weights = a[heads, tails]
    for bad, error, message in (
        (~np.isfinite(weights), BadDimensions, "non-finite weight a[{j},{k}] = {w}"),
        (weights < 0.0, NegativeWeight, "negative weight a[{j},{k}] = {w}"),
        (heads == tails, SelfLoop, "nonzero diagonal entry a[{j},{k}] = {w}"),
    ):
        if bad.any():
            i = np.argmax(bad)
            raise error(message.format(j=heads[i], k=tails[i], w=weights[i]))
    order = np.argsort(tails, kind="stable")  # row-major, so heads stay sorted per tail
    return Digraph(n=n, tails=tails[order], heads=heads[order], weights=weights[order])


def degrees(g: Digraph) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Return (d_plus, d_minus): weighted in-degrees and out-degrees, the sums
    of the arc weights by head and by tail, in arc order."""
    tails, heads, w = g.arcs
    return (np.bincount(heads, weights=w, minlength=g.n),
            np.bincount(tails, weights=w, minlength=g.n))


def laplacian(g: Digraph) -> NDArray[np.float64]:
    """Laplacian L = diag(d_plus) - A, with -weights scattered at [heads,
    tails]; every row sums to zero."""
    ell = np.diag(degrees(g)[0])
    ell[g.heads, g.tails] = -g.weights
    return ell


def _successor_lists(g: Digraph) -> list[list[int]]:
    # successors of k are the heads of the arcs with tail k, one run of the
    # tail-ordered arcs; as plain ints, which Tarjan's list indexing handles
    # far faster than numpy scalars
    tails, heads, _ = g.arcs
    ends = np.searchsorted(tails, np.arange(1, g.n + 1)).tolist()
    heads = heads.tolist()
    return [heads[start:end] for start, end in zip([0] + ends[:-1], ends)]


def _tarjan_components(succ: list[list[int]]) -> list[int]:
    """Strongly connected component of every node, numbered 0, 1, ...
    (iterative Tarjan)."""
    n = len(succ)
    comp = [0] * n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    count = 0
    next_index = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = next_index
                next_index += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = count
                    if w == v:
                        break
                count += 1
    return comp


def connectivity(g: Digraph) -> ConnectivityReport:
    """Strong / quasi-strong connectivity of the arc set.

    Quasi-strong connectivity means some root node reaches every node along
    arc directions (equivalently, the graph has a directed spanning tree).
    The components form an acyclic condensation in which every component is
    reached from one with no entering arc, so a root exists iff exactly one
    component has no arc entering it from another component.
    """
    succ = _successor_lists(g)
    comp = _tarjan_components(succ)
    scc_count = max(comp) + 1
    entered = {comp[w] for v, heads in enumerate(succ) for w in heads if comp[w] != comp[v]}
    return ConnectivityReport(
        strongly_connected=scc_count == 1,
        quasi_strongly_connected=scc_count - len(entered) == 1,
        scc_count=scc_count,
    )


def perron_weights(g: Digraph) -> NDArray[np.float64]:
    """Left null vector p of the Laplacian: p^T L = 0, p > 0, sum(p) = 1,
    returned read-only.

    Exists with strictly positive entries exactly when the graph is strongly
    connected. A graph of n >= 256 nodes first tries power iteration over its
    arcs (at most 1000 sweeps); any other graph, and one whose iterate does
    not converge or fails the null-vector check, gets one dense LU solve of
    L^T bordered with a row of ones (see `_perron_vector`).

    Raises
    ------
    NotStronglyConnected
    """
    if not connectivity(g).strongly_connected:
        raise NotStronglyConnected("Perron weights require a strongly connected digraph")
    return _perron_vector(g, degrees(g)[0])


def _perron_vector(g: Digraph, d_plus: NDArray[np.float64]) -> NDArray[np.float64]:
    """Perron weights of a graph already known to be strongly connected, given
    its in-degrees d_plus.

    p^T L = 0 reads d_plus[j] p_j = sum_i p_i a[i, j], so q = d_plus * p is
    the stationary vector of the row-stochastic P = D^-1 A (q^T P = q^T).
    When n >= _SWEEP_MIN_N (256), lazy power iteration q <- (q + qP) / 2 runs
    from the uniform q, one np.bincount over the arcs per sweep, until its
    remaining error is estimated below _SWEEP_RTOL * max(q) (1e-14 max(q));
    then p = q / d_plus. p is accepted only if it passes the check below.

    Otherwise, and when the iteration does not stop within _SWEEP_BUDGET
    (1000) sweeps, P has an entry that is negative or not finite, or its p
    fails the check, the dense solve runs: L^T has rank n-1 and its rows have
    the single dependency 1^T L^T = 0 (L 1 = 0), so dropping the last row
    leaves a basis of p^perp; the row of ones is not in p^perp (1.p > 0).
    Replacing the last row of L^T by ones thus gives a nonsingular M, and
    M p = e_n yields p with sum(p) = 1. Only this solve forms an n x n
    matrix, M, scattered from the arcs.

    The check, over the arcs: max|d_plus p - p^T A| <= _NULLSPACE_RTOL *
    max(d_plus) * max|p|, and p > 0.

    Raises
    ------
    NotStronglyConnected
        If the dense solve is singular or its result fails the check (NaN
        included).
    """
    if g.n >= _SWEEP_MIN_N:
        # a negative weight (a Digraph built without build_digraph) can make
        # a d_plus zero or negative; the sweeps then decline at once
        with np.errstate(all="ignore"):
            p = _power_iteration(g.arcs, d_plus)
            if p is not None and _null_vector_fault(g.arcs, d_plus, p) is None:
                return _unit_sum(p)
    p = _bordered_solve(g.arcs, d_plus)
    fault = _null_vector_fault(g.arcs, d_plus, p)
    if fault is not None:
        raise NotStronglyConnected(fault)
    return _unit_sum(p)


def _power_iteration(arcs, d_plus: NDArray[np.float64]) -> NDArray[np.float64] | None:
    """q / d_plus for the stationary q of P = D^-1 A, or None when an entry of
    P is negative or not finite (a d_plus of 0, of the wrong sign, or NaN),
    checked before the first sweep, or when the iteration does not stop
    within _SWEEP_BUDGET sweeps.

    With step_k = max|q_k - q_(k-1)| and rho = step_k / step_(k-1), the error
    left after geometric convergence is step_k rho / (1 - rho); it stops when
    that is at most _SWEEP_RTOL * max(q), written without division as
    step_k^2 <= _SWEEP_RTOL max(q) (step_(k-1) - step_k). It needs rho < 1,
    and step_0 = 0 lets the first sweep stop only if it left q as it was.
    With every entry of P in [0, 1], q stays finite."""
    tails, heads, w = arcs
    n = d_plus.size
    share = w / d_plus[heads]  # P[heads, tails] of each arc
    if not np.all(np.isfinite(share) & (share >= 0.0)):
        return None
    q = np.full(n, 1.0 / n)
    last = 0.0
    for _ in range(_SWEEP_BUDGET):
        nxt = 0.5 * (q + np.bincount(tails, weights=q[heads] * share, minlength=n))
        step = float(np.abs(nxt - q).max())
        q = nxt
        if step * step <= _SWEEP_RTOL * float(q.max()) * (last - step):
            return q / d_plus
        last = step
    return None


def _bordered_solve(arcs, d_plus: NDArray[np.float64]) -> NDArray[np.float64]:
    """The solution of M p = e_n, M being L^T with its last row replaced by ones."""
    tails, heads, w = arcs
    n = d_plus.size
    m = np.zeros((n, n))
    m[tails, heads] = -w
    m[np.diag_indices(n)] = d_plus
    m[-1] = 1.0
    e_n = np.zeros(n)
    e_n[-1] = 1.0
    try:
        return np.linalg.solve(m, e_n)
    except np.linalg.LinAlgError as e:
        raise NotStronglyConnected(f"bordered Laplacian system is singular ({e})") from e


def _null_vector_fault(arcs, d_plus, p) -> str | None:
    """Why p is not a positive null vector of L^T, or None if it is one."""
    tails, heads, w = arcs
    # (p^T A)_k sums p_j a[j, k] over the arcs k -> j; max|L| is the largest
    # in-degree: d_plus[j] >= a[j, k] >= 0
    pta = np.bincount(tails, weights=p[heads] * w, minlength=p.size)
    res = float(np.abs(d_plus * p - pta).max())
    bound = _NULLSPACE_RTOL * float(d_plus.max()) * float(np.abs(p).max())
    if not (res <= bound):
        return f"L^T has no numerical null vector (|p^T L| = {res:.3e}, bound {bound:.3e})"
    if np.any(p <= 0.0):
        return "null vector of L^T is not strictly positive"
    return None


def _unit_sum(p: NDArray[np.float64]) -> NDArray[np.float64]:
    p = p / p.sum()
    p.setflags(write=False)
    return p
