"""Two-stage Stackelberg game for cluster-to-partition assignment (Alg. 2).

Clusters are players: head clusters are leaders (Stage 1), tail clusters
followers (Stage 2). Each player best-responds under the cost function
of Eq. (6),

    S_c(p) = (δ/k)·|c|·|p| + (F(c) + |c|)/k,
    F(c)   = Σ_j Θ(c, c_j)·1[P(c) ≠ P(c_j)],

until no player moves (pure Nash equilibrium via best-response
dynamics). δ is the normalization factor, set to its Eq.-(12) maximum.

Batch parallelism (Section 4.4) is modeled faithfully: moves within a
batch are computed against a frozen snapshot of loads and strategies,
then applied together; ``batch_size=1`` recovers fully sequential best
response (which carries the potential-function convergence guarantee).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np


@dataclass
class GameResult:
    """Equilibrium strategies and convergence diagnostics."""

    c2p: np.ndarray  # cluster -> partition
    rounds: int
    converged: bool
    delta: float
    welfare: float
    moves_per_round: list[int]  # clusters that changed partition, per round
    n_players: int  # active clusters: the clusters that respond each round


class ClusterGraph:
    """CSR adjacency over clusters built from a Θ store's pair list."""

    def __init__(
        self,
        n_clusters: int,
        sizes: np.ndarray,
        theta_pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
    ):
        lo, hi, w = theta_pairs
        self.n = n_clusters
        self.sizes = sizes.astype(np.float64)
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        wt = np.concatenate([w, w]).astype(np.float64)
        order = np.argsort(src, kind="stable")
        self._src = src[order]
        self._nbr = dst[order]
        self._wt = wt[order]
        self._ptr = np.searchsorted(self._src, np.arange(n_clusters + 1))
        self.W = np.zeros(n_clusters)  # Σ_j Θ(c, c_j): max possible F(c)
        np.add.at(self.W, src, wt)
        # Dead ids (empty clusters abandoned by migration) have constant-0
        # cost everywhere and never change a load.
        self.active = (self.sizes > 0) | (self.W > 0)

    def neighbors(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor cluster ids, Θ weights) of cluster ``c``."""
        s, e = self._ptr[c], self._ptr[c + 1]
        return self._nbr[s:e], self._wt[s:e]

    def cut_weight(self, c2p: np.ndarray) -> float:
        """Total Θ mass of cluster pairs placed in different partitions.

        Each undirected pair appears twice in the CSR arrays; halve.
        """
        cut = self._wt[c2p[self._src] != c2p[self._nbr]].sum()
        return float(cut) / 2.0


def delta_max(cluster_graph: ClusterGraph, k: int) -> float:
    """δ upper bound of Eq. (12): k·Σ(F(c)+|c|) / (Σ|c|)²,
    with F(c) at its maximum Σ_j Θ(c, c_j) (everything cut)."""
    total = float(cluster_graph.sizes.sum())
    if total == 0:
        return 1.0
    return k * float((cluster_graph.W + cluster_graph.sizes).sum()) / total**2


def initial_assignment(sizes: np.ndarray, k: int) -> np.ndarray:
    """Greedy least-loaded initial C2P (deterministic; ``sizes`` ≥ 0).

    Each item goes to the least-loaded partition, the lowest id on ties:
    the top of a heap of (load, partition) pairs, which is ``argmin`` of
    the loads.
    """
    order = np.argsort(-sizes, kind="stable")
    n_placed = int(np.count_nonzero(sizes > 0))
    heap = [(0.0, p) for p in range(k)]
    placed = []
    for size in sizes[order[:n_placed]].tolist():
        load, p = heap[0]
        placed.append(p)
        heapq.heapreplace(heap, (load + size, p))
    c2p = np.zeros(len(sizes), dtype=np.int64)
    c2p[order[:n_placed]] = placed
    # Empty items come last and add no load: all get the final argmin.
    c2p[order[n_placed:]] = heap[0][1]
    return c2p


def stackelberg_initial_assignment(
    g: ClusterGraph, cluster_is_head: np.ndarray, k: int
) -> np.ndarray:
    """Leader-first initialization for the two-stage game.

    Leaders (head clusters) are packed least-loaded-first by
    :func:`initial_assignment`. Followers then *respond*: each tail
    cluster starts in the partition holding the largest Θ mass of
    already-placed neighbors (leaders and earlier followers; the lowest
    partition id on ties), falling back to least-loaded. This encodes
    the first-mover advantage of Section 2.2 — the one-stage game cannot
    use it because it has no leader set.

    Which neighbours are already placed when a follower responds is
    fixed by the placing order, so they are gathered for all followers
    at once; each follower then sums its placed neighbours' Θ masses by
    partition in one ``bincount``.
    """
    c2p = np.full(g.n, -1, dtype=np.int64)
    heads = np.flatnonzero(cluster_is_head)
    c2p[heads] = initial_assignment(g.sizes[heads], k)
    loads = np.bincount(c2p[heads], weights=g.sizes[heads], minlength=k)
    tails = np.flatnonzero(~cluster_is_head & g.active)
    tails = tails[np.argsort(-g.sizes[tails], kind="stable")]
    # rank: -1 for a leader, the placing order for a follower.
    rank = np.full(g.n, len(tails))
    rank[heads] = -1
    rank[tails] = np.arange(len(tails))
    # The CSR entries of the followers' rows, in placing order.
    lens = g._ptr[tails + 1] - g._ptr[tails]
    row = np.repeat(np.arange(len(tails)), lens)
    at = np.arange(len(row)) + np.repeat(g._ptr[tails] - (np.cumsum(lens) - lens), lens)
    nbr, wt = g._nbr[at], g._wt[at]
    placed = rank[nbr] < row
    nbr, wt = nbr[placed], wt[placed]
    bounds = np.searchsorted(row[placed], np.arange(len(tails) + 1)).tolist()
    for t, (c, size) in enumerate(zip(tails.tolist(), g.sizes[tails].tolist())):
        s, e = bounds[t], bounds[t + 1]
        if s < e:
            p = int(np.bincount(c2p[nbr[s:e]], weights=wt[s:e], minlength=k).argmax())
        else:
            p = int(np.argmin(loads))
        c2p[c] = p
        loads[p] += size
    # A dead tail would fall back to the least-loaded partition, and
    # placing it changes no load: all of them get the final argmin.
    c2p[~cluster_is_head & ~g.active] = int(np.argmin(loads))
    return c2p


def social_welfare(g: ClusterGraph, c2p: np.ndarray, k: int, delta: float) -> float:
    """Eq. (5): δ·Σ|p|²/k + Σ Θ(p_i, V)/k with Θ(p,V)=Θ(p,V−p)+|p|.

    Σ_i Θ(p_i, V−p_i) counts each cut pair from both sides, i.e. equals
    2 × the one-sided cut weight.
    """
    loads = np.bincount(c2p, weights=g.sizes, minlength=k)
    cut = g.cut_weight(c2p)
    return delta * float((loads**2).sum()) / k + (2 * cut + float(loads.sum())) / k


#: Most cells (players × k) one window evaluates at once: its two float64
#: buffers then take 128 KiB each at every k.
WINDOW_CELLS = 16384


def _respond(
    m_row: np.ndarray,
    loads: np.ndarray,
    cur: int,
    size: float,
    w_tot: float,
    k: int,
    a: float,
    cost: np.ndarray,
    cut: np.ndarray,
) -> int:
    """argmin_p S_c(p) of one player from its mass-matrix row, into the
    preallocated buffers ``cost`` and ``cut``; ``a`` is ``δ/k·|c|``.
    Ties keep the current partition ``cur``.

    A separate function because ``tracemalloc`` walks the allocating
    function's line table on every traced allocation, which costs more
    in a long function than in a short one.
    """
    np.add(loads, size, out=cost)
    cost[cur] = (loads[cur] - size) + size
    np.multiply(cost, a, out=cost)
    np.subtract(w_tot, m_row, out=cut)
    np.divide(cut, k, out=cut)
    np.add(cost, cut, out=cost)
    cost[cur] -= 1e-9
    return int(cost.argmin())


def _respond_rows(
    m_rows: np.ndarray,
    loads: np.ndarray,
    cur: np.ndarray,
    size: np.ndarray,
    w_tot: np.ndarray,
    k: int,
    a: np.ndarray,
    cost: np.ndarray,
    cut: np.ndarray,
) -> np.ndarray:
    """:func:`_respond` for consecutive players against one profile: row
    ``r`` of the ``(rows × k)`` cost takes the same IEEE operations in the
    same order, and ``argmin`` keeps the first index on ties, so each
    answer equals :func:`_respond`'s. ``cost`` and ``cut`` are flat
    buffers of at least rows × k cells."""
    n = len(cur)
    c = cost[: n * k].reshape(n, k)
    u = cut[: n * k].reshape(n, k)
    rows = np.arange(n)
    np.add(loads, size[:, None], out=c)
    c[rows, cur] = (loads[cur] - size) + size
    np.multiply(c, a[:, None], out=c)
    np.subtract(w_tot[:, None], m_rows, out=u)
    np.divide(u, k, out=u)
    np.add(c, u, out=c)
    c[rows, cur] -= 1e-9
    return c.argmin(axis=1)


def stackelberg_game(
    n_clusters: int,
    sizes: np.ndarray,
    cluster_is_head: np.ndarray,
    theta_pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
    k: int,
    *,
    batch_size: int = 1,
    max_rounds: int = 64,
    one_stage: bool = False,
) -> GameResult:
    """Run best-response dynamics to a (pure) Nash equilibrium.

    ``one_stage=True`` removes the leader/follower distinction (all
    clusters move in id order each round) — the ablation of Fig. 7(d)
    and the CLUGP-style static game.

    ``batch_size=1`` is fully sequential best response (potential-
    function convergence guarantee). Larger batches model the paper's
    thread-pool parallelism: best responses within a batch are computed
    against a frozen snapshot, then applied together — faster rounds,
    but simultaneous pair-swaps can oscillate, which is why the paper
    (and we) cap the number of rounds.

    Each response reads ``M[c, p]``, the Θ mass of ``c``'s neighbours in
    partition ``p``, from a matrix kept up to date as clusters move, so
    only a move touches the neighbour lists. ``M`` and ``W_c`` are sums
    of integer-valued Θ counts, exact in float64.

    A round sweeps each stage in windows of whole batches, each window
    evaluated in one :func:`_respond_rows` call against the current
    profile. The batches before the first one holding a mover keep their
    strategies: nothing moved before them, so that profile is the one
    they would have responded to one by one. That batch's moves are
    applied in order, and the sweep resumes after it. The window grows
    4× over batches that stay, up to :data:`WINDOW_CELLS` cells, and
    falls back to one batch after a move; one player alone
    (``batch_size=1``) goes through :func:`_respond`, which is cheaper
    when most players move. So the profile, the rounds and the moves per
    round are those of responding one batch after another.
    """
    g = ClusterGraph(n_clusters, sizes, theta_pairs)
    delta = delta_max(g, k)
    if one_stage:
        c2p = initial_assignment(g.sizes, k)
    else:
        c2p = stackelberg_initial_assignment(g, cluster_is_head, k)
    loads = np.bincount(c2p, weights=g.sizes, minlength=k).astype(np.float64)

    # Players are the active clusters (skipping dead ids changes nothing
    # but round time), renumbered so each stage is a contiguous range,
    # in id order within it. Θ weights are positive, so every neighbour
    # of an active cluster is active and the CSR rows of the dead ids
    # are empty.
    act = np.flatnonzero(g.active)
    if one_stage:
        order = act
        stages = [(0, len(act))]
    else:
        head = cluster_is_head[act]
        order = np.concatenate([act[head], act[~head]])
        n_lead = int(head.sum())
        stages = [(0, n_lead), (n_lead, len(act))]  # leaders, then followers
    n = len(order)
    dense = np.full(g.n, -1, dtype=np.int64)
    dense[order] = np.arange(n)
    nbr = dense[g._nbr]
    wt = g._wt
    mass = np.bincount(
        dense[g._src] * k + c2p[g._nbr], weights=wt, minlength=n * k
    ).reshape(n, k)
    part = c2p[order]
    size = g.sizes[order]
    a = delta / k * size
    w_tot = g.W[order]
    begin = g._ptr[order].tolist()
    end = g._ptr[order + 1].tolist()

    b = batch_size
    widest = max(b, WINDOW_CELLS // k // b * b)
    cost = np.empty(min(widest, n) * k)
    cut = np.empty_like(cost)
    cost1, cut1 = cost[:k], cut[:k]
    moves_per_round: list[int] = []
    rounds = 0
    converged = False
    for rounds in range(1, max_rounds + 1):
        n_moves = 0
        for lo, hi in stages:
            pos, width = lo, b
            while pos < hi:
                stop = min(pos + width, hi)
                if stop - pos == 1:
                    best = [
                        _respond(mass[pos], loads, part[pos], size[pos], w_tot[pos],
                                 k, a[pos], cost1, cut1)
                    ]
                    moved = [0] if best[0] != part[pos] else []
                else:
                    best = _respond_rows(
                        mass[pos:stop], loads, part[pos:stop], size[pos:stop],
                        w_tot[pos:stop], k, a[pos:stop], cost, cut,
                    )
                    moved = (best != part[pos:stop]).nonzero()[0].tolist()
                if not moved:
                    pos, width = stop, min(4 * width, widest)
                    continue
                # The first batch holding a mover responded to the profile
                # at its start: apply its moves in order, resume after it.
                after = pos + (moved[0] // b + 1) * b
                for j in moved:
                    i = pos + j
                    if i >= after:
                        break
                    p, q = part[i], int(best[j])
                    loads[p] -= size[i]
                    loads[q] += size[i]
                    part[i] = q
                    # Neighbours in a CSR row are distinct.
                    rows, w = nbr[begin[i] : end[i]], wt[begin[i] : end[i]]
                    mass[rows, p] -= w
                    mass[rows, q] += w
                    n_moves += 1
                pos, width = min(after, hi), b
        moves_per_round.append(n_moves)
        if not n_moves:
            converged = True
            break
    c2p[order] = part
    welfare = social_welfare(g, c2p, k, delta)
    return GameResult(
        c2p=c2p,
        rounds=rounds,
        converged=converged,
        delta=delta,
        welfare=welfare,
        moves_per_round=moves_per_round,
        n_players=n,
    )
