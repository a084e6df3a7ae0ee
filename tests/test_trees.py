"""Free-tree enumeration: counts, centroid roots, the filtered reference,
a cross-check against networkx, the lazy stream, and the Laplacian stack."""

import tracemalloc
from itertools import islice

import numpy as np
import pytest

from conftest import (
    canonical,
    reference_free_trees,
    rooted_level_sequences,
    tree_from_level_sequence,
)
from lafr.campaigns import CHUNK
from lafr.graphs import is_connected, laplacian, to_graph6
from lafr.trees import MAX_TREE_N, free_trees, tree_laplacians

# unlabeled free trees (n = 1..20, OEIS A000055)
FREE_TREE_COUNTS = [
    1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320,
    48629, 123867, 317955, 823065,
]
# unlabeled rooted trees (n = 1..12)
ROOTED_TREE_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]


def trees(n):
    return [tree_from_level_sequence(seq) for seq in free_trees(n)]


def _nx(t):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(t.n))
    h.add_edges_from(t.edges)
    return h


class TestRootedEnumeration:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_rooted_counts(self, n):
        assert sum(1 for _ in rooted_level_sequences(n)) == ROOTED_TREE_COUNTS[n - 1]

    def test_needs_one_vertex(self):
        with pytest.raises(ValueError):
            next(rooted_level_sequences(0))

    def test_sequences_start_with_path(self):
        first = next(rooted_level_sequences(5))
        assert first == (0, 1, 2, 3, 4)

    def test_level_sequence_to_tree(self):
        t = tree_from_level_sequence((0, 1, 1, 1))
        assert t.num_edges == 3 and sorted(t.degrees()) == [1, 1, 1, 3]


class TestFreeTrees:
    @pytest.mark.parametrize(
        "n",
        [
            pytest.param(n, marks=[pytest.mark.slow] if n >= 19 else [])
            for n in range(1, MAX_TREE_N + 1)
        ],
    )
    def test_counts(self, n):
        # counted as they stream: n = 20 as a list would hold 823,065 tuples
        assert sum(1 for _ in free_trees(n)) == FREE_TREE_COUNTS[n - 1]

    @pytest.mark.parametrize(
        "n",
        [*range(1, 15), *(pytest.param(n, marks=pytest.mark.slow) for n in (15, 16))],
    )
    def test_matches_filtered_reference(self, n):
        # the same rooting of each tree, as a multiset, so a duplicate fails;
        # with one centroid the stream is canonical and in reference order
        want = reference_free_trees(n)
        assert sorted(map(canonical, free_trees(n))) == sorted(want)
        if n % 2:
            assert list(free_trees(n)) == want

    def test_bicentroidal_half_hangs_below_the_other_root(self):
        # P4's centroids are its middle vertices: after the star, the half
        # (0, 1) hangs one level down from the other half's root
        assert list(free_trees(4)) == [(0, 1, 1, 1), (0, 1, 1, 2)]

    def test_all_are_trees(self):
        for n in range(2, 10):
            for t in trees(n):
                assert t.n == n and t.num_edges == n - 1 and is_connected(t)

    def test_pairwise_nonisomorphic(self):
        import networkx as nx

        for n in range(2, 11):
            ours = [_nx(t) for t in trees(n)]
            for i, a in enumerate(ours):
                assert not any(nx.is_isomorphic(a, b) for b in ours[i + 1 :])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_vertex_zero_is_centroid(self, n):
        import networkx as nx

        for t in trees(n):
            h = _nx(t)
            h.remove_node(0)
            assert all(2 * len(c) <= n for c in nx.connected_components(h))

    def test_deterministic(self):
        a = [to_graph6(t) for t in trees(9)]
        b = [to_graph6(t) for t in trees(9)]
        assert a == b

    def test_size_guard(self):
        with pytest.raises(ValueError):
            free_trees(MAX_TREE_N + 1)

    def test_first_chunk_is_lazy(self):
        # the first chunk of n = 18 holds a chunk, not the order's 123,867
        # sequences (23.6 MB as a list)
        free_trees(18)  # the rooted halves and planted subtrees, cached
        tracemalloc.start()
        try:
            chunk = list(islice(free_trees(18), CHUNK))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(chunk) == CHUNK and peak < 2_000_000

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_networkx_corpus(self, n):
        import networkx as nx

        ours = [_nx(t) for t in trees(n)]
        for theirs in nx.nonisomorphic_trees(n):
            assert sum(nx.is_isomorphic(theirs, a) for a in ours) == 1


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_laplacian_stack(n):
    seqs = list(free_trees(n))
    want = [laplacian(tree_from_level_sequence(seq)) for seq in seqs]
    assert tree_laplacians(seqs).tolist() == want
    assert tree_laplacians(seqs).dtype == np.float64
