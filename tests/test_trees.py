"""Free-tree enumeration: counts, centroid roots, the filtered reference,
a cross-check against networkx, and the Laplacian stack."""

import numpy as np
import pytest

from conftest import reference_free_trees, rooted_level_sequences
from lafr.graphs import is_connected, laplacian, to_graph6
from lafr.trees import MAX_TREE_N, free_trees, tree_from_level_sequence, tree_laplacians

# unlabeled free trees (n = 1..18, OEIS A000055)
FREE_TREE_COUNTS = [
    1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320,
    48629, 123867,
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
    @pytest.mark.parametrize("n", range(1, MAX_TREE_N + 1))
    def test_counts(self, n):
        assert len(free_trees(n)) == FREE_TREE_COUNTS[n - 1]

    @pytest.mark.parametrize(
        "n",
        [*range(1, 15), *(pytest.param(n, marks=pytest.mark.slow) for n in (15, 16))],
    )
    def test_matches_filtered_reference(self, n):
        # sequence for sequence, in order: the same rooting of each tree
        assert free_trees(n) == reference_free_trees(n)

    def test_bicentroidal_children_in_canonical_order(self):
        # P4's centroids are its middle vertices: the half (0, 1) hangs below
        # the other, after that root's deeper subtree
        assert free_trees(4) == [(0, 1, 2, 1), (0, 1, 1, 1)]

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

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_networkx_corpus(self, n):
        import networkx as nx

        ours = [_nx(t) for t in trees(n)]
        for theirs in nx.nonisomorphic_trees(n):
            assert sum(nx.is_isomorphic(theirs, a) for a in ours) == 1


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_laplacian_stack(n):
    seqs = free_trees(n)
    want = [laplacian(tree_from_level_sequence(seq)) for seq in seqs]
    assert tree_laplacians(seqs).tolist() == want
    assert tree_laplacians(seqs).dtype == np.float64
