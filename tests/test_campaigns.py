"""Campaign harnesses: tree scan, prime-order scan, construction battery."""

from itertools import permutations
from random import Random

import numpy as np
import pytest

from lafr import campaigns
from lafr.campaigns import (
    _confirm_masks,
    all_graph_masks,
    campaign_constructions,
    campaign_prime_order,
    campaign_trees,
    canonical_masks,
    graph_to_mask,
    isomorphism_classes,
    mask_to_graph,
    pair_table,
    relabelings,
)
from lafr.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    double_cone,
    is_connected,
    is_double_cone,
    parse_graph6,
)
from lafr.revival import RevivalStatus, all_lafr_pairs


class TestMaskCorpus:
    def test_round_trip(self):
        for mask in (0, 1, 5, 1023):
            g = mask_to_graph(5, mask)
            assert graph_to_mask(g) == mask

    def test_pair_table_order(self):
        assert pair_table(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_corpus_size(self):
        assert len(all_graph_masks(5)) == 1024


def relabel(g: Graph, perm) -> Graph:
    return Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges))


def canonical_key(n: int, mask: int) -> int:
    return int(canonical_masks(n, [mask])[0])


class TestCanonicalKey:
    def test_p5_keys_are_networkx_isomorphism_classes(self):
        import networkx as nx

        def nx_graph(mask):
            G = nx.Graph()
            G.add_nodes_from(range(5))
            G.add_edges_from(mask_to_graph(5, mask).edges)
            return G

        keys = canonical_masks(5, np.arange(1024))
        classes = np.unique(keys).tolist()
        assert len(classes) == 34
        assert sum(is_connected(mask_to_graph(5, k)) for k in classes) == 21
        reps = {k: nx_graph(k) for k in classes}
        for mask, key in enumerate(keys.tolist()):
            # the key is the least member of the mask's class
            assert key <= mask and keys[key] == key
            assert nx.is_isomorphic(nx_graph(mask), reps[key])
        for i, a in enumerate(classes):
            for b in classes[i + 1 :]:
                assert not nx.is_isomorphic(reps[a], reps[b])

    def test_p7_keys_invariant_under_relabeling(self):
        rng = Random(0x7C0)
        for _ in range(200):
            mask = rng.getrandbits(21)
            perm = list(range(7))
            rng.shuffle(perm)
            relabeled = graph_to_mask(relabel(mask_to_graph(7, mask), perm))
            assert canonical_key(7, relabeled) == canonical_key(7, mask)


class TestIsomorphismClasses:
    def test_counts_are_a000088(self):
        counts = [len(isomorphism_classes(p)) for p in range(1, 8)]
        assert counts == [1, 2, 4, 11, 34, 156, 1044]

    def test_p6_matches_brute_force_keys(self):
        # all 2^15 labeled graphs on six vertices, keyed 1024 masks at a time
        keys = np.concatenate(
            [
                canonical_masks(6, np.arange(lo, lo + 1024))
                for lo in range(0, 1 << 15, 1024)
            ]
        )
        brute, counts = np.unique(keys, return_counts=True)
        classes = isomorphism_classes(6)
        assert classes.tolist() == brute.tolist()
        # orbit size p!/|Aut|, with |Aut| the relabelings that fix the key
        aut = (relabelings(6, classes) == classes[:, None]).sum(axis=1)
        assert (720 // aut).tolist() == counts.tolist()

    def test_missing_class_breaks_the_certificate(self, monkeypatch):
        full = isomorphism_classes(5)
        monkeypatch.setattr(campaigns, "isomorphism_classes", lambda p: full[1:])
        with pytest.raises(RuntimeError, match="cover"):
            campaign_prime_order(5)


class TestTreeCampaign:
    def test_up_to_ten(self):
        result = campaign_trees(10)
        assert result.passed
        assert result.counterexamples == []
        assert result.details["counts_per_n"] == {
            2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
        }
        assert result.corpus_size == 200
        # exactly the single edge and the 3-path carry revival
        proper = result.details["graphs_with_proper_pairs"]
        assert len(proper) == 2
        assert parse_graph6(proper[0]).n == 2
        assert parse_graph6(proper[1]).n == 3

    def test_small_run(self):
        result = campaign_trees(3)
        assert result.passed and result.corpus_size == 2
        assert len(result.details["graphs_with_proper_pairs"]) == 2

    def test_range_guard(self):
        with pytest.raises(ValueError):
            campaign_trees(1)
        with pytest.raises(ValueError):
            campaign_trees(15)


class TestPrimeFiveCampaign:
    def test_no_counterexamples(self):
        result = campaign_prime_order(5)
        assert result.passed
        assert result.corpus_size == 1024
        assert result.details["connected_graphs"] == 728
        assert result.details["connected_classes"] == 21
        assert result.details["positives"] == 65
        assert result.details["classes"] == 34
        assert result.details["positive_classes"] == 4

    def test_screen_agrees_with_brute_force(self):
        # every connected labeled graph on five vertices, decided exactly
        brute = []
        for mask in all_graph_masks(5):
            g = mask_to_graph(5, mask)
            if not is_connected(g):
                continue
            if any(
                d.status is RevivalStatus.PROPER for d in all_lafr_pairs(g)
            ):
                brute.append(mask)
                assert is_double_cone(g) is not None
        result = campaign_prime_order(5)
        assert result.details["positives"] == len(brute)
        assert result.details["positive_masks_sample"] == brute[:16]

    def test_double_cone_k3_is_positive(self):
        mask = graph_to_mask(double_cone(complete_graph(3)))
        positives, counterexamples = _confirm_masks(5, [mask])
        assert positives == [mask] and counterexamples == []

    def test_double_cone_k3_class_keys_to_one_positive(self):
        g = double_cone(complete_graph(3))
        keys = {
            canonical_key(5, graph_to_mask(relabel(g, perm)))
            for perm in permutations(range(5))
        }
        assert len(keys) == 1
        key = keys.pop()
        assert _confirm_masks(5, [key]) == ([key], [])

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            campaign_prime_order(11)


@pytest.mark.slow
class TestPrimeSevenCampaign:
    def test_no_counterexamples(self, prime7_result):
        result = prime7_result
        assert result.passed
        assert result.corpus_size == 1 << 21
        assert result.details["connected_graphs"] == 1866256
        assert result.details["connected_classes"] == 853
        assert result.details["positives"] == 20769
        assert result.details["classes"] == 1044
        assert result.details["positive_classes"] == 34
        assert result.details["positive_masks_sample"] == [
            2046, 4094, 6142, 8190, 10238, 12286, 14334, 16382,
            18430, 20478, 22526, 24574, 26622, 28670, 30718, 30845,
        ]


class TestConstructionCampaign:
    def test_battery_passes(self):
        result = campaign_constructions()
        assert result.passed, result.counterexamples
        assert result.details["double_cones_checked"] == 1099
        assert result.details["threshold_ok"]


class TestCycleWithChords:
    """The four six-vertex graphs built by adding chords to the hexagon."""

    def proper_pairs(self, g):
        return [
            d.pair for d in all_lafr_pairs(g) if d.status is RevivalStatus.PROPER
        ]

    def test_plain_hexagon(self):
        assert self.proper_pairs(cycle_graph(6)) == [(0, 3), (1, 4), (2, 5)]

    def test_one_chord(self):
        g = cycle_graph(6)
        g1 = g.from_edges(6, list(g.edges) + [(1, 5)])
        assert self.proper_pairs(g1) == [(0, 3)]

    def test_chord_between_revival_pair(self):
        g = cycle_graph(6)
        g2 = g.from_edges(6, list(g.edges) + [(1, 5), (0, 3)])
        assert self.proper_pairs(g2) == [(0, 3)]

    def test_two_side_chords(self):
        g = cycle_graph(6)
        g3 = g.from_edges(6, list(g.edges) + [(1, 5), (2, 4)])
        assert self.proper_pairs(g3) == [(0, 3)]
