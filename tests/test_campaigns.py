"""Campaign harnesses: tree scan, prime-order scan, construction battery."""

import dataclasses
from collections import Counter
from itertools import permutations
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import all_graph_masks, graph_to_mask
from lafr import campaigns, oracle, spectral
from lafr.campaigns import (
    _has_proper_pair,
    campaign_constructions,
    campaign_prime_order,
    campaign_trees,
    canonical_masks,
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
    threshold_graph,
    to_graph6,
)
from lafr.revival import RevivalStatus, all_lafr_pairs, decide_proper_lafr
from lafr.trees import MAX_TREE_N, free_trees, tree_from_level_sequence


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
        counts = [len(isomorphism_classes(p)[0]) for p in range(1, 8)]
        assert counts == [1, 2, 4, 11, 34, 156, 1044]

    def test_one_vertex(self):
        assert relabelings(1, [0]).tolist() == [[0]]
        keys, orbits = isomorphism_classes(1)
        assert keys.tolist() == [0] and orbits.tolist() == [1]

    def test_p6_matches_brute_force_keys(self):
        # every labeled graph on p <= 6 vertices, keyed 1024 masks at a time:
        # the classes are the distinct keys and each orbit is a class's size
        for p in range(1, 7):
            size = 1 << (p * (p - 1) // 2)
            keys = np.concatenate(
                [
                    canonical_masks(p, np.arange(lo, min(lo + 1024, size)))
                    for lo in range(0, size, 1024)
                ]
            )
            brute, counts = np.unique(keys, return_counts=True)
            classes, orbits = isomorphism_classes(p)
            assert classes.tolist() == brute.tolist()
            assert orbits.tolist() == counts.tolist()

    def test_missing_class_breaks_the_certificate(self, monkeypatch):
        # key the edgeless graph as the one-edge graph, losing its class
        canonical = campaigns.canonical_masks
        monkeypatch.setattr(
            campaigns, "canonical_masks", lambda n, masks: np.maximum(canonical(n, masks), 1)
        )
        with pytest.raises(RuntimeError, match="cover"):
            campaign_prime_order(5)
        with pytest.raises(RuntimeError, match="cover"):
            campaign_constructions()


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
            campaign_trees(MAX_TREE_N + 1)

    def test_screen_leaves_only_the_star(self, monkeypatch):
        # the one tree per order with two surviving columns is decided exactly
        decided, real = [], campaigns._has_proper_pair
        monkeypatch.setattr(campaigns, "_has_proper_pair", lambda g: decided.append(g) or real(g))
        assert campaign_trees(12).passed
        stars = [[1] * (n - 1) + [n - 1] for n in range(3, 13)]
        assert [sorted(g.degrees()) for g in decided] == stars

    def test_every_revival_on_four_or_more_vertices_fails(self, monkeypatch):
        # every column survives the screen, so every tree is decided
        proper = SimpleNamespace(status=RevivalStatus.PROPER)
        monkeypatch.setattr(campaigns, "all_lafr_pairs", lambda g: [proper])
        monkeypatch.setattr(
            spectral, "_screen", lambda laps, top, p: (np.ones(laps.shape[:2], dtype=bool), None)
        )
        result = campaign_trees(6)
        assert not result.passed
        bigger = [
            to_graph6(tree_from_level_sequence(seq)) for n in (4, 5, 6) for seq in free_trees(n)
        ]
        assert len(bigger) == 11 and result.counterexamples == bigger
        assert result.details["graphs_with_proper_pairs"][2:] == bigger
        assert result.details["counts_per_n"] == {2: 1, 3: 1, 4: 2, 5: 3, 6: 6}
        assert result.corpus_size == 13


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

    def test_screen_leaves_twelve_classes(self, monkeypatch):
        # of the 21 connected classes, those with two surviving columns
        decided, real = [], campaigns._has_proper_pair
        monkeypatch.setattr(campaigns, "_has_proper_pair", lambda g: decided.append(g) or real(g))
        assert campaign_prime_order(5).details["positive_classes"] == 4
        assert len(decided) == 12 and all(is_connected(g) for g in decided)

    def test_double_cone_k3_is_positive(self):
        g = mask_to_graph(5, graph_to_mask(double_cone(complete_graph(3))))
        assert _has_proper_pair(g) and is_double_cone(g) is not None

    def test_double_cone_k3_class_keys_to_one_positive(self):
        g = double_cone(complete_graph(3))
        keys = {
            canonical_key(5, graph_to_mask(relabel(g, perm)))
            for perm in permutations(range(5))
        }
        assert len(keys) == 1
        g = mask_to_graph(5, keys.pop())
        assert _has_proper_pair(g) and is_double_cone(g) is not None

    def test_non_double_cones_fail(self, monkeypatch):
        monkeypatch.setattr(campaigns, "is_double_cone", lambda g: None)
        result = campaign_prime_order(5)
        assert not result.passed
        cex = result.counterexamples
        assert len(cex) == 4 and cex == sorted(cex)
        # one per positive class, each really a double cone with revival
        graphs = [parse_graph6(c) for c in cex]
        assert len({canonical_key(5, graph_to_mask(g)) for g in graphs}) == 4
        for g in graphs:
            assert is_double_cone(g) is not None
            assert any(d.status is RevivalStatus.PROPER for d in all_lafr_pairs(g))
        assert result.details["positives"] == 65
        assert result.details["positive_classes"] == 4

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
        assert result.corpus_size == 1134

    def test_one_double_cone_per_class(self, monkeypatch):
        bases = []
        thresholds = []

        def recording_double_cone(y):
            bases.append(y)
            return double_cone(y)

        def recording_threshold_graph(ms):
            thresholds.append(ms)
            return threshold_graph(ms)

        monkeypatch.setattr(campaigns, "double_cone", recording_double_cone)
        monkeypatch.setattr(campaigns, "threshold_graph", recording_threshold_graph)
        result = campaign_constructions()
        assert result.passed
        # 52 classes on 1..5 vertices (A000088) stand for 1099 labeled graphs;
        # the join extension adds DC(K4), and the threshold instance is built
        # by its own constructor
        assert result.details["double_cones_checked"] == 1099
        sizes = [1] + [2] * 2 + [3] * 4 + [4] * 11 + [5] * 34
        assert [y.n for y in bases] == sizes + [4]
        assert thresholds == [[2, 4]]
        assert threshold_graph([2, 4]) == double_cone(complete_graph(4))


def _failing_decision(*args):
    return dataclasses.replace(decide_proper_lafr(*args), status=RevivalStatus.PERIODIC_ONLY)


def _kind(label):
    # a double-cone or join-timing label ends in the graph6 of its case
    head = label.split()[0]
    return head if head in ("double-cone", "join-timing") else label


# a failing checker, and the kinds of the battery cases it fails, in order
BATTERY_FAILURES = {
    "revival_residual": (
        (oracle, lambda *args: 1.0), ["double-cone"] * 52
    ),
    "decision_residual": (
        (oracle, lambda *args: 1.0), ["double-cone"] * 52
    ),
    "check_cartesian_product_rule": (
        (campaigns, lambda *args: False),
        ["cartesian K3,P3,2/3", "cartesian K2,P3,2/3", "cartesian K1,P3,2/3"],
    ),
    "check_complement_transfer": (
        (campaigns, lambda *args: False),
        ["complement C4,1/2", "complement P3+K1,1/2", "complement P4,2/1"],
    ),
    "check_join_timing": ((campaigns, lambda *args: False), ["join-timing"] * 20),
    "proper_time_valid": (
        (campaigns, lambda *args: False),
        ["join-extension C4+K4", "join-extension DC(K4)+C6", "join-extension P3+K3"],
    ),
    "decide_proper_lafr": (
        (campaigns, _failing_decision),
        ["double-cone"] * 52
        + ["threshold 2,4", "hadamard n=2 revival", "hadamard n=4 revival"],
    ),
    "threshold_graph": (
        # another threshold graph: DC(K5) revives at 2pi/7, not at pi/3
        (campaigns, lambda ms: threshold_graph([2, 5])),
        ["threshold 2,4"],
    ),
    "hadamard_partition_check": (
        (campaigns, lambda *args: False),
        ["hadamard n=2 partition", "hadamard n=4 partition"],
    ),
    "check_polygamy_conditions": (
        (campaigns, lambda *args: SimpleNamespace(ok=False)),
        ["polygamy q=1", "polygamy q=3", "polygamy q=5"],
    ),
}


class TestBatteryFailures:
    """Every failing battery case is recorded once and the corpus size holds."""

    @pytest.mark.parametrize("name", sorted(BATTERY_FAILURES))
    def test_failing_checker(self, monkeypatch, name):
        (module, failing), kinds = BATTERY_FAILURES[name]
        monkeypatch.setattr(module, name, failing)
        result = campaign_constructions()
        assert not result.passed
        assert [_kind(label) for label in result.counterexamples] == kinds
        assert result.corpus_size == 1134
        assert result.details["double_cones_checked"] == 1099
        double_cones = [c for c in result.counterexamples if c.startswith("double-cone")]
        assert len(set(double_cones)) == len(double_cones)

    def test_all_failing_in_battery_order(self, monkeypatch):
        for name, ((module, failing), _) in BATTERY_FAILURES.items():
            monkeypatch.setattr(module, name, failing)
        result = campaign_constructions()
        order = [
            "double-cone", "cartesian", "complement", "join-timing",
            "join-extension", "threshold", "hadamard", "polygamy",
        ]
        heads = [label.split()[0] for label in result.counterexamples]
        assert heads == sorted(heads, key=order.index)
        assert Counter(heads) == {
            "double-cone": 52, "cartesian": 3, "complement": 3, "join-timing": 20,
            "join-extension": 3, "threshold": 1, "hadamard": 4, "polygamy": 3,
        }
        assert [c for c in result.counterexamples if c.startswith("hadamard")] == [
            "hadamard n=2 partition", "hadamard n=2 revival",
            "hadamard n=4 partition", "hadamard n=4 revival",
        ]
        assert result.corpus_size == 1134

    def test_hadamard_partition_read_from_decision(self, monkeypatch):
        # swapped classes in the decision's partition must reach the check,
        # so the battery cannot be reading the partition from anywhere else
        def swapped(*args):
            d = decide_proper_lafr(*args)
            if d.partition is None:
                return d
            part = dataclasses.replace(
                d.partition, plus=d.partition.minus, minus=d.partition.plus
            )
            return dataclasses.replace(d, partition=part)

        monkeypatch.setattr(campaigns, "decide_proper_lafr", swapped)
        result = campaign_constructions()
        assert result.counterexamples == [
            "hadamard n=2 partition", "hadamard n=4 partition",
        ]
        assert result.corpus_size == 1134


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
