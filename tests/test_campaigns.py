"""Campaign harnesses: tree scan, prime-order scan, construction battery."""

import pytest

from lafr.campaigns import (
    _confirm_masks,
    _screen_chunk,
    all_graph_masks,
    campaign_constructions,
    campaign_prime_order,
    campaign_trees,
    graph_to_mask,
    mask_to_graph,
    pair_table,
)
from lafr.graphs import (
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

    def test_double_cone_k3_is_positive(self):
        mask = graph_to_mask(double_cone(complete_graph(3)))
        positives, counterexamples = _confirm_masks(5, [mask])
        assert positives == [mask] and counterexamples == []

    def test_screen_keeps_known_positive(self):
        mask = graph_to_mask(double_cone(complete_graph(3)))
        _, shortlist = _screen_chunk(5, mask, mask + 1)
        assert shortlist == [mask]

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
        assert result.details["positives"] > 0


class TestConstructionCampaign:
    def test_battery_passes(self):
        result = campaign_constructions()
        assert result.passed, result.counterexamples
        assert result.details["double_cones_checked"] == 1099
        assert result.details["threshold_ok"]

    def test_workers_do_not_change_prime5(self):
        seq = campaign_prime_order(5, workers=1)
        par = campaign_prime_order(5, workers=2)
        assert seq.details["positives"] == par.details["positives"]
        assert seq.counterexamples == par.counterexamples


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
