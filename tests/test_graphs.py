"""Graph representation, formats, and constructors."""

import re
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lafr.campaigns import mask_to_graph
from lafr.graphs import (
    Graph,
    GraphFormatError,
    cartesian_product,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    distances,
    double_cone,
    empty_graph,
    graph6_order,
    hadamard_graph,
    is_connected,
    is_double_cone,
    is_hadamard_matrix,
    join,
    laplacian,
    parse_edgelist,
    parse_graph6,
    path_graph,
    standard_graph,
    sylvester_hadamard,
    threshold_graph,
    to_graph6,
)
from conftest import (
    Orientation,
    all_graph_masks,
    default_orientation,
    eccentricity,
    random_graph,
    signed_incidence,
    spanning_tree_count,
)


def nx_graph6(g: Graph) -> str:
    """Reference encoder from networkx, as the independent format oracle."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return nx.to_graph6_bytes(G, header=False).decode().strip()


class TestGraphType:
    def test_canonical_edges(self):
        g = Graph.from_edges(3, [(2, 0), (1, 2)])
        assert g.edges == {(0, 2), (1, 2)}

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 5)])

    def test_equality_is_structural(self):
        assert path_graph(2) == Graph.from_edges(2, [(1, 0)])
        assert path_graph(2) != empty_graph(2)

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="vertex count must be non-negative"):
            Graph(-1, frozenset())


class TestGraph6:
    def test_k2_decodes(self):
        assert parse_graph6("A_") == path_graph(2)

    def test_empty_three(self):
        assert parse_graph6("B?") == empty_graph(3)

    def test_k3_decodes(self):
        assert parse_graph6("Bw") == complete_graph(3)

    def test_k2_encodes(self):
        assert to_graph6(path_graph(2)) == "A_"

    def test_zero_vertices(self):
        assert to_graph6(empty_graph(0)) == "?"
        assert parse_graph6("?") == empty_graph(0)

    def test_c4_round_trip(self):
        s = to_graph6(cycle_graph(4))
        assert len(s) == 2  # header byte plus one payload byte
        assert parse_graph6(s) == cycle_graph(4)

    def test_round_trip_connected_up_to_6(self, connected_upto_6):
        for g in connected_upto_6:
            assert parse_graph6(to_graph6(g)) == g

    def test_matches_reference_encoder(self):
        rng = Random(7)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 12))
            assert to_graph6(g) == nx_graph6(g)
            assert parse_graph6(nx_graph6(g)) == g

    def test_header_prefix_accepted(self):
        assert parse_graph6(">>graph6<<A_") == path_graph(2)

    def test_large_header(self):
        g = empty_graph(100)
        assert parse_graph6(to_graph6(g)) == g

    def test_encoder_refuses_beyond_the_longest_header(self):
        with pytest.raises(ValueError, match="graph too large for graph6"):
            to_graph6(Graph(2**36, frozenset()))

    def test_malformed_character(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph6("A ")
        assert err.value.offset == 1

    def test_truncated_bit_vector(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("D")  # n=5 needs payload bytes

    def test_trailing_bytes(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("A__")

    def test_header_forms_match_reference_encoder(self):
        rng = Random(3)
        for n in (62, 63, 64, 200):
            g = random_graph(rng, n)
            assert to_graph6(g) == nx_graph6(g)
        assert to_graph6(empty_graph(62))[0] == "}"
        assert to_graph6(empty_graph(63)).startswith("~??~")

    def test_order_from_header(self):
        assert graph6_order(" >>graph6<<A_\n") == 2
        assert graph6_order("}") == 62  # its 316 body bytes are never read
        assert graph6_order("~?A?") == 128  # 2 << 6
        # n = 258048 = 63 << 12 needs the long form; its body would be 5.5 GB
        assert graph6_order("~~???~??") == 258048
        assert graph6_order("~~~~~~~~") == 2**36 - 1
        for g in (empty_graph(0), cycle_graph(5), empty_graph(63), empty_graph(300)):
            assert graph6_order(to_graph6(g)) == g.n

    @pytest.mark.parametrize(
        "text, offset",
        [("", 0), ("A!", 1), ("~", 1), ("~?", 2), ("~??", 3), ("~~", 2), ("~~?????", 7)],
    )
    def test_header_errors_shared(self, text, offset):
        for read in (graph6_order, parse_graph6):
            with pytest.raises(GraphFormatError) as err:
                read(text)
            assert err.value.offset == offset

    def test_decode_holds_no_pair_list(self):
        # 499500 pairs: a list of them would take over 4 MB for its pointers
        # alone, while the lazy pass holds one string of six bits per body byte
        data = to_graph6(empty_graph(1000))
        tracemalloc.start()
        try:
            g = parse_graph6(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g == empty_graph(1000)
        assert peak < 2_000_000

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(0, 10), st.integers(0, 2**45 - 1))
    def test_round_trip_random(self, n, seed):
        g = mask_to_graph(n, seed & ((1 << (n * (n - 1) // 2)) - 1))
        assert parse_graph6(to_graph6(g)) == g


class TestEdgeList:
    def test_basic(self):
        g = parse_edgelist("3\n0 1\n# comment\n1 2\n")
        assert g == path_graph(3)

    def test_missing_count(self):
        with pytest.raises(GraphFormatError):
            parse_edgelist("# nothing\n")

    def test_bad_edge(self):
        with pytest.raises(GraphFormatError):
            parse_edgelist("3\n0 1 2\n")

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("3 4\n0 1\n", "first data line must be the vertex count", 1),
            ("# n\nthree\n", "vertex count is not an integer", 2),
            ("3\n0 1 2\n", "edge lines must be 'u v'", 2),
            ("3\n0 1\n\n1 x\n", "edge endpoints must be integers", 4),
            ("3\n0 5\n", "edge (0, 5) out of range", None),
            ("3\n1 1\n", "self-loop at vertex 1", None),
        ],
    )
    def test_error_lines(self, text, message, offset):
        with pytest.raises(GraphFormatError, match=re.escape(message)) as err:
            parse_edgelist(text)
        assert err.value.offset == offset


class TestLaplacian:
    def test_k2(self):
        assert laplacian(path_graph(2)) == [[1, -1], [-1, 1]]

    def test_p3(self):
        assert laplacian(path_graph(3)) == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]

    def test_empty(self):
        assert laplacian(empty_graph(3)) == [[0] * 3 for _ in range(3)]

    def test_row_sums_zero(self):
        rng = Random(11)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 10))
            for row in laplacian(g):
                assert sum(row) == 0


class TestSignedIncidence:
    def test_k2_default_orientation(self):
        b = signed_incidence(path_graph(2))
        assert b == [[-1], [1]]

    def test_default_orientation_low_index_tail(self):
        o = default_orientation(cycle_graph(4))
        assert all(tail < head for tail, head in o.arcs)

    def test_empty_graph(self):
        assert signed_incidence(empty_graph(3)) == [[], [], []]

    def test_product_is_laplacian(self):
        rng = Random(5)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 9))
            edges = sorted(g.edges)
            arcs = tuple(
                (u, v) if rng.random() < 0.5 else (v, u) for u, v in edges
            )
            b = signed_incidence(g, Orientation(arcs))
            lap = laplacian(g)
            m = len(edges)
            for i in range(g.n):
                for j in range(g.n):
                    assert sum(b[i][e] * b[j][e] for e in range(m)) == lap[i][j]

    def test_mismatched_orientation(self):
        with pytest.raises(ValueError):
            signed_incidence(path_graph(3), Orientation(((0, 1),)))


class TestConstructors:
    def test_path_needs_one_vertex(self):
        with pytest.raises(ValueError, match="path needs at least one vertex"):
            path_graph(0)

    def test_complement_k3(self):
        assert complement(complete_graph(3)) == empty_graph(3)

    def test_complement_c4(self):
        assert complement(cycle_graph(4)) == Graph.from_edges(4, [(0, 2), (1, 3)])

    def test_complement_c5(self):
        c5bar = complement(cycle_graph(5))
        assert c5bar.num_edges == 5
        assert sorted(c5bar.degrees()) == [2] * 5

    def test_complement_involution(self):
        rng = Random(3)
        for _ in range(20):
            g = random_graph(rng, rng.randint(0, 9))
            assert complement(complement(g)) == g

    def test_join_is_complement_of_union_of_complements(self):
        rng = Random(9)
        for _ in range(30):
            x = random_graph(rng, rng.randint(0, 6))
            y = random_graph(rng, rng.randint(0, 6))
            assert join(x, y) == complement(
                disjoint_union(complement(x), complement(y))
            )

    def test_join_of_empties_is_c4(self):
        got = join(empty_graph(2), empty_graph(2))
        assert got.n == 4 and got.num_edges == 4
        assert got == Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])

    def test_join_star(self):
        star = join(empty_graph(1), empty_graph(5))
        assert star.degrees() == [5, 1, 1, 1, 1, 1]

    def test_join_double_cone_p3(self):
        got = join(empty_graph(2), path_graph(3))
        expect = Graph.from_edges(
            5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]
        )
        assert got == expect

    def test_union_identity(self):
        g = path_graph(4)
        assert disjoint_union(g, empty_graph(0)) == g
        assert disjoint_union(empty_graph(0), g) == g

    def test_union_edge_count(self):
        x, y = cycle_graph(4), complete_graph(3)
        assert disjoint_union(x, y).num_edges == x.num_edges + y.num_edges

    def test_cartesian_k2_k2(self):
        assert cartesian_product(path_graph(2), path_graph(2)) == Graph.from_edges(
            4, [(0, 1), (2, 3), (0, 2), (1, 3)]
        )

    def test_cartesian_ladder(self):
        lad = cartesian_product(path_graph(2), path_graph(3))
        assert lad.n == 6 and lad.num_edges == 7
        expect = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
        assert lad == expect

    def test_cartesian_unit(self):
        g = cycle_graph(5)
        assert cartesian_product(g, empty_graph(1)) == g

    def test_cartesian_laplacian_identity(self):
        rng = Random(17)
        for _ in range(10):
            x = random_graph(rng, rng.randint(1, 4))
            y = random_graph(rng, rng.randint(1, 4))
            lz = laplacian(cartesian_product(x, y))
            lx, ly = laplacian(x), laplacian(y)
            n, m = x.n, y.n
            for i1 in range(n):
                for j1 in range(m):
                    for i2 in range(n):
                        for j2 in range(m):
                            expect = 0
                            if j1 == j2:
                                expect += lx[i1][i2]
                            if i1 == i2:
                                expect += ly[j1][j2]
                            assert lz[i1 * m + j1][i2 * m + j2] == expect

    def test_double_cone_k1_is_p3(self):
        got = double_cone(empty_graph(1))
        assert got.n == 3 and got.num_edges == 2
        assert sorted(got.degrees()) == [1, 1, 2]

    def test_double_cone_o2_is_c4(self):
        got = double_cone(empty_graph(2))
        assert got.num_edges == 4 and set(got.degrees()) == {2}
        assert eccentricity(got, 0) == 2

    def test_double_cone_k3_degrees(self):
        assert sorted(double_cone(complete_graph(3)).degrees()) == [3, 3, 4, 4, 4]

    def test_double_cone_labeling(self):
        g = double_cone(path_graph(3))
        assert (0, 1) not in g.edges
        for v in range(2, 5):
            assert (0, v) in g.edges and (1, v) in g.edges


class TestThreshold:
    def test_gamma_2_2(self):
        assert threshold_graph([2, 2]) == double_cone(complete_graph(2))

    def test_gamma_1_1(self):
        assert threshold_graph([1, 1]) == complete_graph(2)

    def test_gamma_2_4(self):
        assert threshold_graph([2, 4]) == double_cone(complete_graph(4))

    def test_gamma_four_blocks(self):
        g = threshold_graph([2, 1, 1, 2])
        assert g.n == 6
        # the last join block dominates everything
        assert g.degrees()[4] == 5 and g.degrees()[5] == 5

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            threshold_graph([2, 2, 1])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            threshold_graph([2, 0])


class TestHadamard:
    def test_sylvester_orders(self):
        assert sylvester_hadamard(0) == [[1]]
        assert sylvester_hadamard(1) == [[1, 1], [1, -1]]

    def test_sylvester_orthogonality(self):
        h = sylvester_hadamard(2)
        assert is_hadamard_matrix(h)

    def test_sylvester_guard(self):
        with pytest.raises(ValueError):
            sylvester_hadamard(13)

    def test_degenerate_one_by_one(self):
        # brute-force reading of the adjacency rule: two disjoint edges
        g = hadamard_graph([[1]])
        assert sorted(g.edges) == [(0, 2), (1, 3)]

    def test_two_by_two_is_an_eight_cycle(self):
        # the definition yields the 2-regular diameter-4 bipartite graph
        g = hadamard_graph(sylvester_hadamard(1))
        assert g.n == 8 and set(g.degrees()) == {2}
        assert is_connected(g)
        assert max(eccentricity(g, v) for v in range(8)) == 4

    def test_four_by_four_structure(self):
        g = hadamard_graph(sylvester_hadamard(2))
        assert g.n == 16 and set(g.degrees()) == {4}
        assert max(eccentricity(g, v) for v in range(16)) == 4
        # bipartite: rows vs columns
        for u, v in g.edges:
            assert (u < 8) != (v < 8)

    def test_rejects_non_hadamard(self):
        for h in (
            [[1, 1], [1, 1]],
            [[1, 1], [1]],  # ragged
            [[1, 0], [0, 1]],  # an entry other than +-1
            [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],  # H H^T = nI
        ):
            with pytest.raises(ValueError, match="input is not a Hadamard matrix"):
                hadamard_graph(h)


class TestStandardGraphs:
    def test_families(self):
        assert standard_graph("path", 2) == complete_graph(2)
        assert standard_graph("cycle", 3) == complete_graph(3)
        assert standard_graph("complete", 4).num_edges == 6

    def test_invalid(self):
        with pytest.raises(ValueError):
            standard_graph("cycle", 2)
        with pytest.raises(ValueError):
            standard_graph("wheel", 5)


def brute_force_spanning_trees(g: Graph) -> int:
    """Independent oracle: count edge subsets forming spanning trees."""
    from itertools import combinations

    if g.n == 1:
        return 1
    edges = sorted(g.edges)
    count = 0
    for subset in combinations(edges, g.n - 1):
        t = Graph.from_edges(g.n, subset)
        if is_connected(t):
            count += 1
    return count


class TestSpanningTrees:
    def test_p3(self):
        assert spanning_tree_count(path_graph(3)) == 1

    def test_c6(self):
        assert spanning_tree_count(cycle_graph(6)) == brute_force_spanning_trees(
            cycle_graph(6)
        )
        assert spanning_tree_count(cycle_graph(6)) == 6

    def test_k4(self):
        assert spanning_tree_count(complete_graph(4)) == brute_force_spanning_trees(
            complete_graph(4)
        )
        assert spanning_tree_count(complete_graph(4)) == 16

    def test_disconnected_is_zero(self):
        assert spanning_tree_count(disjoint_union(path_graph(2), path_graph(2))) == 0

    def test_deleted_vertex_invariance(self):
        rng = Random(23)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 8))
            counts = {spanning_tree_count(g, v) for v in range(g.n)}
            assert len(counts) == 1

    def test_matches_brute_force_random(self):
        rng = Random(29)
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 6))
            assert spanning_tree_count(g) == brute_force_spanning_trees(g)


class TestDistances:
    def test_p3_end(self):
        assert distances(path_graph(3), 0) == [0, 1, 2]
        assert eccentricity(path_graph(3), 0) == 2

    def test_c6(self):
        assert eccentricity(cycle_graph(6), 2) == 3

    def test_disconnected(self):
        g = disjoint_union(path_graph(2), path_graph(2))
        assert distances(g, 0) == [0, 1, None, None]
        assert not is_connected(g)

    def test_null_graph_is_connected(self):
        assert is_connected(empty_graph(0))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            distances(path_graph(2), 5)


class TestDoubleConeDetection:
    def test_c4(self):
        assert is_double_cone(cycle_graph(4)) == (0, 2)

    def test_p4(self):
        assert is_double_cone(path_graph(4)) is None

    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            is_double_cone(path_graph(2))

    def test_constructed(self):
        assert is_double_cone(double_cone(path_graph(3))) == (0, 1)

    def test_all_small_double_cones_detected(self):
        for k in range(1, 5):
            for mask in all_graph_masks(k):
                y = mask_to_graph(k, mask)
                assert is_double_cone(double_cone(y)) is not None
