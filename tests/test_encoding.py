"""Codeword maps, Gray orderings, and hypercube adjacency."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sesvqe import encoding


def hamming(a, b):
    return bin(a ^ b).count("1")


def test_register_width_table():
    assert encoding.register_width(1) == 1
    assert encoding.register_width(2) == 1
    assert encoding.register_width(3) == 2
    assert encoding.register_width(8) == 3
    assert encoding.register_width(9) == 4
    assert encoding.register_width(1024) == 10


def test_register_width_rejects_zero():
    with pytest.raises(ValueError):
        encoding.register_width(0)


def test_shifted_map_eight_sites():
    emap = encoding.build_map(8, "shifted")
    assert [emap.codeword(k) for k in range(8)] == [1, 2, 3, 4, 5, 6, 7, 0]
    assert emap.codewords == (0b001, 0b010, 0b011, 0b100, 0b101, 0b110, 0b111, 0b000)


def test_plain_map_is_identity():
    emap = encoding.build_map(5, "plain")
    assert [emap.codeword(k) for k in range(5)] == [0, 1, 2, 3, 4]
    assert emap.num_qubits == 3


def test_single_site_register():
    emap = encoding.build_map(1, "plain")
    assert emap.num_qubits == 1
    assert emap.codewords == (0,)


def site_of(emap) -> dict:
    """Codeword -> site, the inverse the packed register reads outcomes with."""
    return {c: s for s, c in enumerate(emap.codewords)}


def test_inverse_round_trip():
    for n_sites in (1, 2, 3, 5, 8, 13, 16):
        for mode in ("shifted", "plain"):
            emap = encoding.build_map(n_sites, mode)
            inverse = site_of(emap)
            for k in range(n_sites):
                assert inverse[emap.codeword(k)] == k


def test_unassigned_codewords_map_to_none():
    emap = encoding.build_map(5, "shifted")
    # sites take codewords 1..5; 0, 6 and 7 stay free
    used = {emap.codeword(k) for k in range(5)}
    assert used == {1, 2, 3, 4, 5}
    for free in (0, 6, 7):
        assert site_of(emap).get(free) is None


def test_build_map_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        encoding.build_map(4, "folded")


def test_map_validation():
    with pytest.raises(ValueError, match="distinct"):
        encoding.EncodingMap(2, 1, "plain", (0, 0))
    with pytest.raises(ValueError):
        encoding.EncodingMap(3, 1, "plain", (0, 1, 2))
    with pytest.raises(ValueError, match="out of range"):
        encoding.EncodingMap(2, 1, "plain", (0, 2))
    emap = encoding.build_map(4)
    with pytest.raises(ValueError, match="site"):
        emap.codeword(4)


def test_gray_sequence_three_qubits():
    got = [format(c, "03b") for c in encoding.gray_sequence(3)]
    assert got == ["000", "001", "011", "010", "110", "111", "101", "100"]


def test_gray_sequence_one_qubit():
    assert encoding.gray_sequence(1) == [0, 1]


def test_gray_sequence_four_qubits_cyclic_property():
    seq = encoding.gray_sequence(4)
    assert sorted(seq) == list(range(16))
    for i in range(16):
        assert hamming(seq[i], seq[(i + 1) % 16]) == 1


def test_gray_rejects_bad_width():
    with pytest.raises(ValueError):
        encoding.gray_sequence(0)


class TestDiffSets:
    def test_single_flip(self):
        d, s = encoding.diff_sets(0b000, 0b001, 3)
        assert d == {0}
        assert s == {1: 0, 2: 0}

    def test_identical_codewords(self):
        d, s = encoding.diff_sets(0b010, 0b010, 3)
        assert d == set()
        assert s == {0: 0, 1: 1, 2: 0}

    def test_two_flips(self):
        d, s = encoding.diff_sets(0b011, 0b101, 3)
        assert d == {1, 2}
        assert s == {0: 1}

    def test_partition_property(self):
        for a in range(16):
            for b in range(16):
                d, s = encoding.diff_sets(a, b, 4)
                assert d | set(s) == {0, 1, 2, 3}
                assert d & set(s) == set()

    def test_width_mismatch_errors(self):
        with pytest.raises(ValueError, match="wider"):
            encoding.diff_sets(0b100, 0b001, 2)
        with pytest.raises(ValueError):
            encoding.diff_sets(0, 0, 0)

    def test_gray_neighbours_differ_in_one_position(self):
        seq = encoding.gray_sequence(3)
        for i in range(8):
            d, _ = encoding.diff_sets(seq[i], seq[(i + 1) % 8], 3)
            assert len(d) == 1


class TestHypercubeEdges:
    def test_two_sites(self):
        emap = encoding.build_map(2, "plain")
        assert encoding.hypercube_edges(emap) == [(0, 1, 0)]

    def test_four_sites_full_register(self):
        emap = encoding.build_map(4, "shifted")
        edges = encoding.hypercube_edges(emap)
        assert len(edges) == 4
        for j, k, pos in edges:
            assert j < k
            assert emap.codeword(j) ^ emap.codeword(k) == 1 << pos

    def test_eight_sites_position_multiplicity(self):
        emap = encoding.build_map(8, "shifted")
        edges = encoding.hypercube_edges(emap)
        assert len(edges) == 12
        by_pos = {0: 0, 1: 0, 2: 0}
        for _, _, pos in edges:
            by_pos[pos] += 1
        assert by_pos == {0: 4, 1: 4, 2: 4}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_register_count(self, n):
        emap = encoding.build_map(2**n, "shifted")
        assert len(encoding.hypercube_edges(emap)) == n * 2 ** (n - 1)

    def test_gray_cycle_edges_are_a_subset(self):
        emap = encoding.build_map(8, "shifted")
        edge_pairs = {(j, k) for j, k, _ in encoding.hypercube_edges(emap)}
        seq = encoding.gray_sequence(3)
        inverse = site_of(emap)
        for i in range(8):
            a = inverse[seq[i]]
            b = inverse[seq[(i + 1) % 8]]
            assert (min(a, b), max(a, b)) in edge_pairs

    def test_partial_register(self):
        # five sites on three qubits: only encoded pairs count
        emap = encoding.build_map(5, "shifted")
        edges = encoding.hypercube_edges(emap)
        words = [emap.codeword(k) for k in range(5)]
        expected = sum(
            1
            for j in range(5)
            for k in range(j + 1, 5)
            if hamming(words[j], words[k]) == 1
        )
        assert len(edges) == expected


@given(n_sites=st.integers(1, 80), mode=st.sampled_from(["shifted", "plain"]))
@example(n_sites=2, mode="shifted")
@example(n_sites=16, mode="shifted")
@example(n_sites=64, mode="plain")
def test_map_invariants(n_sites, mode):
    emap = encoding.build_map(n_sites, mode)
    n = emap.num_qubits
    words = [emap.codeword(s) for s in range(n_sites)]
    assert len(set(words)) == n_sites
    assert all(0 <= w < 2**n for w in words)
    assert emap.codewords == tuple(words)
    edges = encoding.hypercube_edges(emap)
    for j, k, flip in edges:
        assert words[j] ^ words[k] == 1 << flip
    # the edges are every encoded pair at Hamming distance one, each listed once
    want = {(j, k) for j in range(n_sites) for k in range(j + 1, n_sites) if hamming(words[j], words[k]) == 1}
    assert sorted((j, k) for j, k, _ in edges) == sorted(want)
    if n_sites == 2**n:
        assert len(edges) == n * 2 ** (n - 1)
