"""Unit and property tests for Hopcroft–Karp bipartite matching."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import has_semi_perfect_matching, hopcroft_karp


class TestHopcroftKarp:
    def test_perfect_matching(self):
        adjacency = {"a": ["1", "2"], "b": ["1"], "c": ["3"]}
        matching = hopcroft_karp(["a", "b", "c"], adjacency)
        assert len(matching) == 3
        assert matching["b"] == "1"

    def test_no_matching_for_isolated(self):
        adjacency = {"a": [], "b": ["1"]}
        matching = hopcroft_karp(["a", "b"], adjacency)
        assert len(matching) == 1

    def test_contention(self):
        # three left nodes all want the same right node
        adjacency = {"a": ["1"], "b": ["1"], "c": ["1"]}
        matching = hopcroft_karp(["a", "b", "c"], adjacency)
        assert len(matching) == 1

    def test_augmenting_path_needed(self):
        # greedy (a->1) forces augmentation for b
        adjacency = {"a": ["1", "2"], "b": ["1"]}
        matching = hopcroft_karp(["a", "b"], adjacency)
        assert len(matching) == 2

    def test_matching_is_consistent(self):
        adjacency = {"a": ["1", "2"], "b": ["2", "3"], "c": ["1", "3"]}
        matching = hopcroft_karp(["a", "b", "c"], adjacency)
        # injective on the right side
        assert len(set(matching.values())) == len(matching)
        # only uses allowed edges
        for left, right in matching.items():
            assert right in adjacency[left]

    def test_empty(self):
        assert hopcroft_karp([], {}) == {}


class TestSemiPerfect:
    def test_semi_perfect_true(self):
        assert has_semi_perfect_matching(["a"], {"a": ["1"]})

    def test_semi_perfect_false_fast_path(self):
        assert not has_semi_perfect_matching(["a", "b"], {"a": ["1"], "b": []})

    def test_greedy_pass_fails_hopcroft_karp_succeeds(self):
        """The greedy pre-pass gives ``1`` to ``a`` and leaves ``b``
        unmatched; Hopcroft–Karp re-routes ``a`` to ``2``."""
        adjacency = {"a": ["1", "2"], "b": ["1"]}
        assert has_semi_perfect_matching(["a", "b"], adjacency)

    def test_greedy_pass_fails_and_no_matching_exists(self):
        adjacency = {"a": ["1", "2"], "b": ["1"], "c": ["2"]}
        assert not has_semi_perfect_matching(["a", "b", "c"], adjacency)

    def test_paper_example_b_b2(self, paper_graph):
        """Fig. 4.18, level 2: B(B, B2) has no semi-perfect matching once
        A2 has been removed from Phi(A)."""
        # neighbors of pattern B: {A, C}; neighbors of B2: {A2, C2}
        # after level 1, Phi(A)={A1}, Phi(C)={C2}: A can only use A1,
        # which is not adjacent to B2
        adjacency = {"A": [], "C": ["C2"]}
        assert not has_semi_perfect_matching(["A", "C"], adjacency)


def _reference_max_matching(left, adjacency):
    """Exponential reference: try all injective assignments."""
    best = 0
    rights = sorted({r for rs in adjacency.values() for r in rs})
    for k in range(len(left), 0, -1):
        for subset in itertools.combinations(left, k):
            for assignment in itertools.permutations(rights, k):
                if all(r in adjacency.get(l, ()) for l, r in zip(subset, assignment)):
                    return k
    return best


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2 ** 25 - 1))
def test_matching_size_matches_reference(n_left, n_right, mask):
    """Property: Hopcroft–Karp finds the same maximum size as brute force."""
    left = [f"l{i}" for i in range(n_left)]
    right = [f"r{j}" for j in range(n_right)]
    adjacency = {
        l: [right[j] for j in range(n_right) if (mask >> (i * 5 + j)) & 1]
        for i, l in enumerate(left)
    }
    fast = len(hopcroft_karp(left, adjacency))
    slow = _reference_max_matching(left, adjacency)
    assert fast == slow


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2 ** 25 - 1))
def test_semi_perfect_agrees_with_hopcroft_karp(n_left, n_right, mask):
    """Property: the greedy-first check answers exactly whether the
    maximum matching covers every left vertex."""
    left = [f"l{i}" for i in range(n_left)]
    right = [f"r{j}" for j in range(n_right)]
    adjacency = {
        l: [right[j] for j in range(n_right) if (mask >> (i * 5 + j)) & 1]
        for i, l in enumerate(left)
    }
    expected = len(hopcroft_karp(left, adjacency)) == len(left)
    assert has_semi_perfect_matching(left, adjacency) == expected
