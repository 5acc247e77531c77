"""The rewritten miss-side structures against their predecessors.

``AVLTree.insert`` / ``remove`` step counts and ``CuckooIndex.insert``
probe counts are charged to virtual time, and the index's RNG draws fix
every later eviction: the iterative tree and the single-scan insert must
agree with the implementations they replaced (``reference_structures``)
call for call, not just in outcome.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_structures import (
    RecursiveAVLTree,
    ReferenceCuckooIndex,
    preorder,
)

from repro.core.avl import AVLTree
from repro.core.cuckoo import CuckooIndex
from repro.core.states import _LEGAL, EntryState, IllegalTransition, check_transition


def outcome(call):
    """A call's result, or the exception type it raised."""
    try:
        return call()
    except (KeyError, ValueError) as exc:
        return type(exc)


# ----------------------------------------------------------------------
# AVL
# ----------------------------------------------------------------------
#: few distinct keys, so sequences revisit them: duplicates, removals of
#: missing keys and two-children removals all occur
avl_keys = st.tuples(st.integers(0, 12), st.integers(0, 3))
avl_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "remove", "ceiling"]), avl_keys),
    max_size=120,
)


class TestIterativeAVL:
    @settings(max_examples=300, deadline=None)
    @given(avl_ops)
    def test_same_steps_and_shape_as_recursive(self, ops):
        new, ref = AVLTree(), RecursiveAVLTree()
        for op, key in ops:
            if op == "insert":
                got = outcome(lambda: new.insert(key, key))
                want = outcome(lambda: ref.insert(key, key))
            elif op == "remove":
                got = outcome(lambda: new.remove(key))
                want = outcome(lambda: ref.remove(key))
            else:
                got, want = new.ceiling(key[0]), ref.ceiling(key[0])
            assert got == want, (op, key)
            assert preorder(new) == preorder(ref), (op, key)
            assert len(new) == len(ref)
        new.check_invariants()

    @pytest.mark.parametrize("cls", [AVLTree, RecursiveAVLTree])
    def test_pinned_step_counts(self, cls):
        """Absolute counts, so reference and rewrite cannot drift together."""
        tree = cls()
        assert [tree.insert((k, 0), None) for k in (4, 2, 6, 1, 3, 5, 7)] == [
            1, 2, 2, 3, 3, 3, 3,
        ]  # fmt: skip
        # leaf; two children with the successor one hop down-left of the
        # right child (2 + 1 + 2); root with a one-child successor
        assert tree.remove((1, 0)) == 3
        assert tree.insert((5, 5), None) == 4
        assert tree.remove((4, 0)) == 1 + 1 + 2
        assert preorder(tree) == [
            ((5, 0), 3), ((2, 0), 2), ((3, 0), 1), ((6, 0), 2), ((5, 5), 1),
            ((7, 0), 1),
        ]  # fmt: skip

    def test_failed_calls_leave_the_tree_alone(self):
        tree = AVLTree()
        for k in range(8):
            tree.insert((k, 0), k)
        before = preorder(tree)
        with pytest.raises(KeyError):
            tree.insert((3, 0), "dup")
        with pytest.raises(KeyError):
            tree.remove((3, 1))
        assert preorder(tree) == before and len(tree) == 8


# ----------------------------------------------------------------------
# cuckoo insert
# ----------------------------------------------------------------------
class Keyed:
    def __init__(self, key):
        self.key = key
        self.slot = -1


def rng_draws(index: CuckooIndex) -> tuple:
    """The RNG stream position: equal iff equally many draws were made."""
    return index._rng.getstate()


class TestSingleScanCuckooInsert:
    @pytest.mark.parametrize("capacity,num_hashes", [(16, 2), (64, 4), (97, 3)])
    @pytest.mark.parametrize("seed", range(5))
    def test_same_walk_as_lookup_then_insert(self, capacity, num_hashes, seed):
        """Fill past the point of conflict: slots, probes, path, homeless."""
        kw = dict(num_hashes=num_hashes, max_iterations=12, seed=seed)
        new, ref = CuckooIndex(capacity, **kw), ReferenceCuckooIndex(capacity, **kw)
        conflicts = 0
        for i in range(2 * capacity):
            key = (i % 3, (i * 2654435761 + seed) % 1000)
            a, b = Keyed(key), Keyed(key)
            got, want = outcome(lambda: new.insert(a)), outcome(lambda: ref.insert(b))
            if want is ValueError:
                assert got is ValueError, key
                continue
            assert (got.success, got.probes) == (want.success, want.probes), key
            assert [e.key for e in got.path] == [e.key for e in want.path]
            if not want.success:
                conflicts += 1
                assert got.homeless.key == want.homeless.key
                assert got.homeless.slot == want.homeless.slot == -1
            assert rng_draws(new) == rng_draws(ref)
            assert [e and (e.key, e.slot) for e in new._slots] == [
                e and (e.key, e.slot) for e in ref._slots
            ]
            assert len(new) == len(ref)
        assert conflicts, "the stream never drove the table into a conflict"

    def test_duplicate_raises_before_anything_moves(self):
        index = CuckooIndex(8, num_hashes=2, seed=1)
        stored = [Keyed((0, i)) for i in range(5)]
        for e in stored:
            assert index.insert(e).success
        before = ([e and e.key for e in index._slots], rng_draws(index), len(index))
        with pytest.raises(ValueError, match="duplicate key"):
            index.insert(Keyed((0, 3)))
        with pytest.raises(ValueError, match="duplicate key"):
            index.insert(stored[3])  # the stored entry itself
        assert ([e and e.key for e in index._slots], rng_draws(index), len(index)) == before


# ----------------------------------------------------------------------
# Fig. 5
# ----------------------------------------------------------------------
class TestTransitionTable:
    @pytest.mark.parametrize("old", EntryState)
    @pytest.mark.parametrize("new", EntryState)
    def test_fast_check_agrees_with_the_legal_set(self, old, new):
        """``_LEGAL`` is the statement of Fig. 5; the check is derived."""
        legal = old is new or (old, new) in _LEGAL
        if legal:
            check_transition(old, new)
        else:
            with pytest.raises(IllegalTransition):
                check_transition(old, new)
