"""Predecessor implementations kept as differential-test references.

The recursive ``AVLTree.insert`` / ``remove`` and the lookup-then-walk
``CuckooIndex.insert`` as they stood before the lean-``get_c`` rewrite
(commit ``243c034``).  Their visit counts (``steps``, ``probes``) are
charged to virtual time and their RNG draws fix every later eviction, so
the rewritten structures must agree with them call for call
(``tests/test_core_structures_differential.py``).
"""

from __future__ import annotations

from typing import Any

from repro.core.avl import AVLTree, Key, _Node, _rebalance
from repro.core.cuckoo import CuckooIndex, Indexable, InsertResult


class RecursiveAVLTree(AVLTree):
    """``AVLTree`` with the recursive-closure ``insert`` / ``remove``."""

    def insert(self, key: Key, value: Any) -> int:
        steps = 0

        def rec(node: _Node | None) -> _Node:
            nonlocal steps
            steps += 1
            if node is None:
                return _Node(key, value)
            if key < node.key:
                node.left = rec(node.left)
            elif key > node.key:
                node.right = rec(node.right)
            else:
                raise KeyError(f"duplicate key {key}")
            return _rebalance(node)

        self._root = rec(self._root)
        self._size += 1
        return steps

    def remove(self, key: Key) -> int:
        steps = 0

        def rec(node: _Node | None) -> _Node | None:
            nonlocal steps
            steps += 1
            if node is None:
                raise KeyError(f"key {key} not in tree")
            if key < node.key:
                node.left = rec(node.left)
            elif key > node.key:
                node.right = rec(node.right)
            else:
                if node.left is None:
                    return node.right
                if node.right is None:
                    return node.left
                # Replace with in-order successor.
                succ = node.right
                while succ.left is not None:
                    steps += 1
                    succ = succ.left
                node.key, node.value = succ.key, succ.value
                key2 = succ.key

                def rec2(n: _Node | None) -> _Node | None:
                    nonlocal steps
                    steps += 1
                    assert n is not None
                    if key2 < n.key:
                        n.left = rec2(n.left)
                    elif key2 > n.key:
                        n.right = rec2(n.right)
                    else:
                        if n.left is None:
                            return n.right
                        if n.right is None:
                            return n.left
                        raise AssertionError("successor has two children")
                    return _rebalance(n)

                node.right = rec2(node.right)
            return _rebalance(node)

        self._root = rec(self._root)
        self._size -= 1
        return steps


class ReferenceCuckooIndex(CuckooIndex):
    """``CuckooIndex`` with the separate-lookup ``insert``."""

    def insert(self, entry: Indexable) -> InsertResult:
        existing, _ = self.lookup(entry.key)
        if existing is not None:
            raise ValueError(f"duplicate key {entry.key}")

        probes = 0
        path: list[Indexable] = []
        seen_ids: set[int] = set()
        current = entry
        last_slot = -1
        for _ in range(self.max_iterations):
            cands = self._candidates(current.key)
            probes += len(cands)
            free = [s for s in cands if self._slots[s] is None]
            if free:
                slot = free[0]
                self._place(current, slot)
                self._count += 1
                return InsertResult(True, probes, path)
            choices = [s for s in cands if s != last_slot] or cands
            slot = choices[self._rng.randrange(len(choices))]
            victim = self._slots[slot]
            assert victim is not None
            if id(victim) not in seen_ids:
                seen_ids.add(id(victim))
                path.append(victim)
            self._slots[slot] = None
            self._place(current, slot)
            current = victim
            current.slot = -1
            last_slot = slot
        return InsertResult(False, probes, path, homeless=current)


def preorder(tree: AVLTree) -> list[tuple[Key, int]]:
    """Tree shape as pre-order ``(key, height)`` pairs."""
    out: list[tuple[Key, int]] = []
    stack = [tree._root]
    while stack:
        node = stack.pop()
        if node is not None:
            out.append((node.key, node.height))
            stack.extend((node.right, node.left))
    return out
