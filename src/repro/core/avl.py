"""Size-keyed AVL tree over free storage regions (paper Sec. III-C2).

"Free memory regions are indexed with an AVL tree, using their sizes as
indexes: the search of a free region requires O(log N) time ... new
allocations are served with a best-fit policy."

Keys are ``(size, offset)`` pairs — the offset disambiguates equal sizes and
makes every key unique.  The allocator's best-fit query is
:meth:`AVLTree.ceiling`: the smallest key ``>= (want, 0)``, i.e. the
*smallest sufficiently large* free region (ties broken by lowest offset).

Each mutating/searching call returns the number of nodes it visited so the
storage layer can charge ``avl_step_time`` per step to the virtual clock.
"""

from __future__ import annotations

from typing import Any, Iterator

Key = tuple[int, int]


class _Node:
    __slots__ = ("key", "value", "left", "right", "height")

    def __init__(self, key: Key, value: Any):
        self.key = key
        self.value = value
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.height = 1


def _h(n: _Node | None) -> int:
    return n.height if n else 0


def _update(n: _Node) -> None:
    n.height = 1 + max(_h(n.left), _h(n.right))


def _balance(n: _Node) -> int:
    return _h(n.left) - _h(n.right)


def _rot_right(y: _Node) -> _Node:
    x = y.left
    assert x is not None
    y.left = x.right
    x.right = y
    _update(y)
    _update(x)
    return x


def _rot_left(x: _Node) -> _Node:
    y = x.right
    assert y is not None
    x.right = y.left
    y.left = x
    _update(x)
    _update(y)
    return y


def _rebalance(n: _Node) -> _Node:
    left, right = n.left, n.right
    lh = left.height if left else 0
    rh = right.height if right else 0
    n.height = 1 + (lh if lh > rh else rh)
    if lh - rh > 1:
        assert left is not None
        if _balance(left) < 0:
            n.left = _rot_left(left)
        return _rot_right(n)
    if lh - rh < -1:
        assert right is not None
        if _balance(right) > 0:
            n.right = _rot_right(right)
        return _rot_left(n)
    return n


def _relink(path: list[tuple[_Node, bool]], child: _Node | None) -> _Node | None:
    """Hang ``child`` below the last node of a root-to-leaf ``path`` of
    ``(node, went_left)`` steps and rebalance the nodes on the way back
    up; returns the new root.

    The climb stops at the first node that keeps its place and its height:
    every node above it sees the same child heights as before, so it
    neither changes nor rotates (shape and step counts are those of the
    full climb).  A node that stays balanced is handled in line; only a
    rotation calls :func:`_rebalance`."""
    for i in range(len(path) - 1, -1, -1):
        node, went_left = path[i]
        if went_left:
            node.left = child
        else:
            node.right = child
        left, right = node.left, node.right
        lh = left.height if left else 0
        rh = right.height if right else 0
        if -1 <= lh - rh <= 1:
            height = 1 + (lh if lh > rh else rh)
            if height == node.height:
                return path[0][0]
            node.height = height
            child = node
        else:
            child = _rebalance(node)
    return child


class AVLTree:
    """Self-balancing BST with best-fit (ceiling) queries and step counting.

    ``insert`` / ``remove`` run on every miss and release, so they walk an
    explicit path instead of recursing; step counts (charged to virtual
    time) and tree shape are those of the recursive formulation, node for
    node (``tests/test_core_structures_differential.py``).
    """

    def __init__(self) -> None:
        self._root: _Node | None = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    def insert(self, key: Key, value: Any) -> int:
        """Insert a unique key; returns nodes visited."""
        path: list[tuple[_Node, bool]] = []
        node = self._root
        while node is not None:
            if key < node.key:
                path.append((node, True))
                node = node.left
            elif key > node.key:
                path.append((node, False))
                node = node.right
            else:
                raise KeyError(f"duplicate key {key}")
        self._root = _relink(path, _Node(key, value))
        self._size += 1
        return len(path) + 1  # every node on the path, plus the new leaf

    def remove(self, key: Key) -> int:
        """Remove an existing key; returns nodes visited."""
        path: list[tuple[_Node, bool]] = []
        node = self._root
        while node is not None and key != node.key:
            went_left = key < node.key
            path.append((node, went_left))
            node = node.left if went_left else node.right
        if node is None:
            raise KeyError(f"key {key} not in tree")
        steps = len(path) + 1
        if node.left is None:
            child = node.right
        elif node.right is None:
            child = node.left
        else:
            # Two children: the node takes over its in-order successor,
            # which is then unlinked from the right subtree.  Each hop
            # down-left is visited twice (finding the successor, then
            # removing it), as the recursive formulation does.
            path.append((node, False))
            succ = node.right
            steps += 1
            while succ.left is not None:
                path.append((succ, True))
                succ = succ.left
                steps += 2
            node.key, node.value = succ.key, succ.value
            child = succ.right
        self._root = _relink(path, child)
        self._size -= 1
        return steps

    def ceiling(self, min_size: int) -> tuple[Key | None, Any, int]:
        """Best fit: smallest key ``>= (min_size, 0)``.

        Returns ``(key, value, steps)``; key is None when nothing fits.
        """
        target: Key = (min_size, -1)
        best: _Node | None = None
        node = self._root
        steps = 0
        while node is not None:
            steps += 1
            if node.key > target:
                best = node
                node = node.left
            else:
                node = node.right
        if best is None:
            return None, None, steps
        return best.key, best.value, steps

    def contains(self, key: Key) -> bool:
        node = self._root
        while node is not None:
            if key < node.key:
                node = node.left
            elif key > node.key:
                node = node.right
            else:
                return True
        return False

    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple[Key, Any]]:
        """In-order (sorted) iteration."""

        def rec(node: _Node | None) -> Iterator[tuple[Key, Any]]:
            if node is None:
                return
            yield from rec(node.left)
            yield node.key, node.value
            yield from rec(node.right)

        yield from rec(self._root)

    def range_items(self, lo: Key, hi: Key) -> Iterator[tuple[Key, Any]]:
        """In-order iteration over keys in ``[lo, hi)``.

        Subtrees entirely outside the bound are pruned, so the scan costs
        O(log N + k) for k yielded items — what the interval-overlap
        queries of :mod:`repro.analysis` need.
        """

        def rec(node: _Node | None) -> Iterator[tuple[Key, Any]]:
            if node is None:
                return
            if node.key > lo:
                yield from rec(node.left)
            if lo <= node.key < hi:
                yield node.key, node.value
            if node.key < hi:
                yield from rec(node.right)

        yield from rec(self._root)

    # -- invariants, used by the property-based tests -------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if the tree is unbalanced or mis-ordered."""

        def rec(node: _Node | None) -> tuple[int, Key | None, Key | None]:
            if node is None:
                return 0, None, None
            lh, lmin, lmax = rec(node.left)
            rh, rmin, rmax = rec(node.right)
            assert abs(lh - rh) <= 1, f"unbalanced at {node.key}"
            assert node.height == 1 + max(lh, rh), f"bad height at {node.key}"
            if lmax is not None:
                assert lmax < node.key, f"order violation at {node.key}"
            if rmin is not None:
                assert rmin > node.key, f"order violation at {node.key}"
            lo = lmin if lmin is not None else node.key
            hi = rmax if rmax is not None else node.key
            return node.height, lo, hi

        rec(self._root)
        assert self._size == sum(1 for _ in self.items())
