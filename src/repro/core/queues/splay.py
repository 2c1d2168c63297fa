"""Splay-tree event queue — amortized O(log n) with access locality.

Splay trees were a popular event-list choice in 1990s simulation kernels
(e.g. DaSSF/SSF lineage): every operation splays the touched node to the
root, so workloads whose insertions cluster near the current minimum — very
common in hold-model event traffic — enjoy better-than-log behaviour, while
adversarial patterns degrade gracefully to amortized O(log n).

This is a classic bottom-up splay implemented with explicit parent pointers.
Delete-min splays the leftmost node and unlinks it; insert descends by
``sort_key`` and splays the new node.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..events import Event
from .base import EventQueue

__all__ = ["SplayQueue"]


class _Node:
    __slots__ = ("event", "key", "left", "right", "parent")

    def __init__(self, event: Event) -> None:
        self.event = event
        self.key = event.sort_key
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.parent: Optional[_Node] = None


class SplayQueue(EventQueue):
    """Self-adjusting binary search tree keyed by event sort order."""

    def __init__(self) -> None:
        super().__init__()
        self._root: Optional[_Node] = None
        self._size = 0
        #: cached leftmost node so repeated peeks are O(1)
        self._min: Optional[_Node] = None

    # -- rotations -----------------------------------------------------------

    def _rotate(self, x: _Node) -> None:
        """Rotate *x* above its parent, preserving BST order."""
        p = x.parent
        assert p is not None
        g = p.parent
        if p.left is x:
            p.left = x.right
            if x.right is not None:
                x.right.parent = p
            x.right = p
        else:
            p.right = x.left
            if x.left is not None:
                x.left.parent = p
            x.left = p
        p.parent = x
        x.parent = g
        if g is None:
            self._root = x
        elif g.left is p:
            g.left = x
        else:
            g.right = x

    def _splay(self, x: _Node) -> None:
        """Move *x* to the root via zig / zig-zig / zig-zag steps."""
        while x.parent is not None:
            p = x.parent
            g = p.parent
            if g is None:
                self._rotate(x)  # zig
            elif (g.left is p) == (p.left is x):
                self._rotate(p)  # zig-zig: rotate parent first
                self._rotate(x)
            else:
                self._rotate(x)  # zig-zag
                self._rotate(x)

    # -- EventQueue interface -------------------------------------------------

    def push(self, event: Event) -> None:
        if event._cancelled:
            self._dead += 1
        else:
            event._on_cancel = self._cancel_cb
        node = _Node(event)
        if self._root is None:
            self._root = node
            self._min = node
            self._size = 1
            return
        cur = self._root
        while True:
            if node.key < cur.key:
                if cur.left is None:
                    cur.left = node
                    node.parent = cur
                    break
                cur = cur.left
            else:
                if cur.right is None:
                    cur.right = node
                    node.parent = cur
                    break
                cur = cur.right
        self._size += 1
        if self._min is not None and node.key < self._min.key:
            self._min = node
        self._splay(node)

    def _unlink_min(self) -> Event:
        """Unlink the cached minimum (must exist) and return its event."""
        node = self._min
        # Unlinked directly, not splayed to the root first: the leftmost
        # node has no left child, so its right subtree splices into its
        # parent in O(1); splaying stays on the insert path, where the
        # access-locality payoff lives.  Over a full drain each node is
        # walked at most once while seeking the new minimum, so delete-min
        # is amortized O(1).
        right = node.right
        parent = node.parent
        if right is not None:
            right.parent = parent
        if parent is None:
            self._root = right
        else:
            parent.left = right
        self._size -= 1
        # Next-smallest: leftmost of the spliced subtree, else the parent
        # (the minimum is always its parent's left child).
        self._min = self._leftmost(right) if right is not None else parent
        node.left = node.right = node.parent = None
        return node.event

    @staticmethod
    def _leftmost(node: Optional[_Node]) -> Optional[_Node]:
        if node is None:
            return None
        while node.left is not None:
            node = node.left
        return node

    def pop_if_le(self, horizon: float) -> Optional[Event]:
        while self._min is not None and self._min.event._cancelled:
            self._unlink_min()
            self._dead -= 1
        node = self._min
        if node is None or node.event.time > horizon:
            return None
        ev = self._unlink_min()
        ev._on_cancel = None
        return ev

    def peek(self) -> Optional[Event]:
        while self._min is not None and self._min.event._cancelled:
            self._unlink_min()
            self._dead -= 1
        return self._min.event if self._min is not None else None

    def __len__(self) -> int:
        return self._size

    def _compact(self) -> None:
        # Rebuild a balanced tree from the live events in sorted order; the
        # next splays re-adjust it to the access pattern anyway.
        live = [ev for ev in self._iter_events() if not ev._cancelled]
        self._size = len(live)
        self._root = self._build(live, 0, len(live))
        self._min = self._leftmost(self._root)

    def _build(self, events: list[Event], lo: int, hi: int) -> Optional[_Node]:
        if lo >= hi:
            return None
        mid = (lo + hi) // 2
        node = _Node(events[mid])
        node.left = self._build(events, lo, mid)
        node.right = self._build(events, mid + 1, hi)
        if node.left is not None:
            node.left.parent = node
        if node.right is not None:
            node.right.parent = node
        return node

    def _iter_events(self) -> Iterator[Event]:
        # Iterative in-order walk (recursion would overflow on long zig chains).
        stack: list[_Node] = []
        cur = self._root
        while stack or cur is not None:
            while cur is not None:
                stack.append(cur)
                cur = cur.left
            cur = stack.pop()
            yield cur.event
            cur = cur.right
