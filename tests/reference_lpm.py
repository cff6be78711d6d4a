"""Binary-trie LPM oracle for the Dir24_8Lpm property tests; nothing in
``src/`` imports it.
"""

from repro.tables.lpm import Route


class _TrieNode:
    __slots__ = ("children", "next_hop", "has_route")

    def __init__(self):
        self.children = [None, None]
        self.next_hop = None
        self.has_route = False


class LpmTrie:
    """Binary-trie longest-prefix match over IPv4 addresses."""

    def __init__(self):
        self._root = _TrieNode()
        self._size = 0

    def __len__(self):
        return self._size

    def insert(self, prefix, length, next_hop):
        """Insert or replace the route ``prefix/length``."""
        Route(prefix, length, next_hop)  # validate
        node = self._root
        for depth in range(length):
            bit = (prefix >> (31 - depth)) & 1
            if node.children[bit] is None:
                node.children[bit] = _TrieNode()
            node = node.children[bit]
        if not node.has_route:
            self._size += 1
        node.has_route = True
        node.next_hop = next_hop

    def remove(self, prefix, length):
        """Remove ``prefix/length``; returns True if it was present."""
        node = self._root
        path = []
        for depth in range(length):
            bit = (prefix >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                return False
            path.append((node, bit))
            node = child
        if not node.has_route:
            return False
        node.has_route = False
        node.next_hop = None
        self._size -= 1
        # Prune now-empty leaves so memory tracks the route count.
        for parent, bit in reversed(path):
            child = parent.children[bit]
            if child.has_route or child.children[0] or child.children[1]:
                break
            parent.children[bit] = None
        return True

    def lookup(self, addr):
        """Return the next hop of the longest matching prefix, or None."""
        node = self._root
        best = node.next_hop if node.has_route else None
        for depth in range(32):
            bit = (addr >> (31 - depth)) & 1
            node = node.children[bit]
            if node is None:
                break
            if node.has_route:
                best = node.next_hop
        return best

    def routes(self):
        """Yield all installed :class:`Route` objects (DFS order)."""
        stack = [(self._root, 0, 0)]
        while stack:
            node, prefix, depth = stack.pop()
            if node.has_route:
                yield Route(prefix, depth, node.next_hop)
            for bit in (1, 0):
                child = node.children[bit]
                if child is not None:
                    stack.append((child, prefix | (bit << (31 - depth)), depth + 1))
