"""P4-ish program description for the allocator.

A program is a set of parsed headers (PHV consumers) and a set of
match-action tables with sizes, match kinds and dependencies.  This is
deliberately the granularity at which the paper discusses Sailfish's
resource exhaustion -- headers cost PHV bits, tables cost SRAM/TCAM
blocks and stages, and dependency chains bound the minimum stage count.
"""


class Header:
    """A parsed header: its PHV footprint."""

    __slots__ = ("name", "bits")

    def __init__(self, name, bits):
        if bits <= 0:
            raise ValueError(f"header {name!r} must have positive bits")
        self.name = name
        self.bits = bits

    def __repr__(self):
        return f"Header({self.name!r}, {self.bits}b)"


MATCH_EXACT = "exact"
MATCH_LPM = "lpm"
MATCH_TERNARY = "ternary"


class Table:
    """A match-action table.

    Attributes:
        name: unique table name.
        match_kind: ``exact`` (SRAM), ``lpm``/``ternary`` (TCAM keys with
            SRAM action data).
        entries: provisioned entry count.
        key_bits / action_bits: per-entry widths.
        depends_on: names of tables that must execute earlier (data or
            control dependency); drives stage placement.
    """

    __slots__ = ("name", "match_kind", "entries", "key_bits", "action_bits", "depends_on")

    def __init__(self, name, match_kind, entries, key_bits, action_bits, depends_on=()):
        if match_kind not in (MATCH_EXACT, MATCH_LPM, MATCH_TERNARY):
            raise ValueError(f"unknown match kind {match_kind!r}")
        if entries <= 0:
            raise ValueError(f"table {name!r} must have positive entries")
        self.name = name
        self.match_kind = match_kind
        self.entries = entries
        self.key_bits = key_bits
        self.action_bits = action_bits
        self.depends_on = tuple(depends_on)

    @property
    def uses_tcam(self):
        return self.match_kind in (MATCH_LPM, MATCH_TERNARY)

    def __repr__(self):
        return f"Table({self.name!r}, {self.match_kind}, {self.entries} entries)"


class P4Program:
    """Headers + tables with validated dependencies."""

    def __init__(self, name, headers=(), tables=()):
        self.name = name
        self.headers = list(headers)
        self.tables = []
        self._by_name = {}
        for table in tables:
            self.add_table(table)

    def add_header(self, header):
        if any(existing.name == header.name for existing in self.headers):
            raise ValueError(f"duplicate header {header.name!r}")
        self.headers.append(header)
        return header

    def add_table(self, table):
        if table.name in self._by_name:
            raise ValueError(f"duplicate table {table.name!r}")
        for dep in table.depends_on:
            if dep not in self._by_name:
                raise ValueError(
                    f"table {table.name!r} depends on unknown table {dep!r}"
                )
        self._by_name[table.name] = table
        self.tables.append(table)
        return table

    def phv_bits(self):
        """Total PHV demand of the parsed header stack."""
        return sum(header.bits for header in self.headers)

    def dependency_depth(self):
        """Length of the longest dependency chain (min stages needed).

        Raises ValueError on a dependency cycle.
        """
        depth = {}
        visiting = set()

        def walk(table):
            if table.name in depth:
                return depth[table.name]
            if table.name in visiting:
                raise ValueError(f"dependency cycle through table {table.name!r}")
            visiting.add(table.name)
            best = 1 + max(
                (walk(self._by_name[dep]) for dep in table.depends_on), default=0
            )
            visiting.discard(table.name)
            depth[table.name] = best
            return best

        return max((walk(table) for table in self.tables), default=0)

    def copy(self, name=None):
        """Shallow copy (tables/headers are immutable enough to share)."""
        duplicate = P4Program(name or self.name)
        duplicate.headers = list(self.headers)
        for table in self.tables:
            duplicate.add_table(table)
        return duplicate
