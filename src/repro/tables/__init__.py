"""Forwarding-table substrate.

Cloud gateways are table machines: the paper stresses that Albatross's
tables occupy *gigabytes* of DRAM (far beyond the ~200 MB of L3 cache),
which is why PLB and RSS end up with the same cache hit rate, and that
DRAM capacity is what lets Albatross hold >10M LPM rules where Sailfish's
Tofino SRAM capped out at 0.2M (Tab. 6).

This package provides the table structures the service models look up:

* :class:`~repro.tables.lpm.Dir24_8Lpm` -- flat DIR-24-8 longest-prefix
  match, the classic software-router structure (two memory touches max).
* :class:`~repro.tables.exact.ExactMatchTable` -- VM-NC mapping style
  exact-match table.
* :class:`~repro.tables.session.SessionTable` -- stateful NF session table
  with bucketized cuckoo-style insertion.
* :mod:`~repro.tables.footprint` -- bytes-per-entry accounting feeding the
  cache model and the Tab. 6 comparison.
"""

from repro.tables.exact import ExactMatchTable
from repro.tables.footprint import TableFootprint, gateway_table_footprint
from repro.tables.lpm import Dir24_8Lpm, Route
from repro.tables.session import Session, SessionTable, SessionTableFull

__all__ = [
    "ExactMatchTable",
    "TableFootprint",
    "gateway_table_footprint",
    "Dir24_8Lpm",
    "Route",
    "Session",
    "SessionTable",
    "SessionTableFull",
]
