"""Exact-match tables (VM-NC mapping and friends).

The VM-NC mapping table translates a tenant VM address into the physical
NC (network container / host) address; it is the table that consumed 96.4%
of Tofino SRAM on Sailfish's pipelines 1,3 and one of the main reasons
Albatross moves tables to DRAM.

The implementation is a bucketized hash table with explicit occupancy
accounting so the cache model can reason about entry addresses.
"""


class ExactMatchTable:
    """Bucketized exact-match table with bounded bucket depth.

    Keys are hashable; entries are assigned a stable integer *entry id*
    (their address, as far as the cache model is concerned).  Lookup
    returns ``(value, entry_id)`` so callers can feed the cache model.
    """

    def __init__(self, buckets=1024, bucket_depth=8, entry_bytes=256, name="exact"):
        if buckets <= 0 or bucket_depth <= 0:
            raise ValueError("buckets and bucket_depth must be positive")
        self.buckets = buckets
        self.bucket_depth = bucket_depth
        self.entry_bytes = entry_bytes
        self.name = name
        self._table = [{} for _ in range(buckets)]
        self._size = 0
        self._next_entry_id = 0
        self._overflow_rejections = 0

    def __len__(self):
        return self._size

    @property
    def capacity(self):
        return self.buckets * self.bucket_depth

    @property
    def overflow_rejections(self):
        """Inserts rejected because the target bucket was full."""
        return self._overflow_rejections

    def _bucket_of(self, key):
        return self._table[hash(key) % self.buckets]

    def insert(self, key, value):
        """Insert or update ``key``.  Returns True, or False if the bucket
        is full (the hardware analogue of a hash-overflow drop)."""
        bucket = self._bucket_of(key)
        if key in bucket:
            entry_id = bucket[key][1]
            bucket[key] = (value, entry_id)
            return True
        if len(bucket) >= self.bucket_depth:
            self._overflow_rejections += 1
            return False
        bucket[key] = (value, self._next_entry_id)
        self._next_entry_id += 1
        self._size += 1
        return True

    def lookup(self, key):
        """Return ``(value, entry_id)`` or None."""
        return self._bucket_of(key).get(key)

    def remove(self, key):
        """Delete ``key``; returns True if it was present."""
        bucket = self._bucket_of(key)
        if key not in bucket:
            return False
        del bucket[key]
        self._size -= 1
        return True

    def memory_bytes(self):
        """Provisioned footprint (capacity, not occupancy -- hardware-style)."""
        return self.capacity * self.entry_bytes

    def load_factor(self):
        return self._size / self.capacity


class VmNcMappingTable(ExactMatchTable):
    """VM address -> NC address mapping, keyed by (vni, vm_ip).

    Entry ids returned from lookups are offset into a dedicated region so
    the cache model sees VM-NC entries at distinct addresses from other
    tables.
    """

    def __init__(self, buckets=1 << 16, bucket_depth=8, entry_bytes=256):
        super().__init__(buckets, bucket_depth, entry_bytes, name="vm_nc")

    def map_vm(self, vni, vm_ip, nc_ip):
        return self.insert((vni, vm_ip), nc_ip)

    def lookup_vm(self, vni, vm_ip):
        return self.lookup((vni, vm_ip))
