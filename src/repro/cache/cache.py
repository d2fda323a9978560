"""A set-associative cache model (tags only, no data payload).

Only the *presence* of lines matters for both timing and the Spectre
covert channel, so the model stores tags and dirty bits but not data.
``clflush`` (line invalidation from user code) and persistent fills from
squashed speculative loads — the two mechanisms CR-Spectre lives on — are
first-class operations.

Hot-path layout
---------------
``access`` is the single hottest call in the whole simulator (every
fetch, load and store funnels through it), so each set keeps a
``tag → way`` dict alongside the per-way tag list: a hit is one dict
lookup instead of a linear way scan.  For the default LRU policy the
per-set replacement state (clock + stamps) is inlined here as plain
lists — semantically identical to :class:`~repro.cache.replacement.
LruPolicy`, just without a method call per access.  Non-LRU policies
keep their policy objects and take the slow path.
"""

import dataclasses

from repro.cache.replacement import make_policy


@dataclasses.dataclass
class CacheStats:
    """Counters one cache instance accumulates over its lifetime."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    read_accesses: int = 0
    read_misses: int = 0
    write_accesses: int = 0
    write_misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    flushes: int = 0

    def snapshot(self):
        return dataclasses.replace(self)

    def count_hits(self, reads, writes=0):
        """Fold hits an inlined hit arm batched, as :meth:`Cache.access`
        counts them: *reads* read hits and *writes* write hits."""
        if reads or writes:
            self.accesses += reads + writes
            self.hits += reads + writes
            self.read_accesses += reads
            self.write_accesses += writes


#: The hit path of a cache whose hit arm cannot be inlined (see
#: :meth:`Cache.hit_path`): its one set never holds a line, so every
#: lookup misses and the access takes the full path.
NO_INLINE = (0, 0, 0, ({},), None, None, None)


class Cache:
    """One level of a set-associative cache."""

    def __init__(self, name, size, line_size=64, ways=8, policy="lru"):
        if size % (line_size * ways):
            raise ValueError(
                f"{name}: size {size} not divisible by line_size*ways"
            )
        self.name = name
        self.size = size
        self.line_size = line_size
        self.ways = ways
        self.num_sets = size // (line_size * ways)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: number of sets must be a power of two")
        self._set_mask = self.num_sets - 1
        self._line_shift = line_size.bit_length() - 1
        if 1 << self._line_shift != line_size:
            raise ValueError(f"{name}: line size must be a power of two")
        self._index_shift = self.num_sets.bit_length() - 1
        self.policy_name = policy
        self._tags = [[None] * ways for _ in range(self.num_sets)]
        self._dirty = [[False] * ways for _ in range(self.num_sets)]
        #: per-set ``tag -> way`` index; the source of truth stays
        #: ``_tags`` (eviction-address reconstruction, occupancy), the
        #: maps are kept exactly in sync by access/invalidate/flush_all.
        self._maps = [{} for _ in range(self.num_sets)]
        self._lru = policy == "lru"
        if self._lru:
            # Inlined LruPolicy state: one clock and one stamp list per
            # set.  flush_all leaves both alone, matching the policy
            # objects (which a flush never resets either).
            self._clocks = [0] * self.num_sets
            self._stamps = [[0] * ways for _ in range(self.num_sets)]
            self._policies = None
        else:
            self._policies = [
                make_policy(policy, ways) for _ in range(self.num_sets)
            ]
        self.stats = CacheStats()
        #: trace channel, bound by CacheHierarchy.bind_tracer; the hit
        #: path never consults it — only evictions and invalidations do.
        self._trace = None

    # ---- address helpers ----------------------------------------------
    def line_address(self, address):
        """The address with line-offset bits cleared."""
        return address >> self._line_shift << self._line_shift

    def _index_tag(self, address):
        line = address >> self._line_shift
        return line & self._set_mask, line >> self._index_shift

    def inline_state(self):
        """The hit-path state an external translator may bind directly.

        The superblock engine compiles the :meth:`access` hit arm into
        generated code, and the out-of-order core inlines it in its
        dispatch loop, so both need the same per-set structures this
        class mutates.  Handing them out through one accessor keeps the
        contract explicit: the dict values are the **live** objects
        (mutated in place, never replaced — ``flush_all`` and
        ``invalidate`` edit the maps they return), and a caller
        replicating the hit path must bump the set clock, stamp the way,
        mark dirty on writes and count hits exactly like :meth:`access`.

        Returns ``None`` when the hit path cannot be inlined: a non-LRU
        replacement policy (policy objects carry their own state) or a
        bound trace channel (eviction/invalidation events must observe
        every access through the slow path).
        """
        if not self._lru or self._trace is not None:
            return None
        return {
            "line_shift": self._line_shift,
            "set_mask": self._set_mask,
            "index_shift": self._index_shift,
            "maps": self._maps,
            "clocks": self._clocks,
            "stamps": self._stamps,
            "dirty": self._dirty,
            "stats": self.stats,
        }

    def hit_path(self):
        """:meth:`inline_state` unpacked for an interpreter loop.

        ``(line_shift, set_mask, index_shift, maps, clocks, stamps,
        dirty)``, or :data:`NO_INLINE` when the hit arm cannot be
        inlined, so the loop needs no second branch for that case.
        The caller folds its batched hits with
        :meth:`CacheStats.count_hits`.
        """
        state = self.inline_state()
        if state is None:
            return NO_INLINE
        return (state["line_shift"], state["set_mask"],
                state["index_shift"], state["maps"], state["clocks"],
                state["stamps"], state["dirty"])

    # ---- operations ----------------------------------------------------
    def access(self, address, is_write=False):
        """Look up *address*; fill on miss.

        Returns ``(hit, evicted_line_address_or_none)``.  The evicted line
        address lets the hierarchy model writebacks / back-invalidations.
        """
        line = address >> self._line_shift
        index = line & self._set_mask
        tag = line >> self._index_shift
        cmap = self._maps[index]
        stats = self.stats
        stats.accesses += 1
        if is_write:
            stats.write_accesses += 1
        else:
            stats.read_accesses += 1

        way = cmap.get(tag)
        if way is not None:
            if self._lru:
                clock = self._clocks[index] + 1
                self._clocks[index] = clock
                self._stamps[index][way] = clock
            else:
                self._policies[index].on_access(way)
            if is_write:
                self._dirty[index][way] = True
            stats.hits += 1
            return True, None

        stats.misses += 1
        if is_write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1

        tags = self._tags[index]
        if self._lru:
            # Victim selection, verbatim LruPolicy semantics: first
            # invalid way, else the lowest stamp (first index on ties).
            way = None
            for candidate in range(self.ways):
                if tags[candidate] is None:
                    way = candidate
                    break
            if way is None:
                stamps = self._stamps[index]
                way = 0
                best = stamps[0]
                for candidate in range(1, self.ways):
                    if stamps[candidate] < best:
                        best = stamps[candidate]
                        way = candidate
        else:
            valid = [t is not None for t in tags]
            way = self._policies[index].victim(valid)
        evicted = None
        old_tag = tags[way]
        if old_tag is not None:
            stats.evictions += 1
            if self._dirty[index][way]:
                stats.writebacks += 1
            evicted = (old_tag * self.num_sets + index) << self._line_shift
            del cmap[old_tag]
            if self._trace is not None:
                self._trace.event("cache.evict", cache=self.name,
                                  set=index, way=way, line=evicted)
        tags[way] = tag
        cmap[tag] = way
        self._dirty[index][way] = is_write
        if self._lru:
            clock = self._clocks[index] + 1
            self._clocks[index] = clock
            self._stamps[index][way] = clock
        else:
            self._policies[index].on_access(way)
        return False, evicted

    def probe(self, address):
        """Non-destructive presence check (no fill, no stats)."""
        line = address >> self._line_shift
        return (line >> self._index_shift) in self._maps[line & self._set_mask]

    def invalidate(self, address):
        """clflush semantics: drop the line if present; True if it was."""
        index, tag = self._index_tag(address)
        self.stats.flushes += 1
        cmap = self._maps[index]
        way = cmap.get(tag)
        if way is None:
            return False
        self._tags[index][way] = None
        del cmap[tag]
        if self._dirty[index][way]:
            self.stats.writebacks += 1
            self._dirty[index][way] = False
        if self._lru:
            self._stamps[index][way] = 0
        else:
            self._policies[index].on_invalidate(way)
        if self._trace is not None:
            self._trace.event("cache.flush", cache=self.name,
                              set=index, way=way,
                              line=self.line_address(address))
        return True

    def flush_all(self):
        """Invalidate every line (context switch cost model)."""
        for index in range(self.num_sets):
            tags = self._tags[index]
            dirty = self._dirty[index]
            for way in range(self.ways):
                tags[way] = None
                dirty[way] = False
            self._maps[index].clear()

    @property
    def occupancy(self):
        """Number of valid lines currently cached."""
        return sum(len(cmap) for cmap in self._maps)

    def __repr__(self):
        return (
            f"Cache({self.name!r}, size={self.size}, "
            f"line={self.line_size}, ways={self.ways}, "
            f"policy={self.policy_name!r})"
        )
