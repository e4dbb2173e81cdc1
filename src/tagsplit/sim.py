"""Trace-driven simulator for split tag comparison in an LRU cache.

The simulator models a single-level set-associative cache with true
LRU replacement and counts tag bits read under the two-step scheme:
step 1 compares the k low-order tag bits of all ways in the indexed
set, step 2 reads the remaining tag bits only for the valid ways whose
prefix matched.  Which block hits or misses is decided exactly as in a
conventional cache; splitting changes only how many bits the decision
costs, never the decision itself.

Empty ways take part in the step-1 comparison like any other way (the
hardware reads all prefix columns in parallel, so step 1 always costs
k bits per way) but they can neither survive to step 2 nor hit.

``run_trace`` and ``trace_outcomes`` fold a trace into a ``CacheState``
set-parallel: sets are independent, so once the trace is sorted by set
(in place, on keys that pack each access's set above its position),
round r applies the r-th access of every set at once as numpy
operations, reading and writing each set's access where it lies in set
order, at a cursor the round advances.  The state is ways-major,
(ways, sets), so each per-set reduction (any hit, survivor count, way
to update) is an elementwise pass over ``ways`` contiguous rows, and the
rounds hold each way's stamp as the code ``stamp << log2(ways) | way``,
so one min over a set's codes finds its LRU way.
Each round adds its hits and its survivor counts to two running
counters; only ``trace_outcomes`` keeps a per-access hit array.  A run
that starts with no empty way skips the rounds' empty-way mask, which
is exact, as no access empties a way.
A trace longer than ``_TRACE_CHUNK`` accesses is folded in consecutive
slices of that length, each from the state the one before it left, and
their counters are added up.  Sets are independent, so this is exact:
the counters, outcomes, tags and LRU order are those of one fold over
the whole trace, and only the raw stamp values can differ.
Within a slice, the sets it touches, busiest first, go in blocks of at
most ``_BLOCK_SLOTS // ways`` sets, each gathered, run and written back
before the next.  This is exact down to the raw stamps, as a set's
j-th kept access takes the same stamp in any block.  The engine's
working memory is therefore bounded by a slice and a block, not by the
trace or the cache; only a few per-set counts and indices grow with the
cache.
Within a set, a run of accesses to one tag hits from its second access
on, and each of those hits leaves the set as it was, so the run's third
and later accesses are folded into its second and take no round.
Once fewer than ``_SCALAR_TAIL_SETS`` sets of a block still have
accesses left, each of those is finished in turn, one access at a time,
on its own contiguous span, so a hot set whose consecutive accesses
change tag costs about one scalar step per access instead of one numpy
round each.
The tests check this engine, state for state, against a per-access
reference; ``baseline_outcomes`` is an independent full-tag reference
for the hit/miss sequence alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .model import CacheConfig, _splitting_point
from .traces import as_addresses

__all__ = [
    "SimStats",
    "CacheState",
    "run_trace",
    "trace_outcomes",
    "warm_fill",
    "baseline_outcomes",
    "invariance_check",
]

# Below this many active sets a numpy round costs more than finishing the
# remaining accesses of those sets one by one.  8 to 128 perform alike on
# uniform, hot-set and large-cache traces; on 20k-access zipf traces 32 is
# the fastest and 128 about 35% slower.
_SCALAR_TAIL_SETS = 32
# Accesses per step of the sort-key passes over a slice and of the
# per-set count of the kept accesses
_KEY_CHUNK = 1 << 16
# Accesses per slice of a trace: one _fold each, so the engine's working
# memory stops growing with the trace.  Every trace of up to 2**18 accesses
# runs as one fold; 2**17 split the benchmark's 250k-access trace in two,
# which cost it 3-7 ms.
_TRACE_CHUNK = 1 << 18
# State slots (ways times sets) per block of a slice's fold: one gather of
# tags and codes, rounds and write-back each, so the fold's working copies
# and round temporaries stop growing with the sets a slice touches.  On the
# benchmark's 32 MiB zipf trace 2**14 and 2**15 peak alike and 2**16 and
# 2**17 higher; on a 256 MiB cache 2**14 ran 10% slower than 2**15.
_BLOCK_SLOTS = 1 << 15


@dataclass
class SimStats:
    """Access and bit-read counters of one trace, as run_trace returns them.

    matched_way_histogram[s] counts accesses whose step 1 produced
    exactly s valid survivors; its weighted sum times the step-2 width
    reproduces step2_bit_reads.
    """

    ways: int
    accesses: int
    hits: int
    misses: int
    step1_bit_reads: int
    step2_bit_reads: int
    baseline_bit_reads: int
    matched_way_histogram: list[int]

    @property
    def total_bit_reads(self) -> int:
        return self.step1_bit_reads + self.step2_bit_reads

    @property
    def bits_per_access(self) -> float:
        if self.accesses == 0:
            raise ValueError("no accesses recorded")
        return self.total_bit_reads / self.accesses

    def mean_survivors(self) -> float:
        if self.accesses == 0:
            raise ValueError("no accesses recorded")
        weighted = sum(s * count for s, count in enumerate(self.matched_way_histogram))
        return weighted / self.accesses

    def validate(self, tag_bits: int, k: int) -> None:
        """Raise AssertionError unless every counter identity holds."""
        weighted = sum(s * count for s, count in enumerate(self.matched_way_histogram))
        checks = (
            ("hits + misses == accesses", self.hits + self.misses == self.accesses),
            ("histogram sums to accesses", sum(self.matched_way_histogram) == self.accesses),
            ("step1 == accesses*k*ways", self.step1_bit_reads == self.accesses * k * self.ways),
            ("step2 == (n-k)*sum(s*hist[s])", self.step2_bit_reads == (tag_bits - k) * weighted),
            (
                "baseline == accesses*n*ways",
                self.baseline_bit_reads == self.accesses * tag_bits * self.ways,
            ),
        )
        for label, ok in checks:
            if not ok:
                raise AssertionError(f"counter identity violated: {label}")


def _added(runs: list[SimStats]) -> SimStats:
    """The counters of consecutive runs on one state added up: those of
    one run over their traces joined, as slices are exact (see _run)."""
    counters = [sum(getattr(run, f.name) for run in runs) for f in fields(SimStats)[1:-1]]
    histogram = [sum(counts) for counts in zip(*(run.matched_way_histogram for run in runs))]
    return SimStats(runs[0].ways, *counters, histogram)


class CacheState:
    """Tag array contents of one cache plus its splitting point.

    Tags and LRU age stamps are (ways, sets) arrays; the larger stamp is
    the more recent.  Empty ways carry negative stamps, so they are the
    least recently used and fill in way order before any eviction.
    Tags are uint64 at every address width, as traces are (see as_addresses).
    """

    def __init__(self, config: CacheConfig, k: int):
        self.config = config
        self.k = _splitting_point(k, config.tag_bits)
        ways = config.associativity
        self._ages = np.repeat(np.arange(-ways, 0, dtype=np.int64)[:, None], config.sets, axis=1)
        self._tags = np.zeros(self._ages.shape, dtype=np.uint64)
        self._clock = 0  # stamp of the next access


def _run(state: CacheState, trace, outcomes: list[bool] | None) -> SimStats:
    """Fold the trace slice by slice; its counters and, if asked, per-access hits.

    Consecutive slices of at most _TRACE_CHUNK accesses each take one
    _fold, which starts from the state the slice before it left, so the
    counters, outcomes, tags and LRU order are those of one fold of the
    whole trace; only the stamp values can differ.  The trace is checked
    once, and both bounds below are checked for the whole trace before
    the first slice changes the state: the first slice is the longest,
    so its sort keys are the widest, and a slice takes at most one stamp
    per access, so no later slice's stamps go past ``clock + accesses``.
    """
    config = state.config
    addresses = as_addresses(trace, config.address_bits)  # refused before the state changes
    ways, accesses = config.associativity, addresses.size
    # The keys are distinct, so an unstable sort gives the stable set order.
    # They fit in 64 bits unless sets times the first, longest slice's length
    # exceed 2**64: over 2**46 sets at the default slice length.
    first = min(accesses, _TRACE_CHUNK)
    if config.index_bits + (first - 1).bit_length() > 64:
        raise ValueError(f"{config.sets} sets and {first} accesses do not fit in 64-bit sort keys")
    shift = (ways - 1).bit_length()
    last = state._clock + accesses  # no slice takes more stamps than it has accesses
    if last << shift > np.iinfo(np.int64).max:
        raise ValueError(f"LRU stamps up to {last} do not fit in int64 beside {shift} way bits")
    # float64 weighted bins are exact integers: no trace has 2**53 accesses
    histogram = np.zeros(ways + 1)
    hits = 0
    for lo in range(0, accesses, _TRACE_CHUNK):
        hits += _fold(state, addresses[lo:lo + _TRACE_CHUNK], histogram, outcomes)
    histogram = histogram.astype(np.int64).tolist()
    tag_bits = config.tag_bits
    stats = SimStats(
        ways=ways,
        accesses=accesses,
        hits=hits,
        misses=accesses - hits,
        step1_bit_reads=accesses * state.k * ways,
        step2_bit_reads=(tag_bits - state.k) * sum(s * c for s, c in enumerate(histogram)),
        baseline_bit_reads=accesses * tag_bits * ways,
        matched_way_histogram=histogram,
    )
    return stats


def _fold(state: CacheState, addresses: np.ndarray, histogram: np.ndarray,
          outcomes: list[bool] | None) -> int:
    """Run one checked slice of a trace set-parallel; the number of its hits.

    Each access's survivor count is added to ``histogram``, and when
    ``outcomes`` is not None, the slice's hits are appended to it in
    trace order.  The caller has checked the sort keys' width and the
    stamps (see _run).

    The slice moves once: keys ``set << position_bits | position`` are
    sorted in place, then each is replaced by its access's block number;
    the caller's array is never written.  Within a set, a run of accesses
    to one tag hits from its second access on, and the second leaves the
    set's tags and LRU order as they were, so every later access of the
    run repeats the second's survivor count.  Those later accesses are
    folded into the second, which keeps their number in a weight; this
    is trace stripping (Wang & Baer, SIGMETRICS 1990).  A block number
    names one set and one tag, so runs are found on block numbers alone;
    after the fold, each set's kept accesses are counted once, from the
    index bits, and then the kept block numbers are shifted to tags.

    The kept accesses stay in set order.  The touched sets are rows
    ordered by access count, busiest first, and go in consecutive blocks
    of at most ``_BLOCK_SLOTS // ways`` rows, one after another: a block
    computes its own rounds, gathers, runs them and its scalar tail, and
    writes back before the next starts.  Within a block the sets active
    in round r are a prefix of its rows, and each row keeps a cursor at
    its next kept access: round r reads and writes the accesses at the
    active rows' cursors, then advances them.  The scalar tail finishes
    the block's remaining rows one after another, each on its own
    contiguous span.  Round r stamps ``clock + r`` in every block, and
    the clock advances by the first block's rounds, the most of any, so
    blocks change no stamp; they bound the working copies and round
    temporaries below by a block instead of the touched sets.

    The rounds run on working copies of the block's state columns, in
    row order: tags of shape (ways, rows) and int64 codes
    ``stamp << log2(ways) | way``, gathered once per block, decoded to
    stamps before the scalar tail (which works on their transposed
    views) and written back after it.
    Round r uses the column prefix ``[:, :active[r]]``.  Codes order as
    stamps do, ties broken by way, so a set's least code is the way an
    access evicts: its empty ways first, in way order, then its least
    recently used way.  A hit way's code is first overwritten in place by
    ``way + INT64_MIN``, below every real code, so one min picks the hit
    way when there is one and the LRU way otherwise; the picked way then
    takes the new stamp's code.

    Each round adds its hit count and the weighted bincount of its
    survivor counts to two counters; ``hit`` is allocated and written
    only when outcomes are asked for.  Empty ways carry negative codes
    and are masked out of both comparisons.  When no gathered code is
    negative the rounds skip that mask, exactly: no access empties a
    way, and the one negative code a round writes, the hit way's, takes
    the new stamp's code in the same round.
    """
    config = state.config
    sets, ways, accesses = config.sets, config.associativity, addresses.size
    want_outcomes = outcomes is not None
    position_bits = (accesses - 1).bit_length()
    keys = np.empty(accesses, dtype=np.uint64)
    for lo in range(0, accesses, _KEY_CHUNK):  # in chunks: no slice-sized temporary
        chunk = keys[lo:lo + _KEY_CHUNK]
        np.right_shift(addresses[lo:lo + _KEY_CHUNK], config.offset_bits, out=chunk)
        chunk &= sets - 1
        chunk <<= position_bits
        chunk |= np.arange(lo, lo + chunk.size, dtype=np.uint64)
    keys.sort()
    position_mask = (1 << position_bits) - 1
    by_set = (keys & position_mask).view(np.int64) if want_outcomes else None
    for lo in range(0, accesses, _KEY_CHUNK):  # the one move of the slice, unwritten
        chunk = keys[lo:lo + _KEY_CHUNK]
        chunk &= position_mask
        np.right_shift(addresses[chunk.view(np.int64)], config.offset_bits, out=chunk)
    request = keys  # the set-sorted block numbers
    del keys, chunk  # the fold below drops request; no other name may keep it alive
    # kept[i]: access i is not the third or later of a run; one block number is one set and tag
    kept = np.ones(accesses, dtype=bool)
    kept[2:] = request[2:] != request[1:-1]
    kept[2:] |= request[1:-1] != request[:-2]
    weight = None  # 1 + the number of accesses folded into each kept one
    if not kept.all():
        kept = np.flatnonzero(kept)
        weight = np.diff(kept, append=accesses)
        request = request[kept]
        if want_outcomes:
            by_set = by_set[kept]
    del kept
    counts = np.zeros(sets, dtype=np.intp)  # each set's kept accesses
    for lo in range(0, request.size, _KEY_CHUNK):
        counts += np.bincount((request[lo:lo + _KEY_CHUNK] & (sets - 1)).view(np.int64),
                              minlength=sets)
    request >>= config.index_bits

    order = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]  # busiest first
    # busy[r]: sets with more than r kept accesses, a prefix of order
    busy = np.cumsum(np.bincount(counts)[::-1])[::-1][1:]
    starts = (np.cumsum(counts) - counts)[order]  # each row's next access in set order
    del counts

    shift = (ways - 1).bit_length()
    clock = state._clock
    way_column = np.arange(ways, dtype=np.int64)[:, None]
    hit_codes = way_column + np.iinfo(np.int64).min  # below every stamp code, in way order
    hit = np.empty(request.size, dtype=bool) if want_outcomes else None
    hits = 0  # of the kept accesses
    prefix_mask = (1 << min(state.k, 64)) - 1  # exact: every tag is below 2**64
    survivor_type = np.min_scalar_type(ways)
    block = max(1, _BLOCK_SLOTS // ways)  # rows per block
    for lo in range(0, order.size, block):
        rows, at = order[lo:lo + block], starts[lo:lo + block]  # at advances in place below
        # active[r]: the block's rows with more than r kept accesses, i.e. the rows of round r
        active = np.minimum(busy[busy > lo], lo + block) - lo
        rounds = active.size
        # Ways-major working copies, with codes[w, i] = stamp << shift | way (see above)
        # np.take, not state._tags[:, rows]: that copy is F-ordered, so every round would stride
        tags = np.take(state._tags, rows, axis=1)
        codes = np.take(state._ages, rows, axis=1)
        codes <<= shift
        codes |= way_column
        all_valid = codes.min(initial=0) >= 0  # no empty way, so no mask (see above)
        row_index = np.arange(rows.size)
        flat_tags, flat_codes = tags.reshape(-1), codes.reshape(-1)  # slot = way * rows + row
        r = 0
        while r < rounds and active[r] >= _SCALAR_TAIL_SETS:
            now = at[: active[r]]  # a view: the cursors advance in place below
            t, c, q = tags[:, : active[r]], codes[:, : active[r]], request[now]
            diff = t ^ q
            same = diff == 0
            diff &= prefix_mask
            match = diff == 0
            del diff
            if not all_valid:
                valid = c >= 0
                same &= valid
                match &= valid
            hits += int(np.count_nonzero(same))  # a set holds each tag at most once
            survivors = np.add.reduce(match, axis=0, dtype=survivor_type)
            histogram += np.bincount(survivors, None if weight is None else weight[now], ways + 1)
            if want_outcomes:
                hit[now] = same.any(axis=0)
            np.copyto(c, hit_codes, where=same)  # the hit way's code is replaced below
            code = np.minimum.reduce(c, axis=0)
            code &= ways - 1  # the hit way, else the LRU way
            slot = code * rows.size
            slot += row_index[: active[r]]
            flat_tags[slot] = q
            code |= (clock + r) << shift
            flat_codes[slot] = code
            now += 1
            r += 1
        codes >>= shift
        if r < rounds:
            # active never rises, so row i has as many kept accesses as rounds with active > i
            tail = active[r]
            ends = at[:tail] + np.searchsorted(-active, -np.arange(tail)) - r
            hits += _scalar_tail(tags.T, codes.T, request, weight, hit, histogram,
                                 zip(at[:tail].tolist(), ends.tolist()), clock + r, prefix_mask)
        state._tags[:, rows] = tags
        state._ages[:, rows] = codes
    state._clock = clock + busy.size  # the first block's rounds, the most of any
    hits += accesses - request.size  # every folded access hits
    if want_outcomes:
        in_order = np.ones(accesses, dtype=bool)  # folded accesses hit
        in_order[by_set] = hit
        outcomes += in_order.tolist()
    return hits


def _scalar_tail(tags, ages, request, weight, hit, histogram, spans, first_stamp,
                 prefix_mask) -> int:
    """Finish the remaining sets one at a time, one access at a time on list rows.

    Row i's remaining accesses are ``request[lo:hi]`` for the i-th
    ``(lo, hi)`` of ``spans``; the j-th of them takes the stamp
    ``first_stamp + j``, the one the j-th remaining round would give it.
    Empty ways hold None in place of a tag and a prefix, so list.count
    and ``in`` compare only valid ways.  Each row's survivor counts are
    added, weighted as the rounds weight theirs, to ``histogram``, and
    its hits are written to ``hit`` when that is not None; the number of
    hits is returned.
    """
    found = 0
    for row, (lo, hi) in enumerate(spans):
        row_ages = ages[row].tolist()
        row_tags = [tag if age >= 0 else None for tag, age in zip(tags[row].tolist(), row_ages)]
        row_prefixes = [None if t is None else t & prefix_mask for t in row_tags]
        hits, counts = [], []
        for stamp, req in enumerate(request[lo:hi].tolist(), start=first_stamp):
            prefix = req & prefix_mask
            counts.append(row_prefixes.count(prefix))
            if req in row_tags:
                hits.append(True)
                way = row_tags.index(req)
            else:
                hits.append(False)
                way = row_ages.index(min(row_ages))
                row_tags[way] = req
                row_prefixes[way] = prefix
            row_ages[way] = stamp
        found += hits.count(True)
        if hit is not None:
            hit[lo:hi] = hits
        histogram += np.bincount(counts, None if weight is None else weight[lo:hi], histogram.size)
        tags[row] = [0 if t is None else t for t in row_tags]
        ages[row] = row_ages
    return found


def run_trace(state: CacheState, trace) -> SimStats:
    """Counters of the trace; state ends as if each address were looked up in turn."""
    return _run(state, trace, None)


def trace_outcomes(state: CacheState, trace) -> list[bool]:
    """Per-access hit/miss sequence (True on hit) for the trace."""
    outcomes = []
    _run(state, trace, outcomes)
    return outcomes


def warm_fill(state: CacheState) -> None:
    """Fill a cold cache deterministically so every way holds a valid tag.

    Tag t lands in way t of every set, stamped in that order: the state
    left by walking sets*ways distinct blocks (tag t into set s for each
    pair) with their statistics discarded.  The whole array fills when
    the tag space has at least as many values as there are ways.
    """
    if state._clock:
        raise ValueError("warm_fill needs a cold cache; this one has seen accesses")
    distinct_tags = min(state.config.associativity, 1 << state.config.tag_bits)
    state._tags[:distinct_tags] = state._ages[:distinct_tags] = np.arange(distinct_tags)[:, None]
    state._clock = distinct_tags


def baseline_outcomes(config: CacheConfig, trace) -> list[bool]:
    """Hit/miss sequence of a conventional single-step comparison.

    Independent reference implementation: each set is a list of
    resident tags in least-recent-first order and lookups compare full
    tags directly, with no prefix machinery at all.
    """
    ways = config.associativity
    offset_bits = config.offset_bits
    index_bits = config.index_bits
    index_mask = config.sets - 1
    resident: list[list[int]] = [[] for _ in range(config.sets)]
    outcomes = []
    for address in as_addresses(trace, config.address_bits).tolist():
        block = address >> offset_bits
        line = resident[block & index_mask]
        tag = block >> index_bits
        hit = tag in line
        if hit:
            line.remove(tag)
        elif len(line) == ways:
            line.pop(0)
        line.append(tag)
        outcomes.append(hit)
    return outcomes


def invariance_check(config: CacheConfig, trace, k_values) -> bool:
    """True iff every splitting point reproduces the baseline outcomes.

    Checks the trace once, then runs it once per k from a cold cache and
    compares the full per-access hit/miss sequence (not just the totals)
    against the single-step reference.
    """
    trace = as_addresses(trace, config.address_bits)
    reference = baseline_outcomes(config, trace)
    return all(trace_outcomes(CacheState(config, k), trace) == reference for k in k_values)
