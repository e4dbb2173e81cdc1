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
set-parallel: sets are independent, so round r applies the r-th access
of every set at once as numpy operations on the (sets, ways) arrays.
Within a set, a run of accesses to one tag hits from its second access
on, and each of those hits leaves the set as it was, so the run's third
and later accesses are folded into its second and take no round.
Once fewer than ``_SCALAR_TAIL_SETS`` sets still have accesses left,
those are finished one access at a time, so a hot set whose consecutive
accesses change tag costs about one scalar step per access instead of
one numpy round each.  The tests check this engine, state for state,
against a per-access reference; ``baseline_outcomes`` is an independent
full-tag reference for the hit/miss sequence alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CacheConfig
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
# remaining accesses of those sets one by one (8 to 128 perform alike).
_SCALAR_TAIL_SETS = 32


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


class CacheState:
    """Tag array contents of one cache plus its splitting point.

    Each way holds a tag and an LRU age stamp; the larger stamp is the
    more recent.  Empty ways carry negative stamps, so they are the
    least recently used and fill in way order before any eviction.
    Tags are uint64 at every address width, as traces are (see as_addresses).
    """

    def __init__(self, config: CacheConfig, k: int):
        if k != int(k) or not 0 <= int(k) <= config.tag_bits:
            raise ValueError(
                f"splitting point k must be an integer in [0, {config.tag_bits}], got {k!r}"
            )
        self.config = config
        self.k = int(k)
        ways = config.associativity
        shape = (config.sets, ways)
        self._tags = np.zeros(shape, dtype=np.uint64)
        self._ages = np.broadcast_to(np.arange(-ways, 0, dtype=np.int64), shape).copy()
        self._clock = 0  # stamp of the next access


def _fold(state: CacheState, trace, want_outcomes: bool) -> tuple[SimStats, list[bool] | None]:
    """Run the trace set-parallel; the counters and, if asked, per-access hits.

    The trace is stable-sorted by set.  Within a set, a run of accesses
    to one tag hits from its second access on, and the second leaves the
    set's tags and LRU order as they were, so every later access of the
    run repeats the second's survivor count.  Those later accesses are
    folded into the second, which keeps their number in a weight; this
    is trace stripping (Wang & Baer, SIGMETRICS 1990).

    The kept accesses are reordered by round: the r-th of every set goes
    to round r, and within a round the sets are rows ordered by access
    count, busiest first, so the sets active in round r are a prefix of
    the rows and every round works on array views.
    """
    config = state.config
    addresses = as_addresses(trace, config.address_bits)  # refused before the state changes
    sets, ways, accesses = config.sets, config.associativity, addresses.size

    block = addresses >> config.offset_bits
    set_of = (block & (sets - 1)).astype(np.min_scalar_type(sets - 1))
    request = block >> config.index_bits
    del block
    by_set = np.argsort(set_of, kind="stable")
    set_of, request = set_of[by_set], request[by_set]
    if not want_outcomes:
        del by_set
    repeat = set_of[1:] == set_of[:-1]
    repeat &= request[1:] == request[:-1]
    fold = repeat[1:] & repeat[:-1]  # fold[i]: access i + 2 repeats i + 1, which repeats i
    del repeat
    weight = None  # 1 + the number of accesses folded into each kept one
    if fold.any():
        kept = np.ones(accesses, dtype=bool)
        kept[2:] = ~fold
        kept = np.flatnonzero(kept)
        weight = np.diff(kept, append=accesses)
        set_of, request = set_of[kept], request[kept]
        if want_outcomes:
            by_set = by_set[kept]
        del kept
    del fold

    counts = np.bincount(set_of, minlength=sets)
    rows = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    row_of = np.empty(sets, dtype=np.intp)
    row_of[rows] = np.arange(rows.size)
    # active[r]: sets with more than r kept accesses, i.e. the rows of round r
    active = np.cumsum(np.bincount(counts)[::-1])[::-1][1:]
    start = np.zeros(active.size, dtype=np.intp)
    np.cumsum(active[:-1], out=start[1:])

    slot = np.arange(request.size)
    slot -= (np.cumsum(counts) - counts)[set_of]  # occurrence of the access in its set
    slot = start[slot]
    slot += row_of[set_of]
    del set_of, row_of, counts
    request = _to_slots(request, slot)
    if weight is not None:
        weight = _to_slots(weight, slot)
    if want_outcomes:
        order = _to_slots(by_set, slot)  # order[slot] = position in the trace
        del by_set
    del slot

    tags = state._tags[rows]
    ages = state._ages[rows]
    hit = np.empty(request.size, dtype=bool)
    survivors = np.empty(request.size, dtype=np.min_scalar_type(ways))
    prefix_mask = (1 << min(state.k, 64)) - 1  # exact: every tag is below 2**64
    clock = state._clock
    row_index = np.arange(rows.size)
    rounds = active.size
    r = 0
    while r < rounds and active[r] >= _SCALAR_TAIL_SETS:
        lo, hi = start[r], start[r] + active[r]
        t, a, q = tags[: active[r]], ages[: active[r]], request[lo:hi]
        valid = a >= 0
        diff = t ^ q[:, None]
        match = valid & ((diff & prefix_mask) == 0)
        same = valid & (diff == 0)
        hit_row = same.any(axis=1)
        hit[lo:hi] = hit_row
        survivors[lo:hi] = match.sum(axis=1)
        way = np.where(hit_row, same.argmax(axis=1), a.argmin(axis=1))
        here = row_index[: active[r]]
        t[here, way] = q
        a[here, way] = clock + r
        r += 1
    if r < rounds:
        lo = start[r]
        _scalar_tail(tags, ages, request[lo:], hit[lo:], survivors[lo:], active[r:].tolist(),
                     clock + r, prefix_mask)

    state._tags[rows] = tags
    state._ages[rows] = ages
    state._clock = clock + rounds
    # float64 weighted bins are exact integers: no trace has 2**53 accesses
    histogram = np.bincount(survivors, weight, ways + 1).astype(np.int64).tolist()
    hits = int(np.count_nonzero(hit)) + accesses - request.size  # every folded access hits
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
    if not want_outcomes:
        return stats, None
    outcomes = np.ones(accesses, dtype=bool)  # folded accesses hit
    outcomes[order] = hit
    return stats, outcomes.tolist()


def _to_slots(values: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """A copy of values in which values[i] sits at slot[i]."""
    moved = np.empty_like(values)
    moved[slot] = values
    return moved


def _scalar_tail(tags, ages, request, hit, survivors, active, first_stamp, prefix_mask) -> None:
    """Finish the last rounds one access at a time on list rows.

    ``active`` counts the rows of each remaining round, and ``request``,
    ``hit`` and ``survivors`` start at the first of them.  Empty ways
    hold None in place of a tag and a prefix, so list.count and ``in``
    compare only valid ways.
    """
    rows = active[0]
    age_rows = ages[:rows].tolist()
    tag_rows = [
        [tag if age >= 0 else None for tag, age in zip(row_tags, row_ages)]
        for row_tags, row_ages in zip(tags[:rows].tolist(), age_rows)
    ]
    prefix_rows = [[None if t is None else t & prefix_mask for t in row] for row in tag_rows]
    hits, counts = [], []
    pending = iter(request.tolist())
    for stamp, round_rows in enumerate(active, start=first_stamp):
        for row in range(round_rows):
            req = next(pending)
            prefix = req & prefix_mask
            row_tags, row_ages = tag_rows[row], age_rows[row]
            counts.append(prefix_rows[row].count(prefix))
            if req in row_tags:
                hits.append(True)
                way = row_tags.index(req)
            else:
                hits.append(False)
                way = row_ages.index(min(row_ages))
                row_tags[way] = req
                prefix_rows[row][way] = prefix
            row_ages[way] = stamp
    hit[:] = hits
    survivors[:] = counts
    tags[:rows] = [[0 if t is None else t for t in row] for row in tag_rows]
    ages[:rows] = age_rows


def run_trace(state: CacheState, trace) -> SimStats:
    """Counters of the trace; state ends as if each address were looked up in turn."""
    return _fold(state, trace, want_outcomes=False)[0]


def trace_outcomes(state: CacheState, trace) -> list[bool]:
    """Per-access hit/miss sequence (True on hit) for the trace."""
    return _fold(state, trace, want_outcomes=True)[1]


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
    state._tags[:, :distinct_tags] = np.arange(distinct_tags)
    state._ages[:, :distinct_tags] = np.arange(distinct_tags)
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
