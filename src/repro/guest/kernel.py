"""Guest kernel memory-management model.

:class:`GuestKernel` tracks the resident set of a VM's anonymous pages and
services the page-access bursts produced by workloads:

* An access to a resident page is a cheap hit (``resident_access_latency``).
* An access to a non-resident page is a major fault.  The fault is served,
  in order of preference, from tmem via frontswap (a get hypercall), from
  the guest swap area on the virtual disk, or by zero-filling a page that
  was never evicted (first touch).
* When the resident set would exceed the usable RAM, the page-frame
  reclaim algorithm selects victims.  Each victim is offered to tmem via a
  frontswap put; if the put fails the page is written to the swap disk.

The kernel returns the total latency of every burst so the VM driver can
advance its virtual time; the latency breakdown and the fault counters are
kept in :class:`GuestMemStats` for analysis.  This is exactly the coupling
through which the SmarTmem policies affect application running time: a
policy that lets a VM keep more pages in tmem converts multi-millisecond
disk faults into microsecond hypercalls.

Two burst-servicing engines are provided, selected by
``SimulationConfig.guest.access_engine``:

* ``"scalar"`` — the page-at-a-time reference implementation;
* ``"batched"`` (default) — classifies the burst at once: fully resident
  bursts take a vectorized hit path (one batch touch, one counter
  update), and bursts with misses are *planned* with cheap guest-local
  set algebra (victim selection, tmem/swap/first-touch classification)
  and then executed with batched tmem hypercalls, one latency replay pass
  reproducing the scalar accumulation order bit for bit.

Both engines produce identical statistics, traces and scenario results
for the same seed; ``tests/test_access_equivalence.py`` enforces this.

Burst semantics note: a burst's resident-access cost is charged once for
the whole burst (``pages_accessed * resident_access_latency_s``) rather
than accumulated page by page as earlier revisions did.  This is the
batch-friendly canonical definition both engines implement; it shifts
disk submit timestamps by nanoseconds relative to pre-batching revisions
(different float accumulation order), so seeded results are comparable
*between the two engines*, not with outputs recorded before this change.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterable, List, Sequence, Tuple, Optional

import numpy as np

from ..config import SimulationConfig
from ..devices.disk import VirtualDisk
from ..errors import ConfigurationError
from ..hypervisor.tmem_backend import BATCH_GET, BATCH_PUT
from .cleancache import CleancacheClient
from .frontswap import FrontswapClient
from .pfra import make_reclaimer
from .swap import SwapArea

__all__ = [
    "AccessOutcome",
    "GuestMemStats",
    "GuestKernel",
]

# Burst-plan event kinds (see GuestKernel._access_batched).
_EV_TMEM = 0   # eviction offered to tmem (batched put; disk on failure)
_EV_DISK = 1   # eviction straight to the swap disk (tmem disabled)
_F_TMEM = 2    # major fault served from tmem (batched get)
_F_SWAP = 3    # major fault served from the swap disk
_F_FIRST = 4   # major fault on a never-evicted page (zero-fill)


@dataclass
class AccessOutcome:
    """Result of servicing one page-access burst."""

    latency_s: float = 0.0
    pages_accessed: int = 0
    minor_hits: int = 0
    major_faults: int = 0
    faults_from_tmem: int = 0
    faults_from_disk: int = 0
    first_touches: int = 0
    evictions: int = 0
    evictions_to_tmem: int = 0
    evictions_to_disk: int = 0
    failed_tmem_puts: int = 0


@dataclass
class GuestMemStats:
    """Cumulative memory-management statistics for one VM."""

    accesses: int = 0
    minor_hits: int = 0
    major_faults: int = 0
    faults_from_tmem: int = 0
    faults_from_disk: int = 0
    first_touches: int = 0
    evictions: int = 0
    evictions_to_tmem: int = 0
    evictions_to_disk: int = 0
    failed_tmem_puts: int = 0
    time_in_tmem_ops_s: float = 0.0
    time_in_disk_io_s: float = 0.0
    time_in_resident_access_s: float = 0.0
    freed_pages: int = 0

    def absorb(self, outcome: AccessOutcome) -> None:
        self.accesses += outcome.pages_accessed
        self.minor_hits += outcome.minor_hits
        self.major_faults += outcome.major_faults
        self.faults_from_tmem += outcome.faults_from_tmem
        self.faults_from_disk += outcome.faults_from_disk
        self.first_touches += outcome.first_touches
        self.evictions += outcome.evictions
        self.evictions_to_tmem += outcome.evictions_to_tmem
        self.evictions_to_disk += outcome.evictions_to_disk
        self.failed_tmem_puts += outcome.failed_tmem_puts

    @property
    def fault_ratio(self) -> float:
        return self.major_faults / self.accesses if self.accesses else 0.0


class GuestKernel:
    """Memory management of one guest operating system."""

    def __init__(
        self,
        vm_id: int,
        *,
        ram_pages: int,
        swap_pages: int,
        config: SimulationConfig,
        disk: VirtualDisk,
        frontswap: Optional[FrontswapClient] = None,
        cleancache: Optional[CleancacheClient] = None,
    ) -> None:
        if ram_pages <= 0:
            raise ConfigurationError(f"ram_pages must be > 0, got {ram_pages}")
        self.vm_id = vm_id
        self._config = config
        self._disk = disk
        self._frontswap = frontswap
        self._cleancache = cleancache
        reserved = int(ram_pages * config.guest.kernel_reserved_fraction)
        self._usable_ram = max(1, ram_pages - reserved)
        self._ram_pages = ram_pages
        self._resident = make_reclaimer(config.guest.reclaim_algorithm)
        self._swap = SwapArea(swap_pages)
        self._known_pages: set[int] = set()
        # File (page-cache) state: only populated on clean-read bursts of
        # cleancache-enabled VMs; empty otherwise.
        self._file_resident = make_reclaimer(config.guest.reclaim_algorithm)
        self._file_pages: set[int] = set()
        self._batched = config.guest.access_engine != "scalar"
        self.stats = GuestMemStats()

    # -- introspection ---------------------------------------------------------
    @property
    def ram_pages(self) -> int:
        return self._ram_pages

    @property
    def usable_ram_pages(self) -> int:
        """RAM available to workload pages after the kernel's own share."""
        return self._usable_ram

    @property
    def resident_pages(self) -> int:
        return len(self._resident)

    @property
    def swap(self) -> SwapArea:
        return self._swap

    @property
    def frontswap(self) -> Optional[FrontswapClient]:
        return self._frontswap

    @property
    def cleancache(self) -> Optional[CleancacheClient]:
        return self._cleancache

    @property
    def file_cache_pages(self) -> int:
        """Clean file pages currently held in the guest page cache."""
        return len(self._file_resident)

    @property
    def tmem_pages(self) -> int:
        return self._frontswap.pages_in_tmem if self._frontswap else 0

    def is_resident(self, page: int) -> bool:
        return page in self._resident

    def rebind_disk(self, disk: VirtualDisk) -> None:
        """Point guest swap I/O at another node's virtual disk (migration)."""
        self._disk = disk

    def recover_lost_tmem_pages(
        self, pages: Sequence[int], *, now: float
    ) -> int:
        """Re-materialise frontswap pages whose tmem copy was lost.

        A node failure destroys tmem contents (local pages of the dying
        node's VMs, and remote-spilled pages it hosted for peers).  The
        affected pages are dirty anonymous pages, so they must survive:
        the recovery path writes them to the guest's swap area — the
        "refault from disk" fallback — as one background disk write that
        occupies the (shared-storage) disk queue but is not charged to
        any in-flight burst.  Returns the number of pages recovered.
        """
        fs = self._frontswap
        recovered = 0
        for page in pages:
            if fs is not None and fs.forget(page) is None:
                # Not tracked (already faulted back or freed meanwhile).
                continue
            self._swap.store(page)
            recovered += 1
        if recovered:
            self._disk.write(now, recovered, vm_id=self.vm_id)
        return recovered

    def memory_footprint_pages(self) -> int:
        """Pages the workload has touched and not freed (any location)."""
        return len(self._known_pages)

    # -- burst validation --------------------------------------------------------
    @staticmethod
    def _as_page_list(pages: Sequence[int] | Iterable[int]) -> List[int]:
        """Materialize a burst as a list of ints, rejecting negatives."""
        if isinstance(pages, np.ndarray):
            if len(pages) and int(pages.min()) < 0:
                raise ConfigurationError(
                    f"negative page number {int(pages.min())}"
                )
            return pages.tolist()
        page_list = [int(p) for p in pages]
        if page_list:
            smallest = min(page_list)
            if smallest < 0:
                raise ConfigurationError(f"negative page number {smallest}")
        return page_list

    # -- the reclaim path --------------------------------------------------------
    def _evict_one(self, now: float, outcome: AccessOutcome) -> None:
        """Evict one victim page: try tmem first, then the swap disk."""
        victim = self._resident.select_victim()
        outcome.evictions += 1
        # Anonymous pages being reclaimed are treated as dirty: they must be
        # preserved somewhere (this is the frontswap path of the paper).
        if self._frontswap is not None:
            stored, latency = self._frontswap.store(victim, now=now)
            outcome.latency_s += latency
            self.stats.time_in_tmem_ops_s += latency
            if stored:
                outcome.evictions_to_tmem += 1
                return
            outcome.failed_tmem_puts += 1
        # Tmem refused the page (no capacity or over target): swap to disk.
        # The request is issued after the latency already accumulated in
        # this burst — the guest has one swap I/O outstanding at a time.
        disk_latency = self._disk.write(
            now + outcome.latency_s, 1, vm_id=self.vm_id
        )
        self._swap.store(victim)
        outcome.latency_s += disk_latency
        self.stats.time_in_disk_io_s += disk_latency
        outcome.evictions_to_disk += 1

    def _make_room(self, now: float, outcome: AccessOutcome) -> None:
        while len(self._resident) >= self._usable_ram:
            self._evict_one(now, outcome)

    # -- fault handling -----------------------------------------------------------
    def _fault_in(self, page: int, now: float, outcome: AccessOutcome) -> None:
        """Bring a non-resident page into RAM."""
        outcome.major_faults += 1
        outcome.latency_s += self._config.guest.fault_overhead_s

        if self._frontswap is not None and self._frontswap.holds(page):
            hit, latency = self._frontswap.load(page)
            outcome.latency_s += latency
            self.stats.time_in_tmem_ops_s += latency
            if hit:
                outcome.faults_from_tmem += 1
                self._swap.discard(page)
                return
        if page in self._swap:
            disk_latency = self._disk.read(
                now + outcome.latency_s, 1, vm_id=self.vm_id
            )
            self._swap.load(page)
            outcome.latency_s += disk_latency
            self.stats.time_in_disk_io_s += disk_latency
            outcome.faults_from_disk += 1
            return
        # Never evicted before: first touch, zero-fill, no I/O.
        outcome.first_touches += 1

    # -- public API -----------------------------------------------------------------
    def access(
        self,
        pages: Sequence[int] | Iterable[int],
        *,
        now: float,
        write: bool = True,
    ) -> AccessOutcome:
        """Service a burst of page accesses issued at simulated time *now*.

        ``write=True`` bursts model anonymous memory (dirty when evicted,
        preserved through frontswap or swap), which matches the paper's
        frontswap-only evaluation.  ``write=False`` bursts on a VM with
        cleancache enabled are clean file reads and take the page-cache
        path of :meth:`_access_file` instead; without cleancache they are
        treated as anonymous accesses, as earlier revisions did.

        The burst is atomic: it is validated up front, the resident-access
        cost is charged once for the whole burst, and eviction/fault I/O is
        sequenced in page order.  Which engine services it is decided by
        ``config.guest.access_engine``; both produce identical outcomes.
        """
        page_list = self._as_page_list(pages)
        if not write and self._cleancache is not None:
            return self._access_file(page_list, now)
        if self._batched:
            return self._access_batched(page_list, now)
        return self._access_scalar(page_list, now)

    # -- the file (page-cache) path ----------------------------------------------
    def _drop_file_page(self, now: float, outcome: AccessOutcome) -> None:
        """Drop the coldest clean file page, offering it to cleancache.

        Clean pages need no write-back: if cleancache declines the page
        (or is absent) the page is simply discarded — losing it is always
        legal, which is exactly why the ephemeral pools may be reclaimed
        by the hypervisor at any time.
        """
        victim = self._file_resident.select_victim()
        outcome.evictions += 1
        cc = self._cleancache
        if cc is not None:
            stored, latency = cc.put_page(victim, now=now)
            outcome.latency_s += latency
            self.stats.time_in_tmem_ops_s += latency
            if stored:
                outcome.evictions_to_tmem += 1
                return
            outcome.failed_tmem_puts += 1

    def _file_cache_budget(self) -> int:
        """Frames the page cache may occupy: whatever anon memory left over.

        Mirrors Linux's reclaim preference — clean page cache yields
        before anonymous memory is swapped — lazily: anon growth shrinks
        the file cache at the start of the next file burst.  The cache
        always keeps at least one frame so a scan can stream through it.
        """
        return max(1, self._usable_ram - len(self._resident))

    def _access_file(self, page_list: List[int], now: float) -> AccessOutcome:
        """Service a clean file-read burst through the guest page cache.

        A miss consults cleancache (the ephemeral tmem pool) before the
        disk, exactly as the kernel's page-cache read path does.  This is
        a single implementation shared by every access engine — file
        bursts have no engine-dependent plan/replay split — so scalar
        and batched runs of a cleancache scenario are identical by
        construction.
        """
        outcome = AccessOutcome()
        outcome.pages_accessed = len(page_list)
        cc = self._cleancache
        file_resident = self._file_resident
        budget = self._file_cache_budget()
        while len(file_resident) > budget:
            self._drop_file_page(now, outcome)
        for page in page_list:
            if page in file_resident:
                file_resident.touch(page)
                outcome.minor_hits += 1
                continue
            if page in self._resident:
                # Also live as a dirty anonymous page: a clean read of it
                # is an ordinary resident hit.
                self._resident.touch(page)
                outcome.minor_hits += 1
                continue
            while len(file_resident) >= budget:
                self._drop_file_page(now, outcome)
            outcome.major_faults += 1
            outcome.latency_s += self._config.guest.fault_overhead_s
            hit = False
            if cc is not None:
                hit, latency = cc.get_page(page)
                outcome.latency_s += latency
                self.stats.time_in_tmem_ops_s += latency
            if hit:
                outcome.faults_from_tmem += 1
            else:
                disk_latency = self._disk.read(
                    now + outcome.latency_s, 1, vm_id=self.vm_id
                )
                outcome.latency_s += disk_latency
                self.stats.time_in_disk_io_s += disk_latency
                outcome.faults_from_disk += 1
            file_resident.insert(page)
            self._file_pages.add(page)
        self._charge_resident_accesses(outcome)
        self.stats.absorb(outcome)
        return outcome

    # -- scalar reference engine --------------------------------------------------
    def _access_scalar(self, page_list: List[int], now: float) -> AccessOutcome:
        """Page-at-a-time reference implementation of :meth:`access`."""
        outcome = AccessOutcome()
        for page in page_list:
            outcome.pages_accessed += 1
            self._known_pages.add(page)
            if page in self._resident:
                self._resident.touch(page)
                outcome.minor_hits += 1
                continue
            # Major fault: free a frame if needed, then fault the page in.
            self._make_room(now, outcome)
            self._fault_in(page, now, outcome)
            self._resident.insert(page)
        self._charge_resident_accesses(outcome)
        self.stats.absorb(outcome)
        return outcome

    def _charge_resident_accesses(self, outcome: AccessOutcome) -> None:
        """Charge the per-page access cost for the whole burst at once."""
        access_time = (
            outcome.pages_accessed * self._config.guest.resident_access_latency_s
        )
        outcome.latency_s += access_time
        self.stats.time_in_resident_access_s += access_time

    # -- batched engine -----------------------------------------------------------
    def _access_batched(self, page_list: List[int], now: float) -> AccessOutcome:
        """Burst-at-once implementation of :meth:`access`.

        Fully resident bursts are handled with one batch membership check
        and one batch touch.  Otherwise the burst is *planned*: a single
        guest-local pass classifies every access (hit, eviction target,
        fault source) using the reclaimer's batch victim selection and the
        frontswap/swap membership sets, staging all tmem traffic on a
        :class:`~repro.guest.frontswap.FrontswapBatch`.  The staged ops
        ship in (usually) one batched hypercall, and a final replay pass
        accumulates latencies and issues disk I/O in exactly the order the
        scalar engine would have — making the two engines bit-identical.
        """
        outcome = AccessOutcome()
        n = len(page_list)
        outcome.pages_accessed = n
        self._known_pages.update(page_list)
        resident = self._resident

        if resident.contains_all(page_list):
            # Vectorized hit path: the whole burst is resident.
            resident.touch_many(page_list)
            outcome.minor_hits = n
            self._charge_resident_accesses(outcome)
            self.stats.absorb(outcome)
            return outcome

        if not self._vector_plan_misses(page_list, now, outcome):
            self._plan_and_replay_misses(page_list, now, outcome)
        self._charge_resident_accesses(outcome)
        self.stats.absorb(outcome)
        return outcome

    def _vector_plan_misses(
        self, page_list: List[int], now: float, outcome: AccessOutcome
    ) -> bool:
        """Whole-burst set-algebra plan for the dominant sweep shapes.

        Applies when the reclaimer's victim choice is insert-order
        independent (strict LRU) and the burst's victims are provably
        disjoint from the burst itself.  Then the whole burst classifies
        up front — resident hits, tmem hits, swap faults, first touches —
        victims for every eviction are selected in one batch, recency
        updates collapse into one bulk promote, and the staged tmem
        traffic ships in a single batched hypercall.  Returns False when
        a precondition fails and the sequential planner must run instead.

        Bursts made of *distinct* pages classify with C-speed membership
        maps.  Bursts with duplicate occurrences (the zipf-shaped
        workloads re-touch hot pages within one burst) take one Python
        classification pass instead: only the *first* occurrence of a
        non-resident page is a major fault — every re-occurrence is a
        minor hit of the freshly faulted page — so the miss sequence is
        the first-occurrence subsequence and the eviction interleaving
        is identical to the distinct case over that subsequence.

        Why up-front victim selection is exact here: victims pop from the
        LRU cold end while burst pages only ever move to the hot end, so
        as long as none of the k coldest pages is part of the burst, the
        k victims a page-at-a-time walk would pick are exactly the k
        coldest pages at burst start, in cold order.
        """
        resident = self._resident
        if not resident.batch_victims_stable:
            return False
        n = len(page_list)
        size = len(resident)
        usable = self._usable_ram
        if size > usable:
            return False
        # dict.fromkeys is the C-speed dedup that also preserves first-
        # occurrence order — exactly the order misses must fault in.
        distinct_map = dict.fromkeys(page_list)
        contains = resident.members().__contains__
        hit_mask: Optional[List[bool]] = None
        hit_distinct: Optional[List[int]] = None
        if len(distinct_map) == n:
            # Distinct pages: C-speed membership map.
            hit_mask = list(map(contains, page_list))
            n_hits = sum(hit_mask)
            if n_hits:
                misses = [p for p, hit in zip(page_list, hit_mask) if not hit]
            else:
                misses = page_list
            resident_in_burst = n_hits
            burst_resident = distinct_map.keys()
        else:
            # Duplicate occurrences: classify first occurrences only —
            # every re-occurrence is a minor hit whichever way the first
            # occurrence resolved (resident, or faulted in by the burst).
            distinct = list(distinct_map)
            mask = list(map(contains, distinct))
            resident_in_burst = sum(mask)
            if resident_in_burst:
                misses = [p for p, hit in zip(distinct, mask) if not hit]
                hit_distinct = [p for p, hit in zip(distinct, mask) if hit]
            else:
                misses = distinct
                hit_distinct = []
            n_hits = n - len(misses)
            burst_resident = None  # built only if the peek check runs
        n_miss = len(misses)
        free_slots = usable - size
        victims_needed = n_miss - free_slots if n_miss > free_slots else 0
        if victims_needed > size - resident_in_burst:
            # Victims would dip into this burst's own pages: the plan
            # would no longer be insert-order independent.
            return False
        if victims_needed and resident_in_burst:
            upcoming = resident.peek_victims(victims_needed)
            if upcoming is None:
                return False
            if burst_resident is None:
                burst_resident = set(hit_distinct)
            if not burst_resident.isdisjoint(upcoming):
                # A burst page is among the k coldest: whether it escapes
                # eviction depends on intra-burst access order, which only
                # the sequential planner tracks.
                return False

        fs = self._frontswap
        in_swap = list(map(self._swap.slots.__contains__, misses))
        victims = resident.select_victims(victims_needed)
        plan: List[Tuple[int, int, int]] = []
        append_plan = plan.append
        statuses: List[int] = []
        remote_costs: List[float] = []

        if fs is not None:
            in_tmem = list(map(fs.held_pages.__contains__, misses))
            get_pages = [p for p, held in zip(misses, in_tmem) if held]
            if victims_needed or get_pages:
                # Closed-form planned path: the burst's put/get
                # interleaving is known up front (puts are consecutive
                # from miss index ``free_slots`` on, with at most one
                # exclusive get between consecutive puts), so the
                # hypervisor can resolve the whole admission sequence
                # with two array operations instead of an op walk.  The
                # backend declines (returns None) when remote tmem or a
                # target makes admission history-dependent.
                if victims_needed:
                    # Exclusive prefix counts of gets, sliced to the put
                    # positions (miss index ``free_slots`` onward).
                    gets_before_puts = list(
                        islice(
                            accumulate(in_tmem, initial=0),
                            free_slots,
                            n_miss,
                        )
                    )
                else:
                    gets_before_puts = []
                planned = fs.execute_planned(
                    victims, get_pages, gets_before_puts, now=now
                )
                if planned is not None:
                    if n_hits:
                        resident.promote_burst_planned(misses, page_list)
                    else:
                        resident.insert_many(page_list)
                    outcome.minor_hits = n_hits
                    put_flags = None if planned is True else planned
                    self._replay_burst(
                        misses, in_tmem, in_swap, victims, put_flags,
                        free_slots, now, outcome,
                    )
                    return True
            batch = fs.begin_batch()
            version = fs.reserve_versions(victims_needed)
            ppo = fs.pages_per_object
            ops: List[Tuple[int, int, int, int]] = []
            op_pages: List[int] = []
            append_op = ops.append
            append_op_page = op_pages.append
            op_index = 0
            victim_cursor = 0
            for j in range(n_miss):
                if j >= free_slots:
                    victim = victims[victim_cursor]
                    victim_cursor += 1
                    object_id, index = divmod(victim, ppo)
                    append_op((BATCH_PUT, object_id, index, version))
                    version += 1
                    append_op_page(victim)
                    append_plan((_EV_TMEM, victim, op_index))
                    op_index += 1
                page = misses[j]
                if in_tmem[j]:
                    object_id, index = divmod(page, ppo)
                    append_op((BATCH_GET, object_id, index, 0))
                    append_op_page(page)
                    append_plan((_F_TMEM, page, op_index))
                    op_index += 1
                elif in_swap[j]:
                    append_plan((_F_SWAP, page, 0))
                else:
                    append_plan((_F_FIRST, page, 0))
            if ops:
                batch.extend_raw(
                    ops,
                    op_pages,
                    put_pages=victims,
                    put_versions=list(
                        range(version - victims_needed, version)
                    ),
                    get_pages=get_pages,
                )
                statuses = batch.execute(now=now)
                remote_costs = fs.drain_remote_costs()
        else:
            victim_cursor = 0
            for j in range(n_miss):
                if j >= free_slots:
                    append_plan((_EV_DISK, victims[victim_cursor], 0))
                    victim_cursor += 1
                page = misses[j]
                if in_swap[j]:
                    append_plan((_F_SWAP, page, 0))
                else:
                    append_plan((_F_FIRST, page, 0))

        if n_hits:
            # The classification already split the burst: promote inserts
            # the fresh pages and replays the occurrences as touches,
            # leaving recency exactly as a scalar walk would (each page
            # ordered by its last occurrence).
            resident.promote_burst_planned(misses, page_list)
        else:
            resident.insert_many(page_list)
        outcome.minor_hits = n_hits
        self._replay_plan(plan, statuses, now, outcome, remote_costs)
        return True

    def _plan_and_replay_misses(
        self, page_list: List[int], now: float, outcome: AccessOutcome
    ) -> None:
        fs = self._frontswap
        resident = self._resident
        swap = self._swap
        usable = self._usable_ram

        plan: List[Tuple[int, int, int]] = []  # (event kind, page, op index)
        statuses: List[int] = []
        batch = fs.begin_batch() if fs is not None else None
        #: victim page -> global op index of its staged (unresolved) put.
        pending_puts: dict[int, int] = {}
        #: pages that will be written to the swap area during the replay.
        pending_swap: set[int] = set()

        touch_hit = resident.touch_if_resident
        insert = resident.insert
        select_victim = resident.select_victim
        select_victims = resident.select_victims
        holds = fs.held_pages.__contains__ if fs is not None else None
        in_swap_slots = swap.slots.__contains__
        stage_store = batch.stage_store if batch is not None else None
        plan_append = plan.append
        minor_hits = 0
        executed_ops = 0
        size = len(resident)

        for page in page_list:
            if touch_hit(page):
                minor_hits += 1
                continue
            need = size - usable + 1
            if need > 0:
                victims = (
                    (select_victim(),) if need == 1 else select_victims(need)
                )
                for victim in victims:
                    if stage_store is not None:
                        op_index = executed_ops + stage_store(victim)
                        pending_puts[victim] = op_index
                        plan_append((_EV_TMEM, victim, op_index))
                    else:
                        pending_swap.add(victim)
                        plan_append((_EV_DISK, victim, 0))
                size -= need
            if batch is not None and page in pending_puts:
                # The fault source of this page depends on the outcome of
                # its still-staged put: ship the batch staged so far, then
                # classify with resolved state.  Rare (intra-burst
                # re-access of a page evicted earlier in the same burst).
                statuses.extend(batch.execute(now=now))
                executed_ops = len(statuses)
                for victim, op_index in pending_puts.items():
                    if not statuses[op_index]:
                        pending_swap.add(victim)
                pending_puts.clear()
            if holds is not None and holds(page):
                op_index = executed_ops + batch.stage_load(page)
                plan_append((_F_TMEM, page, op_index))
            elif in_swap_slots(page) or page in pending_swap:
                pending_swap.discard(page)
                plan_append((_F_SWAP, page, 0))
            else:
                plan_append((_F_FIRST, page, 0))
            insert(page)
            size += 1

        if batch is not None and len(batch):
            statuses.extend(batch.execute(now=now))

        outcome.minor_hits = minor_hits
        # Remote costs accumulate on the client across the (possibly
        # multiple) batch executions above, in op order.
        remote_costs = fs.drain_remote_costs() if fs is not None else []
        self._replay_plan(plan, statuses, now, outcome, remote_costs)

    def _replay_plan(
        self,
        plan: List[Tuple[int, int, int]],
        statuses: List[int],
        now: float,
        outcome: AccessOutcome,
        remote_costs: Sequence[float] = (),
    ) -> None:
        """Accumulate latencies and issue I/O in scalar order.

        Every float addition below mirrors one addition the scalar engine
        performs, with the same constants and in the same order, so the
        burst latency, the cumulative time counters and the disk queue
        evolution are bit-identical across engines.

        *remote_costs* holds the network cost of each remotely-serviced
        op, in op order; a remote op accumulates as the single float the
        hypercall layer returns on the scalar path (base + extra in one
        add), or the engines would drift by rounding order.  On an
        uncontended interconnect every entry equals the constant
        round-trip; on a contended one each entry carries its own queue
        wait — which the scalar path observed identically, because both
        engines issue the channel reservations in the same order at the
        same timestamps.
        """
        config = self._config
        put_lat = config.tmem_put_latency_s
        fail_lat = config.tmem_failed_put_latency_s
        get_lat = config.tmem_get_latency_s
        remote_cursor = 0
        fault_overhead = config.guest.fault_overhead_s
        disk = self._disk
        disk_write = disk.write_one
        disk_read = disk.read_one
        swap = self._swap
        swap_store = swap.store
        swap_load = swap.load
        swap_discard = swap.discard
        vm_id = self.vm_id
        stats = self.stats

        acc = outcome.latency_s
        tmem_time = stats.time_in_tmem_ops_s
        disk_time = stats.time_in_disk_io_s
        evictions = evictions_to_tmem = evictions_to_disk = 0
        failed_puts = 0
        major = from_tmem = from_disk = first = 0

        for kind, page, op_index in plan:
            if kind == _EV_TMEM:
                evictions += 1
                status = statuses[op_index]
                if status:
                    if status == 1:
                        lat = put_lat
                    else:
                        lat = put_lat + remote_costs[remote_cursor]
                        remote_cursor += 1
                    acc += lat
                    tmem_time += lat
                    evictions_to_tmem += 1
                else:
                    acc += fail_lat
                    tmem_time += fail_lat
                    failed_puts += 1
                    disk_latency = disk_write(now + acc, vm_id)
                    swap_store(page)
                    acc += disk_latency
                    disk_time += disk_latency
                    evictions_to_disk += 1
            elif kind == _EV_DISK:
                evictions += 1
                disk_latency = disk_write(now + acc, vm_id)
                swap_store(page)
                acc += disk_latency
                disk_time += disk_latency
                evictions_to_disk += 1
            elif kind == _F_TMEM:
                major += 1
                acc += fault_overhead
                if statuses[op_index] == 1:
                    lat = get_lat
                else:
                    lat = get_lat + remote_costs[remote_cursor]
                    remote_cursor += 1
                acc += lat
                tmem_time += lat
                swap_discard(page)
                from_tmem += 1
            elif kind == _F_SWAP:
                major += 1
                acc += fault_overhead
                disk_latency = disk_read(now + acc, vm_id)
                swap_load(page)
                acc += disk_latency
                disk_time += disk_latency
                from_disk += 1
            else:  # _F_FIRST
                major += 1
                acc += fault_overhead
                first += 1

        outcome.latency_s = acc
        outcome.evictions = evictions
        outcome.evictions_to_tmem = evictions_to_tmem
        outcome.evictions_to_disk = evictions_to_disk
        outcome.failed_tmem_puts = failed_puts
        outcome.major_faults = major
        outcome.faults_from_tmem = from_tmem
        outcome.faults_from_disk = from_disk
        outcome.first_touches = first
        stats.time_in_tmem_ops_s = tmem_time
        stats.time_in_disk_io_s = disk_time

    def _replay_burst(
        self,
        misses: List[int],
        in_tmem: List[bool],
        in_swap: List[bool],
        victims: Sequence[int],
        put_flags: Optional[List[int]],
        free_slots: int,
        now: float,
        outcome: AccessOutcome,
    ) -> None:
        """Latency/IO replay of a planned burst, fused over the plan inputs.

        The planned fast path already knows the burst's full event
        sequence from the classification vectors, so no intermediate
        plan tuples or status lists exist: this loop walks the miss
        sequence directly, performing exactly the float additions (same
        constants, same order) :meth:`_replay_plan` performs for the
        equivalent plan — the two are interchangeable bit for bit.
        Planned bursts carry no remote operations (the closed-form path
        declines when remote tmem is attached) and every get hits, so
        only the per-put success flags (*put_flags*; ``None`` = all
        succeeded) vary the replay.
        """
        config = self._config
        put_lat = config.tmem_put_latency_s
        fail_lat = config.tmem_failed_put_latency_s
        get_lat = config.tmem_get_latency_s
        fault_overhead = config.guest.fault_overhead_s
        disk = self._disk
        disk_write = disk.write_one
        disk_read = disk.read_one
        swap = self._swap
        swap_store = swap.store
        swap_load = swap.load
        swap_discard = swap.discard
        vm_id = self.vm_id
        stats = self.stats

        acc = outcome.latency_s
        tmem_time = stats.time_in_tmem_ops_s
        disk_time = stats.time_in_disk_io_s
        evictions_to_tmem = evictions_to_disk = 0
        from_tmem = from_disk = first = 0
        victim_cursor = 0

        for j, page in enumerate(misses):
            if j >= free_slots:
                victim = victims[victim_cursor]
                if put_flags is None or put_flags[victim_cursor]:
                    acc += put_lat
                    tmem_time += put_lat
                    evictions_to_tmem += 1
                else:
                    acc += fail_lat
                    tmem_time += fail_lat
                    disk_latency = disk_write(now + acc, vm_id)
                    swap_store(victim)
                    acc += disk_latency
                    disk_time += disk_latency
                    evictions_to_disk += 1
                victim_cursor += 1
            acc += fault_overhead
            if in_tmem[j]:
                acc += get_lat
                tmem_time += get_lat
                swap_discard(page)
                from_tmem += 1
            elif in_swap[j]:
                disk_latency = disk_read(now + acc, vm_id)
                swap_load(page)
                acc += disk_latency
                disk_time += disk_latency
                from_disk += 1
            else:
                first += 1

        outcome.latency_s = acc
        outcome.evictions = len(victims)
        outcome.evictions_to_tmem = evictions_to_tmem
        outcome.evictions_to_disk = evictions_to_disk
        outcome.failed_tmem_puts = evictions_to_disk
        outcome.major_faults = len(misses)
        outcome.faults_from_tmem = from_tmem
        outcome.faults_from_disk = from_disk
        outcome.first_touches = first
        stats.time_in_tmem_ops_s = tmem_time
        stats.time_in_disk_io_s = disk_time

    # -- freeing ------------------------------------------------------------------
    def free(self, pages: Sequence[int] | Iterable[int], *, now: float) -> float:
        """Release pages the workload no longer needs.

        Frees resident frames, discards swap slots and flushes tmem copies
        (the flush path of Algorithm 1).  Returns the latency incurred by
        the flush hypercalls.  Under the batched engine every flush of the
        burst ships in one batched hypercall.
        """
        page_list = self._as_page_list(pages)
        if self._file_pages:
            file_pages = [p for p in page_list if p in self._file_pages]
            if file_pages:
                latency = self._free_file(file_pages, now)
                anon = [p for p in page_list if p not in self._file_pages]
                if anon:
                    if self._batched and self._frontswap is not None:
                        latency += self._free_batched(anon, now)
                    else:
                        latency += self._free_scalar(anon, now)
                return latency
        if self._batched and self._frontswap is not None:
            return self._free_batched(page_list, now)
        return self._free_scalar(page_list, now)

    def _free_file(self, page_list: List[int], now: float) -> float:
        """Release clean file pages (the file was truncated or deleted).

        Drops the page-cache copies and invalidates any cleancache copy —
        the guest must flush, or a later read of a recycled page number
        could observe stale ephemeral data.
        """
        del now  # flush hypercalls carry no queueing in this model
        latency = 0.0
        cc = self._cleancache
        for page in page_list:
            self._file_pages.discard(page)
            if page in self._file_resident:
                self._file_resident.remove(page)
            if cc is not None:
                _, flush_latency = cc.invalidate_page(page)
                latency += flush_latency
                self.stats.time_in_tmem_ops_s += flush_latency
            self.stats.freed_pages += 1
        return latency

    def _free_scalar(self, page_list: List[int], now: float) -> float:
        latency = 0.0
        for page in page_list:
            self._known_pages.discard(page)
            if page in self._resident:
                self._resident.remove(page)
            self._swap.discard(page)
            if self._frontswap is not None and self._frontswap.holds(page):
                _, flush_latency = self._frontswap.invalidate(page)
                latency += flush_latency
                self.stats.time_in_tmem_ops_s += flush_latency
            self.stats.freed_pages += 1
        return latency

    def _free_batched(self, page_list: List[int], now: float) -> float:
        fs = self._frontswap
        assert fs is not None
        resident = self._resident
        swap = self._swap
        flush_lat = self._config.tmem_flush_latency_s
        batch = fs.begin_batch()
        staged: set[int] = set()
        latency = 0.0
        tmem_time = self.stats.time_in_tmem_ops_s
        holds = fs.holds
        for page in page_list:
            self._known_pages.discard(page)
            if page in resident:
                resident.remove(page)
            swap.discard(page)
            if page not in staged and holds(page):
                batch.stage_flush(page)
                staged.add(page)
                latency += flush_lat
                tmem_time += flush_lat
        if len(batch):
            batch.execute(now=now)
        self.stats.time_in_tmem_ops_s = tmem_time
        self.stats.freed_pages += len(page_list)
        return latency

    def release_all(self, *, now: float) -> float:
        """Release every page the current process owns (process exit).

        Anonymous memory is freed, swap slots are discarded, and every
        tmem copy is flushed (the kernel issues flush-object hypercalls on
        swapoff / area invalidation).  Returns the flush latency.
        """
        del now  # present for interface symmetry with access()/free()
        latency = 0.0
        if self._frontswap is not None:
            _, latency = self._frontswap.invalidate_area()
            self.stats.time_in_tmem_ops_s += latency
        for page in list(self._resident.pages()):
            self._resident.remove(page)
        for page in list(self._known_pages):
            self._swap.discard(page)
        self.stats.freed_pages += len(self._known_pages)
        self._known_pages.clear()
        if self._file_pages:
            # Unmount path: drop the page cache and flush the ephemeral
            # pool one inode at a time (cleancache's invalidate_fs).
            cc = self._cleancache
            if cc is not None:
                objects = sorted({cc.object_of(p) for p in self._file_pages})
                for object_id in objects:
                    _, flush_latency = cc.invalidate_inode(object_id)
                    latency += flush_latency
                    self.stats.time_in_tmem_ops_s += flush_latency
            for page in list(self._file_resident.pages()):
                self._file_resident.remove(page)
            self.stats.freed_pages += len(self._file_pages)
            self._file_pages.clear()
        return latency

    def shutdown(self, *, now: float) -> float:
        """Release every page (guest shutdown); returns flush latency."""
        return self.release_all(now=now)
