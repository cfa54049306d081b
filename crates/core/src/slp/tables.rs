//! SLP's three hardware tables: Filter, Accumulation and Pattern History.
//!
//! The learning pipeline (paper Figure 1, steps 1–4):
//!
//! 1. A demand access first probes the **Accumulation Table (AT)**; a hit
//!    sets the block's bit in the entry's 16-bit bitmap.
//! 2. On an AT miss the access goes to the **Filter Table (FT)**, which
//!    weeds out pages whose snapshots involve too few blocks.
//! 3. Once an FT entry has recorded three distinct offsets, the page is
//!    *promoted* into the AT.
//! 4. When an AT entry times out (no access for the timeout window), SLP
//!    interprets the recorded bitmap as a complete, stable snapshot and
//!    transfers it to the **Pattern History Table (PT)**.
//!
//! All tables are indexed by page number only — no PC exists at the system
//! cache. Timeouts are implemented with lazy expiry queues so each access
//! costs amortised O(1).
//!
//! # Data-oriented layout
//!
//! Each table is stored struct-of-arrays: a fixed-capacity open-addressed
//! [`FixedIndex`] maps `page → slot`, and every entry field lives in its
//! own dense array indexed by slot. The lookups run on every simulated
//! access, so they must be one hash plus a short flat-array probe; the
//! victim scans walk only the fields they compare (timestamps and pages)
//! instead of dragging whole map entries through the cache. Occupied slots
//! are tracked in a `valid` bitmask whose set bits drive the scans, and a
//! free list recycles slots, so the dense arrays never reallocate.
//!
//! Any decision that scans the table — victim selection in particular —
//! must break ties on the page number so results never depend on slot
//! assignment or probe order, i.e. on the hasher.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use planaria_common::{Bitmap16, Cycle};
use planaria_hash::FixedIndex;

/// How the Pattern History Table reconciles a freshly captured snapshot
/// with a previously learned pattern for the same page.
///
/// `Replace` is the paper's SLP. The other two transplant DSPatch's
/// coverage-vs-accuracy bitmap duality (Bera et al., MICRO 2019 — the
/// paper's reference \[1\]) into the PN-keyed setting: `Union` grows the
/// pattern toward coverage, `Intersect` shrinks it toward accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PatternMerge {
    /// Latest snapshot wins (the paper's behaviour).
    #[default]
    Replace,
    /// Accumulate the union of snapshots (coverage-biased).
    Union,
    /// Keep only blocks present in every snapshot (accuracy-biased).
    Intersect,
}

impl core::fmt::Display for PatternMerge {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            PatternMerge::Replace => "replace",
            PatternMerge::Union => "union",
            PatternMerge::Intersect => "intersect",
        })
    }
}

/// Number of distinct offsets an FT entry must record before promotion.
pub(crate) const FT_PROMOTE_COUNT: usize = 3;

/// Segment-local block offsets fit the 16-bit footprint bitmaps.
const SEGMENT_BLOCKS: usize = 16;

/// What [`FilterTable::record`] did with an access — distinguished so the
/// telemetry layer can count allocations, recordings and promotions
/// separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FtOutcome {
    /// The page had no FT entry; one was allocated.
    Allocated,
    /// An existing entry observed the access (offset new or repeated).
    Recorded,
    /// The entry reached [`FT_PROMOTE_COUNT`] distinct offsets and left the
    /// FT carrying this bitmap.
    Promoted(Bitmap16),
}

impl FtOutcome {
    /// The promotion bitmap, if this access promoted the page.
    #[cfg(test)]
    pub(crate) fn promoted(self) -> Option<Bitmap16> {
        match self {
            FtOutcome::Promoted(bm) => Some(bm),
            _ => None,
        }
    }
}

/// Bounds `offset` to the segment bitmap width, returning it as the
/// narrow type the tables store. A bare `as u8` here once truncated
/// out-of-range offsets silently; the tables' addressing invariant
/// (segment-local offsets are always `< 16`) is now enforced loudly.
#[inline]
fn checked_offset(offset: usize) -> u8 {
    assert!(
        offset < SEGMENT_BLOCKS,
        "segment-local block offset {offset} exceeds the {SEGMENT_BLOCKS}-block segment bitmap"
    );
    offset as u8
}

/// Shared slot bookkeeping for the SoA tables: a `page → slot` hash index,
/// the dense `pages` array it mirrors, a validity bitmask driving scans,
/// and a free list recycling slots. Field arrays live in the owning table.
#[derive(Debug, Clone)]
struct SlotMap {
    index: FixedIndex,
    /// Page number per slot; meaningful only where `valid` is set.
    pages: Vec<u64>,
    /// Bit *s* set ⇔ slot *s* holds a live entry.
    valid: Vec<u64>,
    /// Recyclable slots, popped in ascending order at first fill.
    free: Vec<u32>,
    /// Last page probed. Demand accesses arrive in page bursts, and each
    /// access probes the same table more than once (learn then issue), so
    /// this one-entry memo short-circuits most index probes. `u64::MAX`
    /// (never a valid key) means empty.
    memo_page: u64,
    /// Memoized result for `memo_page`; `u32::MAX` records a miss. Misses
    /// are safe to memoize because the only insertion path, [`Self::alloc`],
    /// refreshes the memo.
    memo_slot: u32,
    /// Last-touch stamp per slot; meaningful only where `valid` is set.
    /// Allocated only by [`Self::stamped`] (the FT and AT, which evict by
    /// recency); the PT evicts FIFO and leaves it empty.
    lasts: Vec<Cycle>,
    /// Lazy min-heap over `(last, page)` touch snapshots. Every live
    /// slot's *current* key is present (pushed by [`Self::set_last`]);
    /// stale snapshots — superseded stamps or released pages — are
    /// detected against `index`/`lasts` and skipped during
    /// [`Self::oldest`]. This replaces the old linear victim scan
    /// (formerly ~9% of the hot profile) with amortised O(log n) work.
    heap: BinaryHeap<Reverse<(Cycle, u64)>>,
}

impl SlotMap {
    fn new(slots: usize) -> Self {
        Self {
            index: FixedIndex::with_capacity(slots),
            pages: vec![0; slots],
            valid: vec![0; slots.div_ceil(64)],
            free: (0..slots as u32).rev().collect(),
            memo_page: u64::MAX,
            memo_slot: u32::MAX,
            lasts: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// A slot map that also keeps the last-touch stamps behind
    /// [`Self::set_last`] and [`Self::oldest`].
    fn stamped(slots: usize) -> Self {
        Self { lasts: vec![Cycle::ZERO; slots], ..Self::new(slots) }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    #[inline]
    fn get(&mut self, page: u64) -> Option<usize> {
        if page == self.memo_page {
            return (self.memo_slot != u32::MAX).then_some(self.memo_slot as usize);
        }
        let slot = self.index.get(page);
        self.memo_page = page;
        self.memo_slot = slot.unwrap_or(u32::MAX);
        slot.map(|s| s as usize)
    }

    /// Claims a free slot for `page`. The caller must have made room.
    fn alloc(&mut self, page: u64) -> usize {
        let slot = self.free.pop().expect("capacity eviction precedes allocation") as usize;
        self.index.insert(page, slot as u32);
        self.pages[slot] = page;
        self.valid[slot / 64] |= 1 << (slot % 64);
        self.memo_page = page;
        self.memo_slot = slot as u32;
        slot
    }

    /// Releases `page`'s slot, returning it for field cleanup.
    fn release(&mut self, page: u64) -> Option<usize> {
        let slot = self.index.remove(page)? as usize;
        self.valid[slot / 64] &= !(1 << (slot % 64));
        self.free.push(slot as u32);
        if self.memo_page == page {
            self.memo_slot = u32::MAX;
        }
        Some(slot)
    }

    /// Records `now` as `slot`'s last-touch stamp and logs the new
    /// `(last, page)` key into the lazy eviction heap. Tables that evict
    /// by recency must call this on every allocation and touch, or
    /// [`Self::oldest`] loses sight of the entry.
    #[inline]
    fn set_last(&mut self, slot: usize, now: Cycle) {
        self.lasts[slot] = now;
        self.heap.push(Reverse((now, self.pages[slot])));
        // Stale snapshots accumulate between evictions; a rebuild every
        // >= 3·slots pushes bounds the heap at 4·slots for amortised O(1)
        // extra work per touch.
        if self.heap.len() >= (self.pages.len() * 4).max(64) {
            self.rebuild_heap();
        }
    }

    /// `slot`'s last-touch stamp (only meaningful under the
    /// [`Self::set_last`] discipline).
    #[inline]
    fn last(&self, slot: usize) -> Cycle {
        self.lasts[slot]
    }

    /// Repopulates the heap with exactly the live slots' current keys.
    fn rebuild_heap(&mut self) {
        self.heap.clear();
        for (w, &word) in self.valid.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.heap.push(Reverse((self.lasts[slot], self.pages[slot])));
            }
        }
    }

    /// The slot minimising `(last, page)` over live slots — the eviction
    /// total order. Ties on the timestamp break on the page number, never
    /// on slot assignment (which depends on the hasher).
    ///
    /// Pops lazily: a heap snapshot is fresh exactly when its page still
    /// maps to a slot whose current stamp equals the snapshot — any
    /// snapshot passing that check *is* the slot's current key, so the
    /// first fresh pop is the true minimum.
    fn oldest(&mut self) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        loop {
            let Some(&Reverse((last, page))) = self.heap.peek() else {
                // Unreachable under the set_last discipline (every live
                // key is present), but rebuild rather than trusting it.
                self.rebuild_heap();
                continue;
            };
            match self.index.get(page) {
                Some(slot) if self.lasts[slot as usize] == last => return Some(slot as usize),
                _ => {
                    self.heap.pop();
                }
            }
        }
    }
}

/// The Filter Table: pre-screens pages before they earn an AT entry.
#[derive(Debug, Clone)]
pub(crate) struct FilterTable {
    slots: SlotMap,
    offsets: Vec<[u8; FT_PROMOTE_COUNT]>,
    counts: Vec<u8>,
    expiry: VecDeque<(u64, Cycle)>,
    capacity: usize,
    timeout: u64,
    pub(crate) accesses: u64,
}

impl FilterTable {
    pub(crate) fn new(capacity: usize, timeout: u64) -> Self {
        assert!(capacity > 0, "FT capacity must be positive");
        Self {
            slots: SlotMap::stamped(capacity),
            offsets: vec![[0; FT_PROMOTE_COUNT]; capacity],
            counts: vec![0; capacity],
            expiry: VecDeque::new(),
            capacity,
            timeout,
            accesses: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Records `offset` (0..16) for `page`; the outcome carries the
    /// three-offset bitmap when the entry reaches the promotion threshold
    /// (which also removes it from the table).
    ///
    /// # Panics
    ///
    /// Panics if `offset` does not fit the 16-block segment bitmap.
    pub(crate) fn record(&mut self, page: u64, offset: usize, now: Cycle) -> FtOutcome {
        let offset = checked_offset(offset);
        self.accesses += 1;
        self.sweep(now);
        match self.slots.get(page) {
            Some(slot) => {
                self.slots.set_last(slot, now);
                let count = self.counts[slot] as usize;
                let known = self.offsets[slot][..count].contains(&offset);
                if !known {
                    self.offsets[slot][count] = offset;
                    self.counts[slot] = count as u8 + 1;
                    if count + 1 == FT_PROMOTE_COUNT {
                        let bitmap =
                            self.offsets[slot].iter().map(|&o| o as usize).collect::<Bitmap16>();
                        self.slots.release(page);
                        return FtOutcome::Promoted(bitmap);
                    }
                }
                FtOutcome::Recorded
            }
            None => {
                if self.slots.len() >= self.capacity {
                    self.evict_oldest();
                }
                let slot = self.slots.alloc(page);
                self.offsets[slot][0] = offset;
                self.counts[slot] = 1;
                self.slots.set_last(slot, now);
                self.expiry.push_back((page, now));
                FtOutcome::Allocated
            }
        }
    }

    /// Offsets recorded so far for `page`, as a bitmap (blocks already
    /// accessed in the current visit while the page is still filtering).
    pub(crate) fn observed(&mut self, page: u64) -> Option<Bitmap16> {
        let slot = self.slots.get(page)?;
        Some(self.offsets[slot][..self.counts[slot] as usize].iter().map(|&o| o as usize).collect())
    }

    fn evict_oldest(&mut self) {
        // Total order (last, page): equal timestamps would otherwise be
        // broken by slot assignment, i.e. by the hasher.
        if let Some(slot) = self.slots.oldest() {
            self.slots.release(self.slots.pages[slot]);
        }
    }

    /// Drops entries idle past the timeout (their snapshots never grew
    /// beyond a couple of blocks — exactly what the FT exists to filter).
    pub(crate) fn sweep(&mut self, now: Cycle) {
        while let Some(&(page, stamped)) = self.expiry.front() {
            if now.since(stamped) < self.timeout {
                break;
            }
            self.expiry.pop_front();
            if let Some(slot) = self.slots.get(page) {
                let last = self.slots.last(slot);
                if now.since(last) >= self.timeout {
                    self.slots.release(page);
                } else {
                    self.expiry.push_back((page, last));
                }
            }
        }
    }
}

/// The Accumulation Table: builds the footprint bitmap of in-flight pages.
#[derive(Debug, Clone)]
pub(crate) struct AccumulationTable {
    slots: SlotMap,
    bitmaps: Vec<Bitmap16>,
    expiry: VecDeque<(u64, Cycle)>,
    capacity: usize,
    timeout: u64,
    pub(crate) accesses: u64,
}

impl AccumulationTable {
    pub(crate) fn new(capacity: usize, timeout: u64) -> Self {
        assert!(capacity > 0, "AT capacity must be positive");
        Self {
            slots: SlotMap::stamped(capacity),
            bitmaps: vec![Bitmap16::EMPTY; capacity],
            expiry: VecDeque::new(),
            capacity,
            timeout,
            accesses: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Sets `offset`'s bit for an existing entry. Returns `true` on hit.
    #[inline]
    pub(crate) fn record(&mut self, page: u64, offset: usize, now: Cycle) -> bool {
        self.accesses += 1;
        match self.slots.get(page) {
            Some(slot) => {
                self.bitmaps[slot].set(offset);
                self.slots.set_last(slot, now);
                true
            }
            None => false,
        }
    }

    /// Bits accumulated so far for `page` (blocks already accessed in the
    /// current visit).
    pub(crate) fn observed(&mut self, page: u64) -> Option<Bitmap16> {
        let slot = self.slots.get(page)?;
        Some(self.bitmaps[slot])
    }

    /// Inserts a freshly promoted page. A capacity eviction transfers the
    /// victim's partial snapshot out (returned for the PT), since dropping
    /// it would lose a complete-but-crowded pattern.
    pub(crate) fn insert(
        &mut self,
        page: u64,
        bitmap: Bitmap16,
        now: Cycle,
    ) -> Option<(u64, Bitmap16)> {
        let mut spilled = None;
        if self.slots.len() >= self.capacity {
            // Total order (last, page): equal timestamps would otherwise
            // be broken by slot assignment, i.e. by the hasher.
            if let Some(slot) = self.slots.oldest() {
                let victim = self.slots.pages[slot];
                self.slots.release(victim);
                spilled = Some((victim, self.bitmaps[slot]));
            }
        }
        let slot = self.slots.alloc(page);
        self.bitmaps[slot] = bitmap;
        self.slots.set_last(slot, now);
        self.expiry.push_back((page, now));
        spilled
    }

    /// Pops every entry idle past the timeout: each is a detected complete,
    /// stable snapshot headed for the PT (paper step 4).
    pub(crate) fn sweep(&mut self, now: Cycle, out: &mut Vec<(u64, Bitmap16)>) {
        while let Some(&(page, stamped)) = self.expiry.front() {
            if now.since(stamped) < self.timeout {
                break;
            }
            self.expiry.pop_front();
            if let Some(slot) = self.slots.get(page) {
                let last = self.slots.last(slot);
                if now.since(last) >= self.timeout {
                    out.push((page, self.bitmaps[slot]));
                    self.slots.release(page);
                } else {
                    self.expiry.push_back((page, last));
                }
            }
        }
    }
}

/// The Pattern History Table: page number → learned snapshot bitmap.
#[derive(Debug, Clone)]
pub(crate) struct PatternTable {
    slots: SlotMap,
    bitmaps: Vec<Bitmap16>,
    fifo: VecDeque<u64>,
    capacity: usize,
    merge: PatternMerge,
    pub(crate) accesses: u64,
}

impl PatternTable {
    #[cfg(test)]
    pub(crate) fn new(capacity: usize) -> Self {
        Self::with_merge(capacity, PatternMerge::default())
    }

    pub(crate) fn with_merge(capacity: usize, merge: PatternMerge) -> Self {
        assert!(capacity > 0, "PT capacity must be positive");
        // One spare slot: insertion precedes the FIFO eviction sweep, so
        // the table transiently holds `capacity + 1` live entries.
        Self {
            slots: SlotMap::new(capacity + 1),
            bitmaps: vec![Bitmap16::EMPTY; capacity + 1],
            fifo: VecDeque::with_capacity(capacity),
            capacity,
            merge,
            accesses: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Stores (or merges, per the configured [`PatternMerge`]) the learned
    /// snapshot of `page`.
    pub(crate) fn insert(&mut self, page: u64, bitmap: Bitmap16) {
        self.accesses += 1;
        if bitmap.is_empty() {
            return;
        }
        if let Some(slot) = self.slots.get(page) {
            self.bitmaps[slot] = match self.merge {
                PatternMerge::Union => self.bitmaps[slot].or(bitmap),
                PatternMerge::Intersect => {
                    let both = self.bitmaps[slot].and(bitmap);
                    if both.is_empty() {
                        // An unstable pattern carries no signal: drop the
                        // entry (the fifo slot goes stale and is skipped
                        // at eviction).
                        self.slots.release(page);
                        return;
                    }
                    both
                }
                PatternMerge::Replace => bitmap,
            };
            return;
        }
        let slot = self.slots.alloc(page);
        self.bitmaps[slot] = bitmap;
        self.fifo.push_back(page);
        while self.slots.len() > self.capacity {
            if let Some(victim) = self.fifo.pop_front() {
                self.slots.release(victim);
            } else {
                break;
            }
        }
    }

    /// The learned snapshot for `page`, if any.
    #[inline]
    pub(crate) fn lookup(&mut self, page: u64) -> Option<Bitmap16> {
        self.accesses += 1;
        self.slots.get(page).map(|slot| self.bitmaps[slot])
    }

    /// Probe without counting a table access (coordinator's selection rule).
    #[inline]
    pub(crate) fn contains(&mut self, page: u64) -> bool {
        self.slots.get(page).is_some()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The pre-heap victim selection, verbatim: a full scan of the valid
    /// mask minimising `(last, page)`. Kept as the reference the lazy
    /// heap is proven against.
    fn oldest_linear(sm: &SlotMap) -> Option<usize> {
        let mut best: Option<(Cycle, u64, usize)> = None;
        for (w, &word) in sm.valid.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let key = (sm.lasts[slot], sm.pages[slot]);
                if best.is_none_or(|(l, p, _)| key < (l, p)) {
                    best = Some((key.0, key.1, slot));
                }
            }
        }
        best.map(|(_, _, slot)| slot)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The SoA slot engine (open-addressed index + dense arrays +
        /// validity mask + memo) against the obvious reference: an ordered
        /// map from page to last-touch cycle. Membership, occupancy, and —
        /// crucially — the `(last, page)` eviction total order must agree
        /// after every operation, whatever the touch/release interleaving.
        #[test]
        fn slotmap_matches_naive_map_model(
            ops in proptest::collection::vec((0u64..24, any::<bool>()), 1..400),
        ) {
            const CAP: usize = 8;
            let mut sm = SlotMap::stamped(CAP);
            let mut model: std::collections::BTreeMap<u64, Cycle> = Default::default();
            for (i, &(page, release)) in ops.iter().enumerate() {
                let now = Cycle::new(i as u64 + 1);
                if release {
                    let dropped = sm.release(page).is_some();
                    prop_assert_eq!(dropped, model.remove(&page).is_some());
                } else if let Some(slot) = sm.get(page) {
                    prop_assert!(model.contains_key(&page), "phantom hit for page {}", page);
                    sm.set_last(slot, now);
                    model.insert(page, now);
                } else {
                    prop_assert!(!model.contains_key(&page), "lost page {}", page);
                    if sm.len() >= CAP {
                        let victim = sm.oldest().expect("full table has a victim");
                        let victim_page = sm.pages[victim];
                        let model_victim = model
                            .iter()
                            .map(|(&p, &l)| (l, p))
                            .min()
                            .map(|(_, p)| p)
                            .expect("model is full too");
                        prop_assert_eq!(victim_page, model_victim, "eviction order diverged");
                        sm.release(victim_page);
                        model.remove(&victim_page);
                    }
                    let slot = sm.alloc(page);
                    sm.set_last(slot, now);
                    model.insert(page, now);
                }
                prop_assert_eq!(sm.len(), model.len());
            }
            // Final sweep: every surviving page resolves to a live slot
            // holding it, and nothing else does.
            for &page in model.keys() {
                let slot = sm.get(page).expect("model page must be present");
                prop_assert_eq!(sm.pages[slot], page);
            }
        }

        /// The lazy-heap victim selection against the retired linear scan
        /// it replaced: after every operation — touches, releases,
        /// capacity evictions, deliberately colliding stamps — both must
        /// name the same `(last, page)`-minimal slot. This is the proof
        /// that swapping the scan for the heap changed no output anywhere.
        #[test]
        fn heap_victim_matches_linear_scan(
            ops in proptest::collection::vec((0u64..32, any::<bool>()), 1..500),
        ) {
            const CAP: usize = 8;
            let mut sm = SlotMap::stamped(CAP);
            for (i, &(page, release)) in ops.iter().enumerate() {
                // Divided stamps collide on purpose: the page tiebreak is
                // where a subtly wrong heap order would surface.
                let now = Cycle::new((i as u64 + 1) / 3);
                if release {
                    sm.release(page);
                } else if let Some(slot) = sm.get(page) {
                    sm.set_last(slot, now);
                } else {
                    if sm.len() >= CAP {
                        let victim = sm.oldest().expect("full table has a victim");
                        prop_assert_eq!(Some(victim), oldest_linear(&sm), "eviction victim");
                        sm.release(sm.pages[victim]);
                    }
                    let slot = sm.alloc(page);
                    sm.set_last(slot, now);
                }
                let heap_pick = sm.oldest();
                prop_assert_eq!(heap_pick, oldest_linear(&sm), "victim choice diverged");
            }
        }

        /// The Filter Table end to end: occupancy never exceeds capacity,
        /// and a page's observed bitmap always equals the distinct offsets
        /// recorded since its current allocation.
        #[test]
        fn ft_observed_matches_recorded_offsets(
            ops in proptest::collection::vec((0u64..12, 0usize..SEGMENT_BLOCKS), 1..300),
        ) {
            const CAP: usize = 4;
            let mut ft = FilterTable::new(CAP, u64::MAX);
            let mut recorded: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
            for (i, &(page, offset)) in ops.iter().enumerate() {
                let now = Cycle::new(i as u64 + 1);
                match ft.record(page, offset, now) {
                    FtOutcome::Allocated => {
                        // A fresh allocation may have evicted some other
                        // filtering page; resync membership from the table.
                        recorded.retain(|&p, _| p == page || ft.observed(p).is_some());
                        recorded.insert(page, vec![offset]);
                    }
                    FtOutcome::Recorded => {
                        let offs = recorded.get_mut(&page).expect("recorded page is tracked");
                        if !offs.contains(&offset) {
                            offs.push(offset);
                        }
                    }
                    FtOutcome::Promoted(bm) => {
                        let mut offs = recorded.remove(&page).expect("promoted page was tracked");
                        offs.push(offset);
                        offs.sort_unstable();
                        prop_assert_eq!(bm.iter_set().collect::<Vec<_>>(), offs);
                    }
                }
                prop_assert!(ft.len() <= CAP, "FT overflowed its capacity");
                for (&p, offs) in &recorded {
                    let bm = ft.observed(p).expect("tracked page must be observable");
                    let mut want = offs.clone();
                    want.sort_unstable();
                    prop_assert_eq!(bm.iter_set().collect::<Vec<_>>(), want);
                }
            }
        }
    }

    #[test]
    fn ft_promotes_after_three_distinct_offsets() {
        let mut ft = FilterTable::new(8, 1000);
        assert_eq!(ft.record(1, 3, Cycle::new(0)), FtOutcome::Allocated);
        assert_eq!(ft.record(1, 3, Cycle::new(1)), FtOutcome::Recorded, "duplicate offset");
        assert_eq!(ft.record(1, 5, Cycle::new(2)), FtOutcome::Recorded);
        let bm = ft.record(1, 9, Cycle::new(3)).promoted().expect("promotion");
        assert_eq!(bm.iter_set().collect::<Vec<_>>(), vec![3, 5, 9]);
        assert_eq!(ft.len(), 0, "promoted entry leaves the FT");
    }

    #[test]
    fn ft_times_out_sparse_pages() {
        let mut ft = FilterTable::new(8, 100);
        ft.record(1, 0, Cycle::new(0));
        ft.record(2, 0, Cycle::new(50));
        ft.sweep(Cycle::new(120));
        assert_eq!(ft.len(), 1, "page 1 expired, page 2 alive");
        ft.sweep(Cycle::new(200));
        assert_eq!(ft.len(), 0);
    }

    #[test]
    fn ft_eviction_on_capacity() {
        let mut ft = FilterTable::new(2, 1_000_000);
        ft.record(1, 0, Cycle::new(0));
        ft.record(2, 0, Cycle::new(1));
        ft.record(3, 0, Cycle::new(2)); // evicts page 1 (oldest)
        assert_eq!(ft.len(), 2);
        // Page 1 restarts from scratch: its pre-eviction offset is gone,
        // so promotion needs three fresh distinct offsets.
        assert_eq!(ft.record(1, 1, Cycle::new(3)), FtOutcome::Allocated);
        assert_eq!(ft.record(1, 2, Cycle::new(4)), FtOutcome::Recorded);
        let bm = ft.record(1, 3, Cycle::new(5)).promoted().expect("third distinct offset promotes");
        assert_eq!(bm.iter_set().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn ft_accepts_boundary_offset_and_rejects_out_of_range() {
        let mut ft = FilterTable::new(8, 1000);
        // Offset 15 is the last block of a segment: must round-trip intact
        // through the narrow stored form and into the promotion bitmap.
        ft.record(1, 15, Cycle::new(0));
        ft.record(1, 0, Cycle::new(1));
        let bm = ft.record(1, 7, Cycle::new(2)).promoted().expect("promotion");
        assert_eq!(bm.iter_set().collect::<Vec<_>>(), vec![0, 7, 15]);
    }

    #[test]
    #[should_panic(expected = "exceeds the 16-block segment bitmap")]
    fn ft_rejects_offset_past_segment_width() {
        // 16 is the first out-of-range offset; the old `offset as u8` cast
        // accepted it (and anything up to 255) silently, deferring the
        // failure to an unrelated bitmap panic at promotion time — or, past
        // 255, truncating to a wrong offset with no failure at all.
        let mut ft = FilterTable::new(8, 1000);
        ft.record(1, 16, Cycle::new(0));
    }

    #[test]
    #[should_panic(expected = "exceeds the 16-block segment bitmap")]
    fn ft_rejects_offset_that_would_silently_truncate() {
        // 256 truncated to 0 under the old bare cast: the worst case the
        // checked conversion exists for.
        let mut ft = FilterTable::new(8, 1000);
        ft.record(1, 256, Cycle::new(0));
    }

    #[test]
    fn at_accumulates_and_times_out_to_pattern() {
        let mut at = AccumulationTable::new(8, 100);
        at.insert(7, Bitmap16::from_bits(0b111), Cycle::new(0));
        assert!(at.record(7, 5, Cycle::new(10)));
        assert!(!at.record(8, 0, Cycle::new(11)), "page 8 not resident");
        let mut out = Vec::new();
        at.sweep(Cycle::new(50), &mut out);
        assert!(out.is_empty(), "not yet expired");
        at.sweep(Cycle::new(200), &mut out);
        assert_eq!(out, vec![(7, Bitmap16::from_bits(0b10_0111))]);
        assert_eq!(at.len(), 0);
    }

    #[test]
    fn at_expiry_follows_latest_touch() {
        let mut at = AccumulationTable::new(8, 100);
        at.insert(7, Bitmap16::from_bits(0b1), Cycle::new(0));
        at.record(7, 1, Cycle::new(90)); // refreshed
        let mut out = Vec::new();
        at.sweep(Cycle::new(120), &mut out);
        assert!(out.is_empty(), "entry refreshed at 90, timeout at 190");
        at.sweep(Cycle::new(191), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn only_recency_tables_keep_stamps() {
        // The PT evicts FIFO, so its slot map holds no last-touch stamps.
        assert_eq!(PatternTable::new(64).slots.lasts.capacity(), 0);
        assert_eq!(FilterTable::new(64, 10).slots.lasts.len(), 64);
        assert_eq!(AccumulationTable::new(64, 10).slots.lasts.len(), 64);
    }

    #[test]
    fn at_victim_ties_break_on_page_number() {
        // Two entries with identical `last` stamps: the victim must be the
        // lower page number regardless of insertion order or hasher —
        // before the (last, page) total order, iteration order decided.
        for &(first, second) in &[(10u64, 20u64), (20u64, 10u64)] {
            let mut at = AccumulationTable::new(2, 1000);
            at.insert(first, Bitmap16::from_bits(0b1), Cycle::new(5));
            at.insert(second, Bitmap16::from_bits(0b10), Cycle::new(5));
            let spilled = at.insert(30, Bitmap16::from_bits(0b100), Cycle::new(6));
            assert_eq!(spilled.map(|(page, _)| page), Some(10), "insert order {first},{second}");
        }
    }

    #[test]
    fn ft_victim_ties_break_on_page_number() {
        for &(first, second) in &[(10u64, 20u64), (20u64, 10u64)] {
            let mut ft = FilterTable::new(2, 1_000_000);
            ft.record(first, 0, Cycle::new(5));
            ft.record(second, 0, Cycle::new(5));
            ft.record(30, 0, Cycle::new(6)); // evicts the tied oldest
            assert!(ft.observed(10).is_none(), "page 10 must be the victim");
            assert!(ft.observed(20).is_some());
        }
    }

    #[test]
    fn at_capacity_spills_victim() {
        let mut at = AccumulationTable::new(2, 1000);
        assert!(at.insert(1, Bitmap16::from_bits(0b1), Cycle::new(0)).is_none());
        assert!(at.insert(2, Bitmap16::from_bits(0b10), Cycle::new(1)).is_none());
        let spilled = at.insert(3, Bitmap16::from_bits(0b100), Cycle::new(2));
        assert_eq!(spilled, Some((1, Bitmap16::from_bits(0b1))));
        assert_eq!(at.len(), 2);
    }

    #[test]
    fn pt_fifo_eviction() {
        let mut pt = PatternTable::new(2);
        pt.insert(1, Bitmap16::from_bits(0b1));
        pt.insert(2, Bitmap16::from_bits(0b10));
        pt.insert(3, Bitmap16::from_bits(0b100));
        assert_eq!(pt.len(), 2);
        assert!(pt.lookup(1).is_none(), "oldest evicted");
        assert!(pt.lookup(3).is_some());
    }

    #[test]
    fn pt_update_refreshes_pattern_not_position() {
        let mut pt = PatternTable::new(2);
        pt.insert(1, Bitmap16::from_bits(0b1));
        pt.insert(2, Bitmap16::from_bits(0b10));
        pt.insert(1, Bitmap16::from_bits(0b11)); // update in place
        pt.insert(3, Bitmap16::from_bits(0b100)); // evicts 1 (still oldest)
        assert!(pt.lookup(1).is_none());
        assert_eq!(pt.lookup(2), Some(Bitmap16::from_bits(0b10)));
    }

    #[test]
    fn pt_ignores_empty_bitmaps() {
        let mut pt = PatternTable::new(2);
        pt.insert(1, Bitmap16::EMPTY);
        assert_eq!(pt.len(), 0);
    }

    #[test]
    fn pt_union_accumulates_coverage() {
        let mut pt = PatternTable::with_merge(4, PatternMerge::Union);
        pt.insert(1, Bitmap16::from_bits(0b0011));
        pt.insert(1, Bitmap16::from_bits(0b0110));
        assert_eq!(pt.lookup(1), Some(Bitmap16::from_bits(0b0111)));
    }

    #[test]
    fn pt_intersect_keeps_stable_core() {
        let mut pt = PatternTable::with_merge(4, PatternMerge::Intersect);
        pt.insert(1, Bitmap16::from_bits(0b0111));
        pt.insert(1, Bitmap16::from_bits(0b0110));
        assert_eq!(pt.lookup(1), Some(Bitmap16::from_bits(0b0110)));
        // Disjoint snapshots: the pattern is unstable and gets dropped.
        pt.insert(1, Bitmap16::from_bits(0b1000));
        assert_eq!(pt.lookup(1), None);
    }

    #[test]
    fn pt_stale_fifo_entries_are_skipped_at_eviction() {
        // Intersect can drop an entry, leaving its FIFO slot stale. The
        // eviction sweep must skip stale victims (they free no live entry)
        // and keep popping until a live one goes.
        let mut pt = PatternTable::with_merge(2, PatternMerge::Intersect);
        pt.insert(1, Bitmap16::from_bits(0b01));
        pt.insert(1, Bitmap16::from_bits(0b10)); // disjoint: entry dropped
        assert_eq!(pt.len(), 0);
        pt.insert(2, Bitmap16::from_bits(0b1));
        pt.insert(3, Bitmap16::from_bits(0b1));
        pt.insert(4, Bitmap16::from_bits(0b1)); // over capacity
        assert_eq!(pt.len(), 2);
        assert!(pt.lookup(2).is_none(), "page 2 was the live FIFO head");
        assert!(pt.lookup(3).is_some());
        assert!(pt.lookup(4).is_some());
    }

    #[test]
    fn merge_mode_display() {
        assert_eq!(PatternMerge::Replace.to_string(), "replace");
        assert_eq!(PatternMerge::Union.to_string(), "union");
        assert_eq!(PatternMerge::Intersect.to_string(), "intersect");
    }
}
