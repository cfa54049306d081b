//! The bounded prefetch queue.
//!
//! Generated prefetch requests are staged here before the memory controller
//! accepts them (Figure 1's "prefetch queue"). The queue deduplicates
//! against its own contents and drops on overflow — both effects matter for
//! the power experiment: a prefetcher that floods the queue wastes energy.

use std::collections::VecDeque;

use planaria_common::PrefetchRequest;
use planaria_hash::FastHashSet;

/// A bounded FIFO of pending prefetch requests with block-level dedup.
#[derive(Debug, Clone)]
pub struct PrefetchQueue {
    queue: VecDeque<PrefetchRequest>,
    pending_blocks: FastHashSet<u64>,
    capacity: usize,
    /// Requests dropped because the queue was full.
    pub dropped_full: u64,
    /// Requests dropped as duplicates of queued blocks.
    pub dropped_duplicate: u64,
    /// Requests accepted.
    pub enqueued: u64,
}

impl PrefetchQueue {
    /// Creates a queue bounded (not pre-sized) at `capacity` requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "prefetch queue capacity must be positive");
        Self {
            queue: VecDeque::new(),
            pending_blocks: FastHashSet::default(),
            capacity,
            dropped_full: 0,
            dropped_duplicate: 0,
            enqueued: 0,
        }
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Attempts to enqueue; returns `true` if the request was accepted.
    pub fn push(&mut self, req: PrefetchRequest) -> bool {
        let block = req.addr.block_number();
        if self.pending_blocks.contains(&block) {
            self.dropped_duplicate += 1;
            return false;
        }
        if self.queue.len() >= self.capacity {
            self.dropped_full += 1;
            return false;
        }
        self.pending_blocks.insert(block);
        self.queue.push_back(req);
        self.enqueued += 1;
        true
    }

    /// Dequeues the oldest request.
    pub fn pop(&mut self) -> Option<PrefetchRequest> {
        let req = self.queue.pop_front()?;
        self.pending_blocks.remove(&req.addr.block_number());
        Some(req)
    }

    /// Re-stages a request at the *front* of the queue (head-of-line
    /// position), subject to the same dedup and capacity rules as
    /// [`PrefetchQueue::push`]. Used when a popped request cannot issue
    /// yet (its DRAM channel is full) and must keep its place.
    ///
    /// Unlike `push`, an accepted re-stage does not count into `enqueued`:
    /// the request was already counted when it first entered the queue.
    pub fn push_front(&mut self, req: PrefetchRequest) -> bool {
        let block = req.addr.block_number();
        if self.pending_blocks.contains(&block) {
            self.dropped_duplicate += 1;
            return false;
        }
        if self.queue.len() >= self.capacity {
            self.dropped_full += 1;
            return false;
        }
        self.pending_blocks.insert(block);
        self.queue.push_front(req);
        true
    }

    /// The oldest queued request, without dequeuing it.
    pub fn peek(&self) -> Option<&PrefetchRequest> {
        self.queue.front()
    }

    /// Returns `true` when a request for the block is queued.
    pub fn contains_block(&self, addr: planaria_common::PhysAddr) -> bool {
        self.pending_blocks.contains(&addr.block_number())
    }

    /// Removes a queued request for the given block (e.g. because a demand
    /// miss is already fetching it). Returns `true` if one was removed.
    pub fn cancel(&mut self, addr: planaria_common::PhysAddr) -> bool {
        let block = addr.block_number();
        if !self.pending_blocks.remove(&block) {
            return false;
        }
        self.queue.retain(|r| r.addr.block_number() != block);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_common::{Cycle, PhysAddr, PrefetchOrigin};

    fn req(addr: u64) -> PrefetchRequest {
        PrefetchRequest::new(PhysAddr::new(addr), PrefetchOrigin::Slp, Cycle::new(0))
    }

    #[test]
    fn fifo_order() {
        let mut q = PrefetchQueue::new(4);
        assert!(q.push(req(0x40)));
        assert!(q.push(req(0x80)));
        assert_eq!(q.pop().map(|r| r.addr.as_u64()), Some(0x40));
        assert_eq!(q.pop().map(|r| r.addr.as_u64()), Some(0x80));
        assert!(q.pop().is_none());
    }

    #[test]
    fn fresh_queue_reserves_nothing() {
        let q = PrefetchQueue::new(64);
        assert_eq!((q.queue.capacity(), q.pending_blocks.capacity()), (0, 0));
    }

    #[test]
    fn duplicates_dropped() {
        let mut q = PrefetchQueue::new(4);
        assert!(q.push(req(0x40)));
        assert!(!q.push(req(0x40)));
        assert!(!q.push(req(0x44))); // same block
        assert_eq!(q.dropped_duplicate, 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn overflow_drops() {
        let mut q = PrefetchQueue::new(2);
        assert!(q.push(req(0x40)));
        assert!(q.push(req(0x80)));
        assert!(!q.push(req(0xc0)));
        assert_eq!(q.dropped_full, 1);
    }

    #[test]
    fn dedup_resets_after_pop() {
        let mut q = PrefetchQueue::new(2);
        q.push(req(0x40));
        q.pop();
        assert!(q.push(req(0x40)), "block no longer pending");
    }

    #[test]
    fn push_front_takes_head_position() {
        let mut q = PrefetchQueue::new(4);
        q.push(req(0x40));
        q.push(req(0x80));
        let head = q.pop().unwrap();
        assert!(q.push_front(head));
        assert_eq!(q.pop().map(|r| r.addr.as_u64()), Some(0x40), "re-staged head first");
        assert_eq!(q.pop().map(|r| r.addr.as_u64()), Some(0x80));
    }

    #[test]
    fn push_front_respects_dedup_and_capacity() {
        let mut q = PrefetchQueue::new(2);
        q.push(req(0x40));
        q.push(req(0x80));
        assert!(!q.push_front(req(0x40)), "duplicate block rejected");
        assert!(!q.push_front(req(0xc0)), "full queue rejected");
        assert_eq!(q.dropped_duplicate, 1);
        assert_eq!(q.dropped_full, 1);
        // Re-stage does not inflate the accepted-request counter.
        let before = q.enqueued;
        let head = q.pop().unwrap();
        assert!(q.push_front(head));
        assert_eq!(q.enqueued, before);
    }

    #[test]
    fn cancel_removes_pending() {
        let mut q = PrefetchQueue::new(4);
        q.push(req(0x40));
        q.push(req(0x80));
        assert!(q.cancel(PhysAddr::new(0x44)));
        assert!(!q.contains_block(PhysAddr::new(0x40)));
        assert_eq!(q.len(), 1);
        assert!(!q.cancel(PhysAddr::new(0x40)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = PrefetchQueue::new(0);
    }
}
