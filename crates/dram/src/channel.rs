//! One channel's controller: queue, scheduler, banks, refresh.

use std::collections::VecDeque;

use planaria_common::{Cycle, PhysAddr};

use crate::bank::Bank;
use crate::config::{DramConfig, PagePolicy, SchedulerKind};
use crate::power::DramStats;
use crate::request::{Command, CommandKind, Completion, Priority, RequestId};

#[derive(Debug, Clone, Copy)]
struct Pending {
    id: RequestId,
    addr: PhysAddr,
    bank: usize,
    row: u64,
    is_write: bool,
    priority: Priority,
    enqueued: Cycle,
    seq: u64,
}

/// Command-kind index used by the scheduler scan (also indexes its gate
/// table): 0 = Read, 1 = Write, 2 = Precharge, 3 = Activate.
const SCAN_KINDS: [CommandKind; 4] =
    [CommandKind::Read, CommandKind::Write, CommandKind::Precharge, CommandKind::Activate];

/// Hot scheduler-scan state for one queue entry, kept in a dense array
/// parallel to the request queue (24 bytes vs the 64-byte [`Pending`], so
/// the per-issue rescan streams 2-3 entries per host cache line).
///
/// `local` and `kind` memoise the bank-local half of the FR-FCFS decision
/// — `bank_ready.max(enqueued)` and the command the request needs next —
/// valid while `version` matches the bank's mutation counter. `static_lo`
/// packs the kind-dependent column preference with the request's static
/// tie-breaks, so the scan's whole ordering key is one `u128` compare.
#[derive(Debug, Clone, Copy)]
struct ScanEntry {
    /// Bank-local ready cycle, already `max`ed with the enqueue cycle.
    local: Cycle,
    /// `col_rank << 62 | priority << 60 | seq` (bit 63 clear, seq < 2^60).
    static_lo: u64,
    /// Bank version this entry's memo was computed against.
    version: u32,
    /// Bank index (banks per channel always fit in a byte).
    bank: u8,
    /// Index into [`SCAN_KINDS`] / the scan's gate table.
    kind: u8,
}

impl ScanEntry {
    /// Derives the memoised half of the scheduling decision from current
    /// bank state — exactly the bank-dependent part of
    /// [`Channel::next_command`].
    fn compute(p: &Pending, bank: &Bank, version: u32) -> Self {
        let (kind, local) = match bank.open_row {
            Some(r) if r == p.row => (p.is_write as u8, bank.next_col),
            Some(_) => (2, bank.next_pre),
            None => (3, bank.next_act),
        };
        debug_assert!(p.seq < 1 << 60, "seq outgrew its 60-bit key field");
        let col_rank = (kind >= 2) as u64;
        Self {
            local: local.max(p.enqueued),
            static_lo: col_rank << 62 | (p.priority as u64) << 60 | p.seq,
            version,
            bank: p.bank as u8,
            kind,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    queue_idx: usize,
    issue: Cycle,
    kind: CommandKind,
}

/// Per-channel memory controller with FR-FCFS scheduling.
#[derive(Debug, Clone)]
pub(crate) struct Channel {
    cfg: DramConfig,
    banks: Vec<Bank>,
    /// Per-bank mutation counters backing the [`ScanEntry`] memo: bumped
    /// whenever a bank's timing state changes (command issue,
    /// auto-precharge, refresh), so queue entries recompute their
    /// bank-local readiness only when *their* bank actually moved. `u32`
    /// wrap-around is harmless: an entry is re-observed on every scan and
    /// every bump forces a scan before the next command, so the delta
    /// between observations is always a handful, never 2^32.
    bank_versions: Vec<u32>,
    /// Pending requests; starts empty and grows (mean occupancy is about
    /// one). The `queue_depth` bound lives in [`Channel::has_room`].
    queue: Vec<Pending>,
    /// Hot scan state, index-parallel to `queue` (same push/swap-remove).
    scan: Vec<ScanEntry>,
    /// Command-bus gate: one command per `t_cmd`.
    next_cmd: Cycle,
    /// Earliest next column read (bus occupancy + write-to-read turnaround).
    next_rd: Cycle,
    /// Earliest next column write.
    next_wr: Cycle,
    /// Issue cycles of recent ACTs (bounded by 4 for the tFAW window).
    act_history: VecDeque<Cycle>,
    next_ref: Cycle,
    /// Issue time of the most recent command (power-down bookkeeping).
    last_activity: Cycle,
    seq: u64,
    /// Memoised scheduler decision. The queue and the timing state it
    /// depends on change only in `enqueue`, `issue` and `do_refresh`, each
    /// of which resets this to `None` (stale); `Some(best)` is served
    /// without rescanning the queue — the common case, since `advance_to`
    /// re-asks on every simulated demand access. `Some(None)` memoises an
    /// empty queue.
    cached_candidate: Option<Option<Candidate>>,
    pub(crate) stats: DramStats,
    pub(crate) log: Vec<Command>,
}

impl Channel {
    pub(crate) fn new(cfg: DramConfig) -> Self {
        Self {
            banks: (0..cfg.map.banks).map(|_| Bank::new()).collect(),
            bank_versions: vec![0; cfg.map.banks],
            queue: Vec::new(),
            scan: Vec::new(),
            next_cmd: Cycle::ZERO,
            next_rd: Cycle::ZERO,
            next_wr: Cycle::ZERO,
            act_history: VecDeque::with_capacity(4),
            next_ref: Cycle::new(cfg.timing.t_refi),
            last_activity: Cycle::ZERO,
            seq: 0,
            cached_candidate: Some(None),
            stats: DramStats::default(),
            log: Vec::new(),
            cfg,
        }
    }

    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn has_room(&self) -> bool {
        self.queue.len() < self.cfg.queue_depth
    }

    pub(crate) fn enqueue(
        &mut self,
        id: RequestId,
        addr: PhysAddr,
        is_write: bool,
        priority: Priority,
        now: Cycle,
    ) {
        debug_assert!(self.has_room(), "enqueue on full channel queue");
        // CKE power-down: a rank idle past t_cke dropped its clock enable;
        // this arrival wakes it, paying t_xp before the next command.
        if self.cfg.powerdown && self.queue.is_empty() {
            let idle = now.since(self.last_activity);
            if idle > self.cfg.timing.t_cke {
                self.stats.powerdown_cycles += idle - self.cfg.timing.t_cke;
                self.stats.n_wakeups += 1;
                self.next_cmd = self.next_cmd.max(now + self.cfg.timing.t_xp);
            }
        }
        let (bank, row) = self.cfg.map.locate(addr);
        self.cached_candidate = None;
        let p = Pending { id, addr, bank, row, is_write, priority, enqueued: now, seq: self.seq };
        self.scan.push(ScanEntry::compute(&p, &self.banks[bank], self.bank_versions[bank]));
        self.queue.push(p);
        self.seq += 1;
    }

    /// Earliest cycle the next command of `p` could issue, and its kind.
    fn next_command(&self, p: &Pending) -> (CommandKind, Cycle) {
        let t = &self.cfg.timing;
        let b = &self.banks[p.bank];
        let (kind, ready) = match b.open_row {
            Some(r) if r == p.row => {
                let bus = if p.is_write { self.next_wr } else { self.next_rd };
                let kind = if p.is_write { CommandKind::Write } else { CommandKind::Read };
                (kind, b.next_col.max(bus))
            }
            Some(_) => (CommandKind::Precharge, b.next_pre),
            None => {
                let mut ready = b.next_act;
                if let Some(&last) = self.act_history.back() {
                    ready = ready.max(last + t.t_rrd);
                }
                if self.act_history.len() >= 4 {
                    ready = ready.max(self.act_history[self.act_history.len() - 4] + t.t_faw);
                }
                (CommandKind::Activate, ready)
            }
        };
        (kind, ready.max(p.enqueued).max(self.next_cmd))
    }

    /// Scheduler front-end with incremental rescanning: the full queue
    /// scan of [`Channel::compute_best_candidate`] runs only when the
    /// decision inputs changed since the last call (enqueue, issue or
    /// refresh); otherwise the memoised winner is returned directly.
    fn best_candidate(&mut self) -> Option<Candidate> {
        if let Some(cached) = self.cached_candidate {
            debug_assert_eq!(
                cached.map(|c| (c.queue_idx, c.issue, c.kind)),
                self.compute_best_candidate_uncached().map(|c| (c.queue_idx, c.issue, c.kind)),
                "stale scheduler cache: a mutation path forgot to invalidate"
            );
            return cached;
        }
        let best = self.compute_best_candidate();
        debug_assert_eq!(
            best.map(|c| (c.queue_idx, c.issue, c.kind)),
            self.compute_best_candidate_uncached().map(|c| (c.queue_idx, c.issue, c.kind)),
            "entry-level memo diverged: a bank mutation missed its version bump"
        );
        self.cached_candidate = Some(best);
        best
    }

    /// FCFS considers only the oldest request; FR-FCFS (default):
    /// earliest-issuable command wins; ties prefer column commands (row
    /// hits), then demand over prefetch over writeback, then age.
    ///
    /// The FR-FCFS scan is incremental at the entry level: each entry's
    /// command kind and bank-local ready time (`bank_ready.max(enqueued)`)
    /// are memoised against its bank's version counter, and the global
    /// gates (command bus, data-bus turnaround, tRRD/tFAW) — identical for
    /// every entry wanting the same command kind — are hoisted out of the
    /// loop. `max` is associative and commutative, so the issue cycle is
    /// bit-identical to the direct [`Channel::next_command`] form (a debug
    /// assertion in [`Channel::best_candidate`] re-derives it that way).
    fn compute_best_candidate(&mut self) -> Option<Candidate> {
        if self.cfg.scheduler == SchedulerKind::Fcfs {
            let (i, p) = self.queue.iter().enumerate().min_by_key(|(_, p)| p.seq)?;
            let (kind, issue) = self.next_command(p);
            return Some(Candidate { queue_idx: i, issue, kind });
        }
        let t = &self.cfg.timing;
        let mut act_gate = self.next_cmd;
        if let Some(&last) = self.act_history.back() {
            act_gate = act_gate.max(last + t.t_rrd);
        }
        if self.act_history.len() >= 4 {
            act_gate = act_gate.max(self.act_history[self.act_history.len() - 4] + t.t_faw);
        }
        let gates = [
            self.next_rd.max(self.next_cmd).as_u64(),
            self.next_wr.max(self.next_cmd).as_u64(),
            self.next_cmd.as_u64(),
            act_gate.as_u64(),
        ];
        let banks = &self.banks;
        let versions = &self.bank_versions;
        let queue = &self.queue;
        // `(issue, col_rank, priority, seq)` in one u128: the fields sit
        // in disjoint bit ranges in significance order, so the integer
        // compare IS the lexicographic tuple compare (ties are impossible
        // — `seq` is unique). The original tuple form replaced the running
        // best only on strict improvement; `<` preserves that.
        let mut best_key = u128::MAX;
        let mut best_idx = usize::MAX;
        for (i, e) in self.scan.iter_mut().enumerate() {
            let v = versions[e.bank as usize];
            if e.version != v {
                *e = ScanEntry::compute(&queue[i], &banks[e.bank as usize], v);
            }
            let issue = e.local.as_u64().max(gates[e.kind as usize]);
            let key = (issue as u128) << 64 | e.static_lo as u128;
            if key < best_key {
                best_key = key;
                best_idx = i;
            }
        }
        if best_idx == usize::MAX {
            return None;
        }
        Some(Candidate {
            queue_idx: best_idx,
            issue: Cycle::new((best_key >> 64) as u64),
            kind: SCAN_KINDS[self.scan[best_idx].kind as usize],
        })
    }

    /// The pre-memoisation scheduler scan, kept as the debug-build oracle
    /// for [`Channel::best_candidate`]'s assertions: every entry re-derives
    /// its command directly from bank state via [`Channel::next_command`],
    /// so a missing bank-version bump in a mutation path shows up as a
    /// divergence instead of a silent wrong schedule.
    fn compute_best_candidate_uncached(&self) -> Option<Candidate> {
        if self.cfg.scheduler == SchedulerKind::Fcfs {
            let (i, p) = self.queue.iter().enumerate().min_by_key(|(_, p)| p.seq)?;
            let (kind, issue) = self.next_command(p);
            return Some(Candidate { queue_idx: i, issue, kind });
        }
        let mut best: Option<(Candidate, (u64, u8, Priority, u64))> = None;
        for (i, p) in self.queue.iter().enumerate() {
            let (kind, issue) = self.next_command(p);
            let col_rank = match kind {
                CommandKind::Read | CommandKind::Write => 0u8,
                _ => 1,
            };
            let key = (issue.as_u64(), col_rank, p.priority, p.seq);
            match &best {
                Some((_, k)) if *k <= key => {}
                _ => best = Some((Candidate { queue_idx: i, issue, kind }, key)),
            }
        }
        best.map(|(c, _)| c)
    }

    fn record(&mut self, cycle: Cycle, kind: CommandKind, bank: usize, row: u64) {
        if self.cfg.record_log {
            self.log.push(Command { cycle, kind, bank, row });
        }
    }

    fn do_refresh(&mut self) {
        // Bank timing state and `next_cmd` change: the memo is stale.
        self.cached_candidate = None;
        let t = self.cfg.timing;
        // All banks must be precharged before REF; take the latest legal
        // moment across open banks (implicit precharges).
        let mut start = self.next_ref.max(self.next_cmd);
        for b in &self.banks {
            if b.open_row.is_some() {
                start = start.max(b.next_pre);
            }
        }
        let open_banks = self.banks.iter().filter(|b| b.open_row.is_some()).count() as u64;
        self.stats.n_pre += open_banks;
        let ready = start + t.t_rfc;
        for b in &mut self.banks {
            b.refresh_reset(ready);
        }
        for v in &mut self.bank_versions {
            *v += 1;
        }
        self.stats.n_ref += 1;
        self.record(start, CommandKind::Refresh, 0, 0);
        self.next_cmd = self.next_cmd.max(start + t.t_cmd);
        self.last_activity = self.last_activity.max(ready);
        self.next_ref += t.t_refi;
    }

    fn issue(&mut self, cand: Candidate, out: &mut Vec<Completion>) {
        // Every arm mutates bank/bus timing (and column commands retire
        // their request): the memoised scheduler decision is stale.
        self.cached_candidate = None;
        let t = self.cfg.timing;
        let p = self.queue[cand.queue_idx];
        // Every arm below mutates `p.bank`'s timing state.
        self.bank_versions[p.bank] += 1;
        let at = cand.issue;
        self.next_cmd = at + t.t_cmd;
        self.last_activity = self.last_activity.max(at);
        match cand.kind {
            CommandKind::Activate => {
                self.banks[p.bank].activate(at, p.row, &t);
                if self.act_history.len() == 4 {
                    self.act_history.pop_front();
                }
                self.act_history.push_back(at);
                self.stats.n_act += 1;
                self.record(at, CommandKind::Activate, p.bank, p.row);
            }
            CommandKind::Precharge => {
                self.banks[p.bank].precharge(at, &t);
                self.stats.n_pre += 1;
                self.record(at, CommandKind::Precharge, p.bank, 0);
            }
            CommandKind::Read => {
                self.banks[p.bank].read(at, &t);
                self.maybe_auto_precharge(p.bank, p.row, cand.queue_idx);
                self.next_rd = at + t.t_ccd;
                // Read-to-write turnaround on the shared data bus.
                let rd_data_end = at + t.t_cl + t.t_burst();
                self.next_wr = self
                    .next_wr
                    .max(Cycle::new((rd_data_end + t.t_rtrs).as_u64().saturating_sub(t.t_cwl)));
                self.stats.n_rd += 1;
                match p.priority {
                    Priority::Demand => self.stats.n_rd_demand += 1,
                    Priority::Prefetch => self.stats.n_rd_prefetch += 1,
                    Priority::Writeback => {}
                }
                self.record(at, CommandKind::Read, p.bank, p.row);
                let finish = at + t.t_cl + t.t_burst();
                self.finish_request(cand.queue_idx, finish, out);
            }
            CommandKind::Write => {
                self.banks[p.bank].write(at, &t);
                self.maybe_auto_precharge(p.bank, p.row, cand.queue_idx);
                self.next_wr = at + t.t_ccd;
                // Write-to-read turnaround.
                self.next_rd = self.next_rd.max(at + t.t_cwl + t.t_burst() + t.t_wtr);
                self.stats.n_wr += 1;
                self.record(at, CommandKind::Write, p.bank, p.row);
                let finish = at + t.t_cwl + t.t_burst();
                self.finish_request(cand.queue_idx, finish, out);
            }
            CommandKind::Refresh => unreachable!("refresh is not a per-request command"),
        }
    }

    /// Closed-page policy: auto-precharge after a column command unless
    /// another queued request (other than the one being retired at
    /// `retiring_idx`) still wants this row.
    fn maybe_auto_precharge(&mut self, bank: usize, row: u64, retiring_idx: usize) {
        if self.cfg.page_policy != PagePolicy::Closed {
            return;
        }
        let another_hit = self
            .queue
            .iter()
            .enumerate()
            .any(|(i, q)| i != retiring_idx && q.bank == bank && q.row == row);
        if another_hit {
            return;
        }
        // The earliest legal precharge moment (tRAS from ACT, tRTP/tWR from
        // the column command just issued).
        self.bank_versions[bank] += 1;
        let b = &mut self.banks[bank];
        let pre_at = b.next_pre;
        b.precharge(pre_at, &self.cfg.timing);
        self.stats.n_pre += 1;
        if self.cfg.record_log {
            self.log.push(Command { cycle: pre_at, kind: CommandKind::Precharge, bank, row: 0 });
        }
    }

    fn finish_request(&mut self, idx: usize, finish: Cycle, out: &mut Vec<Completion>) {
        let p = self.queue.swap_remove(idx);
        self.scan.swap_remove(idx);
        self.stats.last_finish = self.stats.last_finish.max(finish);
        out.push(Completion {
            id: p.id,
            addr: p.addr,
            is_write: p.is_write,
            priority: p.priority,
            enqueued: p.enqueued,
            finish,
        });
    }

    /// Lower bound on the next cycle at which this channel can legally do
    /// anything (issue a command or refresh). `Cycle::ZERO` when the memo
    /// is stale, forcing the next [`Channel::advance_to`] to rescan.
    pub(crate) fn next_event(&self) -> Cycle {
        match self.cached_candidate {
            None => Cycle::ZERO,
            Some(None) => self.next_ref,
            Some(Some(c)) => c.issue.min(self.next_ref),
        }
    }

    /// Issues every command that can legally issue at or before `t`.
    pub(crate) fn advance_to(&mut self, t: Cycle, out: &mut Vec<Completion>) {
        loop {
            let cand = self.best_candidate();
            let next_issue = cand.map(|c| c.issue);
            let ref_due = self.next_ref <= t && next_issue.is_none_or(|i| self.next_ref <= i);
            if ref_due {
                self.do_refresh();
                continue;
            }
            match cand {
                Some(c) if c.issue <= t => self.issue(c, out),
                _ => break,
            }
        }
    }

    /// Issues until the queue is empty, servicing refreshes as they come due.
    pub(crate) fn drain(&mut self, out: &mut Vec<Completion>) {
        while let Some(cand) = self.best_candidate() {
            if self.next_ref <= cand.issue {
                self.do_refresh();
                continue;
            }
            self.issue(cand, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_channel_reserves_nothing_and_refuses_at_depth() {
        let cfg = DramConfig { queue_depth: 3, ..DramConfig::lpddr4() };
        let mut ch = Channel::new(cfg);
        assert_eq!((ch.queue.capacity(), ch.scan.capacity()), (0, 0));
        for i in 0..3u64 {
            assert!(ch.has_room(), "room below depth at {i}");
            ch.enqueue(RequestId(i), PhysAddr::new(i * 64), false, Priority::Demand, Cycle::ZERO);
        }
        assert_eq!(ch.queue_len(), 3);
        assert!(!ch.has_room(), "refusal fires at exactly queue_depth");
    }
}
