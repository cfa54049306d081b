//! One served device: bounded mailbox → resumable closed-loop driver →
//! private memory system.

use std::collections::VecDeque;

use planaria_common::MemAccess;
use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::{
    ClosedLoopDriver, ClosedLoopReport, MemorySystem, Pump, SimResult, SystemConfig, TrafficConfig,
};
use planaria_telemetry::TelemetryReport;
use planaria_trace::apps::{profile, AppId};
use planaria_trace::stream::{AccessStream, WorkloadStream};
use planaria_trace::{ComponentSpec, WorkloadSpec};

use crate::shard::mix64;

/// Identity and sizing of one served device session.
///
/// A spec is everything needed to (re)create the device deterministically:
/// the workload identity (`app`, `length`, `seed`) regenerates its demand
/// stream, and the remaining fields size the state machine. The snapshot
/// format serialises exactly these fields plus the stream position.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Unique session id (round scheduling order within a shard).
    pub id: u64,
    /// Page key for shard routing (see [`crate::shard_of`]). Defaults to
    /// the id so distinct devices spread across shards.
    pub home_page: u64,
    /// Which Table 2 application profile renders the demand traffic.
    pub app: AppId,
    /// Accesses the device's session replays.
    pub length: usize,
    /// Master seed of the device's private workload stream. The default
    /// perturbs the app profile's seed with [`mix64`]`(id)` so a fleet of
    /// same-app devices still renders distinct traffic.
    pub seed: u64,
    /// Closed-loop outstanding-request window per requestor.
    pub window: usize,
    /// Mailbox bound: accesses queued between ingress and the driver.
    pub mailbox: usize,
    /// Cap on any footprint component's revisited page pool in the
    /// derived workload. The Table 2 profiles size their pools (6–10k
    /// pages) for 30M-access batch traces; a served session of a few
    /// hundred accesses revisits only a handful, yet every device pays
    /// the pool's generator state up front. `None` keeps the profile
    /// exactly; `Some(cap)` bounds per-device memory for dense fleets.
    pub pool_cap: Option<usize>,
    /// Memory-system sizing (cache geometry, DRAM model, latencies).
    pub system: SystemConfig,
    /// Which prefetcher the device runs.
    pub kind: PrefetcherKind,
}

impl DeviceSpec {
    /// A spec with serving defaults: 2 000 accesses, window 8, mailbox
    /// 256, the paper's Table 1 system, the full Planaria prefetcher, and
    /// a per-device seed derived from the app profile.
    pub fn new(id: u64, app: AppId) -> Self {
        Self {
            id,
            home_page: id,
            app,
            length: 2_000,
            seed: profile(app).seed ^ mix64(id),
            window: 8,
            mailbox: 256,
            pool_cap: None,
            system: SystemConfig::default(),
            kind: PrefetcherKind::Planaria,
        }
    }

    /// Returns the spec with a different session length.
    #[must_use]
    pub fn scaled(mut self, length: usize) -> Self {
        self.length = length;
        self
    }

    /// The seeded workload this device replays.
    pub fn workload(&self) -> WorkloadSpec {
        let mut spec = profile(self.app).scaled(self.length);
        spec.seed = self.seed;
        if let Some(cap) = self.pool_cap {
            for wc in &mut spec.components {
                if let ComponentSpec::Footprint(f) = &mut wc.spec {
                    f.pages = f.pages.min(cap.max(1));
                }
            }
        }
        spec
    }
}

/// What [`ServedDevice::try_push`] did with an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Push {
    /// The access was queued.
    Accepted,
    /// The mailbox is at its bound; retry after pumping. The access was
    /// *not* taken — backpressure never drops or reorders.
    Full,
}

/// Why [`ServedDevice::pump`] returned control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevicePump {
    /// The iteration budget ran out; more simulation work remains.
    Working,
    /// Mailbox empty and ingress still open: the device is input-starved
    /// (this is the quiescent point snapshots are taken at).
    Starved,
    /// The session is complete; [`ServedDevice::report`] is available.
    Done,
}

/// Everything a finished session produced.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// The session id ([`DeviceSpec::id`]).
    pub id: u64,
    /// Headline simulation metrics (hit rate, AMAT, traffic, energy).
    pub result: SimResult,
    /// Per-requestor closed-loop outcomes (slowdown, fairness).
    pub closed_loop: ClosedLoopReport,
    /// Prefetch-lifecycle and decision counters.
    pub telemetry: TelemetryReport,
}

/// One simulated phone as a compact, snapshottable state machine: a
/// private [`MemorySystem`], the resumable closed-loop driver, and a
/// bounded mailbox between ingress and injection.
///
/// The mailbox feeds the driver only when the driver reports
/// `NeedInput` — the same lazy-pull discipline the batch
/// [`TrafficModel`](planaria_sim::TrafficModel) uses — so a served run is
/// bit-identical to the batch closed loop over the same accesses, no
/// matter how ingress is chunked or how often pumping pauses.
///
/// # Examples
///
/// Mailbox backpressure — a full mailbox refuses (never drops) and the
/// refused access can be retried after pumping:
///
/// ```
/// use planaria_serve::{DeviceSpec, Push, ServedDevice};
/// use planaria_trace::apps::{profile, AppId};
///
/// let mut spec = DeviceSpec::new(0, AppId::TikT);
/// spec.mailbox = 2;
/// let mut dev = ServedDevice::external(spec);
///
/// let accesses = profile(AppId::TikT).scaled(100).build();
/// let a = accesses.accesses();
/// assert_eq!(dev.try_push(a[0]), Push::Accepted);
/// assert_eq!(dev.try_push(a[1]), Push::Accepted);
/// assert_eq!(dev.try_push(a[2]), Push::Full, "bound reached: refused, not dropped");
///
/// dev.pump(usize::MAX); // drains the mailbox into the driver
/// assert_eq!(dev.try_push(a[2]), Push::Accepted, "same access retries after pumping");
/// ```
pub struct ServedDevice {
    pub(crate) spec: DeviceSpec,
    /// Result label (the workload abbreviation, like batch runs use).
    label: String,
    /// Self-ingress source; `None` for externally fed devices.
    pub(crate) source: Option<WorkloadStream>,
    /// Accesses that entered the mailbox so far (= the replay position).
    pub(crate) consumed: u64,
    /// Ingress has ended (stream exhausted, or closed externally).
    pub(crate) source_eof: bool,
    mailbox: VecDeque<MemAccess>,
    scratch: Vec<MemAccess>,
    sys: Option<MemorySystem>,
    driver: Option<ClosedLoopDriver>,
    report: Option<DeviceReport>,
}

impl std::fmt::Debug for ServedDevice {
    // The driver and memory system are deep state machines; summarize
    // progress instead of dumping them.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedDevice")
            .field("id", &self.spec.id)
            .field("app", &self.spec.app)
            .field("consumed", &self.consumed)
            .field("injected", &self.injected())
            .field("mailbox", &self.mailbox.len())
            .field("eof", &self.source_eof)
            .field("done", &self.is_done())
            .finish_non_exhaustive()
    }
}

impl ServedDevice {
    /// A device that renders its own demand traffic from
    /// [`DeviceSpec::workload`].
    pub fn from_spec(spec: DeviceSpec) -> Self {
        let workload = spec.workload();
        let source = Some(workload.stream());
        Self::build(spec, workload.abbr, source)
    }

    /// A device fed externally through [`ServedDevice::try_push`] and
    /// [`ServedDevice::close_ingress`]. External devices cannot snapshot
    /// (there is no replayable source).
    pub fn external(spec: DeviceSpec) -> Self {
        let label = spec.workload().abbr;
        Self::build(spec, label, None)
    }

    fn build(spec: DeviceSpec, label: String, source: Option<WorkloadStream>) -> Self {
        assert!(spec.mailbox > 0, "mailbox bound must be at least 1");
        let sys = MemorySystem::new(spec.system, spec.kind.build());
        let driver = ClosedLoopDriver::new(TrafficConfig::new(spec.window));
        Self {
            spec,
            label,
            source,
            consumed: 0,
            source_eof: false,
            mailbox: VecDeque::new(),
            scratch: Vec::new(),
            sys: Some(sys),
            driver: Some(driver),
            report: None,
        }
    }

    /// The session id.
    pub fn id(&self) -> u64 {
        self.spec.id
    }

    /// The page key shards route on.
    pub fn home_page(&self) -> u64 {
        self.spec.home_page
    }

    /// Whether this device renders its own demand traffic (as opposed to
    /// being fed externally through [`ServedDevice::try_push`]); `false`
    /// once the session is done and has dropped its source.
    pub fn has_source(&self) -> bool {
        self.source.is_some()
    }

    /// Accesses currently queued in the mailbox.
    pub fn mailbox_len(&self) -> usize {
        self.mailbox.len()
    }

    /// Accesses that entered the mailbox so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Accesses injected into the memory system so far.
    pub fn injected(&self) -> u64 {
        match (&self.driver, &self.report) {
            (Some(d), _) => d.injected(),
            (None, Some(r)) => r.result.accesses,
            (None, None) => 0,
        }
    }

    /// Whether the session has finished ([`DevicePump::Done`]).
    pub fn is_done(&self) -> bool {
        self.report.is_some()
    }

    /// The finished session's report, once done.
    pub fn report(&self) -> Option<&DeviceReport> {
        self.report.as_ref()
    }

    /// Consumes the device, returning its report.
    ///
    /// # Panics
    ///
    /// Panics if the session has not finished.
    pub fn into_report(self) -> DeviceReport {
        self.report.expect("into_report requires a finished session")
    }

    /// Queues one access from an external producer; see [`Push`].
    ///
    /// Accesses must arrive cycle-sorted (the same contract every
    /// [`AccessStream`] satisfies).
    ///
    /// # Panics
    ///
    /// Panics on self-sourced devices (their ingress is
    /// [`ServedDevice::ingest`]) and after
    /// [`ServedDevice::close_ingress`].
    pub fn try_push(&mut self, access: MemAccess) -> Push {
        assert!(self.source.is_none(), "spec-sourced devices ingest from their own stream");
        assert!(!self.source_eof, "push after close_ingress");
        if self.mailbox.len() >= self.spec.mailbox {
            return Push::Full;
        }
        self.mailbox.push_back(access);
        self.consumed += 1;
        Push::Accepted
    }

    /// Declares external ingress over: once the mailbox drains, the
    /// session runs to completion.
    pub fn close_ingress(&mut self) {
        self.source_eof = true;
    }

    /// Pulls up to `max` accesses from the device's own workload stream
    /// into the mailbox (bounded by the free mailbox space). Returns how
    /// many were queued; observes end-of-stream by returning 0 and
    /// latching ingress closed.
    pub fn ingest(&mut self, max: usize) -> usize {
        if self.source_eof || self.report.is_some() {
            return 0;
        }
        let Some(source) = self.source.as_mut() else {
            return 0;
        };
        let want = max.min(self.spec.mailbox - self.mailbox.len());
        if want == 0 {
            return 0;
        }
        let n = source.next_chunk(want, &mut self.scratch);
        if n == 0 {
            self.source_eof = true;
            return 0;
        }
        self.mailbox.extend(self.scratch.iter().copied());
        self.consumed += n as u64;
        n
    }

    /// Advances the simulation by at most `budget` driver iterations,
    /// feeding the driver from the mailbox at its `NeedInput` boundaries.
    /// Finishing the session computes [`ServedDevice::report`].
    pub fn pump(&mut self, budget: usize) -> DevicePump {
        if self.report.is_some() {
            return DevicePump::Done;
        }
        let sys = self.sys.as_mut().expect("live session has a memory system");
        let driver = self.driver.as_mut().expect("live session has a driver");
        loop {
            match driver.pump(sys, budget) {
                Pump::Budget => return DevicePump::Working,
                Pump::NeedInput => {
                    if self.mailbox.is_empty() {
                        if self.source_eof {
                            driver.close();
                            continue;
                        }
                        return DevicePump::Starved;
                    }
                    while let Some(a) = self.mailbox.pop_front() {
                        driver.offer(&a);
                    }
                }
                Pump::Drained => break,
            }
        }
        let driver = self.driver.take().expect("drained session still owns its driver");
        let sys = self.sys.take().expect("drained session still owns its memory system");
        let (result, closed_loop, telemetry) = driver.finish(sys, &self.label);
        self.report = Some(DeviceReport { id: self.spec.id, result, closed_loop, telemetry });
        // Only the report outlives the session; drained buffers keep capacity.
        self.source = None;
        self.mailbox = VecDeque::new();
        self.scratch = Vec::new();
        DevicePump::Done
    }

    /// Pumps without budget until the device is input-starved (mailbox
    /// empty, driver waiting) or done — the quiescent point snapshots
    /// require.
    pub fn quiesce(&mut self) -> DevicePump {
        loop {
            match self.pump(usize::MAX) {
                DevicePump::Working => {}
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finished_session_keeps_only_its_report() {
        let mut dev = ServedDevice::from_spec(DeviceSpec::new(3, AppId::HoK).scaled(300));
        while !dev.is_done() {
            dev.ingest(usize::MAX);
            dev.quiesce();
        }
        assert!(dev.source.is_none());
        assert_eq!((dev.mailbox.capacity(), dev.scratch.capacity()), (0, 0));
        assert_eq!(dev.report().map(|r| r.result.accesses), Some(300));
        let err = dev.snapshot().expect_err("a finished session cannot snapshot");
        assert!(err.contains("already finished"), "{err}");
    }
}
