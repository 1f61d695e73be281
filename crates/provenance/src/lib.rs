//! Per-flow provenance: the evidence trail behind every reconstruction.
//!
//! REFILL's output is only as trustworthy as the inferences behind it — an
//! operator acting on "this packet died at node 14 of a queue overflow"
//! needs to know *which* of those events were actually logged and which
//! the engines synthesized, and by which rule. This crate records that
//! trail:
//!
//! * [`EntryOrigin`] — how one flow entry came to exist: observed in a
//!   log, inferred by an intra-node jump transition, or inferred while
//!   forcing an inter-node prerequisite on a peer engine.
//! * [`FlowProvenance`] — one packet's full ledger entry: the event
//!   timeline with per-event origins, the signature-cache disposition the
//!   report took (direct / rehydrated / uncacheable), and a derived
//!   [confidence score](FlowProvenance::confidence).
//! * [`TraceSampler`] — the admission gate ([`SamplePolicy`]: always,
//!   1-in-N, or a per-origin allowlist). Capture costs an allocation per
//!   admitted flow, so production deployments sample.
//! * [`ProvenanceLedger`] — a sharded, thread-safe store of captured
//!   flows, shared across parallel reconstruction workers.
//! * [`ProvenanceSink`] — sampler + ledger bundled as the one object a
//!   reconstructor carries. Like the telemetry `NoopRecorder`, the
//!   *absence* of a sink is the disabled path: reconstruction holds an
//!   `Option<Arc<ProvenanceSink>>` and a `None` costs one branch per
//!   report.
//!
//! The ledger speaks in `eventlog` types only; which pipeline stage
//! produced an entry is the *reconstructor's* knowledge and is passed in
//! at capture time.

use eventlog::{Event, PacketId};
use netsim::fx::{FxHashMap, FxHashSet};
use netsim::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// How a flow entry came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryOrigin {
    /// Present in a collected log: the entry is evidence, not inference.
    Observed,
    /// Inferred by an intra-node jump transition — the engine skipped over
    /// lost events of its *own* node's log to reach a state a later
    /// observed event required (Section IV-B derived transitions).
    IntraJump,
    /// Inferred while forcing an inter-node prerequisite — a peer engine
    /// was driven to a state some other node's evidence required (e.g. a
    /// `recv` forcing the sender's `Sending`).
    InterForced,
}

impl EntryOrigin {
    /// Stable snake_case name used in JSON narratives.
    pub fn name(self) -> &'static str {
        match self {
            EntryOrigin::Observed => "observed",
            EntryOrigin::IntraJump => "intra_jump",
            EntryOrigin::InterForced => "inter_forced",
        }
    }

    /// True for the two inferred variants.
    pub fn is_inferred(self) -> bool {
        !matches!(self, EntryOrigin::Observed)
    }
}

/// Which signature-cache path produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheDisposition {
    /// Reconstructed by running the engines on this group (cache miss, or
    /// no cache in the path at all).
    Direct,
    /// Rehydrated from a previously published node-abstract template.
    Rehydrated,
    /// The group was cache-ineligible (oversized or malformed) and fell
    /// back to direct reconstruction.
    Uncacheable,
}

impl CacheDisposition {
    /// Stable snake_case name used in JSON narratives.
    pub fn name(self) -> &'static str {
        match self {
            CacheDisposition::Direct => "direct",
            CacheDisposition::Rehydrated => "rehydrated",
            CacheDisposition::Uncacheable => "uncacheable",
        }
    }
}

/// One event of a flow with its origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventProvenance {
    /// The event (observed or synthesized).
    pub event: Event,
    /// How it came to exist.
    pub origin: EntryOrigin,
}

/// One packet's provenance ledger entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowProvenance {
    /// The packet.
    pub packet: PacketId,
    /// The flow's events in linearization order, each with its origin.
    pub entries: Vec<EventProvenance>,
    /// Which cache path produced the report.
    pub disposition: CacheDisposition,
}

impl FlowProvenance {
    /// Build a ledger entry.
    pub fn new(
        packet: PacketId,
        entries: Vec<EventProvenance>,
        disposition: CacheDisposition,
    ) -> Self {
        FlowProvenance {
            packet,
            entries,
            disposition,
        }
    }

    /// Number of observed entries.
    pub fn observed_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.origin == EntryOrigin::Observed)
            .count()
    }

    /// Number of inferred entries (intra-jump + inter-forced).
    pub fn inferred_count(&self) -> usize {
        self.entries.len() - self.observed_count()
    }

    /// Number of intra-node jump inferences.
    pub fn jump_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.origin == EntryOrigin::IntraJump)
            .count()
    }

    /// Number of inter-node forced inferences.
    pub fn forced_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.origin == EntryOrigin::InterForced)
            .count()
    }

    /// Confidence in `[0, 1]`: the observed fraction of the flow, damped
    /// by how much of it rests on inference. Intra-node jumps replay
    /// *derived* transitions of the node's own machine and are the
    /// stronger kind of inference; inter-node forcing rests on a peer's
    /// evidence and weighs double:
    ///
    /// ```text
    /// confidence = (observed / total) / (1 + (0.5·jumps + forced) / total)
    /// ```
    ///
    /// A fully observed flow scores exactly 1.0; an empty flow scores 0.0
    /// (nothing was reconstructed, so there is nothing to trust).
    pub fn confidence(&self) -> f64 {
        let total = self.entries.len();
        if total == 0 {
            return 0.0;
        }
        let observed = self.observed_count() as f64;
        let jumps = self.jump_count() as f64;
        let forced = self.forced_count() as f64;
        let total = total as f64;
        (observed / total) / (1.0 + (0.5 * jumps + forced) / total)
    }
}

/// Which flows the sampler admits into the ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SamplePolicy {
    /// Capture every flow.
    Always,
    /// Capture one flow in N (N treated as at least 1). The counter is
    /// global across threads, so parallel drivers capture the same
    /// *share*, though which packets land in it is schedule-dependent.
    OneIn(u64),
    /// Capture only packets originated by the listed nodes.
    Origins(FxHashSet<NodeId>),
}

/// The admission gate in front of a [`ProvenanceLedger`].
#[derive(Debug)]
pub struct TraceSampler {
    policy: SamplePolicy,
    tick: AtomicU64,
}

impl TraceSampler {
    /// A sampler with the given policy.
    pub fn new(policy: SamplePolicy) -> Self {
        TraceSampler {
            policy,
            tick: AtomicU64::new(0),
        }
    }

    /// A capture-everything sampler.
    pub fn always() -> Self {
        Self::new(SamplePolicy::Always)
    }

    /// A 1-in-N sampler.
    pub fn one_in(n: u64) -> Self {
        Self::new(SamplePolicy::OneIn(n))
    }

    /// A per-origin allowlist sampler.
    pub fn origins(origins: impl IntoIterator<Item = NodeId>) -> Self {
        Self::new(SamplePolicy::Origins(origins.into_iter().collect()))
    }

    /// The policy.
    pub fn policy(&self) -> &SamplePolicy {
        &self.policy
    }

    /// Should this packet's flow be captured? `OneIn` consumes one tick
    /// per call, so ask exactly once per emitted report.
    pub fn admit(&self, packet: PacketId) -> bool {
        match &self.policy {
            SamplePolicy::Always => true,
            SamplePolicy::OneIn(n) => {
                let n = (*n).max(1);
                self.tick.fetch_add(1, Ordering::Relaxed).is_multiple_of(n)
            }
            SamplePolicy::Origins(set) => set.contains(&packet.origin),
        }
    }
}

/// Shard count: a power of two, small enough to stay cache-friendly and
/// large enough that parallel drivers rarely collide on a shard lock.
const LEDGER_SHARDS: usize = 16;

/// SplitMix64 finalizer, used to spread packet ids over shards.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Lock a ledger shard. A shard map stays consistent even if a holder
/// panicked (every mutation is a single map call), so poisoning is ignored.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sharded, thread-safe store of captured [`FlowProvenance`] entries.
/// Re-recording a packet (a reopened stream window is reconstructed again
/// when it closes) overwrites its previous entry: the ledger always holds
/// the latest reconstruction's trail.
#[derive(Debug)]
pub struct ProvenanceLedger {
    shards: Vec<Mutex<FxHashMap<PacketId, FlowProvenance>>>,
}

impl Default for ProvenanceLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl ProvenanceLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        ProvenanceLedger {
            shards: (0..LEDGER_SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
        }
    }

    fn shard(&self, packet: PacketId) -> &Mutex<FxHashMap<PacketId, FlowProvenance>> {
        let key = (u64::from(packet.origin.0) << 32) | u64::from(packet.seqno);
        &self.shards[(mix64(key) as usize) % LEDGER_SHARDS]
    }

    /// Store (or overwrite) one packet's entry.
    pub fn record(&self, flow: FlowProvenance) {
        lock(self.shard(flow.packet)).insert(flow.packet, flow);
    }

    /// One packet's entry, if captured.
    pub fn get(&self, packet: PacketId) -> Option<FlowProvenance> {
        lock(self.shard(packet)).get(&packet).cloned()
    }

    /// Number of captured flows.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| lock(s).is_empty())
    }

    /// Total observed entries across all captured flows.
    pub fn observed_total(&self) -> u64 {
        self.fold(|f| f.observed_count() as u64)
    }

    /// Total inferred entries across all captured flows.
    pub fn inferred_total(&self) -> u64 {
        self.fold(|f| f.inferred_count() as u64)
    }

    /// Total intra-node jump inferences across all captured flows.
    pub fn jump_total(&self) -> u64 {
        self.fold(|f| f.jump_count() as u64)
    }

    /// Total inter-node forced inferences across all captured flows.
    pub fn forced_total(&self) -> u64 {
        self.fold(|f| f.forced_count() as u64)
    }

    fn fold(&self, f: impl Fn(&FlowProvenance) -> u64) -> u64 {
        self.shards
            .iter()
            .map(|s| lock(s).values().map(&f).sum::<u64>())
            .sum()
    }

    /// All captured flows, sorted by packet id (deterministic).
    pub fn flows(&self) -> Vec<FlowProvenance> {
        let mut out: Vec<FlowProvenance> = self
            .shards
            .iter()
            .flat_map(|s| lock(s).values().cloned().collect::<Vec<_>>())
            .collect();
        out.sort_by_key(|f| f.packet);
        out
    }

    /// Drop every entry.
    pub fn clear(&self) {
        for s in &self.shards {
            lock(s).clear();
        }
    }
}

/// Sampler + ledger, bundled as the one provenance object a reconstructor
/// carries. The disabled path is *not having one*: reconstruction holds an
/// `Option<Arc<ProvenanceSink>>` whose `None` branch costs nothing, the
/// same contract the telemetry `NoopRecorder` gives counters.
#[derive(Debug)]
pub struct ProvenanceSink {
    sampler: TraceSampler,
    ledger: ProvenanceLedger,
}

impl ProvenanceSink {
    /// A sink with the given sampler and an empty ledger.
    pub fn new(sampler: TraceSampler) -> Self {
        ProvenanceSink {
            sampler,
            ledger: ProvenanceLedger::new(),
        }
    }

    /// Should this packet be captured? Consumes a sampler tick — ask
    /// exactly once per emitted report.
    pub fn admit(&self, packet: PacketId) -> bool {
        self.sampler.admit(packet)
    }

    /// Store one admitted flow.
    pub fn record(&self, flow: FlowProvenance) {
        self.ledger.record(flow);
    }

    /// The sampler.
    pub fn sampler(&self) -> &TraceSampler {
        &self.sampler
    }

    /// The ledger.
    pub fn ledger(&self) -> &ProvenanceLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventlog::EventKind;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn pid(origin: u16, seq: u32) -> PacketId {
        PacketId::new(n(origin), seq)
    }

    fn entry(origin: EntryOrigin) -> EventProvenance {
        EventProvenance {
            event: Event::new(n(1), EventKind::Origin, pid(1, 0)),
            origin,
        }
    }

    fn flow_with(origins: &[EntryOrigin]) -> FlowProvenance {
        FlowProvenance::new(
            pid(1, 0),
            origins.iter().map(|&o| entry(o)).collect(),
            CacheDisposition::Direct,
        )
    }

    #[test]
    fn counts_split_by_origin() {
        use EntryOrigin::*;
        let f = flow_with(&[Observed, IntraJump, InterForced, Observed, IntraJump]);
        assert_eq!(f.entries.len(), 5);
        assert_eq!(f.observed_count(), 2);
        assert_eq!(f.inferred_count(), 3);
        assert_eq!(f.jump_count(), 2);
        assert_eq!(f.forced_count(), 1);
    }

    #[test]
    fn confidence_bounds() {
        use EntryOrigin::*;
        assert_eq!(flow_with(&[]).confidence(), 0.0);
        assert_eq!(flow_with(&[Observed, Observed]).confidence(), 1.0);
        let mixed = flow_with(&[Observed, IntraJump, InterForced]).confidence();
        assert!(mixed > 0.0 && mixed < 1.0, "mixed flow in (0,1): {mixed}");
        // Forcing weighs more than jumping at the same inferred count.
        let jumpy = flow_with(&[Observed, IntraJump]).confidence();
        let forced = flow_with(&[Observed, InterForced]).confidence();
        assert!(jumpy > forced, "jump {jumpy} must outrank forced {forced}");
        // All-inferred flows score low but nonzero (they still exist).
        let blind = flow_with(&[InterForced, InterForced]).confidence();
        assert_eq!(blind, 0.0, "no observed evidence, no confidence");
    }

    #[test]
    fn sampler_always_and_origins() {
        let always = TraceSampler::always();
        assert!(always.admit(pid(1, 0)));
        assert!(always.admit(pid(2, 9)));

        let allow = TraceSampler::origins([n(3), n(5)]);
        assert!(allow.admit(pid(3, 0)));
        assert!(allow.admit(pid(5, 7)));
        assert!(!allow.admit(pid(4, 0)));
    }

    #[test]
    fn sampler_one_in_n_admits_exact_share() {
        let s = TraceSampler::one_in(4);
        let admitted = (0..16).filter(|&i| s.admit(pid(1, i))).count();
        assert_eq!(admitted, 4, "1-in-4 over 16 sequential asks");
        // N = 0 is treated as 1 (always), not a division by zero.
        let s = TraceSampler::one_in(0);
        assert!(s.admit(pid(1, 0)) && s.admit(pid(1, 1)));
    }

    #[test]
    fn ledger_records_overwrites_and_totals() {
        use EntryOrigin::*;
        let ledger = ProvenanceLedger::new();
        assert!(ledger.is_empty());
        for seq in 0..10 {
            let mut f = flow_with(&[Observed, IntraJump]);
            f.packet = pid(1, seq);
            ledger.record(f);
        }
        assert_eq!(ledger.len(), 10);
        assert_eq!(ledger.observed_total(), 10);
        assert_eq!(ledger.inferred_total(), 10);
        assert_eq!(ledger.jump_total(), 10);
        assert_eq!(ledger.forced_total(), 0);

        // Re-recording a packet overwrites, not duplicates.
        let mut f = flow_with(&[Observed, Observed, InterForced]);
        f.packet = pid(1, 3);
        ledger.record(f);
        assert_eq!(ledger.len(), 10);
        assert_eq!(ledger.observed_total(), 11);
        assert_eq!(ledger.get(pid(1, 3)).unwrap().forced_count(), 1);

        // flows() is sorted by packet id.
        let flows = ledger.flows();
        assert_eq!(flows.len(), 10);
        assert!(flows.windows(2).all(|w| w[0].packet < w[1].packet));

        ledger.clear();
        assert!(ledger.is_empty());
        assert_eq!(ledger.inferred_total(), 0);
    }

    #[test]
    fn sink_gates_through_its_sampler() {
        let sink = ProvenanceSink::new(TraceSampler::origins([n(1)]));
        assert!(sink.admit(pid(1, 0)));
        assert!(!sink.admit(pid(2, 0)));
        sink.record(flow_with(&[EntryOrigin::Observed]));
        assert_eq!(sink.ledger().len(), 1);
    }
}
