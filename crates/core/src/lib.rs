//! # refill — reconstructing network behavior from individual, lossy logs
//!
//! A Rust implementation of **REFILL** (Wang et al., *Connecting the Dots:
//! Reconstructing Network Behavior with Individual and Lossy Logs*,
//! ICPP 2015).
//!
//! REFILL takes per-node local logs that are *lossy* (events and whole logs
//! go missing) and *unsynchronized* (no usable timestamps) and reconstructs
//! the network-wide **event flow** — the true ordering of events — including
//! events that were never successfully logged. It does so with three pieces:
//!
//! 1. **Inference engines** ([`fsm`]): a finite state machine per node
//!    modelling its protocol states, *augmented* with derived intra-node
//!    transitions — jumps that become legal when intermediate events were
//!    lost, each carrying the canonical list of lost prerequisite events.
//! 2. **Connected engines** ([`net`]): inter-node prerequisite edges between
//!    engine instances ("a `recv` on the receiver implies the sender reached
//!    its transmitting state"), plus the recursive transition algorithm that
//!    consumes observed events, forces prerequisite states on peers, and
//!    synthesizes the lost events along the way.
//! 3. **Per-packet tracing** ([`trace`]): grouping a merged log by packet,
//!    segmenting each node's events into visits (routing loops revisit
//!    nodes), linking visits into hop chains, and running the connected
//!    engines to produce an [`flow::EventFlow`] per packet.
//!
//! On top sit [`diagnose`] (loss position + cause classification, the
//! paper's Section V), [`score`] (accuracy against simulator ground truth —
//! something the real deployment could never measure), and [`schedule`]
//! (the pipeline: merge into a columnar store, index it, and reconstruct
//! packets on any number of workers).
//!
//! ```
//! use eventlog::{Event, EventKind, LocalLog, PacketId, merge_logs};
//! use netsim::NodeId;
//! use refill::trace::{Reconstructor, CtpVocabulary};
//!
//! // Table II, Case 1: node 2's entire log is lost.
//! let p = PacketId::new(NodeId(1), 0);
//! let n1 = LocalLog::from_events(NodeId(1), vec![
//!     Event::new(NodeId(1), EventKind::Trans { to: NodeId(2) }, p),
//! ]);
//! let n3 = LocalLog::from_events(NodeId(3), vec![
//!     Event::new(NodeId(3), EventKind::Recv { from: NodeId(2) }, p),
//! ]);
//! let merged = merge_logs(&[n1, n3]);
//! let recon = Reconstructor::new(CtpVocabulary::table2());
//! let report = recon.reconstruct_packet(p, &merged.by_packet()[&p]);
//! assert_eq!(report.flow.to_string(),
//!            "1-2 trans, [1-2 recv], [2-3 trans], 2-3 recv");
//! ```

pub mod ctp_model;
pub mod diagnose;
pub mod dissemination_model;
pub mod explain;
pub mod flow;
pub mod fsm;
pub mod net;
pub mod schedule;
pub mod score;
pub mod sigcache;
pub mod trace;

pub use diagnose::{DiagnosedCause, Diagnoser, Diagnosis};
pub use explain::{explain, Explanation, TimelineEntry};
pub use flow::{EventFlow, FlowEntry};
pub use fsm::{FsmBuilder, FsmTemplate, StateId};
pub use net::{ConnectedNet, EngineId, NetWarning, RunStats};
pub use sigcache::{CacheStats, SigCache};
pub use trace::{
    CtpVocabulary, FlowSignature, PacketReport, ReconOptions, Reconstructor, ReportTemplate,
};

/// The telemetry crate, re-exported so downstream users of `refill` can
/// attach recorders without naming a second dependency.
pub use refill_telemetry as telemetry;

/// The provenance crate, re-exported for the same reason: ledgers and
/// samplers attach to a [`Reconstructor`] without a second dependency.
pub use refill_provenance as provenance;
