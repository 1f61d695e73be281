//! # refill-stream — online ingestion for REFILL
//!
//! The paper's pipeline is batch: collect every log, merge, reconstruct.
//! This crate makes it *online*, in three layers:
//!
//! 1. **Wire codec** (in `eventlog::frame`, consumed here): per-node log
//!    records travel as versioned, length-prefixed, CRC-checked frames; a
//!    resynchronizing decoder survives garbage, bit rot and mid-stream
//!    joins, counting each maximal corrupt run once.
//! 2. **[`StreamReconstructor`]**: bounded per-node lanes (a full lane
//!    refuses records — that refusal is the backpressure signal), per-node
//!    low-watermarks over the nodes' *own* clocks, one window per packet
//!    (its packed events and last report) that closes — and is
//!    reconstructed — when every contributing node has moved past its last
//!    contribution, and convergent late handling: a record for a closed
//!    window reopens it, so the final reports always equal the batch
//!    answer over everything ingested.
//! 3. **Drivers**: [`run_stream`] pairs an ingest worker (decode) with the
//!    reconstruction loop over a bounded `std::sync::mpsc` channel, and [`Replay`]
//!    turns an archived CitySee campaign into a paced, framed stream at
//!    N× speed.
//!
//! Everything is observable through the shared telemetry recorder: frames
//! decoded/corrupt, queue depths, windows closed, late reopens, and the
//! decode/window stage timings.

pub mod driver;
pub mod reconstructor;
pub mod replay;

pub use driver::{
    run_stream, run_stream_checkpointed, run_stream_metered, CheckpointSink, DriverConfig,
    StreamSummary,
};
pub use reconstructor::{StreamConfig, StreamReconstructor, StreamStats};
pub use replay::Replay;
