//! Threaded ingest/reconstruction drivers over the wire format.
//!
//! [`run_stream`] splits the work the way a live collector would: an
//! **ingest worker** reads raw bytes, runs the resynchronizing
//! [`FrameDecoder`], and ships decoded record batches over a *bounded*
//! `std::sync::mpsc` channel; the **reconstruction worker** (the calling thread)
//! drains batches into a [`StreamReconstructor`], polling for closed
//! windows as it goes. Each blocking receive is followed by a bounded
//! non-blocking drain of whatever else is already queued
//! ([`DriverConfig::drain_batches`]), so when ingest runs ahead the
//! reconstruction side absorbs records in large waves and each poll
//! closes enough windows to reconstruct them in parallel. The bounded channel is the backpressure spine: when
//! reconstruction falls behind, the ingest worker blocks on `send` instead
//! of buffering without limit. Shutdown is graceful by construction — the
//! ingest worker drops its sender at EOF (or on a read error), the batch
//! iterator ends, and the stream is flushed with
//! [`StreamReconstructor::finish`].

use crate::reconstructor::{StreamReconstructor, StreamStats};
use eventlog::frame::{FrameDecoder, FrameStats, NodeRecord};
use refill::telemetry::{Counter, Stage, StageTimer, TelemetrySnapshot};
use refill::PacketReport;
use std::io::Read;
use std::sync::{mpsc, Arc};
use std::thread;

/// Tunables for the threaded driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverConfig {
    /// Read granularity in bytes (at least 64).
    pub chunk_bytes: usize,
    /// Bounded channel capacity, in decoded batches — the backpressure
    /// depth between ingest and reconstruction. Treated as at least 1.
    pub channel_batches: usize,
    /// Poll for closed windows after this many absorbed records. Treated
    /// as at least 1.
    pub poll_every: usize,
    /// After each blocking receive, opportunistically drain up to this many
    /// additional already-queued batches (non-blocking `try_recv`) before
    /// reconstructing. Larger waves feed more closed windows into each
    /// poll, so its reconstruction crosses the parallel threshold instead
    /// of reconstructing windows one or two at a time.
    /// 0 disables the drain; report emission is unaffected either way
    /// because polling is driven by the absorbed-record count, not by
    /// batch boundaries.
    pub drain_batches: usize,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            chunk_bytes: 8 * 1024,
            channel_batches: 4,
            poll_every: 64,
            drain_batches: 16,
        }
    }
}

/// What a finished run looked like.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Frame decode counters (decoded / corrupt runs skipped).
    pub frames: FrameStats,
    /// Streaming-core totals (records, closes, reopens, backpressure).
    pub stats: StreamStats,
    /// Reports emitted from windows that closed *before* the final flush —
    /// the rolling output a live consumer would have seen.
    pub rolling_reports: u64,
    /// The full converged report set after the final flush, in packet-id
    /// order — identical to batch reconstruction of every decoded record.
    pub reports: Vec<PacketReport>,
}

/// Durability hooks for checkpointed runs ([`run_stream_checkpointed`]).
///
/// The driver calls `on_record` for every record it absorbs (in absorption
/// order), `on_reports` for every emitted report batch (window closes and
/// the final flush), and `sync` at each durability point — after every
/// report-emitting poll and once after the final flush. Implementations
/// own the ordering discipline: a `sync` must make every record passed so
/// far durable *before* the reports derived from them, so a crash can
/// never leave reports whose evidence was lost.
///
/// `skip_records` supports resumption: the first `skip_records()` decoded
/// records are dropped on the floor (the caller already replayed their
/// durable copies into the stream), and the hooks only see what comes
/// after. The final reports still converge to the batch answer over the
/// full record sequence because [`StreamReconstructor::finish`] is
/// cadence-independent.
pub trait CheckpointSink {
    /// Records already durable from a previous run; the driver skips this
    /// many decoded records instead of re-ingesting them.
    fn skip_records(&self) -> u64 {
        0
    }
    /// A record was absorbed into the stream.
    fn on_record(&mut self, rec: &NodeRecord) -> std::io::Result<()>;
    /// Reports were emitted (mid-stream window closes, or the final
    /// converged set after the flush).
    fn on_reports(&mut self, reports: &[PacketReport]) -> std::io::Result<()>;
    /// Make everything passed so far durable.
    fn sync(&mut self) -> std::io::Result<()>;
}

/// Run framed bytes from `reader` through `stream` to completion.
///
/// `on_report` fires for every report emitted by a mid-stream window close
/// (the rolling output); the converged final set is returned in the
/// summary. Reader errors abort ingestion but still flush what was
/// decoded, so a truncated source yields its decodable prefix plus the
/// error.
pub fn run_stream<R, F>(
    reader: R,
    stream: &mut StreamReconstructor,
    config: DriverConfig,
    on_report: F,
) -> std::io::Result<StreamSummary>
where
    R: Read + Send,
    F: FnMut(&PacketReport),
{
    run_stream_inner(reader, stream, config, on_report, None, |_| {}, None)
}

/// [`run_stream`] with a durable checkpoint: every absorbed record and
/// every emitted report flows into `checkpoint`, with `sync` called at
/// each emission point, so a killed run leaves a durable prefix a resumed
/// run can replay (see [`CheckpointSink`]).
pub fn run_stream_checkpointed<R, F>(
    reader: R,
    stream: &mut StreamReconstructor,
    config: DriverConfig,
    on_report: F,
    checkpoint: &mut dyn CheckpointSink,
) -> std::io::Result<StreamSummary>
where
    R: Read + Send,
    F: FnMut(&PacketReport),
{
    run_stream_inner(
        reader,
        stream,
        config,
        on_report,
        None,
        |_| {},
        Some(checkpoint),
    )
}

/// [`run_stream`] with periodic metrics export: every `metrics_every`
/// absorbed records, `on_metrics` receives the interval delta
/// ([`TelemetrySnapshot::diff`]) of the stream's recorder since the
/// previous emission, plus one final delta after the flush (the flush
/// itself reconstructs the remaining windows, so the tail interval is
/// never empty of work). `None` disables the cadence entirely —
/// [`run_stream`] is exactly this with `None`.
///
/// Deltas come from the recorder the `StreamReconstructor` carries; with a
/// `NoopRecorder` attached every delta is empty, so metered runs only make
/// sense on an instrumented stream.
pub fn run_stream_metered<R, F, M>(
    reader: R,
    stream: &mut StreamReconstructor,
    config: DriverConfig,
    on_report: F,
    metrics_every: Option<u64>,
    on_metrics: M,
) -> std::io::Result<StreamSummary>
where
    R: Read + Send,
    F: FnMut(&PacketReport),
    M: FnMut(&TelemetrySnapshot),
{
    run_stream_inner(reader, stream, config, on_report, metrics_every, on_metrics, None)
}

fn run_stream_inner<R, F, M>(
    reader: R,
    stream: &mut StreamReconstructor,
    config: DriverConfig,
    mut on_report: F,
    metrics_every: Option<u64>,
    mut on_metrics: M,
    mut checkpoint: Option<&mut dyn CheckpointSink>,
) -> std::io::Result<StreamSummary>
where
    R: Read + Send,
    F: FnMut(&PacketReport),
    M: FnMut(&TelemetrySnapshot),
{
    let recorder = Arc::clone(stream.recorder());
    let metrics_recorder = Arc::clone(stream.recorder());
    let (tx, rx) = mpsc::sync_channel::<Vec<NodeRecord>>(config.channel_batches.max(1));
    let poll_every = config.poll_every.max(1);
    let metrics_every = metrics_every.map(|n| n.max(1));
    let mut prev_metrics = TelemetrySnapshot::default();
    let mut since_metrics = 0u64;
    let mut rolling_reports = 0u64;
    let mut frames = FrameStats::default();
    let mut read_error: Option<std::io::Error> = None;
    let mut ckpt_error: Option<std::io::Error> = None;
    let mut to_skip = checkpoint.as_ref().map_or(0, |c| c.skip_records());

    thread::scope(|scope| {
        let ingest = scope.spawn(move || -> std::io::Result<FrameStats> {
            let mut reader = reader;
            let mut decoder = FrameDecoder::new();
            let mut buf = vec![0u8; config.chunk_bytes.max(64)];
            let mut reported = FrameStats::default();
            let account = |decoder: &FrameDecoder, reported: &mut FrameStats| {
                let now = decoder.stats();
                recorder.add(Counter::FramesDecoded, now.decoded - reported.decoded);
                recorder.add(Counter::FramesCorrupt, now.corrupt - reported.corrupt);
                *reported = now;
            };
            loop {
                let n = {
                    let _span = StageTimer::start(&*recorder, Stage::Decode);
                    reader.read(&mut buf)?
                };
                if n == 0 {
                    break;
                }
                let batch = {
                    let _span = StageTimer::start(&*recorder, Stage::Decode);
                    decoder.push(&buf[..n]);
                    decoder.drain()
                };
                account(&decoder, &mut reported);
                if !batch.is_empty() && tx.send(batch).is_err() {
                    break;
                }
            }
            let stats = decoder.finish();
            account(&decoder, &mut reported);
            Ok(stats)
        });

        let mut since_poll = 0usize;
        'waves: while let Ok(mut wave) = rx.recv() {
            // Wave drain: scoop whatever the ingest worker already queued
            // (bounded, non-blocking) so one reconstruction pass absorbs a
            // larger contiguous run of records. Poll cadence stays pinned
            // to the absorbed-record count, so the record sequence alone
            // determines when windows close and reports emit — identical
            // output whether records arrived in one wave or many.
            for _ in 0..config.drain_batches {
                match rx.try_recv() {
                    Ok(more) => wave.extend(more),
                    Err(_) => break,
                }
            }
            for rec in wave {
                if to_skip > 0 {
                    // Already durable from the interrupted run; the caller
                    // replayed it into the stream before we started.
                    to_skip -= 1;
                    continue;
                }
                if let Some(ckpt) = checkpoint.as_deref_mut() {
                    if let Err(e) = ckpt.on_record(&rec) {
                        ckpt_error = Some(e);
                        break 'waves;
                    }
                }
                stream.ingest(rec);
                since_poll += 1;
                if since_poll >= poll_every {
                    since_poll = 0;
                    let emitted = stream.poll();
                    if !emitted.is_empty() {
                        if let Some(ckpt) = checkpoint.as_deref_mut() {
                            let flushed =
                                ckpt.on_reports(&emitted).and_then(|()| ckpt.sync());
                            if let Err(e) = flushed {
                                ckpt_error = Some(e);
                                break 'waves;
                            }
                        }
                    }
                    for report in emitted {
                        rolling_reports += 1;
                        on_report(&report);
                    }
                }
                if let Some(every) = metrics_every {
                    since_metrics += 1;
                    if since_metrics >= every {
                        since_metrics = 0;
                        let snap = metrics_recorder.snapshot();
                        on_metrics(&snap.diff(&prev_metrics));
                        prev_metrics = snap;
                    }
                }
            }
        }
        // A checkpoint failure abandons the channel; unblock the ingest
        // worker by draining whatever it still has queued.
        if ckpt_error.is_some() {
            while rx.try_recv().is_ok() {}
            drop(rx);
        }
        match ingest.join().expect("ingest worker does not panic") {
            Ok(stats) => frames = stats,
            Err(e) => read_error = Some(e),
        }
    });

    let reports = stream.finish();
    if ckpt_error.is_none() {
        if let Some(ckpt) = checkpoint {
            // The converged final set — the durable store's last word on
            // every packet, superseding any rolling emissions.
            if let Err(e) = ckpt.on_reports(&reports).and_then(|()| ckpt.sync()) {
                ckpt_error = Some(e);
            }
        }
    }
    if metrics_every.is_some() {
        // The tail interval: whatever accumulated since the last cadence
        // emission, including the final flush's reconstruction work.
        let snap = metrics_recorder.snapshot();
        on_metrics(&snap.diff(&prev_metrics));
    }
    if let Some(e) = read_error {
        return Err(e);
    }
    if let Some(e) = ckpt_error {
        return Err(e);
    }
    Ok(StreamSummary {
        frames,
        stats: stream.stats(),
        rolling_reports,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstructor::StreamConfig;
    use eventlog::frame::encode_records;
    use eventlog::logger::{LocalLog, LogEntry};
    use eventlog::merge::merge_logs;
    use eventlog::watermark::Lateness;
    use eventlog::{Event, EventKind, PacketId};
    use netsim::NodeId;
    use refill::telemetry::Recorder;
    use refill::{CtpVocabulary, Reconstructor};
    use std::io::Cursor;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn recon() -> Reconstructor {
        Reconstructor::new(CtpVocabulary::table2())
    }

    /// A stream of `packets` two-hop deliveries, interleaved per packet.
    fn records(packets: u32) -> Vec<NodeRecord> {
        let mut out = Vec::new();
        for seq in 0..packets {
            let p = PacketId::new(n(1), seq);
            out.push(NodeRecord::new(
                n(1),
                LogEntry {
                    event: Event::new(n(1), EventKind::Trans { to: n(2) }, p),
                    local_ts: Some(u64::from(seq) * 1_000),
                },
            ));
            out.push(NodeRecord::new(
                n(2),
                LogEntry {
                    event: Event::new(n(2), EventKind::Recv { from: n(1) }, p),
                    local_ts: None,
                },
            ));
        }
        out
    }

    fn logs_of(records: &[NodeRecord]) -> Vec<LocalLog> {
        let mut logs: Vec<LocalLog> = Vec::new();
        for r in records {
            match logs.iter_mut().find(|l| l.node == r.node) {
                Some(l) => l.entries.push(r.entry),
                None => logs.push(LocalLog {
                    node: r.node,
                    entries: vec![r.entry],
                }),
            }
        }
        logs
    }

    #[test]
    fn driver_converges_to_batch_over_clean_frames() {
        let recs = records(20);
        let bytes = encode_records(recs.iter());
        let mut stream = StreamReconstructor::with_config(
            recon(),
            StreamConfig {
                lane_capacity: 8,
                lateness: Lateness {
                    records: 2,
                    micros: u64::MAX,
                },
            },
        );
        let config = DriverConfig {
            chunk_bytes: 64, // tiny chunks: frames split across reads
            channel_batches: 2,
            poll_every: 3,
            drain_batches: 4,
        };
        let mut rolling = 0u64;
        let summary =
            run_stream(Cursor::new(&bytes), &mut stream, config, |_| rolling += 1).unwrap();
        assert_eq!(summary.frames, FrameStats { decoded: 40, corrupt: 0 });
        assert_eq!(summary.stats.records, 40);
        assert_eq!(summary.rolling_reports, rolling);
        assert!(rolling > 0, "aggressive lateness must emit mid-stream");

        let batch = recon().reconstruct_log(&merge_logs(&logs_of(&recs)));
        assert_eq!(summary.reports, batch);
    }

    #[test]
    fn wave_draining_never_changes_output() {
        // Poll cadence is pinned to the absorbed-record count, so however
        // many batches a wave scoops up, reports and rolling emission are
        // identical.
        let recs = records(30);
        let bytes = encode_records(recs.iter());
        let run_with = |drain_batches: usize| {
            let mut stream = StreamReconstructor::with_config(
                recon(),
                StreamConfig {
                    lane_capacity: 8,
                    lateness: Lateness {
                        records: 2,
                        micros: u64::MAX,
                    },
                },
            );
            let config = DriverConfig {
                chunk_bytes: 64,
                channel_batches: 2,
                poll_every: 3,
                drain_batches,
            };
            let summary =
                run_stream(Cursor::new(&bytes), &mut stream, config, |_| {}).unwrap();
            (summary.rolling_reports, summary.reports)
        };
        let undrained = run_with(0);
        for drain in [1, 4, 64] {
            assert_eq!(run_with(drain), undrained, "drain_batches = {drain}");
        }
    }

    #[test]
    fn corrupt_bytes_are_skipped_and_counted() {
        let recs = records(10);
        let mut bytes = encode_records(recs.iter());
        // Smash four payload bytes of the 8th frame (offset derived from
        // an encoded prefix, so the damage is strictly inside one frame):
        // exactly one frame is lost, as one maximal corrupt run.
        let target = encode_records(recs.iter().take(7)).len() + 6;
        for b in &mut bytes[target..target + 4] {
            *b ^= 0xA5;
        }
        let mut stream = StreamReconstructor::new(recon());
        let summary =
            run_stream(Cursor::new(&bytes), &mut stream, DriverConfig::default(), |_| {})
                .unwrap();
        assert_eq!(summary.frames.decoded, 19, "one frame lost");
        assert_eq!(summary.frames.corrupt, 1, "one maximal corrupt run");
        // Every packet still reports; the damaged one just has less
        // evidence behind it.
        assert_eq!(summary.reports.len(), 10);
    }

    #[test]
    fn empty_input_is_an_empty_summary() {
        let mut stream = StreamReconstructor::new(recon());
        let summary = run_stream(
            Cursor::new(Vec::new()),
            &mut stream,
            DriverConfig::default(),
            |_| {},
        )
        .unwrap();
        assert_eq!(summary.frames, FrameStats::default());
        assert!(summary.reports.is_empty());
        assert_eq!(summary.rolling_reports, 0);
    }

    #[test]
    fn pure_garbage_counts_one_corrupt_run_and_no_reports() {
        let mut stream = StreamReconstructor::new(recon());
        let summary = run_stream(
            Cursor::new(vec![0u8; 4096]),
            &mut stream,
            DriverConfig::default(),
            |_| {},
        )
        .unwrap();
        assert_eq!(summary.frames.decoded, 0);
        assert_eq!(summary.frames.corrupt, 1);
        assert!(summary.reports.is_empty());
    }

    #[test]
    fn metered_run_emits_interval_deltas_that_sum_to_the_totals() {
        use refill::telemetry::AtomicRecorder;
        let recs = records(20);
        let bytes = encode_records(recs.iter());
        let recorder = Arc::new(AtomicRecorder::new());
        let shared: Arc<dyn Recorder> = recorder.clone();
        let mut stream = StreamReconstructor::new(recon().with_recorder(shared));
        let mut deltas: Vec<TelemetrySnapshot> = Vec::new();
        let summary = run_stream_metered(
            Cursor::new(&bytes),
            &mut stream,
            DriverConfig::default(),
            |_| {},
            Some(7),
            |d| deltas.push(d.clone()),
        )
        .unwrap();
        assert_eq!(summary.stats.records, 40);
        // 40 records at a cadence of 7 → 5 cadence deltas + the final one.
        assert_eq!(deltas.len(), 40 / 7 + 1);
        // Interval deltas are a partition of the totals.
        let final_snap = recorder.snapshot();
        for c in &final_snap.counters {
            let summed: u64 = deltas.iter().map(|d| d.counter(&c.name)).sum();
            assert_eq!(summed, c.value, "deltas must sum to total for {}", c.name);
        }
        assert_eq!(
            deltas
                .iter()
                .map(|d| d.counter("stream_records"))
                .sum::<u64>(),
            40
        );
    }

    #[test]
    fn unmetered_run_matches_metered_reports() {
        let recs = records(12);
        let bytes = encode_records(recs.iter());
        let run = |metered: bool| {
            let mut stream = StreamReconstructor::new(recon());
            if metered {
                run_stream_metered(
                    Cursor::new(&bytes),
                    &mut stream,
                    DriverConfig::default(),
                    |_| {},
                    Some(5),
                    |_| {},
                )
                .unwrap()
                .reports
            } else {
                run_stream(Cursor::new(&bytes), &mut stream, DriverConfig::default(), |_| {})
                    .unwrap()
                    .reports
            }
        };
        assert_eq!(run(true), run(false), "metering must not perturb output");
    }

    /// A reader that fails after a valid prefix: the decodable prefix must
    /// still be flushed, and the error surfaced.
    struct FailingReader {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for FailingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "link dropped",
                ));
            }
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn reader_errors_surface_after_flushing_the_prefix() {
        let recs = records(4);
        let reader = FailingReader {
            data: encode_records(recs.iter()),
            pos: 0,
        };
        let mut stream = StreamReconstructor::new(recon());
        let err = run_stream(reader, &mut stream, DriverConfig::default(), |_| {}).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        // The prefix was still reconstructed before the error surfaced.
        assert_eq!(stream.stats().records, 8);
        assert_eq!(stream.reports().len(), 4);
    }
}
