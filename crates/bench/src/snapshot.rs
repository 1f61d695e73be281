//! The schema of `BENCH_reconstruction.json`, in one place.
//!
//! The checked-in snapshot at the repo root and the writer in
//! `src/bin/bench.rs` go through [`BenchSnapshot`]: the writer constructs
//! one and serializes it, and the schema test below compares the key sets
//! of the checked-in file and of a serialized snapshot, nested objects
//! included, so a stale or a missing key fails and names the side that
//! moved.
//!
//! Every measured field is an `Option`: `None` serializes as `null`.

use refill::telemetry::json::{ToJson, Value};
use refill::telemetry::json_object;

/// The fixed scenario the snapshot was measured on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioInfo {
    pub name: String,
    pub nodes: u64,
    pub days: u64,
    pub seed: u64,
}

/// Mean per-run stage times from the instrumented pipeline passes, in
/// milliseconds: `pack` (merge into the columnar store), `index`,
/// `schedule` (batch planning), then the per-packet stages.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageBreakdownMs {
    pub pack: Option<f64>,
    pub index: Option<f64>,
    pub schedule: Option<f64>,
    pub signature: Option<f64>,
    pub cache: Option<f64>,
    pub transition: Option<f64>,
    pub rehydrate: Option<f64>,
}

/// Everything `BENCH_reconstruction.json` holds, in the key order its
/// `ToJson` writes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchSnapshot {
    pub bench: String,
    pub generated: bool,
    /// Present (with an explanation) when the numbers are placeholders.
    pub note: Option<String>,
    /// Logical CPUs the measuring machine offered.
    pub nproc: Option<u64>,
    /// `rustc --version` of the toolchain on the measuring machine.
    pub rustc: Option<String>,
    pub scenario: ScenarioInfo,
    pub packets: Option<u64>,
    pub merged_events: Option<u64>,
    pub reps: u32,
    /// The sequential reference reconstruction (the test oracle).
    pub sequential_packets_per_sec: Option<f64>,
    /// The pipeline (merge into the columnar store → permutation index →
    /// batch scheduler on `REFILL_BENCH_WORKERS` threads), end to end from
    /// the collected logs.
    pub columnar_packets_per_sec: Option<f64>,
    /// The same pipeline at 1, 2, 4 and 8 workers (`w1` … `w8`).
    pub pipeline_packets_per_sec_by_workers: Option<Value>,
    /// `reconstruct_packet` over every group of a prebuilt store and index,
    /// one packet at a time through a reused scratch arena: the per-packet
    /// hot path without scheduling or caching.
    pub per_packet_packets_per_sec: Option<f64>,
    /// `reconstruct_store` of a prebuilt store and index on one worker
    /// without a cache (merge and index untimed).
    pub direct_packets_per_sec: Option<f64>,
    /// Heap bytes per event in the packed store (records + ts column,
    /// capacity-based) — the SoA memory headline.
    pub bytes_per_event: Option<f64>,
    /// 1 − arena grows / arena acquires over one recorded uncached
    /// `reconstruct_store` pass on one worker: the share of group unpacks
    /// served without reallocating. `None` when the pass recorded no
    /// acquires.
    pub arena_reuse_ratio: Option<f64>,
    /// `reconstruct_store` of a prebuilt store and index on one worker
    /// with a fresh cache per run (merge and index untimed).
    pub cached_cold_packets_per_sec: Option<f64>,
    /// `reconstruct_store` of a prebuilt store and index on one worker
    /// with one cache shared across runs (merge and index untimed); the
    /// baseline of both overhead ratios.
    pub cached_warm_packets_per_sec: Option<f64>,
    /// The warm cached pass on all workers.
    pub cached_parallel_warm_packets_per_sec: Option<f64>,
    pub cache_hit_rate: Option<f64>,
    pub unique_signatures: Option<u64>,
    pub cache_evictions: Option<u64>,
    pub group_by_packet_ms: Option<f64>,
    /// `merge_logs_store` on 1,200 synthetic sorted logs.
    pub merge_parallel_mevents_per_sec: Option<f64>,
    pub merge_partitions: Option<u64>,
    /// Per-fan-in merge sweep; free-form because the K set may change.
    pub merge_by_k_ms: Option<Value>,
    pub telemetry_packets_per_sec: Option<f64>,
    pub telemetry_overhead_ratio: Option<f64>,
    /// Warm cached pass with a full-capture provenance sink attached,
    /// relative to the same pass with no sink (the zero-cost disabled
    /// path) — the price of ledger capture at 100% sampling.
    pub provenance_overhead_ratio: Option<f64>,
    /// The same ratio with a 1-in-64 sampler.
    pub provenance_sampled_overhead_ratio: Option<f64>,
    /// Mean microseconds to build one packet's explanation narrative
    /// (ledger entry + diagnosis + rule text) from a finished report.
    pub explain_us_per_flow: Option<f64>,
    /// Mean microseconds to diagnose one finished report.
    pub diagnose_us_per_flow: Option<f64>,
    pub stage_breakdown_ms: StageBreakdownMs,
    pub fsm_steps: Option<u64>,
    pub fsm_jump_transitions: Option<u64>,
    pub fsm_forced_steps: Option<u64>,
    pub stream_records: Option<u64>,
    pub stream_frames_decoded: Option<u64>,
    pub stream_frames_corrupt: Option<u64>,
    pub stream_packets: Option<u64>,
    pub stream_cold_records_per_sec: Option<f64>,
    pub stream_cold_packets_per_sec: Option<f64>,
    /// `decode_all` of the replay's framed bytes, records per second.
    pub stream_decode_mrecords_per_sec: Option<f64>,
    /// Durable segment store: event-row append throughput (open + chunked
    /// appends + fsync into a fresh directory).
    pub store_append_mevents_per_sec: Option<f64>,
    /// Full-scan query throughput over the persisted store (every block
    /// decoded and CRC-checked, no pushdown skips).
    pub query_scan_mevents_per_sec: Option<f64>,
    /// Cold `SegmentStore::open` on the persisted store — the crash
    /// recovery scan (manifest reconciliation + block validation).
    pub recovery_ms: Option<f64>,
    /// Simulator substrate, mean milliseconds per call: the event
    /// scheduler, link-table builds, routing and a whole campaign.
    pub substrate_ms: Option<Value>,
    /// Inference-engine core, mean microseconds per call: FSM
    /// augmentation, CTP model build, chain reconstruction and cascaded
    /// forcing.
    pub engine_us: Option<Value>,
    pub peak_rss_kib: Option<u64>,
}

impl ToJson for ScenarioInfo {
    fn to_json(&self) -> Value {
        json_object! {
            "name": self.name,
            "nodes": self.nodes,
            "days": self.days,
            "seed": self.seed,
        }
    }
}

impl ToJson for StageBreakdownMs {
    fn to_json(&self) -> Value {
        json_object! {
            "pack": self.pack,
            "index": self.index,
            "schedule": self.schedule,
            "signature": self.signature,
            "cache": self.cache,
            "transition": self.transition,
            "rehydrate": self.rehydrate,
        }
    }
}

impl ToJson for BenchSnapshot {
    fn to_json(&self) -> Value {
        json_object! {
            "bench": self.bench,
            "generated": self.generated,
            "note": self.note,
            "nproc": self.nproc,
            "rustc": self.rustc,
            "scenario": self.scenario,
            "packets": self.packets,
            "merged_events": self.merged_events,
            "reps": self.reps,
            "sequential_packets_per_sec": self.sequential_packets_per_sec,
            "columnar_packets_per_sec": self.columnar_packets_per_sec,
            "pipeline_packets_per_sec_by_workers": self.pipeline_packets_per_sec_by_workers,
            "per_packet_packets_per_sec": self.per_packet_packets_per_sec,
            "direct_packets_per_sec": self.direct_packets_per_sec,
            "bytes_per_event": self.bytes_per_event,
            "arena_reuse_ratio": self.arena_reuse_ratio,
            "cached_cold_packets_per_sec": self.cached_cold_packets_per_sec,
            "cached_warm_packets_per_sec": self.cached_warm_packets_per_sec,
            "cached_parallel_warm_packets_per_sec": self.cached_parallel_warm_packets_per_sec,
            "cache_hit_rate": self.cache_hit_rate,
            "unique_signatures": self.unique_signatures,
            "cache_evictions": self.cache_evictions,
            "group_by_packet_ms": self.group_by_packet_ms,
            "merge_parallel_mevents_per_sec": self.merge_parallel_mevents_per_sec,
            "merge_partitions": self.merge_partitions,
            "merge_by_k_ms": self.merge_by_k_ms,
            "telemetry_packets_per_sec": self.telemetry_packets_per_sec,
            "telemetry_overhead_ratio": self.telemetry_overhead_ratio,
            "provenance_overhead_ratio": self.provenance_overhead_ratio,
            "provenance_sampled_overhead_ratio": self.provenance_sampled_overhead_ratio,
            "explain_us_per_flow": self.explain_us_per_flow,
            "diagnose_us_per_flow": self.diagnose_us_per_flow,
            "stage_breakdown_ms": self.stage_breakdown_ms,
            "fsm_steps": self.fsm_steps,
            "fsm_jump_transitions": self.fsm_jump_transitions,
            "fsm_forced_steps": self.fsm_forced_steps,
            "stream_records": self.stream_records,
            "stream_frames_decoded": self.stream_frames_decoded,
            "stream_frames_corrupt": self.stream_frames_corrupt,
            "stream_packets": self.stream_packets,
            "stream_cold_records_per_sec": self.stream_cold_records_per_sec,
            "stream_cold_packets_per_sec": self.stream_cold_packets_per_sec,
            "stream_decode_mrecords_per_sec": self.stream_decode_mrecords_per_sec,
            "store_append_mevents_per_sec": self.store_append_mevents_per_sec,
            "query_scan_mevents_per_sec": self.query_scan_mevents_per_sec,
            "recovery_ms": self.recovery_ms,
            "substrate_ms": self.substrate_ms,
            "engine_us": self.engine_us,
            "peak_rss_kib": self.peak_rss_kib,
        }
    }
}

impl BenchSnapshot {
    /// Serialize with a trailing newline, ready to write to disk.
    pub fn to_json_pretty(&self) -> String {
        let mut body = self.to_json().to_pretty();
        body.push('\n');
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refill::telemetry::json;

    fn checked_in() -> Value {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_reconstruction.json"
        );
        let body = std::fs::read_to_string(path).expect("checked-in snapshot exists");
        json::parse(&body).expect("checked-in snapshot is JSON")
    }

    fn keys(v: &Value) -> Vec<&str> {
        v.as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    /// The checked-in snapshot and the writer schema cannot diverge: the
    /// key lists (in order) of the file and of a serialized snapshot must
    /// be equal, nested objects included, so keys the schema dropped and
    /// keys the file is missing both fail.
    #[test]
    fn checked_in_snapshot_matches_schema() {
        let raw = checked_in();
        let ser = BenchSnapshot::default().to_json();
        assert_eq!(keys(&raw), keys(&ser), "top-level keys drifted");
        assert_eq!(keys(&raw["scenario"]), keys(&ser["scenario"]));
        assert_eq!(
            keys(&raw["stage_breakdown_ms"]),
            keys(&ser["stage_breakdown_ms"])
        );
    }

    /// The measuring machine is part of every generated snapshot.
    #[test]
    fn generated_snapshot_records_its_machine() {
        let raw = checked_in();
        if raw["generated"].as_bool() == Some(true) {
            assert!(raw["nproc"].as_u64().is_some_and(|n| n > 0));
            assert!(raw["rustc"]
                .as_str()
                .is_some_and(|v| v.starts_with("rustc ")));
        }
    }

    /// Round trip: a snapshot survives serialize → parse as the same tree.
    #[test]
    fn snapshot_roundtrips() {
        let snap = BenchSnapshot {
            generated: true,
            nproc: Some(2),
            rustc: Some("rustc 1.0.0".into()),
            packets: Some(7),
            sequential_packets_per_sec: Some(1234.5),
            merge_by_k_ms: Some(json_object! { "k60": json_object! { "merge_ms": 0.25 } }),
            ..BenchSnapshot::default()
        };
        let body = snap.to_json_pretty();
        assert_eq!(json::parse(&body), Ok(snap.to_json()));
    }
}
