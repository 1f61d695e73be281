//! Perf snapshot: measures reconstruction throughput on a fixed scenario
//! and writes `BENCH_reconstruction.json` at the repo root, so successive
//! changes to the hot path leave a comparable trajectory. Besides the
//! pipeline it times the layers under it: the simulator substrate
//! (scheduler, link tables, routing, a whole campaign) and the inference
//! engine core (FSM augmentation, chain reconstruction, cascaded forcing).
//!
//! Run with: `cargo run --release -p bench --bin bench`
//!
//! * `REFILL_BENCH_OUT` — override the output path
//! * `REFILL_BENCH_REPS` — measured repetitions per driver (default 3)
//! * `REFILL_BENCH_WORKERS` — worker threads for the pipeline (default:
//!   available parallelism)

use bench::synth_merge_logs;
use bench::{BenchSnapshot, ScenarioInfo, StageBreakdownMs};
use citysee::{run_scenario, Scenario};
use eventlog::columnar::{ColumnarIndex, ScratchArena};
use eventlog::{available_workers, merge_logs_store, merge_logs_store_recorded};
use eventlog::{Event, EventKind, PacketId};
use netsim::link::{LinkModel, LinkModelConfig, NoModulation};
use netsim::topology::Layout;
use netsim::{NodeId, RngFactory, Scheduler, SimTime, Topology};
use protocols::ctp::{true_path_costs, RoutingState};
use protocols::schedule::FaultSchedule;
use protocols::{SimConfig, Simulator};
use refill::ctp_model::CtpModel;
use refill::fsm::{FsmBuilder, FsmTemplate, StateId};
use refill::net::{ConnectedNet, InterRule};
use refill::provenance::{ProvenanceSink, TraceSampler};
use refill::sigcache::SigCache;
use refill::telemetry::json::Value;
use refill::telemetry::json_object;
use refill::telemetry::{AtomicRecorder, Recorder, TelemetrySnapshot};
use refill::trace::{CtpVocabulary, Reconstructor};
use std::sync::Arc;
use std::time::Instant;

/// Peak resident set size in kiB from `/proc/self/status` (Linux-only; the
/// snapshot records `null` elsewhere — RSS is a nice-to-have, not a gate).
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// `rustc --version` of the toolchain on `PATH`, if there is one.
fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc").arg("--version").output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|v| out.status.success() && !v.is_empty())
}

/// Mean seconds per call over `reps` measured calls (after one warm-up).
fn time_call<T>(mut f: impl FnMut() -> T, reps: u32) -> f64 {
    std::hint::black_box(f());
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() / f64::from(reps)
}

/// A jittered-grid deployment of `n` nodes at the simulator's density,
/// with its link table.
fn deployment(n: usize) -> (Topology, netsim::LinkQualityTable, RngFactory) {
    let factory = RngFactory::new(5);
    let side = 45.0 * (n as f64).sqrt();
    let topo = Topology::generate(n, side, Layout::JitteredGrid, &factory);
    let table = LinkModel::build_table(&topo, &LinkModelConfig::default(), &factory);
    (topo, table, factory)
}

/// The simulator substrate, mean milliseconds per call.
fn substrate_ms(reps: u32) -> Value {
    let ms = |secs: f64| secs * 1e3;
    // Interleaved schedule/pop pattern typical of the simulator.
    let scheduler = time_call(
        || {
            let mut s = Scheduler::new();
            for i in 0..100_000u64 {
                s.schedule(SimTime::from_micros(i * 7 % 1000 + i), i);
                if i % 2 == 0 {
                    std::hint::black_box(s.pop());
                }
            }
            while std::hint::black_box(s.pop()).is_some() {}
        },
        reps,
    );
    let link_table = |n: usize| {
        let (topo, _, factory) = deployment(n);
        time_call(
            || LinkModel::build_table(&topo, &LinkModelConfig::default(), &factory),
            reps,
        )
    };
    let (topo, table, _) = deployment(300);
    let links = LinkModel::new(table, Box::new(NoModulation));
    let dijkstra = time_call(|| true_path_costs(&topo, &links, SimTime::ZERO), reps);
    let converge = time_call(|| RoutingState::converged(&topo, &links, SimTime::ZERO), reps);
    let campaign = time_call(
        || {
            let (topo, table, _) = deployment(150);
            let config = SimConfig {
                duration: SimTime::from_secs(120),
                ..SimConfig::default()
            };
            let sim = Simulator::new(topo, table, FaultSchedule::default(), config);
            sim.run().truth.events.len()
        },
        reps,
    );
    json_object! {
        "scheduler_100k": ms(scheduler),
        "link_table_300": ms(link_table(300)),
        "link_table_1200": ms(link_table(1200)),
        "routing_dijkstra_300": ms(dijkstra),
        "routing_converge_300": ms(converge),
        "simulate_campaign_150": ms(campaign),
    }
}

/// The inference-engine core, mean microseconds per call.
fn engine_us(reps: u32) -> Value {
    let us = |secs: f64| secs * 1e6;
    // Build and augment a chain FSM of 128 states with distinct labels.
    let augment = time_call(
        || {
            let mut builder = FsmBuilder::new("chain");
            let states: Vec<_> = (0..128).map(|i| builder.state(format!("s{i}"))).collect();
            for (i, pair) in states.windows(2).enumerate() {
                builder.t(pair[0], i as u32, pair[1]);
            }
            builder.build().expect("a chain is a valid FSM")
        },
        reps,
    );
    let model = time_call(|| CtpModel::new(CtpVocabulary::citysee()), reps);
    // One packet over a 32-hop path with complete logs.
    let recon = Reconstructor::new(CtpVocabulary::table2());
    let p = PacketId::new(NodeId(0), 0);
    let chain: Vec<Event> = (0..32u16)
        .flat_map(|h| {
            let (u, v) = (NodeId(h), NodeId(h + 1));
            [
                Event::new(u, EventKind::Trans { to: v }, p),
                Event::new(v, EventKind::Recv { from: u }, p),
                Event::new(u, EventKind::AckRecvd { to: v }, p),
            ]
        })
        .collect();
    let reconstruct = time_call(|| recon.reconstruct_packet(p, &chain), reps);
    // The Figure 3a shape at depth 128: engine 0's final event requires
    // engine 1's End, which requires engine 2's End, … with every other
    // log empty, so the whole cascade is forced.
    fn chain_template(i: usize) -> FsmTemplate<(usize, u8)> {
        let mut b = FsmBuilder::new(format!("n{i}"));
        let init = b.state("Init");
        let mid = b.state("Mid");
        let end = b.state("End");
        b.t(init, (i, 0), mid).t(mid, (i, 1), end);
        b.build().expect("a chain is a valid FSM")
    }
    let cascade = time_call(
        || {
            let depth = 128;
            let mut net: ConnectedNet<(usize, u8), (usize, u8)> = ConnectedNet::new();
            let engines: Vec<_> = (0..depth)
                .map(|i| {
                    let t = net.add_template(chain_template(i));
                    net.add_engine(t, format!("n{i}"))
                })
                .collect();
            for i in 0..depth - 1 {
                let end = StateId(2);
                let rule = InterRule {
                    peer: engines[i + 1],
                    satisfying: vec![end],
                    canonical: end,
                };
                net.add_rule(engines[i], (i, 1), rule);
            }
            net.push_event(engines[0], (0usize, 0u8));
            net.push_event(engines[0], (0usize, 1u8));
            net.run(|e| *e, |_, t| t.label).flow.len()
        },
        reps,
    );
    json_object! {
        "fsm_augment_128": us(augment),
        "ctp_model_build": us(model),
        "reconstruct_chain_32": us(reconstruct),
        "cascaded_inference_128": us(cascade),
    }
}

fn main() {
    let reps: u32 = std::env::var("REFILL_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let workers: usize = std::env::var("REFILL_BENCH_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(available_workers);
    let scenario = Scenario {
        days: 3,
        ..Scenario::small()
    };
    eprintln!(
        "[bench] perf snapshot on '{}': {} nodes, {} days, {} reps",
        scenario.name, scenario.nodes, scenario.days, reps
    );
    let campaign = run_scenario(&scenario);
    let sink = campaign.topology.sink();
    let logs = &campaign.collected;
    let new_recon = || Reconstructor::new(CtpVocabulary::citysee()).with_sink(sink);
    let recon = new_recon();
    let store = merge_logs_store(logs);
    let index = ColumnarIndex::build(&store);
    let packets = index.len();
    let events = store.len();
    eprintln!("[bench] {packets} packets, {events} merged events");

    // The sequential reference (the test oracle): hash-map grouping of the
    // merged events, one packet at a time.
    let group_hashmap_s = time_call(|| campaign.merged.by_packet(), reps);
    let sequential_s = time_call(|| recon.reconstruct_log(&campaign.merged), reps);

    // The pipeline, end to end from the collected per-node logs: merge
    // into the columnar store, index, and reconstruct on `workers` threads.
    let pipeline_s = time_call(|| recon.reconstruct_logs(logs, workers), reps);
    let mut pipeline_by_workers = Vec::new();
    for w in [1usize, 2, 4, 8] {
        let secs = time_call(|| recon.reconstruct_logs(logs, w), reps);
        pipeline_by_workers.push((format!("w{w}"), Value::F64(packets as f64 / secs)));
    }
    // The per-packet hot path alone: every group of the prebuilt store
    // and index unpacked into a reused arena and reconstructed in turn.
    let per_packet_s = time_call(
        || {
            let mut scratch = ScratchArena::new();
            index
                .iter()
                .map(|(id, positions)| {
                    let events = scratch.unpack(&store, positions);
                    recon.reconstruct_packet(id, events).flow.inferred_count()
                })
                .sum::<usize>()
        },
        reps,
    );
    let direct_s = time_call(|| recon.reconstruct_store(&store, &index, 1), reps);
    // Memory shape of the packed store itself.
    let bytes_per_event = (store.heap_bytes() as f64) / (store.len().max(1) as f64);

    // Cached reconstruction of the prebuilt store and index on one worker
    // (merge and index are not timed, so these and the overhead ratios
    // below price the per-packet path alone). Cold builds (and fills) a
    // fresh cache every call — the first-sight cost including
    // canonicalization and template publication; warm shares one cache
    // across calls — the steady-state cost, which is what a long-running
    // collection service sees.
    let cached_cold_s = time_call(
        || {
            new_recon()
                .with_cache(Arc::new(SigCache::default()))
                .reconstruct_store(&store, &index, 1)
        },
        reps,
    );
    let shared = Arc::new(SigCache::default());
    let warm_recon = new_recon().with_cache(Arc::clone(&shared));
    let cached_warm_s = time_call(|| warm_recon.reconstruct_store(&store, &index, 1), reps);
    let cached_parallel_warm_s =
        time_call(|| warm_recon.reconstruct_store(&store, &index, workers), reps);
    let cache_stats = shared.stats();

    // Provenance capture overhead: the same warm cached pass with a
    // full-capture ledger sink attached. The baseline is `cached_warm`
    // above — a reconstructor simply *without* a sink is the disabled
    // path, so the ratio prices ledger capture at 100% sampling.
    let prov_sink = Arc::new(ProvenanceSink::new(TraceSampler::always()));
    let prov_recon = new_recon()
        .with_provenance(Arc::clone(&prov_sink))
        .with_cache(Arc::clone(&shared));
    let prov_warm_s = time_call(|| prov_recon.reconstruct_store(&store, &index, 1), reps);
    let sampled_recon = new_recon()
        .with_provenance(Arc::new(ProvenanceSink::new(TraceSampler::one_in(64))))
        .with_cache(Arc::clone(&shared));
    let sampled_warm_s = time_call(|| sampled_recon.reconstruct_store(&store, &index, 1), reps);

    // Narrative cost: mean time to build one packet's explanation from a
    // finished report (ledger entry + diagnosis + rule text).
    let explain_reports = warm_recon.reconstruct_store(&store, &index, 1);
    let explain_diagnoser = refill::Diagnoser::new().with_sink(sink);
    let explain_s = time_call(
        || {
            explain_reports
                .iter()
                .map(|r| refill::explain::explain(r, &explain_diagnoser, None).confidence)
                .sum::<f64>()
        },
        reps,
    );
    let per_flow_us = |secs: f64| secs * 1e6 / (explain_reports.len().max(1) as f64);
    let explain_us_per_flow = per_flow_us(explain_s);
    let diagnose_s = time_call(
        || {
            explain_reports
                .iter()
                .filter(|r| explain_diagnoser.diagnose(r, None).delivered)
                .count()
        },
        reps,
    );

    // Instrumented pass: the same warm cached reconstruction with a live
    // recorder attached (cache counters included); the throughput delta
    // vs `cached_warm` measures telemetry overhead. A recorded merge and
    // index, timed separately with the same number of passes, give the
    // pack and index stages their spans, so the snapshot gets a real stage
    // breakdown for every layer — pack, index, schedule, signature, cache,
    // transition, rehydrate.
    let recorder = Arc::new(AtomicRecorder::new());
    let recorded_cache = Arc::new(SigCache::default().with_recorder(recorder.clone()));
    let recorded_recon = new_recon()
        .with_recorder(recorder.clone())
        .with_cache(recorded_cache);
    let telemetry_warm_s = time_call(|| recorded_recon.reconstruct_store(&store, &index, 1), reps);
    let _ = time_call(
        || {
            let store = merge_logs_store_recorded(logs, &*recorder);
            ColumnarIndex::build_recorded(&store, &*recorder).len()
        },
        reps,
    );
    let telemetry = recorder.snapshot();
    // Arena reuse from one recorded uncached pass on one worker, outside
    // the timed loops: with a cache, groups unpack through the arena only
    // when the cache cannot answer them, so the instrumented passes above
    // record (almost) no acquires. No acquires means no ratio, not 0.
    let arena_reuse_ratio = {
        let rec = Arc::new(AtomicRecorder::new());
        new_recon()
            .with_recorder(rec.clone())
            .reconstruct_store(&store, &index, 1);
        let snap = rec.snapshot();
        let acquires = snap.counter("arena_acquires");
        (acquires > 0).then(|| 1.0 - snap.counter("arena_grows") as f64 / acquires as f64)
    };

    // Merge fan-in sweep on synthetic sorted logs at the paper's
    // deployment scale (K = 1200 nodes) and two smaller fan-ins, fixed
    // total event count. The headline field reports K = 1200; the per-K
    // map keeps the whole sweep. The partition count the merge picks is
    // read back from a recorded merge.
    let merge_sweep_total = 1_200_000usize;
    let mut merge_by_k = Vec::new();
    let mut merge_eps = 0.0f64;
    for k in [60usize, 300, 1200] {
        let logs = synth_merge_logs(k, merge_sweep_total);
        let sweep_events: usize = logs.iter().map(|l| l.len()).sum();
        let merge_s = time_call(|| merge_logs_store(&logs), reps);
        if k == 1200 {
            merge_eps = sweep_events as f64 / merge_s;
        }
        merge_by_k.push((
            format!("k{k}"),
            json_object! { "events": sweep_events, "merge_ms": merge_s * 1e3 },
        ));
    }
    let merge_partitions = {
        let rec = AtomicRecorder::new();
        let _ = merge_logs_store_recorded(&synth_merge_logs(1200, merge_sweep_total), &rec);
        rec.snapshot().counter("merge_partitions")
    };
    // Streaming path: the same campaign replayed cold through the framed
    // online pipeline (resynchronizing decode, watermark windowing,
    // per-close reconstruction), the way a restarted collection service
    // would.
    let replay = refill_stream::Replay::from_campaign(&campaign, f64::INFINITY);
    let stream_bytes = replay.encode();
    let stream_records = replay.records().len();
    let stream_decode_s = time_call(|| eventlog::frame::decode_all(&stream_bytes), reps);
    let mut stream_packets = 0usize;
    let mut stream_frames = eventlog::frame::FrameStats::default();
    let stream_cold_s = time_call(
        || {
            let mut stream = refill_stream::StreamReconstructor::new(
                Reconstructor::new(CtpVocabulary::citysee()).with_sink(campaign.topology.sink()),
            );
            let summary = refill_stream::run_stream(
                std::io::Cursor::new(&stream_bytes),
                &mut stream,
                refill_stream::DriverConfig::default(),
                |_| {},
            )
            .expect("in-memory replay does not fail");
            stream_packets = summary.reports.len();
            stream_frames = summary.frames;
            summary.stats.records
        },
        reps,
    );

    // Durable segment store: append the campaign's packed rows into a
    // fresh on-disk store (open + chunked appends + fsync), full-scan it
    // through the query engine, and reopen it cold — the crash recovery
    // scan. Each append rep rebuilds the directory from scratch so the
    // timing never measures an already-populated store; the last rep's
    // store stays on disk for the query and recovery measurements.
    let store_dir = std::env::temp_dir().join(format!("refill-bench-store-{}", std::process::id()));
    let event_rows: Vec<(eventlog::PackedEvent, u64)> = store
        .records()
        .iter()
        .copied()
        .zip(store.ts_column().iter().copied())
        .collect();
    let store_append_s = time_call(
        || {
            let _ = std::fs::remove_dir_all(&store_dir);
            std::fs::create_dir_all(&store_dir).expect("create store dir");
            let (seg, _) = refill_store::SegmentStore::open(&store_dir).expect("open store");
            let mut seg = seg.with_roll_bytes(4 * 1024 * 1024);
            for chunk in event_rows.chunks(64 * 1024) {
                seg.append_events(chunk).expect("append events");
            }
            seg.sync().expect("sync store");
            seg.total_events()
        },
        reps,
    );
    let (seg, _) = refill_store::SegmentStore::open(&store_dir).expect("reopen store");
    let store_segments = seg.segments().len();
    let query_scan_s = time_call(
        || {
            let out = seg
                .query(&refill_store::Query::default())
                .expect("full-scan query");
            assert_eq!(out.stats.event_rows_matched, event_rows.len() as u64);
            out.stats.event_rows_scanned
        },
        reps,
    );
    drop(seg);
    let recovery_s = time_call(
        || {
            let (seg, report) = refill_store::SegmentStore::open(&store_dir).expect("recovery open");
            assert_eq!(seg.total_events(), event_rows.len() as u64);
            report.segments
        },
        reps,
    );
    let _ = std::fs::remove_dir_all(&store_dir);
    let store_meps = |secs: f64| event_rows.len() as f64 / secs / 1e6;

    // Stage totals accumulate over every call, including the warm-up, so
    // the per-run figure divides by reps + 1.
    let passes = f64::from(reps + 1);
    let stage_ms = |snapshot: &TelemetrySnapshot, name: &str| {
        snapshot.stage(name).map(|s| s.total_ns as f64 / 1e6 / passes)
    };

    let pps = |secs: f64| packets as f64 / secs;
    let snapshot = BenchSnapshot {
        bench: "reconstruction".into(),
        generated: true,
        note: None,
        nproc: std::thread::available_parallelism()
            .ok()
            .map(|n| n.get() as u64),
        rustc: rustc_version(),
        scenario: ScenarioInfo {
            name: scenario.name.clone(),
            nodes: scenario.nodes as u64,
            days: u64::from(scenario.days),
            seed: scenario.seed,
        },
        packets: Some(packets as u64),
        merged_events: Some(events as u64),
        reps,
        sequential_packets_per_sec: Some(pps(sequential_s)),
        columnar_packets_per_sec: Some(pps(pipeline_s)),
        pipeline_packets_per_sec_by_workers: Some(Value::Object(pipeline_by_workers)),
        per_packet_packets_per_sec: Some(pps(per_packet_s)),
        direct_packets_per_sec: Some(pps(direct_s)),
        bytes_per_event: Some(bytes_per_event),
        arena_reuse_ratio,
        cached_cold_packets_per_sec: Some(pps(cached_cold_s)),
        cached_warm_packets_per_sec: Some(pps(cached_warm_s)),
        cached_parallel_warm_packets_per_sec: Some(pps(cached_parallel_warm_s)),
        cache_hit_rate: Some(cache_stats.hit_rate()),
        unique_signatures: Some(cache_stats.unique_signatures()),
        cache_evictions: Some(cache_stats.evictions),
        group_by_packet_ms: Some(group_hashmap_s * 1e3),
        merge_parallel_mevents_per_sec: Some(merge_eps / 1e6),
        merge_partitions: Some(merge_partitions),
        merge_by_k_ms: Some(Value::Object(merge_by_k)),
        telemetry_packets_per_sec: Some(pps(telemetry_warm_s)),
        telemetry_overhead_ratio: Some(telemetry_warm_s / cached_warm_s),
        provenance_overhead_ratio: Some(prov_warm_s / cached_warm_s),
        provenance_sampled_overhead_ratio: Some(sampled_warm_s / cached_warm_s),
        explain_us_per_flow: Some(explain_us_per_flow),
        diagnose_us_per_flow: Some(per_flow_us(diagnose_s)),
        // Mean per-run stage time from the instrumented passes (they
        // include the one cold run that fills the cache, hence transition
        // > rehydrate even at a high hit rate).
        stage_breakdown_ms: StageBreakdownMs {
            pack: stage_ms(&telemetry, "pack"),
            index: stage_ms(&telemetry, "index"),
            schedule: stage_ms(&telemetry, "schedule"),
            signature: stage_ms(&telemetry, "signature"),
            cache: stage_ms(&telemetry, "cache"),
            transition: stage_ms(&telemetry, "transition"),
            rehydrate: stage_ms(&telemetry, "rehydrate"),
        },
        // Totals over all instrumented passes; the warm passes rehydrate,
        // so these are dominated by the single cold pass.
        fsm_steps: Some(telemetry.counter("fsm_steps")),
        fsm_jump_transitions: Some(telemetry.counter("fsm_jump_transitions")),
        fsm_forced_steps: Some(telemetry.counter("fsm_forced_steps")),
        stream_records: Some(stream_records as u64),
        stream_frames_decoded: Some(stream_frames.decoded),
        stream_frames_corrupt: Some(stream_frames.corrupt),
        stream_packets: Some(stream_packets as u64),
        stream_cold_records_per_sec: Some(stream_records as f64 / stream_cold_s),
        stream_cold_packets_per_sec: Some(stream_packets as f64 / stream_cold_s),
        stream_decode_mrecords_per_sec: Some(stream_records as f64 / stream_decode_s / 1e6),
        store_append_mevents_per_sec: Some(store_meps(store_append_s)),
        query_scan_mevents_per_sec: Some(store_meps(query_scan_s)),
        recovery_ms: Some(recovery_s * 1e3),
        substrate_ms: Some(substrate_ms(reps)),
        engine_us: Some(engine_us(reps)),
        peak_rss_kib: peak_rss_kib(),
    };

    let out = std::env::var("REFILL_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_reconstruction.json").into()
    });
    std::fs::write(&out, snapshot.to_json_pretty()).expect("write BENCH_reconstruction.json");
    eprintln!(
        "[bench] wrote {out}: {:.0} packets/sec sequential reference",
        pps(sequential_s),
    );
    eprintln!(
        "[bench] pipeline({workers} workers): {:.0} packets/sec, {:.1} bytes/event, \
         {} arena reuse",
        pps(pipeline_s),
        bytes_per_event,
        arena_reuse_ratio.map_or("no".into(), |r| format!("{r:.2}")),
    );
    eprintln!(
        "[bench] cached: {:.0} cold, {:.0} warm ({:.1}% hit rate, {} unique shapes)",
        pps(cached_cold_s),
        pps(cached_warm_s),
        cache_stats.hit_rate() * 100.0,
        cache_stats.unique_signatures(),
    );
    eprintln!(
        "[bench] telemetry: {:.0} packets/sec instrumented ({:.2}x of plain warm)",
        pps(telemetry_warm_s),
        telemetry_warm_s / cached_warm_s,
    );
    eprintln!(
        "[bench] provenance: {:.2}x of plain warm at full capture ({} flows in the ledger), \
         {:.1} us/flow to explain",
        prov_warm_s / cached_warm_s,
        prov_sink.ledger().len(),
        explain_us_per_flow,
    );
    eprintln!(
        "[bench] merge (K=1200): {:.1} Mevents/sec ({} partitions)",
        merge_eps / 1e6,
        merge_partitions,
    );
    eprintln!(
        "[bench] stream: {} records replayed cold at {:.0} records/sec ({:.0} packets/sec, {} corrupt frames)",
        stream_records,
        stream_records as f64 / stream_cold_s,
        stream_packets as f64 / stream_cold_s,
        stream_frames.corrupt,
    );
    eprintln!(
        "[bench] store: {:.1} Mevents/sec append, {:.1} Mevents/sec full scan, \
         {:.1} ms recovery open ({} segments)",
        store_meps(store_append_s),
        store_meps(query_scan_s),
        recovery_s * 1e3,
        store_segments,
    );
    // Keep the pipeline honest: it reports exactly the packets the
    // oracle's grouping finds.
    assert_eq!(
        explain_reports.len(),
        packets,
        "the pipeline covers every packet"
    );
    assert_eq!(campaign.merged.packet_ids().len(), packets);
}
