//! Observability: the whole CLX loop under a live metric sink.
//!
//! An `InMemorySink` is attached at session construction, so every layer
//! reports into one place:
//!
//! * `core.phase.*` — per-phase latency histograms of the
//!   Cluster–Label–Transform loop (cluster, label, synthesize, compile,
//!   apply);
//! * `column.builder.build_ns` / `column.interner.*` — column-build
//!   latency, interner hit/miss counters, arena byte gauges and eviction
//!   batches;
//! * `engine.stream.*` — per-chunk latency and rows/s histograms, the
//!   decision-cache hit/miss counters, memory gauges;
//! * `engine.dispatch.*` — leaf-id dispatch hits and misses.
//!
//! The stream runs a 100k-row duplicate-heavy phone workload under a
//! deliberately tight `max_distinct(256)` budget (the column has ~1k
//! distinct values), so interner evictions fire at chunk boundaries and
//! show up in the counters.
//!
//! The same pipeline without a sink pays nothing: no clock reads, no
//! atomic traffic — one `Option` branch per phase (see
//! `benches/telemetry_overhead.rs` for the measurement).
//!
//! Run with: `cargo run --release --example observability`

use std::sync::Arc;

use clx::datagen::duplicate_heavy_case;
use clx::{ClxOptions, ClxSession, InMemorySink, MetricSink, StreamBudget};

fn main() {
    let case = duplicate_heavy_case(100_000, 1_000, 42);
    let sink = InMemorySink::shared();

    // ---- Interactive phase on a sample, observed end to end ----------------
    let sample: Vec<String> = case.data.iter().take(2_000).cloned().collect();
    let session = ClxSession::with_telemetry(
        sample,
        ClxOptions::default(),
        Arc::clone(&sink) as Arc<dyn MetricSink>,
    );
    let session = session
        .label_by_example(&case.target_example)
        .expect("label");
    session.apply().expect("apply");

    // ---- Budgeted streaming ingest of the full column ----------------------
    // max_distinct(256) < ~1k distinct: evictions fire at chunk boundaries.
    let mut stream = session
        .stream_columns_with_budget(StreamBudget::max_distinct(256))
        .expect("compile");
    for rows in case.data.chunks(8_192) {
        stream.push_rows(rows);
    }
    let summary = stream.finish();
    println!(
        "streamed {} rows in {} chunks: {} evictions, decision cache {:.1}% hits ({} hits / {} misses)\n",
        summary.rows(),
        summary.chunks,
        summary.evictions,
        summary.decision_cache_hit_rate() * 100.0,
        summary.decision_cache_hits,
        summary.decision_cache_misses,
    );

    // ---- The live snapshot, both renderings --------------------------------
    let snapshot = sink.snapshot();

    println!("== phase latency (ns) ==");
    for (name, h) in &snapshot.histograms {
        if name.starts_with("core.phase.") {
            println!(
                "{name:<28} count {:>3}  p50 {:>12}  p95 {:>12}  p99 {:>12}",
                h.count, h.p50, h.p95, h.p99
            );
        }
    }

    println!("\n== counters ==");
    for (name, value) in &snapshot.counters {
        println!("{name:<36} {value}");
    }

    println!("\n== gauges ==");
    for (name, value) in &snapshot.gauges {
        println!("{name:<36} {value}");
    }

    println!("\n== JSON export (truncated) ==");
    let json = snapshot.to_json();
    println!("{}...", &json[..json.len().min(400)]);

    println!("\n== Prometheus export (first 20 lines) ==");
    for line in snapshot.to_prometheus().lines().take(20) {
        println!("{line}");
    }

    // The snapshot is live evidence, not decoration: assert the signals the
    // example exists to demonstrate.
    assert!(snapshot.counter("engine.dispatch.dense_hits").unwrap_or(0) > 0);
    assert!(
        snapshot
            .counter("column.interner.eviction_batches")
            .unwrap_or(0)
            > 0
    );
    assert!(snapshot.histogram("engine.stream.chunk_ns").is_some());
    assert!(snapshot.histogram("core.phase.apply_ns").is_some());
}
