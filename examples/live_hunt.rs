//! Live hunting over a simulated audit-event stream.
//!
//! Replays the data_leak attack case as a watermarked epoch stream,
//! registers a TBQL standing query synthesized from the case's OSCTI
//! report, and prints — per epoch — what was ingested, which patterns
//! matched for the first time, and the result-row deltas as the hunt
//! converges on the attack. Along the way it reads the observability
//! plane: a per-epoch metrics line, the final metrics snapshot in
//! Prometheus text form, and the EXPLAIN ANALYZE tree of the standing
//! query against the fully grown store.
//!
//! ```text
//! cargo run --release -p threatraptor --example live_hunt
//! ```

use std::sync::Arc;

use threatraptor::common::io::{FailpointFs, MemFs};
use threatraptor::obs::{self, MetricValue};
use threatraptor::stream::{EpochPolicy, EpochStream, StreamSession};
use threatraptor::{DurablePolicy, Redact, SynthesisPlan, ThreatRaptor};

/// Reads a counter out of a metrics snapshot (0 when absent).
fn counter(snap: &obs::MetricsSnapshot, name: &str) -> u64 {
    match snap.get(name) {
        Some(MetricValue::Counter(n)) => *n,
        _ => 0,
    }
}

fn main() {
    // The data_leak scenario: tar→bzip2→gpg(-helper)→curl exfiltration
    // buried in benign background noise.
    let spec = raptor_cases::catalog::case_by_id("data_leak").expect("case");
    let built = raptor_cases::build_case(spec, 0.5, 2024);
    println!(
        "workload: {} entities, {} events (data_leak @ 0.5 noise)\n",
        built.log.entities.len(),
        built.log.events.len()
    );

    // Register two standing queries straight from the CTI report text: the
    // exact event-pattern synthesis, and the variable-length path variant
    // that can bridge helper processes the report never mentions.
    let mut hunt = ThreatRaptor::stream().expect("stream");
    let (exact, _, tbql) =
        hunt.register_report("exact", spec.report, &SynthesisPlan::default()).expect("synthesize");
    let (paths, _, _) = hunt
        .register_report(
            "paths",
            spec.report,
            &SynthesisPlan { use_path_patterns: true, ..Default::default() },
        )
        .expect("synthesize paths");
    println!("standing query synthesized from the report:\n{tbql}\n");

    for batch in EpochStream::new(&built.log, EpochPolicy::ByCount(16)) {
        let report =
            hunt.session_mut().ingest_batch(&batch).expect("ingest").expect("a fresh epoch");

        // Announce patterns of the exact query that lit up this epoch.
        for p in &hunt.session().query(exact).progress() {
            if p.first_match_epoch == Some(report.epoch) {
                println!(
                    "epoch {:>3}  pattern {:<7} first matched ({} match{})",
                    report.epoch,
                    p.id,
                    p.matches,
                    if p.matches == 1 { "" } else { "es" }
                );
            }
        }

        // And any result-row deltas (a full behavior chain joined up).
        for d in &report.deltas {
            for row in d.delta.rendered_rows() {
                println!(
                    "epoch {:>3}  ** {} CHAIN COMPLETE ** {}",
                    report.epoch,
                    d.name,
                    row.join(" | ")
                );
            }
        }

        // Per-epoch view of the metrics registry (cumulative counters the
        // stream session records on every ingest).
        let snap = obs::metrics().snapshot();
        println!(
            "epoch {:>3}  metrics: epochs={} events={} entities={} delta_rows={}",
            report.epoch,
            counter(&snap, "raptor_epochs_total"),
            counter(&snap, "raptor_events_ingested_total"),
            counter(&snap, "raptor_entities_ingested_total"),
            counter(&snap, "raptor_delta_rows_total"),
        );
    }

    let progress = hunt.session().query(exact).progress();
    let total = hunt.session().total_ingest_stats();
    println!(
        "\ningested {} records into both stores across {} epochs",
        total.items_inserted,
        hunt.session().epochs()
    );
    println!(
        "exact query: {}/{} patterns matched, {} result rows · path query: {} result rows",
        progress.iter().filter(|p| p.first_match_epoch.is_some()).count(),
        progress.len(),
        hunt.session().query(exact).cumulative_batch().n_rows(),
        hunt.session().query(paths).cumulative_batch().n_rows(),
    );
    for p in &progress {
        match p.first_match_epoch {
            Some(e) => println!("  {:<7} first matched at epoch {e} ({} matches)", p.id, p.matches),
            None => println!(
                "  {:<7} never matched (the report names /usr/bin/gpg; the I/O was done \
                 by its helper — the paper's recall gap the path variant bridges)",
                p.id
            ),
        }
    }

    // The observability plane, read out at the end of the hunt: the full
    // metrics snapshot in Prometheus exposition format…
    let m = obs::metrics();
    m.gauge_set("raptor_dict_symbols", hunt.session().engine().stores.dict.len() as i64);
    println!("\n--- metrics (Prometheus text) ---");
    print!("{}", m.snapshot().to_prometheus());

    // …and the plan of the standing query, annotated with actuals, against
    // the fully grown store (Redact::Full keeps wall times and scan
    // granularity visible — this output is for humans, not goldens).
    println!("--- EXPLAIN ANALYZE (standing query vs final store) ---");
    let (_, tree) =
        hunt.session().engine().explain_analyze_text(&tbql, Redact::Full).expect("analyze");
    print!("{tree}");

    // --- The durability plane: crash mid-stream, recover, re-deliver. ---
    //
    // Same hunt, same session type, but opened over an (in-memory) disk:
    // every epoch is one WAL frame, appended and fsynced before it counts.
    // A fault-injected crash tears the log mid write; re-opening the surviving disk replays the log — past the
    // checkpoint's manifest, which covers its first epochs — and reports
    // exactly what it rebuilt. The source then replays
    // its stream from the beginning — committed epochs dedupe, the torn
    // one lands exactly once.
    println!("\n--- durability: crash mid-stream, recover, re-deliver ---");
    let disk = Arc::new(MemFs::new());
    let fp = Arc::new(FailpointFs::new(disk.clone()));
    let mut durable =
        StreamSession::open(fp.clone(), DurablePolicy { checkpoint_every: 8 }).expect("open");
    durable.register("exact", &tbql).expect("register");
    let batches: Vec<_> = EpochStream::new(&built.log, EpochPolicy::ByCount(16)).collect();
    // Let most of the stream commit, then cut the byte budget: the WAL
    // append that crosses it tears partway through an epoch's frame, as a
    // real crash would.
    fp.crash_after_bytes(fp.bytes_written() + 90_000);
    let mut crashed_at = batches.len();
    for (i, b) in batches.iter().enumerate() {
        if durable.ingest_batch(b).is_err() {
            crashed_at = i;
            break;
        }
    }
    println!(
        "crashed while ingesting epoch {crashed_at}/{} (write budget exhausted mid-operation)",
        batches.len()
    );
    drop(durable);

    let mut recovered =
        StreamSession::open(disk, DurablePolicy { checkpoint_every: 8 }).expect("recover");
    println!("{}\n", recovered.recovery_report().expect("opened durably"));
    let mut deduped = 0;
    for b in &batches {
        if recovered.ingest_batch(b).expect("redeliver").is_none() {
            deduped += 1;
        }
    }
    let standing = &recovered.queries()[0];
    assert_eq!(
        standing.cumulative_batch().n_rows(),
        hunt.session().query(exact).cumulative_batch().n_rows(),
        "recovered hunt must converge to the uncrashed result"
    );
    println!(
        "re-delivered {} epochs ({deduped} deduped, rest applied exactly once); \
         standing query converged to {} rows — identical to the uncrashed hunt",
        batches.len(),
        standing.cumulative_batch().n_rows()
    );
}
