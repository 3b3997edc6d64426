//! Streaming ↔ batch equivalence.
//!
//! Two properties pin the streaming subsystem to the batch semantics:
//!
//! 1. **Store equivalence** — ingesting any attack case's events in
//!    shuffled epoch-sized chunks builds stores that answer every corpus
//!    query byte-identically (`sorted_rows()`) to a one-shot bulk load, on
//!    both backends (event patterns exercise the relational store, the
//!    length-1 path rewrite exercises the graph store).
//! 2. **Continuous evaluation** — standing queries advanced epoch-by-epoch
//!    over the data_leak case emit deltas whose concatenation equals the
//!    `ExecMode::Scheduled` batch result after the final epoch, with zero
//!    SQL/Cypher text parses along the way.
//!
//! And one pins batch mode to the session: `ThreatRaptor::from_log` *is* a
//! volatile session that ingested one epoch, so a loaded system can keep
//! growing and carry standing queries like any other.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use threatraptor::audit::{ParsedLog, SystemEvent};
use threatraptor::engine::exec::{to_length1_path_query, ExecMode, QueryKind};
use threatraptor::engine::load::load;
use threatraptor::engine::{Engine, ResultTable};
use threatraptor::stream::{EpochPolicy, EpochStream, StreamSession};
use threatraptor::tbql::print::print_query;
use threatraptor::{synthesize, SynthesisPlan, ThreatRaptor};

/// The 8-query equivalence corpus (the shared constant — same fragment as
/// the backend-equivalence suite; IOCs match the data_leak case, other
/// cases legitimately return empty — equivalence must hold either way).
const QUERIES: &[&str] = threatraptor::tbql::parser::EQUIV_CORPUS;

fn shuffled(events: &[SystemEvent], seed: u64) -> Vec<SystemEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<SystemEvent> = events.to_vec();
    for i in (1..out.len()).rev() {
        let j = rng.gen_range(0..(i + 1));
        out.swap(i, j);
    }
    out
}

/// Every corpus query, in both its event-pattern form (relational backend)
/// and its length-1 path form (graph backend), must agree between the two
/// engines.
/// `log` cut into epochs of `events_per_epoch` events, each as a log of
/// its own (what `from_log` / `append_log` take).
fn epochs_as_logs(log: &ParsedLog, events_per_epoch: usize) -> Vec<ParsedLog> {
    EpochStream::new(log, EpochPolicy::ByCount(events_per_epoch))
        .map(|b| {
            let mut part = ParsedLog::default();
            part.entities.extend_from_slice(b.entities);
            part.events.extend_from_slice(b.events);
            part
        })
        .collect()
}

fn assert_engines_equivalent(streamed: &Engine, bulk: &Engine, ctx: &str) {
    for q in QUERIES {
        let (a, astats) = streamed.execute_text(q, ExecMode::Scheduled).unwrap();
        let (b, _) = bulk.execute_text(q, ExecMode::Scheduled).unwrap();
        assert_eq!(a.sorted_rows(), b.sorted_rows(), "{ctx}: query {q}");
        assert_eq!(astats.backend.items_inserted, 0, "queries must not insert");

        let parsed = threatraptor::tbql::parse_tbql(q).unwrap();
        let path_q = print_query(&threatraptor::engine::exec::to_length1_path_query(&parsed));
        let (ap, _) = streamed.execute_text(&path_q, ExecMode::Scheduled).unwrap();
        let (bp, _) = bulk.execute_text(&path_q, ExecMode::Scheduled).unwrap();
        assert_eq!(ap.sorted_rows(), bp.sorted_rows(), "{ctx}: path query {path_q}");
        assert_eq!(a.sorted_rows(), ap.sorted_rows(), "{ctx}: backends disagree for {q}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: any case, any epoch size, any delivery order — streamed
    /// stores are indistinguishable from bulk-loaded ones.
    #[test]
    fn shuffled_chunked_ingest_equals_bulk_load(
        case_idx in 0usize..18,
        epoch_size in 1usize..400,
        seed in 0u64..1_000_000,
    ) {
        let cases = raptor_cases::all_cases();
        let spec = cases[case_idx % cases.len()];
        let built = raptor_cases::build_case(spec, 0.05, 1234);

        let mut session = StreamSession::new().unwrap();
        let events = shuffled(&built.log.events, seed);
        for chunk in events.chunks(epoch_size) {
            session.ingest_chunk(&built.log, chunk).unwrap();
        }
        session.flush_entities(&built.log).unwrap();

        let bulk = Engine::new(load(&built.log).unwrap());
        let streamed = session.engine();
        prop_assert_eq!(streamed.stores.rel.total_rows(), bulk.stores.rel.total_rows());
        prop_assert_eq!(streamed.stores.graph.node_count(), bulk.stores.graph.node_count());
        prop_assert_eq!(streamed.stores.graph.edge_count(), bulk.stores.graph.edge_count());
        prop_assert_eq!(streamed.stores.now_ns, bulk.stores.now_ns);
        assert_engines_equivalent(streamed, &bulk, spec.id);

        // The shared dictionary plane under interleaved/shuffled ingestion:
        // chunked inserts into *both* backends still build exactly one
        // dictionary, with identical sym↔string mappings observed from each
        // store.
        prop_assert!(streamed.stores.dict.ptr_eq(streamed.stores.rel.dict()));
        prop_assert!(streamed.stores.dict.ptr_eq(streamed.stores.graph.dict()));
        for (sym, s) in streamed.stores.dict.iter() {
            prop_assert_eq!(streamed.stores.rel.dict().resolve(sym), s);
            prop_assert_eq!(streamed.stores.graph.dict().get(s), Some(sym));
        }
    }
}

/// What the planner counts from stays fresh per epoch: after *every*
/// ingested epoch the streamed `events` table holds what has been ingested
/// so far, and after the final epoch both stores' contents are identical
/// to a bulk load's.
#[test]
fn streamed_stats_match_bulk_and_stay_fresh() {
    let spec = raptor_cases::catalog::case_by_id("data_leak").unwrap();
    let built = raptor_cases::build_case(spec, 0.2, 99);

    let mut session = StreamSession::new().unwrap();
    let mut events_so_far = 0u64;
    for batch in EpochStream::new(&built.log, EpochPolicy::ByCount(64)) {
        let report = session.ingest_batch(&batch).unwrap().expect("fresh epoch");
        events_so_far += report.events_ingested as u64;
        let events = session.engine().stores.rel.table("events").map_or(0, |t| t.len());
        assert_eq!(events as u64, events_so_far, "counts must advance with every epoch");
    }
    let bulk = Engine::new(load(&built.log).unwrap());
    let streamed = session.engine();
    // Across engines the dictionaries differ (stream epochs interleave
    // entity/event interning; bulk loads all entities first), so compare
    // the rendered contents.
    assert_eq!(streamed.stores.contents(), bulk.stores.contents());
}

/// The acceptance invariant: continuous standing-query evaluation over the
/// data_leak case converges, after the final epoch, to exactly the batch
/// `ExecMode::Scheduled` results — for the whole corpus, each corpus query's
/// length-1 path form, and the case report's 8-pattern synthesis in its
/// event and `~>(~3)` forms — and the whole streaming path is parse-free.
/// Per epoch, a standing query costs at most one data query per
/// delta-evaluable pattern and never a seed.
#[test]
fn continuous_data_leak_evaluation_matches_batch() {
    let spec = raptor_cases::catalog::case_by_id("data_leak").unwrap();
    let built = raptor_cases::build_case(spec, 0.2, 99);

    let mut texts: Vec<String> = QUERIES.iter().map(|q| q.to_string()).collect();
    texts.extend(
        QUERIES.iter().map(|q| {
            print_query(&to_length1_path_query(&threatraptor::tbql::parse_tbql(q).unwrap()))
        }),
    );
    let graph = threatraptor::extract::extract(spec.report).graph;
    for use_path_patterns in [false, true] {
        let plan = SynthesisPlan { use_path_patterns, ..Default::default() };
        texts.push(print_query(&synthesize(&graph, &plan).unwrap()));
    }

    let mut session = StreamSession::new().unwrap();
    let qids: Vec<_> = texts
        .iter()
        .enumerate()
        .map(|(i, q)| session.register(&format!("q{i}"), q).unwrap())
        .collect();
    // Patterns matched against the epoch's own event rows; the rest are
    // variable-length paths on their frontiers, which issue no data query.
    let delta_evaluable: Vec<usize> = qids
        .iter()
        .map(|&id| {
            let patterns = &session.query(id).query().patterns;
            patterns.iter().filter(|p| !p.is_path() || p.has_final_hop()).count()
        })
        .collect();
    assert_eq!(delta_evaluable[texts.len() - 2..], [8, 0], "the two synthesized forms");

    let mut per_query_delta_rows = vec![0usize; texts.len()];
    let mut inserted_total = 0usize;
    for batch in EpochStream::new(&built.log, EpochPolicy::ByCount(64)) {
        let report = session.ingest_batch(&batch).unwrap().expect("fresh epoch");
        // Per-epoch reset semantics: each report counts its own inserts.
        assert_eq!(
            report.ingest_stats.items_inserted,
            2 * (report.entities_ingested + report.events_ingested)
        );
        inserted_total += report.ingest_stats.items_inserted;
        for d in &report.deltas {
            assert_eq!(d.stats.text_parses, 0, "delta evaluation parsed text");
            assert_eq!(d.stats.backend.text_parses, 0);
            // The streaming path is symbol-only: delta evaluation (matching,
            // joining, multiset-diffing) materializes no strings — rendering
            // happens only if/when a consumer reaches the edge.
            assert_eq!(d.stats.strings_materialized, 0, "delta evaluation rendered strings");
            assert!(d.stats.data_queries <= delta_evaluable[d.id.0], "{}", d.name);
            for q in &d.stats.queries {
                assert_ne!(q.kind, QueryKind::Seed, "{}: a standing query seeded", d.name);
                // What the ledger's `backend_busy_us` and
                // `data_queries_per_epoch` read.
                assert!(q.rows.is_some() && q.wall_ns > 0, "{}: {q:?}", d.name);
            }
            per_query_delta_rows[d.id.0] += d.delta.n_rows();
        }
    }
    assert_eq!(
        inserted_total,
        2 * (built.log.entities.len() + built.log.events.len()),
        "running total aggregates the per-epoch counters"
    );
    assert_eq!(session.engine().stores.rel.text_parse_count(), 0);

    let bulk = Engine::new(load(&built.log).unwrap());
    for (i, q) in texts.iter().enumerate() {
        let (expect, _) = bulk.execute_text(q, ExecMode::Scheduled).unwrap();
        let got = ResultTable::from_batch(session.query(qids[i]).cumulative_batch());
        assert_eq!(got.sorted_rows(), expect.sorted_rows(), "query {q}");
        assert_eq!(per_query_delta_rows[i], expect.rows.len(), "delta rows for {q}");
    }
    // The attack is actually found: corpus queries fired, and the path
    // synthesis bridges the step the event synthesis misses.
    assert!(per_query_delta_rows[..QUERIES.len()].iter().any(|&n| n > 0));
    assert_eq!(per_query_delta_rows[texts.len() - 2..], [0, 1]);
}

/// A standing query registered on a loaded system matches a later event
/// whose filtered endpoints were ingested *before* the registration. (The
/// per-query candidate sets this used to go through were only ever seeded
/// from entities newer than the query, so `tar` and `/etc/passwd` — both
/// loaded — could never match again, and the query stayed silent while the
/// same text asked ad hoc found the row.) An event pattern still only sees
/// events ingested after it: `bash`'s earlier read of `/etc/passwd` is not
/// caught up on.
#[test]
fn late_registration_sees_entities_that_predate_it() {
    use threatraptor::audit::sim::Simulator;
    use threatraptor::common::time::Timestamp;

    let mut sim = Simulator::new(3, Timestamp::from_secs(100));
    let bash = sim.boot_process("/bin/bash", "root");
    let tar = sim.spawn(bash, "/bin/tar", "tar cf /tmp/upload.tar");
    sim.read_file(bash, "/etc/passwd", 4096, 1);
    sim.read_file(tar, "/etc/hosts", 4096, 1);
    sim.read_file(tar, "/etc/passwd", 4096, 1);
    sim.write_file(tar, "/tmp/upload.tar", 4096, 1);
    let log = threatraptor::audit::LogParser::parse(&sim.finish());

    // Everything up to `tar`'s read of /etc/hosts is loaded; the rest
    // (one new entity, the upload file) arrives after the registration.
    let split = log.events.len() - 2;
    let [loaded, increment] = &epochs_as_logs(&log, split)[..] else { panic!("two epochs") };
    assert_eq!((increment.events.len(), increment.entities.len()), (2, 1));

    let tar_reads = r#"proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 return p, f"#;
    let any_read = r#"proc p read file f["%/etc/passwd%"] as e1 return p, f"#;
    let mut raptor = ThreatRaptor::from_log(loaded).unwrap();
    let tar_id = raptor.session_mut().register("tar_reads", tar_reads).unwrap();
    let any_id = raptor.session_mut().register("any_read", any_read).unwrap();
    raptor.append_log(increment).unwrap();

    let want = vec![vec!["/bin/tar".to_string(), "/etc/passwd".to_string()]];
    assert_eq!(raptor.query(tar_reads).unwrap().rows, want);
    let standing = |id| ResultTable::from_batch(raptor.session().query(id).cumulative_batch());
    assert_eq!(standing(tar_id).rows, want);
    assert_eq!(standing(any_id).rows, want, "no catch-up over events already loaded");
    assert_eq!(raptor.query(any_read).unwrap().rows.len(), 2);
}

/// A bulk load is one volatile epoch of the one session: it is positioned,
/// counted and refused a checkpoint like one, and its stores are the ones
/// `load::load` builds.
#[test]
fn from_log_is_one_volatile_epoch() {
    let log = raptor_bench::corpus::corpus_log();
    let mut raptor = ThreatRaptor::from_log(&log).unwrap();
    assert_eq!(raptor.session().epochs(), 1);
    assert_eq!(
        raptor.session().total_ingest_stats().items_inserted,
        2 * (log.entities.len() + log.events.len())
    );
    assert!(raptor.recovery_report().is_none());
    let err = raptor.checkpoint().unwrap_err();
    assert_eq!(err.kind, threatraptor::common::error::ErrorKind::Storage, "{err}");

    let bulk = Engine::new(load(&log).unwrap());
    let stores = &raptor.engine().stores;
    assert_eq!(stores.contents(), bulk.stores.contents());
    assert_engines_equivalent(raptor.engine(), &bulk, "from_log vs load");
}

/// A standing query registered on a bulk-loaded system fires on a later
/// `append_log` increment. The corpus attack sits at the end of its log, so
/// loading the first half and appending the second must leave every corpus
/// query's cumulative rows equal to the batch answer over the whole log.
#[test]
fn standing_query_on_a_loaded_system_fires_on_increments() {
    let log = raptor_bench::corpus::corpus_log();
    let [loaded, increment] = &epochs_as_logs(&log, log.events.len().div_ceil(2))[..] else {
        panic!("two epochs")
    };

    let mut raptor = ThreatRaptor::from_log(loaded).unwrap();
    let qids: Vec<_> = QUERIES
        .iter()
        .enumerate()
        .map(|(i, q)| raptor.session_mut().register(&format!("q{i}"), q).unwrap())
        .collect();
    raptor.append_log(increment).unwrap();
    assert_eq!(raptor.session().epochs(), 2);

    let bulk = Engine::new(load(&log).unwrap());
    for (qid, q) in qids.into_iter().zip(QUERIES) {
        let (want, _) = bulk.execute_text(q, ExecMode::Scheduled).unwrap();
        assert_eq!(want.rows.len(), 1, "the corpus finds the attack: {q}");
        let got = ResultTable::from_batch(raptor.session().query(qid).cumulative_batch());
        assert_eq!(got.sorted_rows(), want.sorted_rows(), "standing {q}");
        assert_eq!(raptor.query(q).unwrap().sorted_rows(), want.sorted_rows(), "ad hoc {q}");
    }
}

/// A standing answer that repeats rows. Every corpus query returns one
/// row; here one pattern that returns only the reading process gives
/// `data_leak` ×0.2 89 rows of 14 distinct, and 45 of the 75 repeats arrive
/// inside a single epoch. The concatenated deltas and the cumulative batch
/// equal the batch result as multisets, and a durable session checkpointed
/// half-way and recovered emits the same remaining deltas as the live one.
#[test]
fn repeated_rows_stream_as_a_multiset() {
    use std::collections::BTreeSet;
    use threatraptor::{common::io::MemFs, engine::CKPT_FILE, engine::WAL_FILE, DurablePolicy};
    const Q: &str = "proc p read file f as e1 return p";
    let built =
        raptor_cases::build_case(raptor_cases::catalog::case_by_id("data_leak").unwrap(), 0.2, 99);
    let batches: Vec<_> = EpochStream::new(&built.log, EpochPolicy::ByCount(64)).collect();
    let policy = DurablePolicy { checkpoint_every: 0 };
    let disk = std::sync::Arc::new(MemFs::new());
    let mut live = StreamSession::open(disk.clone(), policy).unwrap();
    let qid = live.register("reads", Q).unwrap();
    let (mut recovered, mut concatenated, mut repeats_in_epoch) = (None, Vec::new(), 0);
    for (i, batch) in batches.iter().enumerate() {
        if i == batches.len() / 2 {
            live.checkpoint().unwrap();
            let fs = std::sync::Arc::new(MemFs::new());
            for file in [CKPT_FILE, WAL_FILE] {
                fs.store(file, disk.snapshot(file));
            }
            recovered = Some(StreamSession::open(fs, policy).unwrap());
        }
        let delta_of = |s: &mut StreamSession| {
            let report = s.ingest_batch(batch).unwrap().expect("fresh epoch");
            ResultTable::from_batch(&report.deltas[qid.0].delta).rows
        };
        let delta = delta_of(&mut live);
        if let Some(r) = &mut recovered {
            assert_eq!(delta_of(r), delta, "epoch {i}: the recovered query's delta");
        }
        repeats_in_epoch += delta.len() - delta.iter().collect::<BTreeSet<_>>().len();
        concatenated.extend(delta);
    }

    let bulk = Engine::new(load(&built.log).unwrap());
    let want = bulk.execute_text(Q, ExecMode::Scheduled).unwrap().0.sorted_rows();
    let distinct = want.iter().collect::<BTreeSet<_>>().len();
    assert_eq!((want.len(), distinct, repeats_in_epoch), (89, 14, 45));
    concatenated.sort();
    assert_eq!(concatenated, want, "concatenated deltas");
    for s in [&live, &recovered.expect("the stream has a second half")] {
        let cumulative = ResultTable::from_batch(s.query(qid).cumulative_batch());
        assert_eq!(cumulative.sorted_rows(), want, "cumulative batch");
    }
}
