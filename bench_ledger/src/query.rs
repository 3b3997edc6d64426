//! `query-events` and `query-paths`: hand-written TBQL over one large store.
//!
//! op = `ThreatRaptor::query(tbql)`. The two workloads share this code and
//! differ in what the queries make the engine do: event patterns are served
//! by `relstore` and cost per row; variable-length paths are served by
//! `graphstore` traversal and the path estimator.

use raptor_cases::BuiltCase;
use threatraptor::audit::{EntityAttrs, EventKind, Operation};
use threatraptor::engine::exec::EngineStats;
use threatraptor::engine::{Engine, ExecMode, ResultTable};
use threatraptor::tbql::{analyze, parse_tbql};
use threatraptor::ThreatRaptor;

use crate::exec_acc::{execute_and_render, ExecAcc};
use crate::harness::{passes, timed, Expected, LayerTimes, Outcome, RunCfg};
use crate::inputs::{built, log_digest, sim_seed};
use crate::stats::{median, rows_digest, Fnv, Permille, Rng, P99};
use crate::trace::Tracer;

/// The 8 `EQUIV_CORPUS` queries (`raptor_tbql::parser::EQUIV_CORPUS`,
/// copied so a change there shows up as input drift here) ...
pub const CORPUS_QUERIES: [&str; 8] = [
    r#"proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 return p, f"#,
    r#"proc p["%/bin/tar%"] read file f1["%/etc/passwd%"] as e1
       proc p write file f2["%/tmp/upload.tar%"] as e2
       with e1 before e2
       return distinct p, f1, f2"#,
    r#"proc p1["%tar%"] write file f["%upload%"] as e1
       proc p2["%curl%"] read file f as e2
       proc p2 connect ip i as e3
       with e1 before e2, e2 before e3
       return distinct p1, p2, f, i"#,
    r#"proc p read || write file f as e1
       proc p connect ip i["%192.168.29.128%"] as e2
       return distinct p, f, i"#,
    r#"proc p["%curl%"] connect ip i["%192.168.29.128%"] as e1 return p, i"#,
    r#"proc p1 write file f["%upload%"] as e1
       proc p2 read file f as e2
       with p1.user = p2.user
       return distinct p1, p2, f"#,
    r#"proc p["%/bin/tar%"] read file f as e1 return distinct p, f, e1.optype"#,
    r#"proc p write file f["%upload%"] as e1 return distinct f, e1.amount"#,
];

/// ... plus the 8-pattern query synthesized from the `data_leak` report
/// under the default `SynthesisPlan`.
pub const DATA_LEAK_SYNTHESIZED: &str = r#"proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p1 write file f2["%/tmp/upload.tar%"] as evt2
proc p2["%/bin/bzip2%"] read file f2 as evt3
proc p2 write file f3["%/tmp/upload.tar.bz2%"] as evt4
proc p3["%/usr/bin/gpg%"] read file f3 as evt5
proc p3 write file f4["%/tmp/upload%"] as evt6
proc p4["%/usr/bin/curl%"] read file f4 as evt7
proc p4 connect ip i1["192.168.29.128"] as evt8
with evt1 before evt2, evt2 before evt3, evt3 before evt4, evt4 before evt5, evt5 before evt6, evt6 before evt7, evt7 before evt8
return distinct p1, f1, f2, p2, f3, p3, f4, p4, i1"#;

/// The 5 unselective `bench_smoke` path queries ...
pub const PATH_QUERIES: [&str; 5] = [
    "proc p ~>(1~3)[read] file f as e1 return p, f",
    "proc p ~>(2~4)[write] file f as e1 return p, f",
    "proc p ~>(1~2) file f as e1 return p, f",
    "proc p ~>(2~)[connect] ip i as e1 return p, i",
    "proc p ~>(1~4) proc q as e1 return p, q",
];

/// ... and the 8 selective single-pattern `~>(~3)` queries: the patterns of
/// the `use_path_patterns` synthesis of `data_leak`, one query each.
pub const DATA_LEAK_PATH_PATTERNS: [&str; 8] = [
    r#"proc p1["%/bin/tar%"] ~>(~3)[read] file f1["%/etc/passwd%"] as evt1 return distinct p1, f1"#,
    r#"proc p1["%/bin/tar%"] ~>(~3)[write] file f2["%/tmp/upload.tar%"] as evt2 return distinct p1, f2"#,
    r#"proc p2["%/bin/bzip2%"] ~>(~3)[read] file f2["%/tmp/upload.tar%"] as evt3 return distinct p2, f2"#,
    r#"proc p2["%/bin/bzip2%"] ~>(~3)[write] file f3["%/tmp/upload.tar.bz2%"] as evt4 return distinct p2, f3"#,
    r#"proc p3["%/usr/bin/gpg%"] ~>(~3)[read] file f3["%/tmp/upload.tar.bz2%"] as evt5 return distinct p3, f3"#,
    r#"proc p3["%/usr/bin/gpg%"] ~>(~3)[write] file f4["%/tmp/upload%"] as evt6 return distinct p3, f4"#,
    r#"proc p4["%/usr/bin/curl%"] ~>(~3)[read] file f4["%/tmp/upload%"] as evt7 return distinct p4, f4"#,
    r#"proc p4["%/usr/bin/curl%"] ~>(~3)[connect] ip i1["192.168.29.128"] as evt8 return distinct p4, i1"#,
];

/// Event-pattern templates for the fresh half of `query-events`. `{exe}`,
/// `{file}` and `{ip}` are filled from one event of the store drawn by
/// seed; `true` when that event guarantees the query at least one row.
const FRESH_TEMPLATES: [(Need, bool, &str); 6] = [
    (Need::Read, true, r#"proc p read file f["%{file}%"] as e1 return distinct p, f"#),
    (Need::Write, true, r#"proc p write file f["%{file}%"] as e1 return distinct p, f, e1.amount"#),
    (
        Need::FileIo,
        true,
        r#"proc p["%{exe}%"] read || write file f["%{file}%"] as e1 return distinct p, f, e1.optype"#,
    ),
    (Need::Connect, true, r#"proc p connect ip i["{ip}"] as e1 return distinct p, i"#),
    (
        Need::Write,
        false,
        r#"proc p1 write file f["%{file}%"] as e1
           proc p2 read file f as e2
           with e1 before e2
           return distinct p1, p2, f"#,
    ),
    (
        Need::Connect,
        false,
        r#"proc p["%{exe}%"] connect ip i["{ip}"] as e1
           proc p write file f as e2
           return distinct p, i, f"#,
    ),
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Need {
    Read,
    Write,
    FileIo,
    Connect,
}

pub struct Spec {
    pub name: &'static str,
    pub noise: f64,
    pub tail_pct: Permille,
    pub fixed: Vec<&'static str>,
    /// Ground truth per fixed query, frozen: `Some(n)` for a query over
    /// attack-only IOCs, which returns exactly `n` rows whatever the seed
    /// and the noise scale; `None` for an unselective one, whose rows vary
    /// with the noise and which must only return some.
    pub rows: Vec<Option<usize>>,
    /// One fresh query per fixed query in every round.
    pub fresh: bool,
    /// Worker threads the store's engine is set to through the public
    /// `set_threads`; `None` leaves the engine's default pool.
    pub threads: Option<usize>,
}

/// `query-paths` runs its engine on one worker thread. Every other workload
/// keeps the engine's default pool (`available_parallelism`, 2 here). The
/// sandbox's two virtual cores give no parallel speed-up (two compute loops
/// side by side take 1.9-2.1x as long as one), and after some minutes of
/// sustained load the second one is throttled: at the default pool the graph
/// store's partitioned traversal then ran 100-154 queries/s for half an hour
/// where it had run 191-199, while the other workloads moved within 10%. No
/// bound the contract allows (at most 25%) holds across that, so the one
/// workload made of partitioned traversals is measured without them; the
/// finding - two workers are never faster than one here and at times 1.5-2x
/// slower - is for a later issue on the pool.
pub const PATHS_THREADS: usize = 1;

pub fn events_spec() -> Spec {
    let mut fixed = CORPUS_QUERIES.to_vec();
    fixed.push(DATA_LEAK_SYNTHESIZED);
    // The synthesized query and corpus query 2 name a step the simulated
    // attack never takes, so the join is empty (as the paper's hunt of
    // this case misses two of its eight events).
    let rows = [1, 1, 0, 1, 1, 3, 1, 3, 0].map(Some).to_vec();
    Spec {
        name: "query-events",
        noise: 30.0,
        tail_pct: P99,
        fixed,
        rows,
        fresh: true,
        threads: None,
    }
}

pub fn paths_spec() -> Spec {
    let mut fixed = PATH_QUERIES.to_vec();
    fixed.extend(DATA_LEAK_PATH_PATTERNS);
    let mut rows = vec![None; PATH_QUERIES.len()];
    rows.extend([Some(1); DATA_LEAK_PATH_PATTERNS.len()]);
    let threads = Some(PATHS_THREADS);
    Spec { name: "query-paths", noise: 5.0, tail_pct: P99, fixed, rows, fresh: false, threads }
}

pub struct Store {
    pub built: BuiltCase,
    pub raptor: ThreatRaptor,
    /// Event indices a fresh query can be drawn from, per [`Need`].
    reads: Vec<u32>,
    writes: Vec<u32>,
    connects: Vec<u32>,
}

pub fn setup(cfg: &RunCfg, spec: &Spec) -> Store {
    let built = built("data_leak", cfg.noise(spec.noise), sim_seed(cfg.seed, 0));
    let mut raptor = ThreatRaptor::from_log(&built.log).expect("load store");
    if let Some(threads) = spec.threads {
        raptor.set_threads(threads);
    }
    let (mut reads, mut writes, mut connects) = (Vec::new(), Vec::new(), Vec::new());
    if spec.fresh {
        for (i, ev) in built.log.events.iter().enumerate() {
            match (ev.kind, ev.op) {
                (EventKind::File, Operation::Read) => reads.push(i as u32),
                (EventKind::File, Operation::Write) => writes.push(i as u32),
                (EventKind::Network, Operation::Connect) => connects.push(i as u32),
                _ => {}
            }
        }
    }
    Store { built, raptor, reads, writes, connects }
}

/// One op of a round: a fixed query (with its index) or a fresh one.
pub struct Op {
    pub key: Option<usize>,
    pub text: String,
    /// The query must return at least one row.
    pub must_hit: bool,
}

fn fresh_query(store: &Store, rng: &mut Rng) -> Op {
    let log = &store.built.log;
    let (need, must_hit, template) = FRESH_TEMPLATES[rng.below(FRESH_TEMPLATES.len())];
    let pool = match need {
        Need::Read => &store.reads,
        Need::Write => &store.writes,
        Need::Connect => &store.connects,
        Need::FileIo => [&store.reads, &store.writes][rng.below(2)],
    };
    let ev = &log.events[pool[rng.below(pool.len())] as usize];
    let exe = log.entity(ev.subject).attrs.default_attribute_value();
    let mut text = template.replace("{exe}", &exe);
    match &log.entity(ev.object).attrs {
        EntityAttrs::File(f) => {
            // The base name: shared by every user's copy, so rows multiply.
            text = text.replace("{file}", f.name.rsplit('/').next().unwrap_or(&f.name));
        }
        EntityAttrs::NetConn(n) => text = text.replace("{ip}", &n.dst_ip),
        EntityAttrs::Process(_) => unreachable!("pools hold file and network events only"),
    }
    Op { key: None, text, must_hit }
}

/// The ops of one round, in seeded order: every fixed query once and, for
/// `query-events`, as many fresh ones.
pub fn round(spec: &Spec, store: &Store, order: &mut Rng, draws: &mut Rng) -> Vec<Op> {
    let mut ops: Vec<Op> = spec
        .fixed
        .iter()
        .enumerate()
        .map(|(i, q)| Op { key: Some(i), text: q.to_string(), must_hit: false })
        .collect();
    if spec.fresh {
        for _ in 0..spec.fixed.len() {
            ops.push(fresh_query(store, draws));
        }
    }
    order.shuffle(&mut ops);
    ops
}

/// The facade op.
pub fn op_facade(raptor: &ThreatRaptor, tbql: &str) -> Result<ResultTable, String> {
    raptor.query(tbql).map_err(|e| e.to_string())
}

/// `ThreatRaptor::query` as the public layer functions it calls.
pub fn op_decomposed(
    t: &Tracer,
    engine: &Engine,
    tbql: &str,
) -> Result<(ResultTable, EngineStats, u64), String> {
    t.span("op.query", || {
        let q = t.span("tbql.parse", || parse_tbql(tbql)).map_err(|e| e.to_string())?;
        let aq = t.span("tbql.analyze", || analyze(&q)).map_err(|e| e.to_string())?;
        execute_and_render(t, engine, &aq)
    })
}

fn check(expected: &Expected, op: &Op, table: &ResultTable) -> Result<(), String> {
    if op.must_hit && table.rows.is_empty() {
        return Err(format!("no row for a query drawn from a stored event: {}", op.text));
    }
    match op.key {
        Some(i) => expected.check(&format!("fixed:{i}"), rows_digest(&table.rows)),
        None => Ok(()),
    }
}

fn rows_in(raptor: &ThreatRaptor, tbql: &str, mode: ExecMode) -> Result<(u64, usize, u64), String> {
    let (r, ns) = timed(|| raptor.query_with_mode(tbql, mode));
    let table = r.map_err(|e| format!("{mode:?}: {e}"))?.0;
    Ok((rows_digest(&table.rows), table.rows.len(), ns))
}

/// Fixed `query-events` queries whose giant-SQL form is left out: its
/// unfiltered cross join takes seconds and gigabytes on the x30 store.
const GIANT_SQL_SKIP: [usize; 2] = [3, 5];

/// Event patterns must return the same rows under all three execution
/// modes: every fixed query and a seeded sample of fresh ones (those under
/// giant Cypher only). Returns the fixed queries' giant-SQL times, in us.
fn check_modes_agree(cfg: &RunCfg, spec: &Spec, store: &Store, out: &mut Outcome) -> Vec<f64> {
    let mut draws = Rng::new(cfg.seed ^ 0x5a3b);
    // Single-pattern draws only: a giant join over a drawn file name can
    // take seconds and hundreds of MB.
    let fresh: Vec<String> = std::iter::repeat_with(|| fresh_query(store, &mut draws))
        .filter(|op| op.must_hit)
        .map(|op| op.text)
        .take(6)
        .collect();
    let fixed = spec.fixed.iter().enumerate().map(|(i, q)| (Some(i), *q));
    let mut giant_sql_us = Vec::new();
    for (i, text) in fixed.chain(fresh.iter().map(|q| (None, q.as_str()))) {
        let mut modes = vec![ExecMode::Scheduled, ExecMode::GiantCypher];
        if i.is_some_and(|i| !GIANT_SQL_SKIP.contains(&i)) {
            modes.push(ExecMode::GiantSql);
        }
        let mut scheduled = None;
        for mode in modes {
            match rows_in(&store.raptor, text, mode) {
                Ok((digest, _, ns)) => {
                    if *scheduled.get_or_insert(digest) != digest {
                        out.attempt(Err(format!("{mode:?} rows differ from Scheduled: {text}")));
                    }
                    if mode == ExecMode::GiantSql {
                        giant_sql_us.push(ns as f64 / 1e3);
                    }
                }
                Err(e) => out.attempt(Err(format!("{e}: {text}"))),
            }
        }
    }
    giant_sql_us
}

pub fn run(cfg: &RunCfg, spec: &Spec) -> Outcome {
    let mut out = Outcome::new("queries", spec.tail_pct);
    let store = out.setup(|| setup(cfg, spec));

    let mut h = Fnv::default();
    log_digest(&mut h, &store.built.log);
    for q in &spec.fixed {
        h.str(q);
    }
    if spec.fresh {
        // The first fresh texts of the stream the timed rounds draw from.
        let mut draws = Rng::new(cfg.seed ^ 0xf5e5);
        for _ in 0..64 {
            h.str(&fresh_query(&store, &mut draws).text);
        }
    }
    out.inputs_digest = h.0;
    out.fact("noise", cfg.noise(spec.noise));
    out.fact("store_events", store.built.log.events.len());
    out.fact("store_entities", store.built.log.entities.len());
    out.fact("fixed_queries", spec.fixed.len());
    if let Some(threads) = spec.threads {
        out.fact(
            "pool_threads",
            format!("{threads} (set for this workload; see query::PATHS_THREADS)"),
        );
    }
    out.fact(
        "repeat_share",
        if spec.fresh { "0.5 (fixed half repeats, fresh half does not)" } else { "1.0" },
    );

    // Warm-up: decomposed runs fix every fixed query's rows, each held to
    // its frozen ground truth first.
    let off = Tracer::new(false);
    let engine = store.raptor.engine();
    let mut expected = Expected::default();
    for (i, (q, want)) in spec.fixed.iter().zip(&spec.rows).enumerate() {
        let (table, _, _) = op_decomposed(&off, engine, q).expect("warm-up query");
        let n = table.rows.len();
        if want.map_or(n == 0, |want| n != want) {
            out.attempt(Err(format!("fixed:{i} returns {n} rows, ground truth is {want:?}: {q}")));
        }
        expected.learn(&format!("fixed:{i}"), rows_digest(&table.rows));
    }
    if cfg.corrupt {
        expected.corrupt_one();
    }

    // Measured loop: facade queries with tracing off; in a traced run every
    // round is also made decomposed under spans.
    let tracer = Tracer::new(cfg.trace);
    let (mut order, mut draws) = (Rng::new(cfg.seed), Rng::new(cfg.seed ^ 0xf5e5));
    let budget = cfg.budget();
    let mut acc = ExecAcc::default();
    let mut rounds = 0;
    while budget.open(rounds) {
        let ops = round(spec, &store, &mut order, &mut draws);
        // Row digests of the round's first pass, held against the second.
        let mut seen: Vec<Option<u64>> = vec![None; ops.len()];
        for &traced in passes(cfg.trace, rounds) {
            for (op, seen) in ops.iter().zip(&mut seen) {
                let r = if traced {
                    // The kernel interleaves with both kinds of pass alike.
                    out.calib.tick();
                    op_decomposed(&tracer, engine, &op.text).map(|(table, stats, exec_ns)| {
                        acc.add(exec_ns, &stats, table.rows.len(), rounds == 0);
                        table
                    })
                } else {
                    out.op(1.0, || op_facade(&store.raptor, &op.text))
                };
                out.attempt(r.and_then(|table| {
                    let digest = rows_digest(&table.rows);
                    if seen.replace(digest).is_some_and(|first| first != digest) {
                        return Err(format!("decomposed rows differ from facade: {}", op.text));
                    }
                    check(&expected, op, &table)
                }));
            }
        }
        rounds += 1;
    }
    out.loop_done();
    out.fact("rounds", rounds);

    // After the loop, so that what the giant modes allocate stays out of
    // `peak_rss_mb`.
    let (mut giant_sql_us, mut giant_cypher_us, mut giant_cypher_rows) =
        (Vec::new(), Vec::new(), 0);
    if spec.fresh {
        giant_sql_us = check_modes_agree(cfg, spec, &store, &mut out);
    } else if cfg.trace {
        // Paths: the modes are known to disagree on row counts (ROADMAP
        // item 3); record the giant-Cypher side, assert nothing.
        for q in &spec.fixed {
            match rows_in(&store.raptor, q, ExecMode::GiantCypher) {
                Ok((_, rows, ns)) => {
                    giant_cypher_us.push(ns as f64 / 1e3);
                    giant_cypher_rows += rows;
                }
                Err(e) => out.attempt(Err(format!("{e}: {q}"))),
            }
        }
    }
    if !cfg.trace {
        drop(store);
        out.repeat_setup(cfg, || setup(cfg, spec));
        return out;
    }

    let per_round = spec.fixed.len() * if spec.fresh { 2 } else { 1 };
    let b = LayerTimes::new(&tracer, per_round);
    out.set("tbql.parse_us", b.self_us("tbql.parse"));
    out.set("tbql.analyze_us", b.self_us("tbql.analyze"));
    out.set("engine.exec.execute_us", b.dur_us("engine.exec.execute"));
    out.set("engine.exec.render_us", b.self_us("engine.exec.render"));
    acc.emit(&mut out, per_round);
    out.set("relstore.giant_sql_us", median(&giant_sql_us));
    out.set("graphstore.giant_cypher_us", median(&giant_cypher_us));
    out.set("graphstore.giant_cypher_rows", giant_cypher_rows as f64);

    // Side pass: planning alone, once per fixed query.
    let explain_us: Vec<f64> = spec
        .fixed
        .iter()
        .map(|q| {
            let (plan, ns) = timed(|| store.raptor.explain(q));
            plan.expect("explain");
            ns as f64 / 1e3
        })
        .collect();
    out.set("engine.plan.explain_us", median(&explain_us));

    out.set_bench_metrics(&b.ops);
    crate::write_trace(&tracer, spec.name);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::case;
    use crate::stream_detect::DATA_LEAK_PATH_SYNTHESIZED;
    use threatraptor::extract::extract;
    use threatraptor::tbql::print::print_query;
    use threatraptor::tbql::Query;
    use threatraptor::{synthesize, SynthesisPlan};

    fn synthesized(use_path_patterns: bool) -> Query {
        let graph = extract(case("data_leak").report).graph;
        synthesize(&graph, &SynthesisPlan { use_path_patterns, ..Default::default() }).unwrap()
    }

    /// The copied constants are what synthesis produces today.
    #[test]
    fn synthesized_constants_match_synthesis() {
        assert_eq!(print_query(&synthesized(false)), DATA_LEAK_SYNTHESIZED);
        let paths = synthesized(true);
        assert_eq!(print_query(&paths), DATA_LEAK_PATH_SYNTHESIZED);
        assert_eq!(paths.patterns.len(), DATA_LEAK_PATH_PATTERNS.len());
        // Each single-pattern query is that pattern with both entities'
        // filters written out (the synthesized query declares them once).
        for (p, text) in paths.patterns.iter().zip(DATA_LEAK_PATH_PATTERNS) {
            let parsed = parse_tbql(text).unwrap();
            assert_eq!(parsed.patterns.len(), 1, "{text}");
            let one = &parsed.patterns[0];
            assert_eq!(
                (&one.subject.id, &one.object.id, &one.id),
                (&p.subject.id, &p.object.id, &p.id)
            );
            assert_eq!(one.op, p.op, "{text}");
        }
    }

    #[test]
    fn corpus_copy_matches_the_crate() {
        assert_eq!(CORPUS_QUERIES, threatraptor::tbql::parser::EQUIV_CORPUS);
    }
}
