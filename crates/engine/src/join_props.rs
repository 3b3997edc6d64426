//! The columnar join against a nested-loop reference.
//!
//! Generated queries of 1–4 event patterns over shared variables (in
//! subject and object position, self-loops included), with generated match
//! sets (duplicate and dangling ids, events without an id), `before` /
//! `after` / `within` relations with and without ranges, attribute `with`
//! clauses and DISTINCT on and off. `Engine::join_project` must return what
//! the reference returns, row for row and in the same order.

use proptest::prelude::*;
use raptor_audit::sim::Simulator;
use raptor_audit::{EntityKind, LogParser};
use raptor_common::time::{Duration, Timestamp};
use raptor_storage::{AttrSource, BackendStats, PatternMatches, ResultBatch, Value as SVal};
use raptor_tbql::analyze::AnalyzedQuery;
use raptor_tbql::{analyze, parse_tbql, RelClause, TemporalOp};

use crate::compile::class_for_type;
use crate::exec::{cmp_svals, Engine, EngineStats};
use crate::load::load;

/// A few processes of two users reading and writing the same files.
fn fixture() -> (Engine, Vec<i64>, Vec<i64>, Vec<i64>) {
    let mut sim = Simulator::new(7, Timestamp::from_secs(1_000));
    let root = sim.boot_process("/bin/bash", "root");
    let alice = sim.boot_process("/bin/sh", "alice");
    for (parent, exe) in [(root, "/bin/tar"), (alice, "/usr/bin/curl"), (alice, "/bin/tar")] {
        let p = sim.spawn(parent, exe, exe);
        sim.read_file(p, "/etc/passwd", 100, 1);
        sim.write_file(p, "/tmp/out", 200, 1);
    }
    let log = LogParser::parse(&sim.finish());
    let ids = |kind| -> Vec<i64> {
        let of_kind = log.entities.iter().filter(|e| e.kind() == kind);
        of_kind.map(|e| e.id.index() as i64).collect()
    };
    let (procs, files) = (ids(EntityKind::Process), ids(EntityKind::File));
    let events = log.events.iter().map(|e| e.id.index() as i64).collect();
    (Engine::new(load(&log).unwrap()), procs, files, events)
}

/// The reference: every combination of one match per pattern, pattern 0
/// outermost, kept when every variable binds one id and every `with`
/// clause holds; attributes are fetched one id at a time.
fn reference(engine: &Engine, aq: &AnalyzedQuery, pms: &[PatternMatches]) -> Vec<Vec<SVal>> {
    let dict = &engine.stores.dict;
    let fetch = |source: AttrSource, attr: &str, id: i64| -> Option<SVal> {
        let mut stats = BackendStats::default();
        let got = engine.stores.rel.fetch_attr(source, attr, &[id], &mut stats).unwrap();
        got.last().map(|&(_, v)| v)
    };
    let entity = |var: &str| AttrSource::Entity(class_for_type(aq.entities[var].ty));
    let pattern = |id: &str| aq.patterns.iter().position(|p| p.id == id).unwrap();
    let empty = SVal::Str(dict.intern(""));
    let mut rows: Vec<Vec<SVal>> = Vec::new();
    let mut idx = vec![0usize; pms.len()];
    while pms.iter().all(|m| !m.is_empty()) {
        let mut bound: Vec<(&str, i64)> = Vec::new();
        let mut ok = true;
        for (k, p) in aq.patterns.iter().enumerate() {
            for (var, id) in [(&p.subject, pms[k].subj[idx[k]]), (&p.object, pms[k].obj[idx[k]])] {
                match bound.iter().find(|(v, _)| v == var) {
                    Some(&(_, b)) => ok &= b == id,
                    None => bound.push((var, id)),
                }
            }
        }
        let id_of = |var: &str| bound.iter().find(|(v, _)| *v == var).unwrap().1;
        for rel in &aq.relations {
            ok = ok
                && match rel {
                    RelClause::Temporal { left, op, range, right } => {
                        let (l, r) = (pattern(left), pattern(right));
                        let gap = pms[r].start[idx[r]] as i128 - pms[l].start[idx[l]] as i128;
                        let within = |g: i128| {
                            range.as_ref().is_none_or(|(lo, hi, unit)| {
                                let ns = |n: i64| Duration::from_unit(n, unit).unwrap().0 as i128;
                                ns(*lo) <= g && g <= ns(*hi)
                            })
                        };
                        match op {
                            TemporalOp::Before => gap > 0 && within(gap),
                            TemporalOp::After => gap < 0 && within(-gap),
                            TemporalOp::Within => within(gap.abs()),
                        }
                    }
                    RelClause::Attr { left, op, right } => {
                        let val = |a: &raptor_tbql::AttrRef| {
                            fetch(entity(&a.base), a.attr.as_deref().unwrap(), id_of(&a.base))
                        };
                        match (val(left), val(right)) {
                            (Some(a), Some(b)) => cmp_svals(&a, *op, &b, dict),
                            _ => false,
                        }
                    }
                };
        }
        if ok {
            let cell = |item: &raptor_tbql::analyze::RetItem| {
                if !item.is_event {
                    let id = id_of(&item.base);
                    return fetch(entity(&item.base), &item.attr, id).unwrap_or(empty);
                }
                let (m, i) = (&pms[pattern(&item.base)], idx[pattern(&item.base)]);
                match item.attr.as_str() {
                    "id" => SVal::Int(m.evt[i]),
                    "starttime" => SVal::Int(m.start[i]),
                    "endtime" => SVal::Int(m.end[i]),
                    attr => fetch(AttrSource::Event, attr, m.evt[i]).unwrap_or(empty),
                }
            };
            let row: Vec<SVal> = aq.ret.iter().map(cell).collect();
            if !aq.distinct || !rows.contains(&row) {
                rows.push(row);
            }
        }
        // Odometer step: the last pattern turns fastest.
        let Some(k) = (0..pms.len()).rev().find(|&k| idx[k] + 1 < pms[k].len()) else { break };
        idx[k] += 1;
        idx[k + 1..].iter_mut().for_each(|i| *i = 0);
    }
    rows
}

const TEMPORAL: [&str; 3] = ["before", "after", "within"];
const CMP: [&str; 4] = ["=", "!=", "<", ">="];
const PROC_ATTRS: [&str; 3] = ["exename", "user", "pid"];
const FILE_ATTRS: [&str; 2] = ["name", "user"];
const EVENT_ATTRS: [&str; 5] = ["id", "starttime", "endtime", "amount", "optype"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The generated cases; `columnar_join_matches_nested_loops` runs them.
    fn check_join_cases(
        // (subject var, object is a file, object var, rows of
        // (subject pick, object pick, event pick, start second)).
        patterns in proptest::collection::vec(
            (0usize..3, proptest::bool::ANY, 0usize..3,
             proptest::collection::vec((0usize..8, 0usize..8, 0usize..16, 0i64..5), 1..7)),
            1..5,
        ),
        // (is temporal, left, right, op, range in seconds, attr picks).
        relations in proptest::collection::vec(
            (proptest::bool::ANY, 0usize..4, 0usize..4, 0usize..4,
             proptest::option::of((0i64..4, 0i64..4)), 0usize..3, 0usize..3),
            0..3,
        ),
        // (is event item, which, attr pick; attr 0 is the bare default).
        ret in proptest::collection::vec((proptest::bool::ANY, 0usize..6, 0usize..6), 1..4),
        distinct in proptest::bool::ANY,
    ) {
        let (engine, procs, files, events) = fixture();
        let n = patterns.len();
        // Variables in first-appearance order, as (name, is a file).
        let mut vars: Vec<(String, bool)> = Vec::new();
        let mut text = String::new();
        let mut pms = Vec::with_capacity(n);
        for (k, (s, is_file, o, rows)) in patterns.iter().enumerate() {
            let (subj, obj) = (format!("p{s}"), format!("{}{o}", if *is_file { "f" } else { "p" }));
            let op = if *is_file { "read" } else { "start" };
            let obj_ty = if *is_file { "file" } else { "proc" };
            text += &format!("proc {subj} {op} {obj_ty} {obj} as e{k} ");
            for v in [(subj.clone(), false), (obj.clone(), *is_file)] {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            // Pick 7 is a dangling id, the rest one of a few real ones (so
            // joins meet); event pick 15 has no event.
            let pick = |pool: &[i64], i: usize| if i == 7 { 1_000 } else { pool[i % 3] };
            let mut pm = PatternMatches::with_capacity(rows.len(), true);
            for &(si, oi, ei, t) in rows {
                let s_id = pick(&procs, si);
                let o_id = match (subj == obj, *is_file) {
                    (true, _) => s_id,
                    (false, true) => pick(&files, oi),
                    (false, false) => pick(&procs, oi),
                };
                let evt = if ei == 15 { -1 } else { events[ei % events.len()] };
                let start = t * 1_000_000_000;
                pm.push_event(s_id, o_id, evt, start, start + 7);
            }
            pms.push(pm);
        }
        let mut withs = Vec::new();
        for &(temporal, a, b, op, range, la, ra) in &relations {
            withs.push(if temporal {
                let range = range
                    .map_or(String::new(), |(x, y)| format!("[{}-{} s]", x.min(y), x.max(y)));
                format!("e{} {}{range} e{}", a % n, TEMPORAL[op % 3], b % n)
            } else {
                let attr = |(v, is_file): &(String, bool), i: usize| {
                    let attrs: &[&str] = if *is_file { &FILE_ATTRS } else { &PROC_ATTRS };
                    format!("{v}.{}", attrs[i % attrs.len()])
                };
                let (l, r) = (&vars[a % vars.len()], &vars[b % vars.len()]);
                format!("{} {} {}", attr(l, la), CMP[op], attr(r, ra))
            });
        }
        if !withs.is_empty() {
            text += &format!("with {} ", withs.join(", "));
        }
        let items: Vec<String> = ret
            .iter()
            .map(|&(is_event, which, attr)| match (is_event, attr) {
                (true, _) => format!("e{}.{}", which % n, EVENT_ATTRS[attr % 5]),
                (false, 0) => vars[which % vars.len()].0.clone(),
                (false, _) => {
                    let (v, is_file) = &vars[which % vars.len()];
                    let attrs: &[&str] = if *is_file { &FILE_ATTRS } else { &PROC_ATTRS };
                    format!("{v}.{}", attrs[attr % attrs.len()])
                }
            })
            .collect();
        text += &format!("return {}{}", if distinct { "distinct " } else { "" }, items.join(", "));

        let aq = analyze(&parse_tbql(&text).unwrap()).unwrap();
        let refs: Vec<&PatternMatches> = pms.iter().collect();
        let got = engine.join_project(&aq, &refs, &mut EngineStats::default()).unwrap();
        let want_rows = reference(&engine, &aq, &pms);
        let cols = (0..got.n_cols()).map(|c| want_rows.iter().map(|r| r[c]).collect()).collect();
        let want = ResultBatch::new(got.columns.clone(), cols, engine.stores.dict.clone());
        prop_assert_eq!(&got, &want, "{}", text);
        NON_EMPTY.with(|c| c.set(c.get() + !want.is_empty() as usize));
    }
}

thread_local! {
    static NON_EMPTY: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// 256 generated cases; at least a third of them must return rows.
#[test]
fn columnar_join_matches_nested_loops() {
    check_join_cases();
    let non_empty = NON_EMPTY.with(|c| c.get());
    eprintln!("columnar join proptest: {non_empty} of 256 cases return rows");
    assert!(non_empty * 3 >= 256, "only {non_empty} of 256 cases return rows");
}
