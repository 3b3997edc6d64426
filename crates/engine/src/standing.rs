//! Standing queries — continuous evaluation over a growing store.
//!
//! A [`StandingQuery`] is a TBQL query registered *once* and then advanced
//! once per ingestion epoch. What an epoch costs depends on what the epoch
//! appended, not on what the store already holds:
//!
//! * each event pattern (and each length-1 path pattern, which is the same
//!   thing — [`PathPatternQuery::as_single_hop`]) is matched by a
//!   **row-range pass**: tables are append-only and a row id is its
//!   ordinal, so the epoch's events are one contiguous range of the
//!   relational `events` table ([`EpochInput::event_rows`]), and
//!   [`Database::match_event_pattern_rows`] evaluates the pattern's event
//!   predicate over just those rows, then looks each surviving row's
//!   subject and object up by id and tests the entity filter on the
//!   endpoint's own row. Nothing is planned, joined or seeded, and no
//!   per-query candidate set exists: an endpoint matches or not on its own
//!   attributes, however long ago it was ingested,
//! * variable-length path patterns are matched **delta-incrementally**
//!   through a cached [`PathFrontier`]: each epoch's new edges extend the
//!   per-query min-distance frontier (and retro-seed walks passing through
//!   them) instead of re-walking the graph. Shapes outside the frontier's
//!   equivalence envelope fall back to full re-evaluation each epoch (their
//!   match set is *replaced*, which is still monotone on a grow-only
//!   store). Either way the accumulated match list is kept canonically
//!   sorted, so emitted deltas are byte-identical whichever path ran,
//! * per-pattern match sets **accumulate** across epochs; the cross-pattern
//!   join, `with`-clause constraints and projection then run in memory over
//!   them (the same `join_project` stage one-shot scheduled execution
//!   uses), and the result is diffed against everything already emitted:
//!   the `cumulative` batch, a multiset of rows hashed by row index
//!   ([`ResultBatch::rows_not_in`]). A row the result holds k times and
//!   `cumulative` j times emits its last k − j occurrences, and the delta
//!   is appended to `cumulative`.
//!
//! **Compiled once.** The typed request of every pattern — and the frontier
//! of every eligible path — is built at the query's first epoch and kept:
//! nothing in it depends on the epoch. (It waits for the first epoch only
//! because it needs the engine's hop cap and, after recovery, the restored
//! frontier state.) Per epoch, a pattern costs one call with a row range.
//!
//! **Registration semantics.** An event pattern sees the events ingested
//! after the query was registered; there is no catch-up scan over events
//! already in the store. The *entities* those events touch may be of any
//! age. A variable-length path's frontier starts from the whole graph, so
//! it does reach back. Registered on an empty store — the streaming
//! equivalence tests' setting — the delta invariant holds: after any
//! sequence of epochs, the concatenation of all emitted deltas equals, as a
//! multiset of rows, the result of executing the same query in
//! `ExecMode::Scheduled` over the fully loaded store. Scheduled batch
//! execution's intersection-based propagation is *not* used here (an entity
//! unmatched today may match tomorrow).
//!
//! **Inline.** A session advances its standing queries one after another on
//! the ingesting thread. An advance is tens of microseconds of row-range
//! passes plus about as much per path frontier; spawning scoped workers for
//! it (90–140 µs per epoch when it was tried) cost as much as the work.
//!
//! [`Database::match_event_pattern_rows`]: raptor_relstore::Database::match_event_pattern_rows

use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

use raptor_common::error::{Error, Result};
use raptor_common::intern::SharedDict;
use raptor_common::{io, obs};
use raptor_graphstore::PathFrontier;
use raptor_storage::{
    EventPatternQuery, PathPatternQuery, PatternMatches, ResultBatch, Value as SVal,
};
use raptor_tbql::analyze::AnalyzedQuery;
use raptor_tbql::{analyze, parse_tbql, Window};

use crate::compile::{event_pattern_request, path_pattern_request, Propagation};
use crate::exec::{Engine, EngineStats, QueryKind};

/// What one ingestion epoch contributed, as the standing-query evaluator
/// needs to see it.
#[derive(Clone, Debug)]
pub struct EpochInput {
    /// Epoch sequence number (informational; drives first-match reporting).
    pub epoch: u64,
    /// The rows of the relational store's `events` table this epoch
    /// appended. One contiguous range even when the event *ids* are not
    /// (ingestion order is the stream's, not the log's).
    pub event_rows: std::ops::Range<usize>,
}

/// One encoded match: subject, object, event, start and end.
const MATCH_BYTES: usize = 40;

/// Process-wide count of cached frontier distance entries, maintained by
/// every live standing query (the `raptor_path_frontier_entries` gauge).
static FRONTIER_ENTRIES: AtomicI64 = AtomicI64::new(0);

/// Total cached `(node, anchor)` frontier entries across all live standing
/// queries. `ThreatRaptor::metrics()` and the stream session publish this as
/// the `raptor_path_frontier_entries` gauge.
pub fn frontier_entries_total() -> i64 {
    FRONTIER_ENTRIES.load(Ordering::Relaxed)
}

/// How one pattern is advanced, decided once (see the module docs).
enum PatternPlan {
    /// Event pattern or length-1 path: matched against the epoch's own
    /// rows of the `events` table.
    Rows(EventPatternQuery),
    /// Variable-length path inside the frontier's envelope.
    Frontier(Box<PathFrontier>),
    /// Any other path shape: full re-evaluation every epoch.
    Rescan(PathPatternQuery),
}

/// Per-pattern progress of a standing query.
#[derive(Clone, Debug)]
pub struct PatternProgress {
    /// The pattern id (`as evtN` / generated `_evtN`).
    pub id: String,
    /// Accumulated matches so far.
    pub matches: usize,
    /// Epoch at which the pattern first matched, if it ever has.
    pub first_match_epoch: Option<u64>,
}

/// A registered query plus its accumulated evaluation state.
pub struct StandingQuery {
    name: String,
    /// The TBQL text as registered: checkpoints serialize it and recovery
    /// recompiles it, rather than serializing the compiled query.
    text: String,
    aq: AnalyzedQuery,
    /// Accumulated per-pattern matches (index-aligned with `aq.patterns`).
    matches: Vec<PatternMatches>,
    /// Per-pattern plans (index-aligned with `aq.patterns`); empty until
    /// the first advance compiles them.
    plans: Vec<PatternPlan>,
    /// Checkpoint-restored frontier state blobs, applied when the matching
    /// frontier is built at the next advance.
    pending_frontier: Vec<Option<Vec<u8>>>,
    /// Last frontier-entry count reported into [`FRONTIER_ENTRIES`].
    reported_entries: i64,
    /// Every emitted row, in emission order (the cumulative view): the
    /// multiset each epoch's result is diffed against. It carries the
    /// shared dictionary plane of the engine this query runs against.
    cumulative: ResultBatch,
    first_match_epoch: Vec<Option<u64>>,
}

impl StandingQuery {
    /// Compiles a TBQL text into a standing query. Rejects relative
    /// `last N unit` windows:
    /// they are anchored to `now_ns`, which advances with every epoch's
    /// watermark, so matches accepted early could not be retracted later —
    /// the delta invariant (concatenated deltas == batch result) would
    /// silently break. Absolute windows (`from/to`, `at`, `before`,
    /// `after`) are fine.
    pub fn new(name: impl Into<String>, tbql: &str, dict: SharedDict) -> Result<Self> {
        let aq = analyze(&parse_tbql(tbql)?)?;
        let relative = |w: &Window| matches!(w, Window::Last { .. });
        if aq.patterns.iter().filter_map(|p| p.window.as_ref()).any(relative)
            || aq.global_windows.iter().any(relative)
        {
            return Err(Error::semantic(
                "standing queries do not support relative `last N unit` windows \
                 (the reference point moves with the stream's watermark)",
            ));
        }
        let columns = aq.ret.iter().map(|r| format!("{}.{}", r.base, r.attr)).collect();
        let cumulative = ResultBatch::empty(columns, dict);
        let n = aq.patterns.len();
        let matches = aq
            .patterns
            .iter()
            .map(|p| PatternMatches::with_capacity(0, p.has_final_hop()))
            .collect();
        Ok(StandingQuery {
            name: name.into(),
            text: tbql.to_string(),
            aq,
            matches,
            plans: Vec::new(),
            pending_frontier: vec![None; n],
            reported_entries: 0,
            cumulative,
            first_match_epoch: vec![None; n],
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn text(&self) -> &str {
        &self.text
    }

    pub fn query(&self) -> &AnalyzedQuery {
        &self.aq
    }

    /// Per-pattern accumulated state (for live-hunt displays).
    pub fn progress(&self) -> Vec<PatternProgress> {
        self.aq
            .patterns
            .iter()
            .map(|p| PatternProgress {
                id: p.id.clone(),
                matches: self.matches[p.index].len(),
                first_match_epoch: self.first_match_epoch[p.index],
            })
            .collect()
    }

    /// Every row emitted so far, in emission order. After the final epoch
    /// this equals (as a multiset) the one-shot `ExecMode::Scheduled`
    /// result over the same data.
    pub fn cumulative_batch(&self) -> &ResultBatch {
        &self.cumulative
    }

    /// Serializes the accumulated evaluation state (durability plane's
    /// checkpoint codec). The compiled query itself is *not* serialized —
    /// recovery re-analyzes the registered TBQL text and then restores this
    /// state into the fresh compilation, so the plans and `columns` are
    /// always re-derived. The cumulative rows are written row by row.
    /// Symbols in emitted rows refer to the shared dictionary, which the
    /// checkpoint restores first, pinning them.
    pub fn encode_state(&self, buf: &mut Vec<u8>) {
        io::put_u64(buf, self.matches.len() as u64);
        for (pm, first) in self.matches.iter().zip(&self.first_match_epoch) {
            io::put_u64(buf, pm.len() as u64);
            for i in 0..pm.len() {
                for col in [&pm.subj, &pm.obj, &pm.evt, &pm.start, &pm.end] {
                    io::put_i64(buf, col[i]);
                }
            }
            match first {
                Some(e) => {
                    io::put_u8(buf, 1);
                    io::put_u64(buf, *e);
                }
                None => io::put_u8(buf, 0),
            }
        }
        let rows = &self.cumulative;
        io::put_u64(buf, rows.n_rows() as u64);
        io::put_u64(buf, rows.n_cols() as u64);
        for r in 0..rows.n_rows() {
            for col in &rows.cols {
                match col.get(r) {
                    SVal::Null => io::put_u8(buf, 0),
                    SVal::Int(i) => {
                        io::put_u8(buf, 1);
                        io::put_i64(buf, i);
                    }
                    SVal::Str(s) => {
                        io::put_u8(buf, 2);
                        io::put_u32(buf, s.0);
                    }
                }
            }
        }
    }

    /// Restores state written by [`StandingQuery::encode_state`] into a
    /// freshly-compiled query of the same TBQL text over the restored
    /// dictionary. Corrupt input yields a typed error, never a panic.
    pub fn decode_state(&mut self, cur: &mut io::Cur<'_>) -> Result<()> {
        let n_patterns = cur.get_len()?;
        if n_patterns != self.aq.patterns.len() {
            return Err(Error::storage(format!(
                "standing state has {n_patterns} patterns, query `{}` has {}",
                self.name,
                self.aq.patterns.len()
            )));
        }
        let mut matches = Vec::with_capacity(n_patterns);
        let mut first = Vec::with_capacity(n_patterns);
        for p in &self.aq.patterns {
            let n = cur.get_len()?;
            // Nothing is reserved for a count the bytes left could not hold.
            if n > cur.remaining() / MATCH_BYTES {
                return Err(Error::storage(format!("standing state claims {n} matches")));
            }
            let mut pm = PatternMatches::with_capacity(n, p.has_final_hop());
            for _ in 0..n {
                let (subj, obj, evt) = (cur.get_i64()?, cur.get_i64()?, cur.get_i64()?);
                let (start, end) = (cur.get_i64()?, cur.get_i64()?);
                pm.push_event(subj, obj, evt, start, end);
            }
            matches.push(pm);
            first.push(match cur.get_u8()? {
                0 => None,
                1 => Some(cur.get_u64()?),
                other => {
                    return Err(Error::storage(format!("invalid option tag {other}")));
                }
            });
        }
        let n_rows = cur.get_len()?;
        let arity = cur.get_len()?;
        if arity != self.cumulative.n_cols() {
            return Err(Error::storage(format!(
                "standing state arity {arity} != query arity {}",
                self.cumulative.n_cols()
            )));
        }
        // Every cell takes at least its tag byte.
        if n_rows.saturating_mul(arity) > cur.remaining() {
            return Err(Error::storage(format!("standing state claims {n_rows} rows")));
        }
        let n_syms = self.cumulative.dict.len() as u32;
        // Row-major cells, as written.
        let mut cells = Vec::with_capacity(n_rows * arity);
        for _ in 0..n_rows * arity {
            cells.push(match cur.get_u8()? {
                0 => SVal::Null,
                1 => SVal::Int(cur.get_i64()?),
                2 => {
                    let s = cur.get_u32()?;
                    if s >= n_syms {
                        return Err(Error::storage(format!(
                            "symbol {s} out of dictionary range {n_syms}"
                        )));
                    }
                    SVal::Str(raptor_common::Sym(s))
                }
                other => {
                    return Err(Error::storage(format!("invalid value tag {other}")));
                }
            });
        }
        self.matches = matches;
        self.first_match_epoch = first;
        let cols = (0..arity).map(|c| cells.iter().skip(c).step_by(arity).copied().collect());
        self.cumulative.cols = cols.collect();
        Ok(())
    }

    /// Serializes the cached frontier state (its own blob in the
    /// checkpoint). Patterns without an active frontier write an absent marker;
    /// restored-but-not-yet-rebuilt blobs pass through unchanged, so
    /// checkpointing a freshly restored session loses nothing.
    pub fn encode_frontier_state(&self, buf: &mut Vec<u8>) {
        io::put_u64(buf, self.pending_frontier.len() as u64);
        for (i, pending) in self.pending_frontier.iter().enumerate() {
            let blob = match self.plans.get(i) {
                Some(PatternPlan::Frontier(f)) => {
                    let mut b = Vec::new();
                    f.encode(&mut b);
                    Some(b)
                }
                _ => pending.clone(),
            };
            match blob {
                Some(b) => {
                    io::put_u8(buf, 1);
                    io::put_u64(buf, b.len() as u64);
                    buf.extend_from_slice(&b);
                }
                None => io::put_u8(buf, 0),
            }
        }
    }

    /// Restores state written by [`StandingQuery::encode_frontier_state`].
    /// The blobs are stashed and validated when the frontiers are rebuilt at
    /// the next advance (their specs need the engine's compiled requests).
    pub fn decode_frontier_state(&mut self, cur: &mut io::Cur<'_>) -> Result<()> {
        let n = cur.get_len()?;
        if n != self.aq.patterns.len() {
            return Err(Error::storage(format!(
                "frontier state has {n} patterns, query `{}` has {}",
                self.name,
                self.aq.patterns.len()
            )));
        }
        for i in 0..n {
            self.pending_frontier[i] = match cur.get_u8()? {
                0 => None,
                1 => {
                    let len = cur.get_len()?;
                    Some(cur.get_bytes(len)?.to_vec())
                }
                other => {
                    return Err(Error::storage(format!("invalid frontier tag {other}")));
                }
            };
        }
        Ok(())
    }

    /// Publishes this query's frontier-entry count into the process-wide
    /// gauge as a delta against what it last reported.
    fn sync_frontier_entries(&mut self) {
        let now: i64 = self
            .plans
            .iter()
            .map(|plan| match plan {
                PatternPlan::Frontier(f) => f.entries() as i64,
                _ => 0,
            })
            .sum();
        FRONTIER_ENTRIES.fetch_add(now - self.reported_entries, Ordering::Relaxed);
        self.reported_entries = now;
    }

    /// Builds every pattern's plan. The requests carry no candidate sets —
    /// the entity filters in them decide on their own — and relative
    /// windows were refused at registration, so nothing here moves with
    /// the stream.
    fn compile(&mut self, engine: &Engine) -> Result<()> {
        let ctx = engine.ctx(&self.aq);
        let unpropagated = Propagation::default();
        let mut plans = Vec::with_capacity(self.aq.patterns.len());
        for p in &self.aq.patterns {
            if !p.is_path() {
                plans.push(PatternPlan::Rows(event_pattern_request(&ctx, p, &unpropagated)?));
                continue;
            }
            let req = path_pattern_request(&ctx, p, &unpropagated, engine.max_hops)?;
            plans.push(if let Some(event) = req.as_single_hop() {
                PatternPlan::Rows(event)
            } else if let Some(mut f) = PathFrontier::new(&req)? {
                // Checkpoint-restored state first, then what the
                // accumulated matches already emitted.
                if let Some(blob) = self.pending_frontier[p.index].take() {
                    f.decode(&mut io::Cur::new(&blob))?;
                    // The blob is consistent with itself; it must also fit
                    // the graph it will advance on, which only grows.
                    let g = &engine.stores.graph;
                    let (nodes, edges) = f.marks();
                    if nodes > g.node_count() || edges > g.edge_count() {
                        return Err(Error::storage(format!(
                            "frontier of `{}` marks {nodes} nodes and {edges} edges, past the \
                             graph's {} and {} (corrupt state)",
                            self.name,
                            g.node_count(),
                            g.edge_count()
                        )));
                    }
                }
                let acc = &self.matches[p.index];
                f.seed_seen(acc.subj.iter().copied().zip(acc.obj.iter().copied()));
                PatternPlan::Frontier(Box::new(f))
            } else {
                PatternPlan::Rescan(req)
            });
        }
        self.plans = plans;
        Ok(())
    }

    /// Advances the standing query by one ingestion epoch, returning the
    /// *delta* of result rows this epoch produced (possibly empty) plus the
    /// execution stats of the re-evaluation.
    pub fn advance(
        &mut self,
        engine: &Engine,
        input: &EpochInput,
    ) -> Result<(ResultBatch, EngineStats)> {
        let mut sp = raptor_common::obs::span("stream.standing");
        sp.label(&self.name);
        sp.attr("epoch", input.epoch);
        sp.attr("events", input.event_rows.len() as u64);
        let mut stats = EngineStats::default();
        if self.plans.is_empty() {
            self.compile(engine)?;
        }

        // An epoch without events cannot create matches (new entities alone
        // carry no edges), so skip the patterns entirely.
        let mut changed = false;
        if !input.event_rows.is_empty() {
            for (p, plan) in self.aq.patterns.iter().zip(&mut self.plans) {
                let acc = &mut self.matches[p.index];
                // Data queries carry the same observability payload as the
                // batch executor's: rows, wall time, counter delta.
                let (before, t0) = (stats.backend, Instant::now());
                match plan {
                    PatternPlan::Rows(req) => {
                        let m = engine.stores.rel.match_event_pattern_rows(
                            req,
                            input.event_rows.clone(),
                            &mut stats.backend,
                        )?;
                        let kind = if p.is_path() {
                            QueryKind::PathPattern
                        } else {
                            QueryKind::EventPattern
                        };
                        stats.record("relational", kind, &p.id, 0);
                        stats.finish_last(m.len(), before, t0.elapsed().as_nanos() as u64);
                        changed |= !m.is_empty();
                        acc.append(&m);
                    }
                    PatternPlan::Frontier(f) => {
                        let mut fsp = raptor_common::obs::span("standing.frontier");
                        fsp.label(&p.id);
                        let pairs = f.advance(&engine.stores.graph);
                        fsp.attr("new_pairs", pairs.len() as u64);
                        fsp.attr("entries", f.entries() as u64);
                        obs::metrics().counter_add("raptor_path_frontier_hits_total", 1);
                        changed |= !pairs.is_empty();
                        for (subj, obj) in pairs {
                            acc.push_pair(subj, obj);
                        }
                        sort_canonical(acc);
                    }
                    PatternPlan::Rescan(req) => {
                        obs::metrics().counter_add("raptor_path_frontier_misses_total", 1);
                        let m = engine.stores.graph.match_path_pattern(req, &mut stats.backend)?;
                        stats.record("graph", QueryKind::PathPattern, &p.id, 0);
                        stats.finish_last(m.len(), before, t0.elapsed().as_nanos() as u64);
                        changed |= m.len() != acc.len();
                        *acc = m;
                        sort_canonical(acc);
                    }
                }
                if !acc.is_empty() && self.first_match_epoch[p.index].is_none() {
                    self.first_match_epoch[p.index] = Some(input.epoch);
                }
            }
        }
        self.sync_frontier_entries();

        // A query only produces rows once every pattern has matched; and an
        // epoch that changed nothing cannot emit new rows.
        if !changed || self.matches.iter().any(PatternMatches::is_empty) {
            let columns = self.cumulative.columns.clone();
            return Ok((ResultBatch::empty(columns, self.cumulative.dict.clone()), stats));
        }

        // Join + with-clauses + projection over the *accumulated* matches,
        // then emit only what the multiset of prior emissions lacks.
        let pattern_rows: Vec<&PatternMatches> = self.matches.iter().collect();
        let full = engine.join_project(&self.aq, &pattern_rows, &mut stats)?;
        let delta = full.select(&full.rows_not_in(&self.cumulative));
        self.cumulative.append(&delta);
        Ok((delta, stats))
    }
}

/// Sorts path matches by `(subj, obj, evt, start, end)`. The frontier
/// accumulates and full re-evaluation replaces, in different orders;
/// sorting both keeps emitted deltas byte-identical whichever ran.
fn sort_canonical(m: &mut PatternMatches) {
    let mut perm: Vec<usize> = (0..m.len()).collect();
    perm.sort_unstable_by_key(|&i| (m.subj[i], m.obj[i], m.evt[i], m.start[i], m.end[i]));
    let gather = |col: &[i64]| perm.iter().map(|&i| col[i]).collect();
    *m = PatternMatches {
        subj: gather(&m.subj),
        obj: gather(&m.obj),
        evt: gather(&m.evt),
        start: gather(&m.start),
        end: gather(&m.end),
        has_event: m.has_event,
    };
}

impl Drop for StandingQuery {
    fn drop(&mut self) {
        FRONTIER_ENTRIES.fetch_sub(self.reported_entries, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecMode;
    use crate::load::tests::sample_log;
    use crate::load::{self, load};

    fn standing(q: &str, engine: &Engine) -> StandingQuery {
        StandingQuery::new("t", q, engine.stores.dict.clone()).unwrap()
    }

    /// Relative windows are anchored to a moving watermark; rejected.
    #[test]
    fn relative_windows_rejected() {
        let q = "proc p read file f as e1 last 5 minute return p, f";
        let err = match StandingQuery::new("t", q, SharedDict::new()) {
            Err(e) => e,
            Ok(_) => panic!("relative window must be rejected"),
        };
        assert!(err.to_string().contains("last"), "{err}");
        // Absolute windows stay allowed.
        let q = "proc p read file f as e1 after 10 return p, f";
        assert!(StandingQuery::new("t", q, SharedDict::new()).is_ok());
    }

    /// A temporal range whose nanoseconds overflow is refused at
    /// registration, like a batch query refuses it.
    #[test]
    fn overflowing_temporal_range_rejected() {
        let q = "proc p read file f as e1 proc p write file g as e2 \
                 with e1 before[0-200000000000 d] e2 return p, f, g";
        let err = match StandingQuery::new("t", q, SharedDict::new()) {
            Err(e) => e,
            Ok(_) => panic!("an overflowing range must be rejected"),
        };
        assert_eq!(err.kind, raptor_common::error::ErrorKind::Semantic, "{err}");
        assert!(StandingQuery::new("t", &q.replace("200000000000", "106751"), SharedDict::new())
            .is_ok());
    }

    /// Feeds the log one event per epoch; the concatenated deltas must
    /// equal the one-shot scheduled result.
    #[test]
    fn one_event_epochs_reach_batch_result() {
        let log = sample_log();
        let q = r#"proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1
                   proc p write file f2["%upload%"] as e2
                   with e1 before e2 return p, f, f2"#;

        let mut stores = load::empty().unwrap();
        let mut stats = raptor_storage::BackendStats::default();
        for e in &log.entities {
            load::append_entity(&mut stores, e, &mut stats).unwrap();
        }
        let mut engine = Engine::new(stores);
        let mut sq = standing(q, &engine);
        let mut emitted = 0usize;
        for (i, ev) in log.events.iter().enumerate() {
            // Entities were pre-loaded; each epoch appends one event row.
            let mut stats = raptor_storage::BackendStats::default();
            load::append_event(&mut engine.stores, ev, &mut stats).unwrap();
            assert_eq!(stats.items_inserted, 2, "one row + one edge");
            let input = EpochInput { epoch: i as u64, event_rows: i..i + 1 };
            let (delta, estats) = sq.advance(&engine, &input).unwrap();
            assert_eq!(estats.text_parses, 0, "standing path must stay parse-free");
            // Every data query carries its payload: the ledger and EXPLAIN
            // ANALYZE read backend time and per-query counters from here.
            assert!(!estats.queries.is_empty());
            assert!(estats.queries.iter().all(|q| q.rows.is_some() && q.wall_ns > 0));
            assert!(estats.queries.iter().any(|q| q.delta.data_queries == 1));
            emitted += delta.n_rows();
        }
        let batch = Engine::new(load(&log).unwrap());
        let aq = analyze(&parse_tbql(q).unwrap()).unwrap();
        let (expect, _) = batch.execute(&aq, ExecMode::Scheduled).unwrap();
        let got = crate::exec::ResultTable::from_batch(sq.cumulative_batch());
        assert_eq!(got.sorted_rows(), expect.sorted_rows());
        assert_eq!(emitted, expect.rows.len());
    }

    /// A frontier blob whose watermarks run past the graph it is restored
    /// onto is refused where it is applied: a node mark past the graph let
    /// the first advance index nodes that do not exist, and an edge mark
    /// past it skipped edges forever.
    #[test]
    fn frontier_marks_past_the_graph_are_refused() {
        let log = sample_log();
        let engine = Engine::new(load(&log).unwrap());
        let q = r#"proc p["%bash%"] ~>(1~3)[write] file f["%upload%"] as e1 return p, f"#;
        let mut sq = standing(q, &engine);
        sq.advance(&engine, &EpochInput { epoch: 0, event_rows: 0..log.events.len() }).unwrap();
        let mut state = Vec::new();
        sq.encode_frontier_state(&mut state);
        // One pattern, present (tag 1), its blob's length, then the node and
        // edge marks.
        assert_eq!(state[8], 1, "the pattern runs on a frontier");
        let marks = 17;
        let g = &engine.stores.graph;
        for (at, count) in [(marks, g.node_count()), (marks + 8, g.edge_count())] {
            for (mark, ok) in [(count, true), (count + 1, false)] {
                let mut forged = state.clone();
                forged[at..at + 8].copy_from_slice(&(mark as u64).to_le_bytes());
                let mut restored = standing(q, &engine);
                restored.decode_frontier_state(&mut io::Cur::new(&forged)).unwrap();
                let epoch = EpochInput { epoch: 1, event_rows: 0..log.events.len() };
                match restored.advance(&engine, &epoch) {
                    Ok(_) => assert!(ok, "mark {mark} past {count} was applied"),
                    Err(e) => {
                        assert!(!ok, "mark {mark} refused: {e}");
                        assert_eq!(e.kind, raptor_common::error::ErrorKind::Storage, "{e}");
                    }
                }
            }
        }
    }

    /// Per-pattern first-match epochs are reported as patterns light up.
    #[test]
    fn first_match_epochs_reported() {
        let log = sample_log();
        let q = r#"proc p["%tar%"] read file f["%passwd%"] as e1 return p, f"#;
        let mut engine = Engine::new(load::empty().unwrap());
        let mut stats = raptor_storage::BackendStats::default();
        for e in &log.entities {
            load::append_entity(&mut engine.stores, e, &mut stats).unwrap();
        }
        let mut sq = standing(q, &engine);
        for (i, ev) in log.events.iter().enumerate() {
            let mut st = raptor_storage::BackendStats::default();
            load::append_event(&mut engine.stores, ev, &mut st).unwrap();
            let input = EpochInput { epoch: i as u64, event_rows: i..i + 1 };
            sq.advance(&engine, &input).unwrap();
        }
        let progress = sq.progress();
        assert_eq!(progress.len(), 1);
        assert!(progress[0].matches >= 1);
        // tar reads /etc/passwd somewhere mid-log, not at epoch 0 (the
        // first events are process starts).
        let first = progress[0].first_match_epoch.unwrap();
        assert!(first > 0, "{progress:?}");
    }
}
