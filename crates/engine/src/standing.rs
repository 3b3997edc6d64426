//! Standing queries — continuous evaluation over a growing store.
//!
//! A [`StandingQuery`] is a compiled TBQL query registered *once* and then
//! re-evaluated per ingestion epoch with **delta evaluation**:
//!
//! * each event pattern (and each length-1 path pattern) is matched only
//!   against the epoch's freshly ingested events, via the typed requests'
//!   `event_id_in` / `final_event_id_in` restriction — per-epoch data-query
//!   cost tracks the epoch size, not the store size,
//! * per-pattern match sets **accumulate** across epochs, and the
//!   filter-derived [`Propagation`] candidate sets grow monotonically
//!   (delta-seeded from each epoch's new entity-id range, then unioned)
//!   instead of being recomputed,
//! * variable-length path patterns are matched **delta-incrementally**
//!   through a cached [`PathFrontier`]: each epoch's new edges extend the
//!   per-query min-distance frontier (and retro-seed walks passing through
//!   them) instead of re-walking the graph, so per-epoch cost tracks the
//!   epoch size. Shapes outside the frontier's equivalence envelope fall
//!   back to full re-evaluation each epoch (their match set is *replaced*,
//!   which is still monotone on a grow-only store). Either way the
//!   accumulated match list is kept canonically sorted, so emitted deltas
//!   are byte-identical whichever path ran,
//! * the cross-pattern join, `with`-clause constraints, and projection then
//!   run in memory over the accumulated match sets (the same
//!   `join_project` stage one-shot scheduled execution uses), and the
//!   result is diffed against everything already emitted.
//!
//! The delta invariant, asserted by the streaming equivalence tests: after
//! any sequence of epochs, the concatenation of all emitted deltas equals —
//! as a multiset of rows — the result of executing the same query in
//! `ExecMode::Scheduled` over the fully loaded store. Scheduled batch
//! execution's intersection-based propagation is *not* used here (an entity
//! unmatched today may match tomorrow); the entity filters themselves are
//! still pushed into every data query, so candidate sets only ever prune,
//! never decide, correctness.

use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

use raptor_common::error::{Error, Result};
use raptor_common::hash::FxHashMap;
use raptor_common::intern::SharedDict;
use raptor_common::{io, obs};
use raptor_graphstore::PathFrontier;
use raptor_storage::{CmpOp as SOp, Pred, ResultBatch, Value as SVal};
use raptor_tbql::analyze::AnalyzedQuery;
use raptor_tbql::{analyze, parse_tbql, Window};

use crate::compile::{
    attr_pred, class_for_type, event_pattern_request, path_pattern_request, Propagation,
};
use crate::exec::{matches_to_rows, Engine, EngineStats, Match, QueryKind};

/// What one ingestion epoch contributed, as the standing-query evaluator
/// needs to see it.
#[derive(Clone, Copy, Debug)]
pub struct EpochInput<'a> {
    /// Epoch sequence number (informational; drives first-match reporting).
    pub epoch: u64,
    /// Entity ids ingested this epoch as the half-open range `[lo, hi)` —
    /// entities are append-only and dense, so a range suffices.
    pub entity_range: (i64, i64),
    /// Event ids ingested this epoch (sorted, distinct; *not* necessarily
    /// contiguous — ingestion order is the stream's, not the log's).
    pub event_ids: &'a [i64],
}

/// Process-wide count of cached frontier distance entries, maintained by
/// every live standing query (the `raptor_path_frontier_entries` gauge).
static FRONTIER_ENTRIES: AtomicI64 = AtomicI64::new(0);

/// Total cached `(node, anchor)` frontier entries across all live standing
/// queries. `ThreatRaptor::metrics()` and the stream session publish this as
/// the `raptor_path_frontier_entries` gauge.
pub fn frontier_entries_total() -> i64 {
    FRONTIER_ENTRIES.load(Ordering::Relaxed)
}

/// Per-pattern frontier cache state.
enum FrontierSlot {
    /// Not yet decided — building the frontier needs the compiled request,
    /// which needs the engine, so it happens on the first advance.
    Unknown,
    /// Ineligible pattern shape: full re-evaluation every epoch.
    Off,
    On(Box<PathFrontier>),
}

/// Builds (or refuses) the frontier for one path pattern, applying any
/// checkpoint-restored state blob and marking already-accumulated matches
/// as emitted.
fn build_frontier(
    req: &raptor_storage::PathPatternQuery,
    dict: &SharedDict,
    pending: &mut Option<Vec<u8>>,
    matches: &[Match],
) -> Result<FrontierSlot> {
    match PathFrontier::new(req, dict)? {
        Some(mut f) => {
            if let Some(blob) = pending.take() {
                f.decode(&mut io::Cur::new(&blob))?;
            }
            f.seed_seen(matches.iter().map(|m| (m.subj, m.obj)));
            Ok(FrontierSlot::On(Box::new(f)))
        }
        None => Ok(FrontierSlot::Off),
    }
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
    /// The shared dictionary plane of the engine this query runs against
    /// (emitted batches carry it; the multiset diff keys on its symbols).
    dict: SharedDict,
    /// Accumulated per-pattern matches (index-aligned with `aq.patterns`).
    matches: Vec<Vec<Match>>,
    /// Per-pattern: this pattern is delta-evaluable (event pattern or
    /// length-1 path). Others go through the frontier cache or re-evaluate
    /// fully each epoch.
    delta_ok: Vec<bool>,
    /// Per-pattern cached path frontiers (index-aligned with `aq.patterns`).
    frontiers: Vec<FrontierSlot>,
    /// Checkpoint-restored frontier state blobs, applied when the matching
    /// frontier is built at the next advance.
    pending_frontier: Vec<Option<Vec<u8>>>,
    /// Last frontier-entry count reported into [`FRONTIER_ENTRIES`].
    reported_entries: i64,
    /// Monotone filter-derived candidate sets.
    prop: Propagation,
    /// Multiset of rows already emitted across all epochs.
    emitted: FxHashMap<Vec<SVal>, usize>,
    /// Every emitted row, in emission order (the cumulative view).
    cumulative: Vec<Vec<SVal>>,
    columns: Vec<String>,
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
        let n = aq.patterns.len();
        let delta_ok = aq.patterns.iter().map(|p| !p.is_path() || p.has_final_hop()).collect();
        Ok(StandingQuery {
            name: name.into(),
            text: tbql.to_string(),
            aq,
            dict,
            matches: vec![Vec::new(); n],
            delta_ok,
            frontiers: (0..n).map(|_| FrontierSlot::Unknown).collect(),
            pending_frontier: vec![None; n],
            reported_entries: 0,
            prop: Propagation::default(),
            emitted: FxHashMap::default(),
            cumulative: Vec::new(),
            columns,
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

    pub fn columns(&self) -> &[String] {
        &self.columns
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
    pub fn cumulative_batch(&self) -> ResultBatch {
        ResultBatch::from_rows(self.columns.clone(), self.cumulative.clone(), self.dict.clone())
    }

    /// Serializes the accumulated evaluation state (durability plane's
    /// checkpoint codec). The compiled query itself is *not* serialized —
    /// recovery re-analyzes the registered TBQL text and then restores this
    /// state into the fresh compilation, so `delta_ok`/`columns` are always
    /// re-derived, and `emitted` is rebuilt from `cumulative`. Symbols in
    /// emitted rows refer to the shared dictionary, which the checkpoint
    /// restores first, pinning them.
    pub fn encode_state(&self, buf: &mut Vec<u8>) {
        io::put_u64(buf, self.matches.len() as u64);
        for (pm, first) in self.matches.iter().zip(&self.first_match_epoch) {
            io::put_u64(buf, pm.len() as u64);
            for m in pm {
                io::put_i64(buf, m.subj);
                io::put_i64(buf, m.obj);
                io::put_i64(buf, m.evt);
                io::put_i64(buf, m.start);
                io::put_i64(buf, m.end);
            }
            match first {
                Some(e) => {
                    io::put_u8(buf, 1);
                    io::put_u64(buf, *e);
                }
                None => io::put_u8(buf, 0),
            }
        }
        // Candidate sets, sorted by variable for a deterministic encoding.
        let mut entries: Vec<(&str, &[i64])> = self.prop.iter().collect();
        entries.sort_by_key(|(var, _)| *var);
        io::put_u64(buf, entries.len() as u64);
        for (var, ids) in entries {
            io::put_str(buf, var);
            io::put_u64(buf, ids.len() as u64);
            for id in ids {
                io::put_i64(buf, *id);
            }
        }
        io::put_u64(buf, self.cumulative.len() as u64);
        io::put_u64(buf, self.columns.len() as u64);
        for row in &self.cumulative {
            for v in row {
                match v {
                    SVal::Null => io::put_u8(buf, 0),
                    SVal::Int(i) => {
                        io::put_u8(buf, 1);
                        io::put_i64(buf, *i);
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
        for _ in 0..n_patterns {
            let n = cur.get_len()?;
            let mut pm = Vec::with_capacity(n);
            for _ in 0..n {
                pm.push(Match {
                    subj: cur.get_i64()?,
                    obj: cur.get_i64()?,
                    evt: cur.get_i64()?,
                    start: cur.get_i64()?,
                    end: cur.get_i64()?,
                });
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
        let mut prop = Propagation::default();
        for _ in 0..cur.get_len()? {
            let var = cur.get_str()?;
            let n = cur.get_len()?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(cur.get_i64()?);
            }
            if !ids.windows(2).all(|w| w[0] < w[1]) {
                return Err(Error::storage("candidate ids not sorted-distinct (corrupt state)"));
            }
            prop.set(var, ids);
        }
        let n_rows = cur.get_len()?;
        let arity = cur.get_len()?;
        if arity != self.columns.len() {
            return Err(Error::storage(format!(
                "standing state arity {arity} != query arity {}",
                self.columns.len()
            )));
        }
        let n_syms = self.dict.len() as u32;
        let mut cumulative = Vec::with_capacity(n_rows);
        let mut emitted: FxHashMap<Vec<SVal>, usize> = FxHashMap::default();
        for _ in 0..n_rows {
            let mut row = Vec::with_capacity(arity);
            for _ in 0..arity {
                row.push(match cur.get_u8()? {
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
            *emitted.entry(row.clone()).or_insert(0) += 1;
            cumulative.push(row);
        }
        self.matches = matches;
        self.first_match_epoch = first;
        self.prop = prop;
        self.cumulative = cumulative;
        self.emitted = emitted;
        Ok(())
    }

    /// Serializes the cached frontier state (the checkpoint's version-2
    /// section). Patterns without an active frontier write an absent marker;
    /// restored-but-not-yet-rebuilt blobs pass through unchanged, so
    /// checkpointing a freshly restored session loses nothing.
    pub fn encode_frontier_state(&self, buf: &mut Vec<u8>) {
        io::put_u64(buf, self.frontiers.len() as u64);
        for (slot, pending) in self.frontiers.iter().zip(&self.pending_frontier) {
            let blob = match slot {
                FrontierSlot::On(f) => {
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
            .frontiers
            .iter()
            .map(|s| match s {
                FrontierSlot::On(f) => f.entries() as i64,
                _ => 0,
            })
            .sum();
        FRONTIER_ENTRIES.fetch_add(now - self.reported_entries, Ordering::Relaxed);
        self.reported_entries = now;
    }

    /// Delta-seeds the filter-derived candidate sets from this epoch's new
    /// entity-id range and unions them into the monotone propagation state.
    fn seed_delta(
        &mut self,
        engine: &Engine,
        input: &EpochInput<'_>,
        stats: &mut EngineStats,
    ) -> Result<()> {
        let (lo, hi) = input.entity_range;
        if lo >= hi {
            return Ok(());
        }
        let range = Pred::And(
            Box::new(Pred::Cmp { attr: "id".into(), op: SOp::Ge, value: SVal::Int(lo) }),
            Box::new(Pred::Cmp { attr: "id".into(), op: SOp::Lt, value: SVal::Int(hi) }),
        );
        for id in &self.aq.entity_order {
            let e = &self.aq.entities[id];
            let Some(filter) = &e.filter else { continue };
            let pred = Pred::And(Box::new(attr_pred(filter, &self.dict)), Box::new(range.clone()));
            let (before, t0) = (stats.backend, Instant::now());
            let ids =
                engine.rel().entity_candidates(class_for_type(e.ty), &pred, &mut stats.backend)?;
            stats.record("relational", QueryKind::Seed, id, 0);
            stats.finish_last(ids.len(), before, t0.elapsed().as_nanos() as u64);
            self.prop.union(id, ids);
        }
        Ok(())
    }

    /// Advances the standing query by one ingestion epoch, returning the
    /// *delta* of result rows this epoch produced (possibly empty) plus the
    /// execution stats of the re-evaluation.
    pub fn advance(
        &mut self,
        engine: &Engine,
        input: &EpochInput<'_>,
    ) -> Result<(ResultBatch, EngineStats)> {
        let mut sp = raptor_common::obs::span("stream.standing");
        sp.label(&self.name);
        sp.attr("epoch", input.epoch);
        sp.attr("events", input.event_ids.len() as u64);
        let mut stats = EngineStats::default();
        self.seed_delta(engine, input, &mut stats)?;

        // Delta-match each pattern against the epoch's new events. An epoch
        // without events cannot create matches (new entities alone carry no
        // edges), so skip the data queries entirely.
        let mut changed = false;
        if !input.event_ids.is_empty() {
            let ctx = engine.ctx(&self.aq);
            for p in &self.aq.patterns {
                if self.delta_ok[p.index] {
                    // Data queries carry the same observability payload as
                    // the batch executor's: rows, wall time, counter delta.
                    let (before, t0) = (stats.backend, Instant::now());
                    let delta = if p.is_path() {
                        let mut req = path_pattern_request(&ctx, p, &self.prop, engine.max_hops)?;
                        req.final_event_id_in = Some(input.event_ids.to_vec());
                        let m = engine.graph().match_path_pattern(&req, &mut stats.backend)?;
                        stats.record("graph", QueryKind::PathPattern, &p.id, 1);
                        matches_to_rows(&m)
                    } else {
                        let mut req = event_pattern_request(&ctx, p, &self.prop)?;
                        req.event_id_in = Some(input.event_ids.to_vec());
                        let m = engine.rel().match_event_pattern(&req, &mut stats.backend)?;
                        stats.record("relational", QueryKind::EventPattern, &p.id, 1);
                        matches_to_rows(&m)
                    };
                    stats.finish_last(delta.len(), before, t0.elapsed().as_nanos() as u64);
                    changed |= !delta.is_empty();
                    self.matches[p.index].extend(delta);
                } else {
                    // Variable-length path: delta-incremental through the
                    // cached frontier when the shape allows it, full
                    // re-evaluation otherwise.
                    let req = path_pattern_request(&ctx, p, &self.prop, engine.max_hops)?;
                    if matches!(self.frontiers[p.index], FrontierSlot::Unknown) {
                        self.frontiers[p.index] = build_frontier(
                            &req,
                            &self.dict,
                            &mut self.pending_frontier[p.index],
                            &self.matches[p.index],
                        )?;
                    }
                    if let FrontierSlot::On(f) = &mut self.frontiers[p.index] {
                        let mut fsp = raptor_common::obs::span("standing.frontier");
                        fsp.label(&p.id);
                        let pairs = f.advance(&engine.stores.graph);
                        fsp.attr("new_pairs", pairs.len() as u64);
                        fsp.attr("entries", f.entries() as u64);
                        obs::metrics().counter_add("raptor_path_frontier_hits_total", 1);
                        changed |= !pairs.is_empty();
                        self.matches[p.index].extend(pairs.into_iter().map(|(subj, obj)| Match {
                            subj,
                            obj,
                            evt: -1,
                            start: 0,
                            end: 0,
                        }));
                    } else {
                        obs::metrics().counter_add("raptor_path_frontier_misses_total", 1);
                        let (before, t0) = (stats.backend, Instant::now());
                        let m = engine.graph().match_path_pattern(&req, &mut stats.backend)?;
                        stats.record("graph", QueryKind::PathPattern, &p.id, 0);
                        let rows = matches_to_rows(&m);
                        stats.finish_last(rows.len(), before, t0.elapsed().as_nanos() as u64);
                        changed |= rows.len() != self.matches[p.index].len();
                        self.matches[p.index] = rows;
                    }
                    // Canonical order: the frontier accumulates and full
                    // re-evaluation replaces, in different orders — sorting
                    // both keeps emitted deltas byte-identical whichever
                    // path ran (the catalog on/off determinism contract).
                    self.matches[p.index]
                        .sort_unstable_by_key(|r| (r.subj, r.obj, r.evt, r.start, r.end));
                }
                if !self.matches[p.index].is_empty() && self.first_match_epoch[p.index].is_none() {
                    self.first_match_epoch[p.index] = Some(input.epoch);
                }
            }
        }
        self.sync_frontier_entries();

        // A query only produces rows once every pattern has matched; and an
        // epoch that changed nothing cannot emit new rows.
        if !changed || self.matches.iter().any(Vec::is_empty) {
            return Ok((
                ResultBatch::from_rows(self.columns.clone(), Vec::new(), self.dict.clone()),
                stats,
            ));
        }

        // Join + with-clauses + projection over the *accumulated* matches,
        // then emit only what the multiset of prior emissions lacks.
        let pattern_rows: Vec<&Vec<Match>> = self.matches.iter().collect();
        let full = engine.join_project(&self.aq, &pattern_rows, &mut stats)?;
        let mut fresh: FxHashMap<Vec<SVal>, usize> = FxHashMap::default();
        let mut delta_rows: Vec<Vec<SVal>> = Vec::new();
        for i in 0..full.n_rows() {
            let row = full.row(i);
            let seen_now = fresh.entry(row.clone()).or_insert(0);
            *seen_now += 1;
            let already = self.emitted.get(&row).copied().unwrap_or(0);
            if *seen_now > already {
                delta_rows.push(row);
            }
        }
        for row in &delta_rows {
            *self.emitted.entry(row.clone()).or_insert(0) += 1;
            self.cumulative.push(row.clone());
        }
        Ok((ResultBatch::from_rows(self.columns.clone(), delta_rows, self.dict.clone()), stats))
    }
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
    use crate::load::{self, load};
    use raptor_audit::sim::Simulator;
    use raptor_audit::LogParser;
    use raptor_common::time::Timestamp;

    fn sample_log() -> raptor_audit::ParsedLog {
        let mut sim = Simulator::new(5, Timestamp::from_secs(1000));
        let shell = sim.boot_process("/bin/bash", "root");
        let tar = sim.spawn(shell, "/bin/tar", "tar cf /tmp/upload.tar");
        sim.read_file(tar, "/etc/passwd", 4096, 4);
        sim.write_file(tar, "/tmp/upload.tar", 4096, 2);
        let curl = sim.spawn(shell, "/usr/bin/curl", "curl");
        let fd = sim.connect(curl, "192.168.29.128", 443);
        sim.send(curl, fd, 1024, 2);
        sim.exit(curl);
        sim.exit(tar);
        LogParser::parse(&sim.finish())
    }

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
            // Entities were pre-loaded: only epoch 0 sees the full range.
            let range = if i == 0 { (0, log.entities.len() as i64) } else { (0, 0) };
            let mut stats = raptor_storage::BackendStats::default();
            load::append_event(&mut engine.stores, ev, &mut stats).unwrap();
            assert_eq!(stats.items_inserted, 2, "one row + one edge");
            let input = EpochInput {
                epoch: i as u64,
                entity_range: range,
                event_ids: &[ev.id.index() as i64],
            };
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
        let got = crate::exec::ResultTable::from_batch(&sq.cumulative_batch());
        assert_eq!(got.sorted_rows(), expect.sorted_rows());
        assert_eq!(emitted, expect.rows.len());
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
            let range = if i == 0 { (0, log.entities.len() as i64) } else { (0, 0) };
            let mut st = raptor_storage::BackendStats::default();
            load::append_event(&mut engine.stores, ev, &mut st).unwrap();
            let input = EpochInput {
                epoch: i as u64,
                entity_range: range,
                event_ids: &[ev.id.index() as i64],
            };
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
