//! Delta-incremental variable-length path matching.
//!
//! A [`PathFrontier`] caches, for one compiled variable-length path pattern,
//! which anchor nodes reach which frontier nodes in how many hops. Standing
//! queries advance it once per ingestion epoch: new EVENT edges *relax* the
//! cached min-distance map (extending existing frontiers and retro-seeding
//! walks that pass *through* the new edge) instead of re-walking the whole
//! graph, so per-epoch cost tracks the epoch size, not the store size.
//!
//! ## Equivalence with batch evaluation
//!
//! The batch executor ([`crate::cypher::exec`]) matches a multi-hop path
//! pattern as a bounded DFS with per-segment edge-distinctness and returns
//! DISTINCT `(subject, object)` pairs (event columns are only returned for
//! single-hop patterns, which stay on the existing delta path). For the
//! pattern shapes the frontier accepts (`min_hops <= 1`, or `<= 2` with a
//! final-hop operation — every shape TBQL's `~>(m~n)` sugar produces), pair
//! membership reduces to *shortest-walk* reachability:
//!
//! * an edge-distinct walk of length `d` in `[max(min,1), hi]` from `a` to
//!   `x` exists iff the shortest walk `a -> x` has length `<= hi` — a
//!   shortest walk never repeats a vertex, hence never repeats an edge, and
//!   its length is always `>= 1 >= min`;
//! * `x == a` closures are witnessed by the shortest *cycle* through `a`
//!   (stored as `dist[a][a]`; the zero-length walk is handled separately at
//!   anchor creation when `min == 0`);
//! * with a final-hop operation the pattern is lowered as an unconstrained
//!   prefix of `[min-1, hi-1]` hops plus one constrained final edge — the
//!   final edge is a *separate* segment in the batch lowering and may repeat
//!   prefix edges, which is exactly what scanning all out-edges of every
//!   reached prefix endpoint reproduces.
//!
//! Because shortest distances only ever shrink on a grow-only store, the
//! emitted pair set grows monotonically and the frontier never retracts.
//! Entity and final-hop predicates are evaluated through the same lowered
//! Cypher expressions (`backend::pred_to_cexpr`) and the same evaluator
//! (`cypher::exec::eval_single_node`) the batch path uses, so predicate
//! semantics cannot drift.
//!
//! The candidate-id lists (`id_in`) the standing planner pushes into batch
//! requests are deliberately ignored: they are filter-derived and grow-only,
//! so on any store every id passing the filter is in the list and vice
//! versa — evaluating the filter itself yields the same set.

use raptor_common::error::{Error, Result};
use raptor_common::hash::{FxHashMap, FxHashSet};
use raptor_common::intern::SharedDict;
use raptor_common::io;
use raptor_storage::PathPatternQuery;

use crate::backend::{label_for_class, pred_to_cexpr};
use crate::cypher::ast::CExpr;
use crate::cypher::exec::{eval_single_edge, eval_single_node};
use crate::graph::{Graph, NodeId, PropValue};

/// Cached per-query frontier state for one variable-length path pattern.
pub struct PathFrontier {
    // --- immutable spec, rebuilt from the compiled query (never serialized)
    subj_label: &'static str,
    obj_label: &'static str,
    subj_pred: Option<CExpr>,
    obj_pred: Option<CExpr>,
    final_pred: Option<CExpr>,
    subject_is_object: bool,
    /// Anchors themselves are valid prefix endpoints (`min_hops <= 1` with a
    /// final hop — the prefix may be zero-length).
    zero_prefix: bool,
    /// `min_hops == 0` without a final hop: every anchor matches itself.
    emit_self: bool,
    /// Max relaxation depth: the effective DFS bound of the variable-length
    /// segment (`hi` capped by `hop_cap`; one less with a final hop).
    limit: u32,

    // --- incremental state
    node_mark: usize,
    edge_mark: usize,
    anchors: FxHashSet<u32>,
    /// `dist[node][anchor]` = shortest EVENT-walk length in `1..=limit`.
    /// `dist[a][a]` is the shortest cycle through `a`, never 0.
    dist: FxHashMap<u32, FxHashMap<u32, u32>>,
    /// Emitted `(subject id, object id)` pairs.
    seen: FxHashSet<(i64, i64)>,
}

impl PathFrontier {
    /// Builds a frontier for a compiled path request, or `None` when the
    /// request's shape is outside the frontier's equivalence envelope and
    /// must stay on full re-evaluation.
    pub fn new(q: &PathPatternQuery, dict: &SharedDict) -> Result<Option<PathFrontier>> {
        let single_hop = q.min_hops == 1 && q.max_hops == Some(1);
        if q.want_event || single_hop {
            return Ok(None);
        }
        // Shortest-walk reachability witnesses every admissible length only
        // when the lower bound cannot exceed 1 (prefix lower bound, with a
        // final hop).
        let eligible = match &q.final_hop_pred {
            Some(_) => q.min_hops <= 2,
            None => q.min_hops <= 1,
        };
        if !eligible {
            return Ok(None);
        }
        let subj_pred =
            q.subject.filter.as_ref().map(|f| pred_to_cexpr("s", f, dict)).transpose()?;
        let obj_pred = if q.subject_is_object {
            None
        } else {
            q.object.filter.as_ref().map(|f| pred_to_cexpr("o", f, dict)).transpose()?
        };
        let final_pred =
            q.final_hop_pred.as_ref().map(|p| pred_to_cexpr("e", p, dict)).transpose()?;
        let limit = match final_pred {
            Some(_) => q.max_hops.map(|m| m.saturating_sub(1)).unwrap_or(q.hop_cap),
            None => q.max_hops.unwrap_or(q.hop_cap),
        }
        .min(q.hop_cap);
        Ok(Some(PathFrontier {
            subj_label: label_for_class(q.subject.class),
            obj_label: label_for_class(q.object.class),
            subj_pred,
            obj_pred,
            zero_prefix: final_pred.is_some() && q.min_hops <= 1,
            emit_self: final_pred.is_none() && q.min_hops == 0,
            final_pred,
            subject_is_object: q.subject_is_object,
            limit,
            node_mark: 0,
            edge_mark: 0,
            anchors: FxHashSet::default(),
            dist: FxHashMap::default(),
            seen: FxHashSet::default(),
        }))
    }

    /// Number of cached `(node, anchor)` distance entries (metrics gauge).
    pub fn entries(&self) -> usize {
        self.dist.values().map(FxHashMap::len).sum()
    }

    /// Marks pairs as already emitted (restoring from checkpointed matches).
    pub fn seed_seen(&mut self, pairs: impl IntoIterator<Item = (i64, i64)>) {
        self.seen.extend(pairs);
    }

    /// Absorbs everything the store gained since the last call and returns
    /// the *new* `(subject id, object id)` pairs, sorted. A fresh frontier
    /// absorbs the whole store, which equals batch evaluation; thereafter
    /// each call costs work proportional to the delta, not the store.
    pub fn advance(&mut self, g: &Graph) -> Vec<(i64, i64)> {
        let mut out: Vec<(i64, i64)> = Vec::new();
        let subj_sym = g.dict().get(self.subj_label);
        let event_sym = g.dict().get("EVENT");

        // New nodes: collect anchors; `min == 0` matches the anchor itself.
        let node_count = g.node_count();
        for idx in self.node_mark..node_count {
            let n = NodeId(idx as u32);
            if Some(g.node(n).label) != subj_sym {
                continue;
            }
            if let Some(p) = &self.subj_pred {
                if !eval_single_node(g, p, "s", n) {
                    continue;
                }
            }
            self.anchors.insert(n.0);
            if self.emit_self && self.object_ok(g, n, n.0) {
                self.emit(g, n.0, n.0, &mut out);
            }
        }
        self.node_mark = node_count;

        // New edges: each may (a) serve as the constrained final hop of an
        // already-cached prefix, and (b) shorten walks for every anchor that
        // reaches its source, which propagates forward through *all* current
        // edges (retro-seeding walks through the new edge).
        let edge_count = g.edge_count();
        if let Some(event_sym) = event_sym {
            for idx in self.edge_mark..edge_count {
                let eid = crate::graph::EdgeId(idx as u32);
                let e = g.edge(eid);
                if e.label != event_sym {
                    continue;
                }
                let (u, v) = (e.src, e.dst);
                if let Some(fp) = &self.final_pred {
                    if eval_single_edge(g, fp, "e", eid) {
                        let mut endpoints: Vec<u32> = Vec::new();
                        if self.zero_prefix && self.anchors.contains(&u.0) {
                            endpoints.push(u.0);
                        }
                        if let Some(m) = self.dist.get(&u.0) {
                            endpoints.extend(m.keys().copied());
                        }
                        for a in endpoints {
                            if self.object_ok(g, v, a) {
                                self.emit(g, a, v.0, &mut out);
                            }
                        }
                    }
                }
                self.relax(g, event_sym, u.0, v.0, &mut out);
            }
        }
        self.edge_mark = edge_count;

        out.sort_unstable();
        out
    }

    /// Relaxes the min-distance map through the new edge `u -> v` for every
    /// anchor currently reaching `u` (or `u` itself when it is an anchor),
    /// propagating improvements forward along existing EVENT edges.
    fn relax(
        &mut self,
        g: &Graph,
        event_sym: raptor_common::Sym,
        u: u32,
        v: u32,
        out: &mut Vec<(i64, i64)>,
    ) {
        if self.limit == 0 {
            return;
        }
        // (node, anchor, candidate distance); pushes are pre-filtered to
        // `<= limit`.
        let mut work: Vec<(u32, u32, u32)> = Vec::new();
        if self.anchors.contains(&u) {
            work.push((v, u, 1));
        }
        if let Some(m) = self.dist.get(&u) {
            for (&a, &d) in m {
                if d < self.limit {
                    work.push((v, a, d + 1));
                }
            }
        }
        while let Some((n, a, d)) = work.pop() {
            let slot = self.dist.entry(n).or_default();
            let created = match slot.get(&a) {
                Some(&prev) if prev <= d => continue,
                Some(_) => {
                    slot.insert(a, d);
                    false
                }
                None => {
                    slot.insert(a, d);
                    true
                }
            };
            if created {
                self.on_reached(g, NodeId(n), a, out);
            }
            if d < self.limit {
                for &eid in g.out_edges(NodeId(n)) {
                    let e = g.edge(eid);
                    if e.label == event_sym {
                        work.push((e.dst.0, a, d + 1));
                    }
                }
            }
        }
    }

    /// Anchor `a` reaches node `n` within the depth bound for the first
    /// time: emit pair matches ending at `n` (no final hop) or through each
    /// of `n`'s qualifying out-edges (final hop; edges may predate `n`'s
    /// reachability — this is the retro-seeding direction).
    fn on_reached(&mut self, g: &Graph, n: NodeId, a: u32, out: &mut Vec<(i64, i64)>) {
        match &self.final_pred {
            None => {
                if self.object_ok(g, n, a) {
                    self.emit(g, a, n.0, out);
                }
            }
            Some(fp) => {
                let event_sym = g.dict().get("EVENT");
                let mut hits: Vec<u32> = Vec::new();
                for &eid in g.out_edges(n) {
                    let e = g.edge(eid);
                    if Some(e.label) == event_sym
                        && eval_single_edge(g, fp, "e", eid)
                        && self.object_ok(g, e.dst, a)
                    {
                        hits.push(e.dst.0);
                    }
                }
                for o in hits {
                    self.emit(g, a, o, out);
                }
            }
        }
    }

    /// Does `n` qualify as the pattern's object for anchor `a`?
    fn object_ok(&self, g: &Graph, n: NodeId, a: u32) -> bool {
        if self.subject_is_object {
            return n.0 == a;
        }
        match g.dict().get(self.obj_label) {
            Some(sym) if g.node(n).label == sym => {}
            _ => return false,
        }
        match &self.obj_pred {
            Some(p) => eval_single_node(g, p, "o", n),
            None => true,
        }
    }

    fn emit(&mut self, g: &Graph, a: u32, o: u32, out: &mut Vec<(i64, i64)>) {
        let id = |n: u32| match g.node_prop(NodeId(n), "id") {
            Some(PropValue::Int(i)) => i,
            _ => -1,
        };
        let pair = (id(a), id(o));
        if self.seen.insert(pair) {
            out.push(pair);
        }
    }

    /// Serializes the incremental state (watermarks, anchors, distance map)
    /// with fully sorted iteration so the encoding is deterministic. The
    /// emitted-pair set is *not* serialized: the checkpoint already carries
    /// the accumulated matches, and [`PathFrontier::seed_seen`] rebuilds it
    /// from them on restore.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        io::put_u64(buf, self.node_mark as u64);
        io::put_u64(buf, self.edge_mark as u64);
        let mut anchors: Vec<u32> = self.anchors.iter().copied().collect();
        anchors.sort_unstable();
        io::put_u64(buf, anchors.len() as u64);
        for a in anchors {
            io::put_u32(buf, a);
        }
        let mut nodes: Vec<u32> = self.dist.keys().copied().collect();
        nodes.sort_unstable();
        io::put_u64(buf, nodes.len() as u64);
        for n in nodes {
            io::put_u32(buf, n);
            let mut entries: Vec<(u32, u32)> =
                self.dist[&n].iter().map(|(&a, &d)| (a, d)).collect();
            entries.sort_unstable();
            io::put_u64(buf, entries.len() as u64);
            for (a, d) in entries {
                io::put_u32(buf, a);
                io::put_u32(buf, d);
            }
        }
    }

    /// Restores state written by [`PathFrontier::encode`] into a freshly
    /// built frontier for the same compiled query. Corrupt input yields a
    /// typed error, never a panic.
    pub fn decode(&mut self, cur: &mut io::Cur<'_>) -> Result<()> {
        let node_mark = cur.get_u64()? as usize;
        let edge_mark = cur.get_u64()? as usize;
        let mut anchors = FxHashSet::default();
        for _ in 0..cur.get_len()? {
            anchors.insert(cur.get_u32()?);
        }
        let mut dist: FxHashMap<u32, FxHashMap<u32, u32>> = FxHashMap::default();
        for _ in 0..cur.get_len()? {
            let n = cur.get_u32()?;
            let mut m = FxHashMap::default();
            for _ in 0..cur.get_len()? {
                let a = cur.get_u32()?;
                let d = cur.get_u32()?;
                if d == 0 || d > self.limit {
                    return Err(Error::storage(format!(
                        "frontier distance {d} outside 1..={} (corrupt state)",
                        self.limit
                    )));
                }
                m.insert(a, d);
            }
            dist.insert(n, m);
        }
        self.node_mark = node_mark;
        self.edge_mark = edge_mark;
        self.anchors = anchors;
        self.dist = dist;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PropIns;
    use raptor_storage::{CmpOp, EntityClass, EntitySel, Pred, StorageBackend, Value};

    fn proc(g: &mut Graph, id: i64, exe: &str) -> NodeId {
        g.add_node("Process", &[("id", PropIns::Int(id)), ("exename", PropIns::Str(exe))])
    }

    fn file(g: &mut Graph, id: i64, name: &str) -> NodeId {
        g.add_node("File", &[("id", PropIns::Int(id)), ("name", PropIns::Str(name))])
    }

    fn ev(g: &mut Graph, id: i64, src: NodeId, dst: NodeId, op: &str) {
        let _ = g.add_edge(
            src,
            dst,
            "EVENT",
            &[
                ("id", PropIns::Int(id)),
                ("optype", PropIns::Str(op)),
                ("starttime", PropIns::Int(id * 10)),
                ("endtime", PropIns::Int(id * 10 + 1)),
            ],
        );
    }

    fn sel(class: EntityClass) -> EntitySel {
        EntitySel { class, filter: None, id_in: None }
    }

    fn req(min: u32, max: Option<u32>, op: Option<&str>, dict: &SharedDict) -> PathPatternQuery {
        PathPatternQuery {
            subject: sel(EntityClass::Process),
            object: sel(EntityClass::File),
            min_hops: min,
            max_hops: max,
            hop_cap: 8,
            final_hop_pred: op.map(|o| Pred::Cmp {
                attr: "optype".into(),
                op: CmpOp::Eq,
                value: Value::Str(dict.intern(o)),
            }),
            want_event: false,
            subject_is_object: false,
        }
    }

    /// Batch pairs for the same request, via the storage backend.
    fn batch_pairs(g: &Graph, q: &PathPatternQuery) -> Vec<(i64, i64)> {
        let mut stats = raptor_storage::BackendStats::default();
        let m = g.match_path_pattern(q, &mut stats).unwrap();
        let mut pairs: Vec<(i64, i64)> = (0..m.len()).map(|i| (m.subj[i], m.obj[i])).collect();
        pairs.sort_unstable();
        pairs
    }

    /// Incremental absorption equals batch evaluation at every step, and
    /// emitted deltas never retract.
    #[test]
    fn frontier_tracks_batch_at_every_step() {
        let mut g = Graph::new();
        let q = req(1, Some(3), None, &g.dict().clone());
        let mut f = PathFrontier::new(&q, &g.dict().clone()).unwrap().unwrap();
        let mut acc: Vec<(i64, i64)> = Vec::new();

        let p0 = proc(&mut g, 0, "/bin/tar");
        let p1 = proc(&mut g, 1, "/bin/bzip2");
        let f2 = file(&mut g, 2, "/tmp/a");
        let f3 = file(&mut g, 3, "/tmp/b");
        acc.extend(f.advance(&g));
        assert!(acc.is_empty(), "no edges yet");

        ev(&mut g, 0, p0, f2, "write");
        acc.extend(f.advance(&g));
        assert_eq!(acc, vec![(0, 2)]);

        // A new edge *extending* the cached frontier (p0 ~> f3 via p1).
        ev(&mut g, 1, p0, p1, "fork");
        ev(&mut g, 2, p1, f3, "write");
        acc.extend(f.advance(&g));
        acc.sort_unstable();
        assert_eq!(acc, batch_pairs(&g, &q));

        // Retro-seeding: an edge in the *middle* of a pre-existing prefix
        // and suffix creates pairs passing through it.
        let p4 = proc(&mut g, 4, "/usr/bin/gpg");
        let f5 = file(&mut g, 5, "/tmp/c");
        ev(&mut g, 3, p4, f5, "write"); // suffix exists first
        acc.extend(f.advance(&g));
        ev(&mut g, 4, p1, p4, "fork"); // new middle edge
        acc.extend(f.advance(&g));
        acc.sort_unstable();
        acc.dedup();
        assert_eq!(acc, batch_pairs(&g, &q));
    }

    /// Final-hop operations: prefix cached, final edge constrained; new
    /// final edges fire against old prefixes and vice versa.
    #[test]
    fn final_hop_op_matches_batch() {
        let mut g = Graph::new();
        let dict = g.dict().clone();
        let q = req(1, Some(3), Some("write"), &dict);
        let mut f = PathFrontier::new(&q, &dict).unwrap().unwrap();
        let mut acc: Vec<(i64, i64)> = Vec::new();

        let p0 = proc(&mut g, 0, "/bin/tar");
        let p1 = proc(&mut g, 1, "/bin/bzip2");
        let fa = file(&mut g, 2, "/tmp/a");
        ev(&mut g, 0, p0, p1, "fork");
        acc.extend(f.advance(&g));
        assert!(acc.is_empty());

        // New final edge: fires against the cached prefix endpoint p1 (for
        // anchor p0) and against p1's own zero-length prefix.
        ev(&mut g, 1, p1, fa, "write");
        acc.extend(f.advance(&g));
        assert_eq!(acc, vec![(0, 2), (1, 2)]);
        assert_eq!(acc, batch_pairs(&g, &q));

        // `read` final edges never match.
        let fb = file(&mut g, 3, "/tmp/b");
        ev(&mut g, 2, p1, fb, "read");
        assert!(f.advance(&g).is_empty());
        assert_eq!(batch_pairs(&g, &q).len(), 2);
    }

    /// Shapes outside the equivalence envelope are refused.
    #[test]
    fn ineligible_shapes_are_refused() {
        let dict = SharedDict::new();
        // Single hop stays on the existing delta path.
        assert!(PathFrontier::new(&req(1, Some(1), None, &dict), &dict).unwrap().is_none());
        // Lower bounds beyond the shortest-walk witness are refused.
        assert!(PathFrontier::new(&req(2, Some(4), None, &dict), &dict).unwrap().is_none());
        assert!(PathFrontier::new(&req(3, Some(4), Some("write"), &dict), &dict)
            .unwrap()
            .is_none());
        // ... but `min == 2` with a final hop has prefix lower bound 1.
        assert!(PathFrontier::new(&req(2, Some(4), Some("write"), &dict), &dict)
            .unwrap()
            .is_some());
    }

    /// Encode/decode round-trips the incremental state byte-for-byte.
    #[test]
    fn state_round_trips() {
        let mut g = Graph::new();
        let dict = g.dict().clone();
        let q = req(1, Some(3), None, &dict);
        let mut f = PathFrontier::new(&q, &dict).unwrap().unwrap();
        let p0 = proc(&mut g, 0, "/bin/tar");
        let p1 = proc(&mut g, 1, "/bin/sh");
        let fa = file(&mut g, 2, "/tmp/a");
        ev(&mut g, 0, p0, p1, "fork");
        ev(&mut g, 1, p1, fa, "write");
        let emitted = f.advance(&g);
        assert!(!emitted.is_empty());

        let mut buf = Vec::new();
        f.encode(&mut buf);
        let mut g2 = PathFrontier::new(&q, &dict).unwrap().unwrap();
        let mut cur = io::Cur::new(&buf);
        g2.decode(&mut cur).unwrap();
        g2.seed_seen(emitted.iter().copied());
        let mut buf2 = Vec::new();
        g2.encode(&mut buf2);
        assert_eq!(buf, buf2);
        assert_eq!(f.entries(), g2.entries());

        // The restored frontier continues where the original left off.
        let f5 = file(&mut g, 5, "/tmp/b");
        ev(&mut g, 2, p1, f5, "write");
        assert_eq!(f.advance(&g), g2.advance(&g));
    }
}
