//! `hunt-catalog`: OSCTI report text in, hunt results out.
//!
//! op = `ThreatRaptor::hunt(report)` against that case's preloaded store,
//! all 18 catalog cases at noise x1 in seeded-shuffled rounds. Every hunt
//! recurs each round (100% repeat) over cache-resident stores, so per-call
//! fixed costs dominate and per-row costs do not.

use raptor_cases::metrics::{score_relations, PrF1};
use raptor_cases::{all_cases, build_case, BuiltCase};
use threatraptor::common::hash::FxHashSet;
use threatraptor::engine::exec::EngineStats;
use threatraptor::engine::{Engine, ResultTable};
use threatraptor::extract::{extract, ExtractionOutput};
use threatraptor::nlp::{dep, pos, sentence, tokenize};
use threatraptor::tbql::print::print_query;
use threatraptor::tbql::{analyze, AnalyzedQuery};
use threatraptor::{synthesize, SynthesisPlan, ThreatRaptor};

use crate::exec_acc::{execute_and_render, ExecAcc};
use crate::harness::{passes, timed, Expected, LayerTimes, Outcome, RunCfg};
use crate::inputs::{log_digest, sim_seed};
use crate::stats::{median, rows_digest, Fnv, Permille, Rng, P99};
use crate::trace::Tracer;

pub const NOISE: f64 = 1.0;
pub const TAIL_PCT: Permille = P99;

/// What hunting one catalog case finds: the ground truth every run is held
/// to. The counts are the paper's Tables V and VI as this repository
/// reproduces them, and depend on neither the seed nor the noise scale (the
/// ground-truth selectors use attack-only IOCs, so benign noise never
/// matches). Frozen here so that a change which drops matches, rows or
/// triples fails the run where a digest learned in the same process would
/// not.
pub struct Truth {
    pub id: &'static str,
    /// Rows of the hunt's result table.
    pub rows: usize,
    /// `Engine::pattern_event_matches` ids against `BuiltCase.gt_event_ids`:
    /// true positives, false positives, false negatives.
    pub events: [usize; 3],
    /// Extracted triples against `CaseSpec.gt_relations`, likewise.
    pub relations: [usize; 3],
}

const fn truth(id: &'static str, rows: usize, events: [usize; 3], relations: [usize; 3]) -> Truth {
    Truth { id, rows, events, relations }
}

pub const GROUND_TRUTH: [Truth; 18] = [
    truth("tc_clearscope_1", 0, [6, 0, 0], [3, 0, 0]),
    truth("tc_clearscope_2", 0, [3, 0, 0], [4, 0, 0]),
    truth("tc_clearscope_3", 1, [1, 0, 0], [1, 0, 0]),
    truth("tc_fivedirections_1", 0, [51, 0, 0], [3, 0, 0]),
    truth("tc_fivedirections_2", 0, [3, 0, 0], [4, 0, 0]),
    truth("tc_fivedirections_3", 0, [0, 0, 3], [4, 0, 0]),
    truth("tc_theia_1", 0, [3, 0, 0], [4, 0, 0]),
    truth("tc_theia_2", 0, [115, 0, 0], [4, 0, 0]),
    truth("tc_theia_3", 0, [4, 0, 0], [4, 0, 0]),
    truth("tc_theia_4", 420, [421, 0, 0], [2, 0, 0]),
    truth("tc_trace_1", 0, [39, 0, 37], [4, 0, 0]),
    truth("tc_trace_2", 0, [7, 0, 0], [4, 0, 0]),
    truth("tc_trace_3", 0, [0, 0, 2], [1, 0, 0]),
    truth("tc_trace_4", 0, [1, 0, 2], [3, 0, 0]),
    truth("tc_trace_5", 577, [578, 0, 0], [2, 0, 0]),
    truth("password_crack", 0, [10, 0, 2], [9, 0, 0]),
    truth("data_leak", 0, [6, 0, 2], [8, 0, 0]),
    truth("vpnfilter", 0, [178, 0, 0], [8, 0, 0]),
];

pub fn truth_of(id: &str) -> &'static Truth {
    GROUND_TRUTH
        .iter()
        .find(|t| t.id == id)
        .unwrap_or_else(|| panic!("case `{id}` has a ground-truth row"))
}

fn counts(s: PrF1) -> [usize; 3] {
    [s.tp, s.fp, s.fn_]
}

fn score_of([tp, fp, fn_]: [usize; 3]) -> PrF1 {
    PrF1 { tp, fp, fn_ }
}

/// Report text to the analyzed TBQL query a hunt executes.
pub fn hunt_query(report: &str) -> Result<AnalyzedQuery, String> {
    let query =
        synthesize(&extract(report).graph, &SynthesisPlan::default()).map_err(|e| e.to_string())?;
    analyze(&query).map_err(|e| e.to_string())
}

/// Event ids the query's patterns match in `engine`'s store, scored
/// against the case's ground-truth ids (paper Table VI).
pub fn event_score(
    engine: &Engine,
    aq: &AnalyzedQuery,
    gt_event_ids: &FxHashSet<i64>,
) -> Result<[usize; 3], String> {
    let matches = engine.pattern_event_matches(aq).map_err(|e| e.to_string())?;
    let found: FxHashSet<i64> = matches.into_iter().flat_map(|(_, ids)| ids).collect();
    Ok(counts(PrF1::from_sets(&found, gt_event_ids)))
}

pub struct Case {
    pub built: BuiltCase,
    pub raptor: ThreatRaptor,
}

pub fn setup(cfg: &RunCfg) -> Vec<Case> {
    all_cases()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let built = build_case(spec, cfg.noise(NOISE), sim_seed(cfg.seed, i));
            let raptor = ThreatRaptor::from_log(&built.log).expect("load case store");
            Case { built, raptor }
        })
        .collect()
}

/// The facade op.
pub fn op_facade(case: &Case) -> Result<ResultTable, String> {
    case.raptor.hunt(case.built.spec.report).map(|o| o.results).map_err(|e| e.to_string())
}

pub struct Decomposed {
    pub extraction: ExtractionOutput,
    pub query_text: String,
    pub aq: AnalyzedQuery,
    pub table: ResultTable,
    pub stats: EngineStats,
    pub exec_ns: u64,
}

/// `ThreatRaptor::hunt` as the sequence of public layer functions it calls.
pub fn op_decomposed(t: &Tracer, engine: &Engine, report: &str) -> Result<Decomposed, String> {
    t.span("op.hunt-catalog", || {
        let extraction = t.span("extract.extract", || extract(report));
        let query = t
            .span("core.synthesis.synthesize", || {
                synthesize(&extraction.graph, &SynthesisPlan::default())
            })
            .map_err(|e| e.to_string())?;
        let query_text = t.span("tbql.print", || print_query(&query));
        let aq = t.span("tbql.analyze", || analyze(&query)).map_err(|e| e.to_string())?;
        let (table, stats, exec_ns) = execute_and_render(t, engine, &aq)?;
        Ok(Decomposed { extraction, query_text, aq, table, stats, exec_ns })
    })
}

/// Sentence split + tokenize + POS + dependency parse of a report: the
/// `nlp` crate's share of extraction, as a side pass over the raw text.
fn nlp_parse(text: &str) -> usize {
    let mut nodes = 0;
    for span in sentence::segment(text) {
        let mut toks = tokenize::tokenize(&text[span.start..span.end], span.start);
        pos::tag(&mut toks);
        nodes += dep::parse(&toks).len();
    }
    nodes
}

/// Holds one warm-up hunt to the case's [`Truth`]; returns its event and
/// relation scores.
fn check_truth(case: &Case, d: &Decomposed) -> Result<(PrF1, PrF1), String> {
    let want = truth_of(case.built.spec.id);
    let events = event_score(case.raptor.engine(), &d.aq, &case.built.gt_event_ids)?;
    let triples: Vec<(String, String, String)> = d
        .extraction
        .triples
        .iter()
        .map(|t| (t.subj.clone(), t.verb.clone(), t.obj.clone()))
        .collect();
    let relations = counts(score_relations(&triples, case.built.spec.gt_relations));
    let got = (d.table.rows.len(), events, relations);
    if got != (want.rows, want.events, want.relations) {
        return Err(format!(
            "{}: hunt found (rows, events tp/fp/fn, relations tp/fp/fn) {got:?}, ground truth \
             is {:?}",
            want.id,
            (want.rows, want.events, want.relations)
        ));
    }
    Ok((score_of(events), score_of(relations)))
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::new("hunts", TAIL_PCT);
    let cases = out.setup(|| setup(cfg));

    let mut h = Fnv::default();
    let (mut events, mut entities) = (0, 0);
    for c in &cases {
        h.str(c.built.spec.report);
        log_digest(&mut h, &c.built.log);
        events += c.built.log.events.len();
        entities += c.built.log.entities.len();
    }
    out.inputs_digest = h.0;
    out.fact("noise", cfg.noise(NOISE));
    out.fact("cases", cases.len());
    out.fact("store_events_total", events);
    out.fact("store_entities_total", entities);
    out.fact("repeat_share", "1.0 (every distinct hunt recurs each round)");

    // Warm-up: decomposed hunts fix each case's expected rows and give F1.
    let off = Tracer::new(false);
    let mut expected = Expected::default();
    let warm: Vec<Decomposed> = cases
        .iter()
        .map(|c| op_decomposed(&off, c.raptor.engine(), c.built.spec.report).expect("warm-up hunt"))
        .collect();
    for (c, d) in cases.iter().zip(&warm) {
        expected.learn(c.built.spec.id, rows_digest(&d.table.rows));
    }
    // Every warm-up hunt against the frozen ground truth: from here on an
    // op that matches its warm-up digest is right, not merely repeatable.
    let (mut hunt, mut rel) = (PrF1::default(), PrF1::default());
    for (c, d) in cases.iter().zip(&warm) {
        match check_truth(c, d) {
            Ok((events, relations)) => {
                hunt.add(events);
                rel.add(relations);
            }
            Err(why) => out.attempt(Err(why)),
        }
    }
    let (hunt_f1, extract_f1) = (hunt.f1(), rel.f1());
    out.fact("hunt_f1", format!("{hunt_f1:.6}"));
    out.fact("extract_f1", format!("{extract_f1:.6}"));
    if cfg.corrupt {
        expected.corrupt_one();
    }

    // Measured loop: facade hunts with tracing off; in a traced run every
    // round is also made decomposed under spans.
    let tracer = Tracer::new(cfg.trace);
    let mut rng = Rng::new(cfg.seed);
    let mut order: Vec<usize> = (0..cases.len()).collect();
    let budget = cfg.budget();
    let mut acc = ExecAcc::default();
    let (mut rounds, mut triples, mut patterns) = (0, 0, 0);
    let (mut text_to_er, mut er_to_graph) = (Vec::new(), Vec::new());
    while budget.open(rounds) {
        rng.shuffle(&mut order);
        for &traced in passes(cfg.trace, rounds) {
            for &k in &order {
                let case = &cases[k];
                let id = case.built.spec.id;
                if !traced {
                    let r = out.op(1.0, || op_facade(case));
                    out.attempt(r.and_then(|table| expected.check(id, rows_digest(&table.rows))));
                    continue;
                }
                // The kernel interleaves with both kinds of pass alike.
                out.calib.tick();
                let r = op_decomposed(&tracer, case.raptor.engine(), case.built.spec.report);
                out.attempt(r.and_then(|d| {
                    acc.add(d.exec_ns, &d.stats, d.table.rows.len(), rounds == 0);
                    text_to_er.push(d.extraction.timing.text_to_er * 1e6);
                    er_to_graph.push(d.extraction.timing.er_to_graph * 1e6);
                    if rounds == 0 {
                        triples += d.extraction.triples.len();
                        patterns += d.aq.patterns.len();
                    }
                    expected.check(id, rows_digest(&d.table.rows))
                }));
            }
        }
        rounds += 1;
    }
    out.loop_done();
    out.fact("rounds", rounds);
    if !cfg.trace {
        drop(cases);
        out.repeat_setup(cfg, || setup(cfg));
        return out;
    }

    let b = LayerTimes::new(&tracer, cases.len());
    let n = cases.len() as f64;
    out.set("extract.extract_us", b.self_us("extract.extract"));
    out.set("extract.text_to_er_us", median(&text_to_er));
    out.set("extract.er_to_graph_us", median(&er_to_graph));
    out.set("extract.triples_out", triples as f64 / n);
    out.set("core.synthesis.synthesize_us", b.self_us("core.synthesis.synthesize"));
    out.set("core.synthesis.patterns_out", patterns as f64 / n);
    out.set("tbql.print_us", b.self_us("tbql.print"));
    out.set("tbql.analyze_us", b.self_us("tbql.analyze"));
    out.set("engine.exec.execute_us", b.dur_us("engine.exec.execute"));
    out.set("engine.exec.render_us", b.self_us("engine.exec.render"));
    acc.emit(&mut out, cases.len());
    out.set("hunt_f1", hunt_f1);
    out.set("extract_f1", extract_f1);

    // Side passes, once per case: the nlp stack alone, and planning alone.
    let (mut nlp_us, mut explain_us) = (Vec::new(), Vec::new());
    for (c, d) in cases.iter().zip(&warm) {
        nlp_us.push(timed(|| nlp_parse(c.built.spec.report)).1 as f64 / 1e3);
        let (plan, ns) = timed(|| c.raptor.explain(&d.query_text));
        plan.expect("explain");
        explain_us.push(ns as f64 / 1e3);
    }
    out.set("nlp.parse_us", median(&nlp_us));
    out.set("engine.plan.explain_us", median(&explain_us));

    out.set_bench_metrics(&b.ops);
    crate::write_trace(&tracer, "hunt-catalog");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frozen table adds up to the paper's Table VI as this repository
    /// reproduces it (`raptor-bench --bin tables`): precision 100.00%,
    /// recall 96.74%; and to Table V's relation extraction without a miss.
    #[test]
    fn ground_truth_adds_up_to_the_paper_tables() {
        let (mut events, mut relations) = (PrF1::default(), PrF1::default());
        for t in &GROUND_TRUTH {
            events.add(score_of(t.events));
            relations.add(score_of(t.relations));
        }
        assert_eq!(events.precision(), 1.0);
        assert_eq!(format!("{:.2}", events.recall() * 100.0), "96.74");
        assert_eq!(relations.f1(), 1.0);
        let ids: Vec<&str> = all_cases().iter().map(|c| c.id).collect();
        assert_eq!(ids, GROUND_TRUTH.iter().map(|t| t.id).collect::<Vec<_>>());
    }
}
