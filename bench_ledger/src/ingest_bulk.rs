//! `ingest-bulk`: encoded raw audit records until they are queryable.
//!
//! op = `codec::decode_batch` -> `ThreatRaptor::from_records` (parse,
//! reduce, load both stores) over one case's records. Only `audit` and the
//! write halves of the stores and the dictionary work; no read path runs
//! inside an op.

use bytes::Bytes;
use raptor_cases::{build_case, CaseSpec};
use threatraptor::audit::{codec, reduce, Entity, EntityAttrs, LogParser, ParsedLog, SystemEvent};
use threatraptor::common::hash::FxHashSet;
use threatraptor::common::intern::SharedDict;
use threatraptor::engine::load::{self, LoadedStores};
use threatraptor::engine::{Engine, ExecMode};
use threatraptor::storage::{BackendStats, EntityClass, Field, FieldValue, MutableBackend};
use threatraptor::tbql::parser::EQUIV_CORPUS;
use threatraptor::tbql::AnalyzedQuery;
use threatraptor::ThreatRaptor;

use crate::harness::{passes, timed, LayerTimes, Outcome, RunCfg};
use crate::hunt_catalog::{event_score, hunt_query, truth_of};
use crate::inputs::{case, raw_records, sim_seed};
use crate::stats::{Fnv, Permille, Rng, P90};
use crate::trace::Tracer;

/// Frozen workload constants.
pub const CASES: [&str; 6] =
    ["data_leak", "password_crack", "vpnfilter", "tc_trace_5", "tc_theia_4", "tc_fivedirections_1"];
pub const NOISE: f64 = 4.0;
/// ~300 ops per 20-s run here; p90 keeps its ten samples beyond on a machine
/// half as fast, where p95 would not.
pub const TAIL_PCT: Permille = P90;
/// The query that must find the attack in the loaded `data_leak` store.
const PROBE: &str = EQUIV_CORPUS[0];

pub struct Input {
    pub spec: &'static CaseSpec,
    pub bytes: Bytes,
    pub records: usize,
}

pub fn setup(cfg: &RunCfg) -> Vec<Input> {
    CASES
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let spec = case(id);
            let records = raw_records(spec, cfg.noise(NOISE), sim_seed(cfg.seed, i));
            Input { spec, bytes: codec::encode_batch(&records), records: records.len() }
        })
        .collect()
}

/// The facade op.
pub fn op_facade(input: &Input) -> Result<ThreatRaptor, String> {
    let records = codec::decode_batch(input.bytes.clone()).map_err(|e| e.to_string())?;
    ThreatRaptor::from_records(&records).map_err(|e| e.to_string())
}

/// What the decomposed op hands back besides the stores: the parsed log's
/// sizes (the log itself is dropped inside the op, as the facade drops it).
pub struct Staged {
    pub events_parsed: usize,
    pub events: usize,
    pub entities: usize,
    pub stores: LoadedStores,
}

/// decode -> parse -> reduce, the `audit` half of an op.
fn parsed_log(t: &Tracer, input: &Input) -> Result<(ParsedLog, usize), String> {
    let records = t
        .span("audit.codec.decode", || codec::decode_batch(input.bytes.clone()))
        .map_err(|e| e.to_string())?;
    let mut log = t.span("audit.parser.parse", || LogParser::parse(&records));
    let events_parsed = log.events.len();
    t.span("audit.reduce.merge", || {
        reduce::merge_events(&mut log.events, reduce::DEFAULT_THRESHOLD)
    });
    Ok((log, events_parsed))
}

/// The same work as [`op_facade`], one public layer function at a time.
pub fn op_decomposed(t: &Tracer, input: &Input) -> Result<Staged, String> {
    t.span("op.ingest-bulk", || {
        let (log, events_parsed) = parsed_log(t, input)?;
        let stores = t.span("engine.load.load", || load::load(&log)).map_err(|e| e.to_string())?;
        Ok(Staged { events_parsed, events: log.events.len(), entities: log.entities.len(), stores })
    })
}

/// What a loaded store is held to, from outside the op's own path: the
/// sizes of the log `raptor_cases::build_case` makes of the same simulator
/// script, and the hunt of the case's report with its ground-truth event ids.
pub struct Reference {
    pub entities: usize,
    pub events: usize,
    gt_event_ids: FxHashSet<i64>,
    hunt: AnalyzedQuery,
}

pub fn reference(cfg: &RunCfg, case_index: usize, spec: &'static CaseSpec) -> Reference {
    let built = build_case(spec, cfg.noise(NOISE), sim_seed(cfg.seed, case_index));
    Reference {
        entities: built.log.entities.len(),
        events: built.log.events.len(),
        gt_event_ids: built.gt_event_ids,
        hunt: hunt_query(spec.report).expect("the catalog's reports synthesize"),
    }
}

/// Both stores hold exactly the reference log's entities and events, and
/// hunting the case's report in them finds what the catalog's ground truth
/// says ([`truth_of`]): the loaded data is queryable and right.
fn check_store(engine: &Engine, spec: &CaseSpec, want: &Reference) -> Result<(), String> {
    let s = &engine.stores;
    let count = |t: &str| {
        s.rel.query_count(&format!("SELECT COUNT(*) FROM {t}")).map_err(|e| e.to_string())
    };
    let rel = (count("files")? + count("processes")? + count("netconns")?, count("events")?);
    let graph = (s.graph.node_count() as i64, s.graph.edge_count() as i64);
    let log = (want.entities as i64, want.events as i64);
    if rel != log || graph != log {
        return Err(format!(
            "{}: (entities, events) rel {rel:?}, graph {graph:?}, parsed log {log:?}",
            spec.id
        ));
    }
    let found = event_score(engine, &want.hunt, &want.gt_event_ids)?;
    let truth = truth_of(spec.id).events;
    if found != truth {
        return Err(format!(
            "{}: hunting the loaded store finds events tp/fp/fn {found:?}, ground truth is \
             {truth:?}",
            spec.id
        ));
    }
    if spec.id == "data_leak" {
        let rows = engine.execute_text(PROBE, ExecMode::Scheduled).map_err(|e| e.to_string())?.0;
        if rows.rows.len() != 1 {
            return Err(format!("data_leak: the probe query found {} rows", rows.rows.len()));
        }
    }
    Ok(())
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::new("records", TAIL_PCT);
    let inputs = out.setup(|| setup(cfg));

    let mut h = Fnv::default();
    for i in &inputs {
        h.bytes(i.bytes.as_ref());
    }
    out.inputs_digest = h.0;
    let (bytes, records): (usize, usize) =
        inputs.iter().fold((0, 0), |a, i| (a.0 + i.bytes.len(), a.1 + i.records));
    out.fact("noise", cfg.noise(NOISE));
    out.fact("cases", CASES.len());
    out.fact("raw_records", records);
    out.fact("raw_bytes", bytes);

    // Warm-up: one decomposed op per case, held to the references that
    // every timed op is then held to as well.
    let off = Tracer::new(false);
    let mut references: Vec<Reference> =
        inputs.iter().enumerate().map(|(i, input)| reference(cfg, i, input.spec)).collect();
    let (mut events, mut entities) = (0, 0);
    for (input, want) in inputs.iter().zip(&references) {
        let staged = op_decomposed(&off, input).expect("warm-up op");
        events += staged.events;
        entities += staged.entities;
        if let Err(why) = check_store(&Engine::new(staged.stores), input.spec, want) {
            out.attempt(Err(why));
        }
    }
    out.fact("store_events", events);
    out.fact("store_entities", entities);
    if cfg.corrupt {
        references[0].events += 1;
    }

    // Measured loop: facade ops with tracing off; in a traced run every
    // round is also made decomposed under spans.
    let tracer = Tracer::new(cfg.trace);
    let mut rng = Rng::new(cfg.seed);
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let budget = cfg.budget();
    let (mut rounds, mut parsed, mut rows, mut symbols) = (0, 0, 0, 0);
    while budget.open(rounds) {
        rng.shuffle(&mut order);
        for &traced in passes(cfg.trace, rounds) {
            for &k in &order {
                let input = &inputs[k];
                if !traced {
                    let r = out.op(input.records as f64, || op_facade(input));
                    out.attempt(r.and_then(|raptor| {
                        check_store(raptor.engine(), input.spec, &references[k])
                    }));
                    continue;
                }
                // The kernel interleaves with both kinds of pass alike.
                out.calib.tick();
                out.attempt(op_decomposed(&tracer, input).and_then(|staged| {
                    if rounds == 0 {
                        parsed += staged.events_parsed;
                        rows += staged.events + staged.entities;
                        symbols += staged.stores.dict.len();
                    }
                    check_store(&Engine::new(staged.stores), input.spec, &references[k])
                }));
            }
        }
        rounds += 1;
    }
    out.loop_done();
    out.fact("rounds", rounds);
    if !cfg.trace {
        drop(inputs);
        out.repeat_setup(cfg, || setup(cfg));
        return out;
    }

    let b = LayerTimes::new(&tracer, inputs.len());
    let n = inputs.len() as f64;
    out.set("audit.codec.decode_us", b.self_us("audit.codec.decode"));
    out.set("audit.codec.bytes_per_record", bytes as f64 / records as f64);
    out.set("audit.parser.parse_us", b.self_us("audit.parser.parse"));
    out.set("audit.parser.events_out", parsed as f64 / n);
    out.set("audit.reduce.merge_us", b.self_us("audit.reduce.merge"));
    out.set("audit.reduce.factor", parsed as f64 / events.max(1) as f64);
    out.set("engine.load.load_us", b.self_us("engine.load.load"));
    let load_ns = b.total_self_ns("engine.load.load");
    out.set("engine.load.ns_per_row", load_ns as f64 / (rows * rounds).max(1) as f64);
    out.set("common.intern.symbols", symbols as f64 / n);

    // Side passes, once per case: each store's insert path alone, and the
    // dictionary alone, over the very rows `load` was given.
    let (mut rel_ns, mut graph_ns, mut intern_ns, mut strs) = (0, 0, 0, 0);
    for input in &inputs {
        let log = parsed_log(&off, input).expect("side-pass log").0;
        let mut fresh = load::empty().expect("empty stores");
        rel_ns += timed(|| insert_all(&mut fresh.rel, &log)).1;
        graph_ns += timed(|| insert_all(&mut fresh.graph, &log)).1;
        let dict = SharedDict::new();
        let (n_strs, ns) = timed(|| intern_all(&dict, &log));
        intern_ns += ns;
        strs += n_strs;
    }
    out.set("relstore.insert_ns_per_row", rel_ns as f64 / rows as f64);
    out.set("graphstore.insert_ns_per_row", graph_ns as f64 / rows as f64);
    out.set("common.intern.intern_ns_per_str", intern_ns as f64 / strs.max(1) as f64);
    // One load per case (a round) against one insert pass per case.
    let load_per_round = load_ns as f64 / rounds as f64;
    out.set("engine.load.self_share", 1.0 - (rel_ns + graph_ns) as f64 / load_per_round.max(1.0));

    out.set_bench_metrics(&b.ops);
    crate::write_trace(&tracer, "ingest-bulk");
    out
}

fn entity_fields(e: &Entity) -> (EntityClass, Vec<Field<'_>>) {
    let host = FieldValue::Int(e.host as i64);
    let fields = match &e.attrs {
        EntityAttrs::File(f) => vec![
            ("name", FieldValue::Str(&f.name)),
            ("path", FieldValue::Str(&f.path)),
            ("user", FieldValue::Str(&f.user)),
            ("group", FieldValue::Str(&f.group)),
            ("host", host),
        ],
        EntityAttrs::Process(p) => vec![
            ("pid", FieldValue::Int(p.pid as i64)),
            ("exename", FieldValue::Str(&p.exename)),
            ("user", FieldValue::Str(&p.user)),
            ("group", FieldValue::Str(&p.group)),
            ("cmd", FieldValue::Str(&p.cmd)),
            ("host", host),
        ],
        EntityAttrs::NetConn(n) => vec![
            ("srcip", FieldValue::Str(&n.src_ip)),
            ("srcport", FieldValue::Int(n.src_port as i64)),
            ("dstip", FieldValue::Str(&n.dst_ip)),
            ("dstport", FieldValue::Int(n.dst_port as i64)),
            ("protocol", FieldValue::Str(n.protocol.name())),
            ("host", host),
        ],
    };
    (load::class_for_kind(e.attrs.kind()), fields)
}

fn event_fields(ev: &SystemEvent) -> [Field<'_>; 8] {
    [
        ("optype", FieldValue::Str(ev.op.name())),
        ("kind", FieldValue::Str(ev.kind.name())),
        ("starttime", FieldValue::Int(ev.start.0)),
        ("endtime", FieldValue::Int(ev.end.0)),
        ("duration", FieldValue::Int(ev.duration().0)),
        ("amount", FieldValue::Int(ev.amount as i64)),
        ("failcode", FieldValue::Int(ev.fail_code as i64)),
        ("host", FieldValue::Int(ev.host as i64)),
    ]
}

/// The rows `engine::load` appends, through one backend's insert path only.
fn insert_all(backend: &mut impl MutableBackend, log: &ParsedLog) {
    let mut stats = BackendStats::default();
    for e in &log.entities {
        let (class, fields) = entity_fields(e);
        backend.insert_entity(class, e.id.index() as i64, &fields, &mut stats).expect("insert");
    }
    for ev in &log.events {
        let (id, s, o) =
            (ev.id.index() as i64, ev.subject.index() as i64, ev.object.index() as i64);
        backend.insert_event(id, s, o, &event_fields(ev), &mut stats).expect("insert");
    }
}

/// Interns every string field of those rows; returns how many.
fn intern_all(dict: &SharedDict, log: &ParsedLog) -> usize {
    let mut n = 0;
    let mut intern = |fields: &[Field<'_>]| {
        for (_, v) in fields {
            if let FieldValue::Str(s) = v {
                dict.intern(s);
                n += 1;
            }
        }
    };
    for e in &log.entities {
        intern(&entity_fields(e).1);
    }
    for ev in &log.events {
        intern(&event_fields(ev));
    }
    n
}
