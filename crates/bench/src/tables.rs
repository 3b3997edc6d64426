//! Paper-table rendering (Tables I–X).
//!
//! Each `table*` function regenerates one table of the ThreatRaptor
//! evaluation and returns it as text. The `tables` binary prints them;
//! `EXPERIMENTS.md` records a reference run against the paper's numbers.

use std::time::Duration as StdDuration;

use raptor_audit::syscall::{EventCategory, Syscall};
use raptor_cases::all_cases;
use raptor_cases::metrics::PrF1;
use raptor_common::table::{pct, TextTable};
use raptor_engine::exec::ExecMode;
use raptor_engine::fuzzy::{search, FuzzyConfig, QueryGraph};
use raptor_engine::provenance::build_from_stores;
use raptor_tbql::metrics::{char_count, word_count};

use crate::caseval::{
    evaluate_case, query_variants, score_openie, score_threatraptor_extraction, time_execution,
    CaseEval,
};

/// Harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Benign-noise scale (1.0 = each case's baseline sessions).
    pub noise_scale: f64,
    /// Rounds per query variant in Table VIII (the paper uses 20).
    pub rounds: usize,
    /// Fuzzy-search budget in seconds (the paper's cut-off is 3600).
    pub fuzzy_budget_secs: f64,
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig { noise_scale: 1.0, rounds: 20, fuzzy_budget_secs: 60.0, seed: 42 }
    }
}

/// Table I: representative system calls per event category.
pub fn table1() -> String {
    let mut t = TextTable::new(["Event Category", "Relevant System Calls"]);
    for (cat, label) in [
        (EventCategory::ProcessToFile, "ProcessToFile"),
        (EventCategory::ProcessToProcess, "ProcessToProcess"),
        (EventCategory::ProcessToNetwork, "ProcessToNetwork"),
    ] {
        let calls: Vec<&str> = Syscall::ALL
            .iter()
            .filter(|c| c.categories().contains(&cat))
            .map(|c| c.name())
            .collect();
        t.row([label.to_string(), calls.join(", ")]);
    }
    format!("Table I: representative system calls processed\n{}", t.render())
}

/// Table II: representative attributes of system entities.
pub fn table2() -> String {
    let mut t = TextTable::new(["Entity", "Attributes"]);
    t.row(["File", "Name, Path, User, Group"]);
    t.row(["Process", "PID, Executable Name, User, Group, CMD"]);
    t.row(["Network Connection", "SRC/DST IP, SRC/DST Port, Protocol"]);
    format!("Table II: representative attributes of system entities\n{}", t.render())
}

/// Table III: representative attributes of system events.
pub fn table3() -> String {
    let mut t = TextTable::new(["Group", "Attributes"]);
    t.row(["Operation", "Type (read, write, execute, start, end, rename, connect)"]);
    t.row(["Time", "Start Time, End Time, Duration"]);
    t.row(["Misc.", "Subject ID, Object ID, Data Amount, Failure Code"]);
    format!("Table III: representative attributes of system events\n{}", t.render())
}

/// Table IV: the 18 attack cases.
pub fn table4() -> String {
    let mut t = TextTable::new(["Case ID", "Case Name"]);
    for c in all_cases() {
        t.row([c.id, c.name]);
    }
    format!("Table IV: 18 attack cases in the evaluation benchmark\n{}", t.render())
}

/// Table V: IOC entity / relation extraction quality, six approaches,
/// micro-aggregated over all 18 cases.
pub fn table5() -> String {
    type Scorer = Box<dyn Fn(&raptor_cases::CaseSpec) -> crate::caseval::ExtractScores>;
    let approaches: Vec<(&str, Scorer)> = vec![
        ("ThreatRaptor", Box::new(|c| score_threatraptor_extraction(c, true))),
        ("ThreatRaptor - IOC Protection", Box::new(|c| score_threatraptor_extraction(c, false))),
        ("Stanford-style Open IE", Box::new(|c| score_openie(c, false, false))),
        ("Stanford-style + IOC Protection", Box::new(|c| score_openie(c, true, false))),
        ("OpenIE5-style", Box::new(|c| score_openie(c, false, true))),
        ("OpenIE5-style + IOC Protection", Box::new(|c| score_openie(c, true, true))),
    ];
    let mut t =
        TextTable::new(["Approach", "Ent. P", "Ent. R", "Ent. F1", "Rel. P", "Rel. R", "Rel. F1"]);
    for (name, f) in &approaches {
        let mut ent = PrF1::default();
        let mut rel = PrF1::default();
        for c in all_cases() {
            let s = f(c);
            ent.add(s.entity);
            rel.add(s.relation);
        }
        t.row([
            name.to_string(),
            pct(ent.precision()),
            pct(ent.recall()),
            pct(ent.f1()),
            pct(rel.precision()),
            pct(rel.recall()),
            pct(rel.f1()),
        ]);
    }
    format!(
        "Table V: IOC entity and relation extraction (aggregated over 18 cases)\n{}",
        t.render()
    )
}

/// Runs the full per-case evaluation once (shared by Tables VI–X).
pub fn run_all(cfg: &HarnessConfig) -> Vec<CaseEval> {
    all_cases().into_iter().map(|c| evaluate_case(c, cfg.noise_scale, cfg.seed)).collect()
}

/// Table VI: threat-hunting precision and recall per case.
pub fn table6(evals: &[CaseEval]) -> String {
    let mut t = TextTable::new(["Case", "Precision", "Recall"]);
    let (mut tp, mut found, mut gt) = (0usize, 0usize, 0usize);
    for e in evals {
        t.row([
            e.case.id.to_string(),
            format!("{}/{}", e.hunt_tp, e.hunt_found),
            format!("{}/{}", e.hunt_tp, e.hunt_gt),
        ]);
        tp += e.hunt_tp;
        found += e.hunt_found;
        gt += e.hunt_gt;
    }
    t.row([
        "Total".to_string(),
        format!("{tp}/{found} = {}", pct(if found == 0 { 0.0 } else { tp as f64 / found as f64 })),
        format!("{tp}/{gt} = {}", pct(if gt == 0 { 0.0 } else { tp as f64 / gt as f64 })),
    ]);
    format!("Table VI: precision and recall of finding malicious system events\n{}", t.render())
}

/// Table VII: stage latencies (seconds) — extraction, graph construction,
/// query synthesis — plus the Open IE baselines' extraction times.
pub fn table7(evals: &[CaseEval]) -> String {
    let mut t = TextTable::new([
        "Case",
        "Text->E.&R.",
        "E.&R.->Graph",
        "Graph->TBQL",
        "Stanford-style",
        "OpenIE5-style",
    ]);
    let mut sums = [0f64; 5];
    for e in evals {
        let stanford = score_openie(e.case, false, false).seconds;
        let openie5 = score_openie(e.case, false, true).seconds;
        let row = [e.stage_seconds.0, e.stage_seconds.1, e.stage_seconds.2, stanford, openie5];
        for (s, v) in sums.iter_mut().zip(row.iter()) {
            *s += v;
        }
        t.row([
            e.case.id.to_string(),
            format!("{:.4}", row[0]),
            format!("{:.4}", row[1]),
            format!("{:.4}", row[2]),
            format!("{:.4}", row[3]),
            format!("{:.4}", row[4]),
        ]);
    }
    let n = evals.len().max(1) as f64;
    t.row([
        "Average".to_string(),
        format!("{:.4}", sums[0] / n),
        format!("{:.4}", sums[1] / n),
        format!("{:.4}", sums[2] / n),
        format!("{:.4}", sums[3] / n),
        format!("{:.4}", sums[4] / n),
    ]);
    format!(
        "Table VII: execution time (s) of extraction / graph / synthesis stages\n{}",
        t.render()
    )
}

fn mean_std(samples: &[f64]) -> (f64, f64) {
    let n = samples.len().max(1) as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Table VIII: query execution time (µs) of the four variants, `rounds` rounds.
pub fn table8(evals: &[CaseEval], cfg: &HarnessConfig) -> String {
    let mut t = TextTable::new([
        "Case",
        "TBQL mean",
        "TBQL std",
        "SQL mean",
        "SQL std",
        "TBQL(path) mean",
        "TBQL(path) std",
        "Cypher mean",
        "Cypher std",
    ]);
    let mut totals = [0f64; 4];
    for e in evals {
        let v = query_variants(e);
        let mut cols = Vec::with_capacity(8);
        // The giant variants run the same TBQL text: the engine compiles it
        // into the one giant SQL/Cypher statement internally.
        for (text, mode, slot) in [
            (&v.tbql, ExecMode::Scheduled, 0usize),
            (&v.tbql, ExecMode::GiantSql, 1),
            (&v.tbql_path, ExecMode::Scheduled, 2),
            (&v.tbql_path, ExecMode::GiantCypher, 3),
        ] {
            let samples: Vec<f64> =
                (0..cfg.rounds).map(|_| time_execution(&e.raptor, text, mode) * 1e6).collect();
            let (m, s) = mean_std(&samples);
            totals[slot] += m;
            cols.push(format!("{m:.0}"));
            cols.push(format!("{s:.0}"));
        }
        let mut row = vec![e.case.id.to_string()];
        row.extend(cols);
        t.row(row);
    }
    let mut total_row = vec!["Total".to_string()];
    for tot in totals {
        total_row.push(format!("{tot:.0}"));
        total_row.push(String::new());
    }
    t.row(total_row);
    let speedup_sql = if totals[0] > 0.0 { totals[1] / totals[0] } else { 0.0 };
    let speedup_cy = if totals[2] > 0.0 { totals[3] / totals[2] } else { 0.0 };
    format!(
        "Table VIII: query execution time (µs), {} rounds per variant\n{}\nTBQL vs giant SQL speedup: {:.1}x   TBQL(path) vs giant Cypher speedup: {:.1}x\n",
        cfg.rounds,
        t.render(),
        speedup_sql,
        speedup_cy
    )
}

/// Table IX: fuzzy search (exhaustive) vs the Poirot baseline
/// (first-acceptable), with loading / preprocessing / searching phases.
pub fn table9(evals: &[CaseEval], cfg: &HarnessConfig) -> String {
    let mut t = TextTable::new([
        "Case",
        "Fz load",
        "Fz prep",
        "Fz search",
        "Fz aligns",
        "Po load",
        "Po prep",
        "Po search",
        "Po aligns",
    ]);
    for e in evals {
        let q = raptor_tbql::parse_tbql(&e.tbql).expect("reparse");
        let aq = raptor_tbql::analyze(&q).expect("analyze");
        let qg = QueryGraph::from_analyzed(&aq);
        let mut row = vec![e.case.id.to_string()];
        for exhaustive in [true, false] {
            let (prov, timings) = build_from_stores(&e.raptor.engine().stores).expect("provenance");
            let fcfg = FuzzyConfig {
                budget: StdDuration::from_secs_f64(cfg.fuzzy_budget_secs),
                exhaustive,
                ..Default::default()
            };
            let out = search(&prov, &qg, &fcfg);
            row.push(format!("{:.3}", timings.loading));
            row.push(format!("{:.3}", timings.preprocessing));
            row.push(if out.timed_out {
                format!(">{:.0}", cfg.fuzzy_budget_secs)
            } else {
                format!("{:.3}", out.searching)
            });
            row.push(out.alignments.len().to_string());
        }
        t.row(row);
    }
    format!(
        "Table IX: fuzzy search (exhaustive) vs Poirot baseline, budget {:.0}s\n{}",
        cfg.fuzzy_budget_secs,
        t.render()
    )
}

/// Table X: conciseness of the four query variants.
pub fn table10(evals: &[CaseEval]) -> String {
    let mut t = TextTable::new([
        "Case",
        "# Patterns",
        "TBQL chars",
        "TBQL words",
        "SQL chars",
        "SQL words",
        "TBQL(path) chars",
        "TBQL(path) words",
        "Cypher chars",
        "Cypher words",
    ]);
    let mut sums = [0usize; 9];
    for e in evals {
        let v = query_variants(e);
        let q = raptor_tbql::parse_tbql(&e.tbql).expect("reparse");
        let cells = [
            q.patterns.len(),
            char_count(&v.tbql),
            word_count(&v.tbql),
            char_count(&v.sql),
            word_count(&v.sql),
            char_count(&v.tbql_path),
            word_count(&v.tbql_path),
            char_count(&v.cypher),
            word_count(&v.cypher),
        ];
        for (s, c) in sums.iter_mut().zip(cells.iter()) {
            *s += c;
        }
        let mut row = vec![e.case.id.to_string()];
        row.extend(cells.iter().map(usize::to_string));
        t.row(row);
    }
    let mut row = vec!["Total".to_string()];
    row.extend(sums.iter().map(usize::to_string));
    t.row(row);
    let chars_vs_sql = sums[3] as f64 / sums[1].max(1) as f64;
    let words_vs_sql = sums[4] as f64 / sums[2].max(1) as f64;
    let chars_vs_cy = sums[7] as f64 / sums[1].max(1) as f64;
    let words_vs_cy = sums[8] as f64 / sums[2].max(1) as f64;
    format!(
        "Table X: conciseness of TBQL / SQL / TBQL(length-1 path) / Cypher\n{}\nTBQL vs SQL: {:.1}x chars, {:.1}x words   TBQL vs Cypher: {:.1}x chars, {:.1}x words\n",
        t.render(),
        chars_vs_sql,
        words_vs_sql,
        chars_vs_cy,
        words_vs_cy
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        assert!(table1().contains("ProcessToFile"));
        assert!(table1().contains("execve"));
        assert!(table2().contains("PID"));
        assert!(table3().contains("Start Time"));
        let t4 = table4();
        assert!(t4.contains("tc_trace_5"));
        assert!(t4.contains("VPNFilter"));
    }
}
