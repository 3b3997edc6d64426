//! The extraction golden: everything the text half of a hunt produces for
//! the 18 catalog reports, rendered as text.
//!
//! `tests/golden/catalog_extraction.txt` pins it (regenerate with
//! `cargo run --release -p raptor-bench --bin golden_extract`), and
//! `tests/extraction_golden.rs` asserts the rendering byte-identical. It
//! covers each report with IOC protection on and off (entities, triples,
//! graph nodes and edges, synthesized TBQL), Table V, and one synthetic
//! document of mixed-case and defanged IOC forms.

use std::fmt::Write as _;

use raptor_cases::all_cases;
use raptor_extract::pipeline::extract_with_options;
use raptor_tbql::print::print_query;
use threatraptor::{synthesize, SynthesisPlan};

use crate::tables::table5;

/// Mixed-case and defanged IOC forms the catalog reports do not exercise.
pub const MIXED_FORMS_DOC: &str = "\
The dropper Upload.TAR fetched HXXP://evil[.]com/x and exploited cve-2014-6271. \
It connects to Evil-C2.COM. /usr/bin/curl wrote to hkcu\\Software\\x.\n\n\
Later Upload.TAR sent data to Evil-C2.COM. /usr/bin/curl read from /tmp/Upload.TAR.";

fn render_document(out: &mut String, label: &str, text: &str) {
    for protection in [true, false] {
        let x = extract_with_options(text, protection);
        let _ =
            writeln!(out, "document {label} protection {}", if protection { "on" } else { "off" });
        for e in &x.entities {
            let _ =
                writeln!(out, "entity {} {} {} {}", e.block, e.offset, e.ioc_type.name(), e.text);
        }
        for t in &x.triples {
            let _ = writeln!(out, "triple {}\t{}\t{}", t.subj, t.verb, t.obj);
        }
        for n in &x.graph.nodes {
            let _ = writeln!(out, "node {} {} {}", n.id, n.ioc_type.name(), n.text);
        }
        for e in &x.graph.edges {
            let _ = writeln!(out, "edge {} {} -[{}]-> {}", e.seq, e.src, e.relation, e.dst);
        }
        match synthesize(&x.graph, &SynthesisPlan::default()) {
            Ok(q) => {
                for line in print_query(&q).lines() {
                    let _ = writeln!(out, "tbql {line}");
                }
            }
            Err(e) => {
                let _ = writeln!(out, "tbql error {e}");
            }
        }
    }
}

/// The golden rendering.
pub fn extraction_golden() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Golden extraction output for the catalog reports. Regenerate with:\n\
         #   cargo run --release -p raptor-bench --bin golden_extract\n\
         # Per document and protection setting: `entity <block> <offset> <type> <text>`,\n\
         # `triple <subj>\\t<verb>\\t<obj>`, `node <id> <type> <text>`,\n\
         # `edge <seq> <src> -[<relation>]-> <dst>`, then the synthesized TBQL."
    );
    for c in all_cases() {
        render_document(&mut out, c.id, c.report);
    }
    render_document(&mut out, "mixed_forms", MIXED_FORMS_DOC);
    out.push_str(&table5());
    out.push('\n');
    out
}
