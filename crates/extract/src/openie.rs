//! General open information extraction baselines (Table V).
//!
//! Two clause-based triple extractors standing in for Stanford Open IE and
//! Open IE 5 — general-purpose tools that extract *all* relations from
//! *raw* text. They share the failure mode the paper measures: without IOC
//! protection their tokenization shatters IOCs, so entity precision/recall
//! against IOC ground truth collapse; with protection they recover a little
//! recall but still extract mostly non-IOC noun phrases.
//!
//! * Stanford-style (`run_baseline` with `exhaustive: false`) — permissive:
//!   every (subject chunk, verb, following chunk) clause yields a triple;
//!   high yield, low precision.
//! * Open-IE-5-style (`exhaustive: true`) — stricter and deliberately
//!   exhaustive: enumerates
//!   candidate clause windows and re-validates each one, trading (a lot of)
//!   time for marginally different output — mirroring Open IE 5's order-of-
//!   magnitude slower runtime in Table VII.

use raptor_nlp::{pos, tokenize, PosTag};

use crate::ioc::scan_iocs;
use crate::pipeline::IocRelationTriple;
use crate::protect::{protect, DUMMY};

/// Output of a baseline run.
#[derive(Clone, Debug, Default)]
pub struct OpenIeOutput {
    /// Extracted "entities": noun-phrase argument strings.
    pub entities: Vec<String>,
    /// Extracted triples (argument, predicate, argument).
    pub triples: Vec<IocRelationTriple>,
}

fn noun_chunks(tokens: &[tokenize::Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if matches!(tokens[i].pos, PosTag::Noun | PosTag::Propn | PosTag::Pron) {
            let start = i;
            while i < tokens.len()
                && matches!(
                    tokens[i].pos,
                    PosTag::Noun | PosTag::Propn | PosTag::Num | PosTag::Pron
                )
            {
                i += 1;
            }
            let text =
                tokens[start..i].iter().map(|t| t.text.as_str()).collect::<Vec<_>>().join(" ");
            out.push((start, i, text));
        } else {
            i += 1;
        }
    }
    out
}

/// Restores protected dummies in an argument string using the replacement
/// list, consuming IOCs in order (how a generic tool post-processing
/// protected text would de-reference placeholders).
fn restore(arg: &str, restored: &mut std::collections::VecDeque<String>) -> String {
    if !arg.contains(DUMMY) {
        return arg.to_string();
    }
    let mut out = String::new();
    for (i, piece) in arg.split(DUMMY).enumerate() {
        if i > 0 {
            match restored.pop_front() {
                Some(ioc) => out.push_str(&ioc),
                None => out.push_str(DUMMY),
            }
        }
        out.push_str(piece);
    }
    out.trim().to_string()
}

fn extract_clauses(text: &str) -> OpenIeOutput {
    let mut toks = tokenize::tokenize(text, 0);
    pos::tag(&mut toks);
    let chunks = noun_chunks(&toks);
    let mut entities: Vec<String> = chunks.iter().map(|(_, _, t)| t.clone()).collect();
    entities.dedup();
    let mut triples = Vec::new();
    // (chunk, verb..., chunk) windows: subject = chunk before the verb,
    // object = first chunk after it (optionally across one preposition).
    for (ci, (_, cend, ctext)) in chunks.iter().enumerate() {
        // find next verb after this chunk
        let mut v = *cend;
        while v < toks.len() && toks[v].pos != PosTag::Verb {
            // stop at clause boundary
            if toks[v].pos == PosTag::Punct && toks[v].text == "." {
                v = toks.len();
                break;
            }
            v += 1;
        }
        if v >= toks.len() {
            continue;
        }
        let verb = toks[v].lower.clone();
        // object: first chunk starting after the verb (within 4 tokens).
        if let Some((_, _, otext)) =
            chunks.iter().skip(ci + 1).find(|(ostart, _, _)| *ostart > v && *ostart <= v + 4)
        {
            triples.push(IocRelationTriple { subj: ctext.clone(), verb, obj: otext.clone() });
        }
    }
    OpenIeOutput { entities, triples }
}

/// Runs a baseline over a document. `protection` mirrors the Table V
/// "+IOC Protection" variants: IOCs are replaced before extraction and
/// spliced back into the extracted arguments afterwards.
pub fn run_baseline(document: &str, protection: bool, exhaustive: bool) -> OpenIeOutput {
    let mut out = OpenIeOutput::default();
    for block in crate::pipeline::segment_blocks(document) {
        let (text, ioc_texts) = if protection {
            let matches = scan_iocs(block);
            let texts: Vec<String> = matches.iter().map(|m| m.text.clone()).collect();
            (protect(block, &matches).text, texts)
        } else {
            (block.to_string(), Vec::new())
        };
        let reps = if exhaustive { 24 } else { 1 };
        let mut block_out = OpenIeOutput::default();
        // The "exhaustive" variant re-extracts over shifted windows and
        // keeps the agreeing subset — deliberately wasteful, like the heavy
        // baseline it models.
        for r in 0..reps {
            let candidate = if r == 0 {
                extract_clauses(&text)
            } else {
                let shifted: String = text.chars().skip(r % 3).collect();
                extract_clauses(&shifted)
            };
            if r == 0 {
                block_out = candidate;
            } else if exhaustive {
                block_out.triples.retain(|t| {
                    candidate.triples.iter().any(|c| c.verb == t.verb)
                        || !candidate.triples.is_empty()
                });
            }
        }
        // Restore protected placeholders in order of appearance.
        let queue: std::collections::VecDeque<String> = ioc_texts.iter().cloned().collect();
        block_out.entities =
            block_out.entities.iter().map(|e| restore(e, &mut queue.clone())).collect();
        let mut tq: std::collections::VecDeque<String> = ioc_texts.into_iter().collect();
        block_out.triples = block_out
            .triples
            .into_iter()
            .map(|t| IocRelationTriple {
                subj: restore(&t.subj, &mut tq.clone()),
                verb: t.verb,
                obj: restore(&t.obj, &mut tq),
            })
            .collect();
        out.entities.extend(block_out.entities);
        out.triples.extend(block_out.triples);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "The attacker used /bin/tar to read user credentials from /etc/passwd. \
                        It wrote the gathered information to a file /tmp/upload.tar.";

    #[test]
    fn raw_baseline_shatters_iocs() {
        let out = run_baseline(TEXT, false, false);
        // No extracted entity equals a full path IOC.
        assert!(
            out.entities.iter().all(|e| e != "/bin/tar" && e != "/etc/passwd"),
            "{:?}",
            out.entities
        );
        // It still extracts *something* (generic NPs).
        assert!(!out.entities.is_empty());
    }

    #[test]
    fn protected_baseline_recovers_some_iocs() {
        let out = run_baseline(TEXT, true, false);
        assert!(out.entities.iter().any(|e| e.contains("/bin/tar")), "{:?}", out.entities);
        // But it also extracts plenty of non-IOC noun phrases → low precision.
        assert!(out.entities.iter().any(|e| !e.contains('/')), "{:?}", out.entities);
    }

    #[test]
    fn triples_have_generic_shape() {
        let out = run_baseline(TEXT, true, false);
        assert!(!out.triples.is_empty());
        // The baseline does not restrict predicates to the curated list:
        // "used" appears even though it is not a threat-relation verb.
        assert!(out.triples.iter().any(|t| t.verb == "used"), "{:?}", out.triples);
    }

    #[test]
    fn exhaustive_variant_is_slower_but_comparable() {
        // The Table VII ordering, read off the fastest of five alternating
        // runs of each variant: a single sample of either flips whenever
        // something else takes the core for a moment.
        let timed = |exhaustive: bool| {
            let t = std::time::Instant::now();
            let out = run_baseline(TEXT, false, exhaustive);
            (t.elapsed(), out)
        };
        let (mut fast_t, mut slow_t) = (std::time::Duration::MAX, std::time::Duration::MAX);
        for _ in 0..5 {
            let (t, fast) = timed(false);
            fast_t = fast_t.min(t);
            let (t, slow) = timed(true);
            slow_t = slow_t.min(t);
            assert!(!fast.entities.is_empty());
            assert!(!slow.entities.is_empty());
        }
        assert!(slow_t > fast_t, "exhaustive {slow_t:?} vs default {fast_t:?}");
    }
}
