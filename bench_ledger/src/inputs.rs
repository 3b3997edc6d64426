//! Seeded input generation shared by the workloads.

use raptor_cases::catalog::case_by_id;
use raptor_cases::{build_case, BuiltCase, CaseSpec};
use threatraptor::audit::sim::{generate_background, BackgroundProfile, Simulator};
use threatraptor::audit::{ParsedLog, SyscallRecord};
use threatraptor::common::time::{Duration, Timestamp};

use crate::stats::Fnv;

pub fn case(id: &str) -> &'static CaseSpec {
    case_by_id(id).unwrap_or_else(|| panic!("case `{id}` is in the raptor-cases catalog"))
}

/// The simulator seed of the `i`-th store a run builds from `--seed`.
pub fn sim_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64)
}

/// The raw audit records of a case at a noise scale: `build_case` up to the
/// point where it parses (same simulator script, nothing parsed yet).
pub fn raw_records(spec: &CaseSpec, noise_scale: f64, seed: u64) -> Vec<SyscallRecord> {
    let mut sim = Simulator::new(seed, Timestamp::from_secs(1_523_000_000));
    let sessions = ((spec.noise_sessions as f64) * noise_scale).max(1.0) as usize;
    generate_background(&mut sim, &BackgroundProfile { users: 15, sessions, ..Default::default() });
    sim.advance(Duration::from_secs(30));
    (spec.attack)(&mut sim);
    sim.finish()
}

/// `build_case` for a catalog id.
pub fn built(id: &str, noise_scale: f64, seed: u64) -> BuiltCase {
    build_case(case(id), noise_scale, seed)
}

/// Digest of a parsed log: every entity's identity and every event's
/// endpoints, operation and times.
pub fn log_digest(h: &mut Fnv, log: &ParsedLog) {
    h.u64(log.entities.len() as u64);
    for e in &log.entities {
        h.str(&e.attrs.default_attribute_value());
    }
    h.u64(log.events.len() as u64);
    for ev in &log.events {
        h.u64(ev.subject.index() as u64);
        h.u64(ev.object.index() as u64);
        h.str(ev.op.name());
        h.u64(ev.start.0 as u64);
        h.u64(ev.end.0 as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threatraptor::audit::{reduce, LogParser};

    #[test]
    fn raw_records_parse_to_the_built_case() {
        let spec = case("tc_clearscope_3");
        let mut log = LogParser::parse(&raw_records(spec, 0.2, 9));
        reduce::merge_events(&mut log.events, reduce::DEFAULT_THRESHOLD);
        let built = build_case(spec, 0.2, 9);
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        log_digest(&mut a, &log);
        log_digest(&mut b, &built.log);
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let digest = |seed| {
            let mut h = Fnv::default();
            log_digest(&mut h, &built("data_leak", 0.2, sim_seed(seed, 0)).log);
            h.0
        };
        assert_eq!(digest(1), digest(1));
        assert_ne!(digest(1), digest(2));
    }
}
