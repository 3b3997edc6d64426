//! Value cells.
//!
//! Rows are flat arrays of [`Value`] — the **shared-plane**
//! `raptor_storage::Value`: a 16-byte `Copy` cell whose strings are handles
//! into the shared dictionary, which the graph store reads through these
//! rows. String equality inside
//! the executor is an integer compare, `LIKE` evaluation runs over the
//! dictionary instead of over rows, and — because query results now leave
//! the database as the same type — the old `OwnedValue` materialization
//! layer is gone: strings render exactly once, at the engine's edge.

pub use raptor_storage::Value;

#[cfg(test)]
mod tests {
    use super::*;
    use raptor_common::SharedDict;

    #[test]
    fn value_is_small() {
        assert!(std::mem::size_of::<Value>() <= 16);
    }

    #[test]
    fn ordering_with_dictionary() {
        let dict = SharedDict::new();
        let a = Value::Str(dict.intern("alpha"));
        let b = Value::Str(dict.intern("beta"));
        assert_eq!(a.cmp_with(b, &dict), std::cmp::Ordering::Less);
        assert_eq!(a.cmp_with(a, &dict), std::cmp::Ordering::Equal);
        assert_eq!(Value::Null.cmp_with(a, &dict), std::cmp::Ordering::Less);
        assert_eq!(Value::Int(5).cmp_with(Value::Int(3), &dict), std::cmp::Ordering::Greater);
        assert_eq!(Value::Int(5).cmp_with(a, &dict), std::cmp::Ordering::Less);
    }

    #[test]
    fn render_through_dictionary() {
        let dict = SharedDict::new();
        let s = Value::Str(dict.intern("/etc/passwd"));
        assert_eq!(s.render(&dict), "/etc/passwd");
        assert_eq!(Value::Int(7).render(&dict), "7");
        assert_eq!(Value::Null.render(&dict), "");
    }
}
