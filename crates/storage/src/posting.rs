//! Index posting lists that stay inline while a key is unique.

/// The ids posted under one index key, in insertion order. Unique keys
/// (`*.id`, mostly `starttime`) hold their single id inline; the `Vec` is
/// only allocated when a second id arrives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Posting<T> {
    One(T),
    Many(Vec<T>),
}

impl<T: Copy> Posting<T> {
    pub fn push(&mut self, id: T) {
        match self {
            Posting::One(first) => *self = Posting::Many(vec![*first, id]),
            Posting::Many(ids) => ids.push(id),
        }
    }

    pub fn as_slice(&self) -> &[T] {
        match self {
            Posting::One(id) => std::slice::from_ref(id),
            Posting::Many(ids) => ids,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_keeps_insertion_order() {
        let mut p = Posting::One(7u32);
        assert_eq!(p.as_slice(), &[7]);
        for id in [3, 9, 3, 1] {
            p.push(id);
        }
        assert_eq!(p.as_slice(), &[7, 3, 9, 3, 1]);
        assert!(matches!(p, Posting::Many(_)));
    }
}
