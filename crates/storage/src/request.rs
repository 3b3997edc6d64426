//! Typed pattern requests — what the scheduler sends a backend instead of
//! SQL/Cypher text.
//!
//! The vocabulary is deliberately backend-neutral: entity classes instead of
//! table names or node labels, attribute names instead of columns or
//! properties. Each backend owns the mapping to its physical layout.

use crate::value::Value;

/// The three system-entity classes of the audit model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EntityClass {
    File,
    Process,
    NetConn,
}

impl EntityClass {
    /// Every class, in discriminant order: `ALL[c as usize] == c`, so dense
    /// per-class arrays index by `class as usize`.
    pub const ALL: [EntityClass; 3] =
        [EntityClass::File, EntityClass::Process, EntityClass::NetConn];

    /// The event `kind` discriminator recorded for events whose *object* is
    /// this class (mirrors the audit loader's convention).
    pub fn event_kind(self) -> &'static str {
        match self {
            EntityClass::File => "file",
            EntityClass::Process => "process",
            EntityClass::NetConn => "network",
        }
    }

    /// The backend-neutral table name for this class — the relational
    /// store's physical table name.
    pub fn table_name(self) -> &'static str {
        match self {
            EntityClass::File => "files",
            EntityClass::Process => "processes",
            EntityClass::NetConn => "netconns",
        }
    }
}

/// Comparison operators (engine-level; backends map to their own spellings).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// A typed predicate over one record's attributes. String literals arrive
/// **pre-interned** ([`Value::Str`] carries a shared-dictionary `Sym`), so
/// backends evaluate equality without a per-request dictionary lookup;
/// `LIKE` patterns stay textual (they are pattern syntax, not values).
#[derive(Clone, PartialEq, Debug)]
pub enum Pred {
    /// `attr op value`. String equality with `%` wildcards is [`Pred::Like`].
    Cmp {
        attr: String,
        op: CmpOp,
        value: Value,
    },
    /// SQL-`LIKE` semantics (`%` any run, `_` any char).
    Like {
        attr: String,
        pattern: String,
        negated: bool,
    },
    /// `attr [NOT] IN (values)`.
    InSet {
        attr: String,
        negated: bool,
        values: Vec<Value>,
    },
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

impl Pred {
    pub fn and(preds: impl IntoIterator<Item = Pred>) -> Option<Pred> {
        preds.into_iter().reduce(|a, b| Pred::And(Box::new(a), Box::new(b)))
    }

    /// The top-level conjuncts, left to right: the leaves of the `And`
    /// tree, each borrowed.
    pub fn conjuncts(&self) -> Vec<&Pred> {
        match self {
            Pred::And(a, b) => {
                let mut v = a.conjuncts();
                v.extend(b.conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// Number of leaf atoms (for observability / plan summaries).
    pub fn atoms(&self) -> usize {
        match self {
            Pred::Cmp { .. } | Pred::Like { .. } | Pred::InSet { .. } => 1,
            Pred::And(a, b) | Pred::Or(a, b) => a.atoms() + b.atoms(),
            Pred::Not(inner) => inner.atoms(),
        }
    }
}

/// One side of a pattern.
#[derive(Clone, Debug)]
pub struct EntitySel {
    /// The class the endpoint must belong to.
    pub class: EntityClass,
    /// The entity's declared filter, decided on the endpoint's own
    /// attributes. A seeded endpoint carries ids and no filter: each id
    /// already passed it.
    pub filter: Option<Pred>,
    /// The batch scheduler's propagated candidate ids (sorted, distinct):
    /// endpoints outside the set cannot match. `Some([])` matches nothing.
    /// Standing queries leave it `None`.
    pub id_in: Option<Vec<i64>>,
}

impl EntitySel {
    pub fn of(class: EntityClass, filter: Option<Pred>) -> Self {
        EntitySel { class, filter, id_in: None }
    }
}

/// An event-pattern data query: `subject —event→ object` with pushed-down
/// predicates. The backend returns subject id, object id, event id and
/// event timestamps per match.
///
/// Nothing in the request says *which* events to look at: a backend matches
/// it against its whole store, and the relational store can also match it
/// against a row range of its events table (how a standing query sees one
/// epoch). The same request value serves both.
#[derive(Clone, Debug)]
pub struct EventPatternQuery {
    pub subject: EntitySel,
    pub object: EntitySel,
    /// Conjunction over event attributes: operation type, event filters,
    /// time windows.
    pub event_pred: Option<Pred>,
    /// True when the pattern binds the *same* variable as subject and
    /// object: matches must satisfy `subject id == object id`.
    pub subject_is_object: bool,
}

/// A path-pattern data query: `subject —*min..max→ object`, optionally with
/// a constrained final hop (TBQL's `~>(m~n)[op]` semantics: the prefix is
/// unconstrained, the last edge carries the operation predicate).
#[derive(Clone, Debug)]
pub struct PathPatternQuery {
    pub subject: EntitySel,
    pub object: EntitySel,
    pub min_hops: u32,
    /// `None` = unbounded (bounded below by `hop_cap`).
    pub max_hops: Option<u32>,
    /// Hard cap on traversal depth for unbounded patterns (the engine's
    /// configured maximum).
    pub hop_cap: u32,
    /// Predicate on the final hop's event attributes, if the pattern
    /// constrains it.
    pub final_hop_pred: Option<Pred>,
    /// Whether the caller wants the final hop's event id/timestamps bound
    /// (true exactly when the pattern has a final hop).
    pub want_event: bool,
    /// True when the pattern binds the *same* variable as subject and
    /// object (path must start and end at one entity).
    pub subject_is_object: bool,
}

impl PathPatternQuery {
    /// A path of exactly one hop *is* an event pattern: the same match set,
    /// answered by an event lookup instead of a traversal. `None` for every
    /// other hop range.
    pub fn as_single_hop(&self) -> Option<EventPatternQuery> {
        (self.min_hops == 1 && self.max_hops == Some(1)).then(|| EventPatternQuery {
            subject: self.subject.clone(),
            object: self.object.clone(),
            event_pred: self.final_hop_pred.clone(),
            subject_is_object: self.subject_is_object,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pred_combinators() {
        let dict = raptor_common::SharedDict::new();
        let a = Pred::Cmp {
            attr: "optype".into(),
            op: CmpOp::Eq,
            value: Value::Str(dict.intern("read")),
        };
        let b = Pred::Like { attr: "exename".into(), pattern: "%tar%".into(), negated: false };
        let both = Pred::and([a.clone(), b.clone()]).unwrap();
        assert_eq!(both.atoms(), 2);
        assert_eq!(both.conjuncts(), [&a, &b]);
        assert_eq!(Pred::and([a.clone()]), Some(a));
        assert_eq!(Pred::and([]), None);
    }

    #[test]
    fn entity_sel_accessors() {
        let sel = EntitySel::of(EntityClass::Process, None);
        assert_eq!(sel.class, EntityClass::Process);
        assert!(sel.filter.is_none());
        assert_eq!(EntityClass::NetConn.event_kind(), "network");
    }
}
