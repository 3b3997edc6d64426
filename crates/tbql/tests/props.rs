//! Property-based tests: the TBQL printer/parser round-trip over generated
//! queries, and metric sanity.

use proptest::prelude::*;
use raptor_tbql::print::print_query;
use raptor_tbql::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![(0i64..100_000).prop_map(Value::Int), "[a-z0-9/%._-]{1,16}".prop_map(Value::Str),]
}

fn arb_cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn arb_attr_expr() -> impl Strategy<Value = AttrExpr> {
    let leaf = prop_oneof![
        (proptest::bool::ANY, arb_value())
            .prop_map(|(negated, value)| AttrExpr::Bare { negated, value }),
        ("[a-z]{1,8}", arb_cmp_op(), arb_value()).prop_map(|(a, op, value)| AttrExpr::Cmp {
            attr: AttrRef { base: a, attr: None },
            op,
            value,
        }),
        ("[a-z]{1,8}", proptest::bool::ANY, proptest::collection::vec(arb_value(), 1..4)).prop_map(
            |(a, negated, set)| AttrExpr::InSet {
                attr: AttrRef { base: a, attr: None },
                negated,
                set,
            }
        ),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| AttrExpr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| AttrExpr::Or(Box::new(a), Box::new(b))),
        ]
    })
}

fn arb_op_expr() -> impl Strategy<Value = OpExpr> {
    let leaf = prop_oneof![
        Just(OpExpr::Op("read".to_string())),
        Just(OpExpr::Op("write".to_string())),
        Just(OpExpr::Op("connect".to_string())),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| OpExpr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| OpExpr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| OpExpr::Or(Box::new(a), Box::new(b))),
        ]
    })
}

fn arb_pattern(i: usize) -> impl Strategy<Value = Pattern> {
    (
        proptest::option::of(arb_attr_expr()),
        proptest::option::of(arb_attr_expr()),
        arb_op_expr(),
        proptest::bool::ANY,
        proptest::option::of((1u32..3, 3u32..8)),
    )
        .prop_map(move |(sf, of, op, use_path, bounds)| {
            let op = if use_path {
                PatternOp::Path {
                    arrow: Arrow::Fuzzy,
                    min: bounds.map(|(a, _)| a),
                    max: bounds.map(|(_, b)| b),
                    op: Some(op),
                }
            } else {
                PatternOp::Event(op)
            };
            Pattern {
                subject: EntityDecl { ty: EntityType::Proc, id: format!("p{i}"), filter: sf },
                op,
                object: EntityDecl { ty: EntityType::File, id: format!("f{i}"), filter: of },
                id: Some(format!("e{i}")),
                event_filter: None,
                window: None,
            }
        })
}

fn arb_query() -> impl Strategy<Value = Query> {
    proptest::collection::vec(proptest::bool::ANY, 1..4).prop_flat_map(|slots| {
        let n = slots.len();
        let patterns: Vec<_> = (0..n).map(arb_pattern).collect();
        (patterns, proptest::bool::ANY).prop_map(move |(patterns, distinct)| {
            let items = patterns
                .iter()
                .map(|p| AttrRef { base: p.subject.id.clone(), attr: None })
                .collect();
            Query {
                global_filters: vec![],
                patterns,
                relations: vec![],
                ret: ReturnClause { distinct, items },
            }
        })
    })
}

/// The alphabet of the lexer fuzz: words, TBQL's symbols, a quote, and a
/// 2-byte and a 3-byte character.
const SOUP: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r', 's',
    't', 'u', 'v', 'w', 'x', 'y', 'z', ' ', '(', ')', '[', ']', '~', '<', '>', '=', '!', '|', '&',
    '"', 'é', '日', '-',
];

proptest! {
    /// Any text — here, up to 24 characters of [`SOUP`] — parses and
    /// analyzes to a value or an error, never a panic.
    #[test]
    fn never_panics(picks in proptest::collection::vec(0..SOUP.len(), 0..25)) {
        let text: String = picks.into_iter().map(|i| SOUP[i]).collect();
        if let Ok(q) = parse_tbql(&text) {
            let _ = analyze(&q);
        }
    }

    /// parse(print(q)) == q for generated queries.
    #[test]
    fn printer_parser_roundtrip(q in arb_query()) {
        let text = print_query(&q);
        let reparsed = parse_tbql(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        prop_assert_eq!(q, reparsed, "text:\n{}", text);
    }

    /// Printing is stable: print(parse(print(q))) == print(q).
    #[test]
    fn printing_is_stable(q in arb_query()) {
        let once = print_query(&q);
        let twice = print_query(&parse_tbql(&once).unwrap());
        prop_assert_eq!(once, twice);
    }

    /// Char/word metrics: whitespace insertion never changes counts.
    #[test]
    fn metrics_ignore_whitespace(q in arb_query()) {
        let text = print_query(&q);
        let spaced = text.replace(' ', "   ").replace('\n', "\n\n");
        prop_assert_eq!(
            raptor_tbql::metrics::char_count(&text),
            raptor_tbql::metrics::char_count(&spaced)
        );
        prop_assert_eq!(
            raptor_tbql::metrics::word_count(&text),
            raptor_tbql::metrics::word_count(&spaced)
        );
    }
}
