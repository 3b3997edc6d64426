//! Property-based tests: LIKE semantics vs a reference matcher, index paths
//! vs full scans, executor correctness against a naive evaluator, and the
//! typed event matcher against the planned SQL join.

use proptest::prelude::*;
use raptor_relstore::db::Ins;
use raptor_relstore::like::{containment_literal, like_match};
use raptor_relstore::{ColumnDef, ColumnType, Database, TableSchema};
use raptor_storage::{BackendStats, CmpOp, EntityClass, EntitySel, EventPatternQuery, Pred, Value};

/// A result's rows, row-major.
fn row_values(r: &raptor_relstore::QueryResult) -> Vec<Vec<Value>> {
    (0..r.batch.n_rows()).map(|i| r.batch.row(i)).collect()
}

/// Two copies of `t(id, v, s)` holding `rows`: the first without an index,
/// the second with hash indexes on `v` and `s`, a B-tree on `v` and a
/// trigram index on `s`.
fn indexed_pair(rows: &[(Option<i64>, Option<String>)]) -> (Database, Database) {
    let mut plain = Database::new();
    let mut indexed = Database::new();
    for db in [&mut plain, &mut indexed] {
        let cols = vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("v", ColumnType::Int),
            ColumnDef::new("s", ColumnType::Str),
        ];
        db.create_table(TableSchema::new("t", cols)).unwrap();
    }
    indexed.create_hash_index("t", "v").unwrap();
    indexed.create_btree_index("t", "v").unwrap();
    indexed.create_hash_index("t", "s").unwrap();
    indexed.create_trigram_index("t", "s").unwrap();
    for (i, (v, s)) in rows.iter().enumerate() {
        let row = [
            Ins::Int(i as i64),
            v.map_or(Ins::Null, Ins::Int),
            s.as_deref().map_or(Ins::Null, Ins::Str),
        ];
        plain.insert("t", &row).unwrap();
        indexed.insert("t", &row).unwrap();
    }
    (plain, indexed)
}

/// Two indexable conjuncts over `t`, as SQL text and as typed predicates
/// (strings interned into `db`): `shape` picks the first — hash `=` / `IN`
/// or a B-tree range on `v`, hash `=` / `IN` on `s`, or `s LIKE` — and
/// the second is `s LIKE` beside a `v` conjunct, `v >= 2` otherwise.
fn shape_preds(
    db: &Database,
    shape: u8,
    (a, b, c, op): (i64, i64, i64, usize),
    word: &str,
    pattern: &str,
) -> [(String, Pred); 2] {
    let int = |attr: &str, op, i| Pred::Cmp { attr: attr.into(), op, value: Value::Int(i) };
    let sym = |w: &str| Value::Str(db.dict().intern(w));
    let like = (
        format!("s LIKE '{pattern}'"),
        Pred::Like { attr: "s".into(), pattern: pattern.into(), negated: false },
    );
    let (cmp, sql) = [(CmpOp::Lt, "<"), (CmpOp::Le, "<="), (CmpOp::Gt, ">"), (CmpOp::Ge, ">=")][op];
    let first = match shape {
        0 => (format!("v = {a}"), int("v", CmpOp::Eq, a)),
        1 => (
            format!("v IN ({a}, {b}, {c})"),
            Pred::InSet {
                attr: "v".into(),
                negated: false,
                values: [a, b, c].map(Value::Int).into(),
            },
        ),
        2 => (format!("v {sql} {a}"), int("v", cmp, a)),
        3 => (
            format!("s = '{word}'"),
            Pred::Cmp { attr: "s".into(), op: CmpOp::Eq, value: sym(word) },
        ),
        4 => (
            format!("s IN ('{word}', 'a', 'b_')"),
            Pred::InSet {
                attr: "s".into(),
                negated: false,
                values: vec![sym(word), sym("a"), sym("b_")],
            },
        ),
        _ => like.clone(),
    };
    let second = if shape < 3 { like } else { ("v >= 2".into(), int("v", CmpOp::Ge, 2)) };
    [first, second]
}

/// Reference LIKE via dynamic programming (independent implementation).
fn like_reference(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let mut dp = vec![vec![false; t.len() + 1]; p.len() + 1];
    dp[0][0] = true;
    for i in 1..=p.len() {
        if p[i - 1] == '%' {
            dp[i][0] = dp[i - 1][0];
        }
        for j in 1..=t.len() {
            dp[i][j] = match p[i - 1] {
                '%' => dp[i - 1][j] || dp[i][j - 1],
                '_' => dp[i - 1][j - 1],
                c => dp[i - 1][j - 1] && c == t[j - 1],
            };
        }
    }
    dp[p.len()][t.len()]
}

proptest! {
    /// The iterative matcher agrees with the DP reference on random
    /// pattern/text pairs over a small alphabet: wildcards on both sides
    /// (a `%` in the text is a character like any other) and multibyte
    /// characters, which `_` must take whole. Seeded mutation: routing `_`
    /// patterns through the byte walk fails it.
    #[test]
    fn like_matches_reference(pattern in "[ab%_é日]{0,10}", text in "[ab%_é日]{0,10}") {
        prop_assert_eq!(like_match(&pattern, &text), like_reference(&pattern, &text));
    }

    /// Any extracted containment literal is truly necessary: texts matching
    /// the pattern always contain the literal. Patterns are several literal
    /// runs, each followed by `%` or `_`; one text is the pattern with its
    /// wildcards filled in (so it matches), one is random. Seeded mutation:
    /// not splitting runs at `_` fails it.
    #[test]
    fn containment_literal_is_sound(
        pieces in proptest::collection::vec(("[abé]{0,4}", "[%_]", "[abé]{0,3}"), 1..5),
        tail in "[abé]{0,4}",
        text in "[abé_]{0,16}",
    ) {
        let (mut pattern, mut filled) = (String::new(), String::new());
        for (run, wildcard, fill) in &pieces {
            pattern.push_str(run);
            pattern.push_str(wildcard);
            filled.push_str(run);
            match wildcard.as_str() {
                "%" => filled.push_str(fill),
                _ => filled.push(fill.chars().next().unwrap_or('日')),
            }
        }
        pattern.push_str(&tail);
        filled.push_str(&tail);
        prop_assert!(like_match(&pattern, &filled), "{pattern} / {filled}");
        if let Some(lit) = containment_literal(&pattern) {
            prop_assert!(lit.len() >= 3 && pattern.contains(lit) && !lit.contains(['%', '_']));
            for t in [&filled, &text] {
                if like_match(&pattern, t) {
                    prop_assert!(t.contains(lit), "{pattern} / {t} lacks {lit}");
                }
            }
        }
    }

    /// Index-accelerated LIKE returns exactly the same rows as a full scan,
    /// in one index scan that reads only the rows it returns: needles with
    /// `_` and `%` inside, needles shorter than a trigram (which test every
    /// string of the column's dictionary), `%`-bracketed or bare, over
    /// names with NULLs among them.
    #[test]
    fn trigram_path_equals_full_scan(
        names in proptest::collection::vec(proptest::option::of("[a-d/_]{1,12}"), 1..60),
        needle in "[a-d/_%]{1,6}",
        bracketed in proptest::bool::ANY,
    ) {
        let mut plain = Database::new();
        let mut indexed = Database::new();
        for db in [&mut plain, &mut indexed] {
            db.create_table(TableSchema::new(
                "files",
                vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("name", ColumnType::Str)],
            )).unwrap();
        }
        indexed.create_hash_index("files", "name").unwrap();
        indexed.create_trigram_index("files", "name").unwrap();
        for (i, n) in names.iter().enumerate() {
            let name = n.as_deref().map_or(Ins::Null, Ins::Str);
            plain.insert("files", &[Ins::Int(i as i64), name]).unwrap();
            indexed.insert("files", &[Ins::Int(i as i64), name]).unwrap();
        }
        let pattern = if bracketed { format!("%{needle}%") } else { needle };
        let sql = format!("SELECT id FROM files WHERE name LIKE '{pattern}' ORDER BY id");
        let a = plain.query(&sql).unwrap();
        let b = indexed.query(&sql).unwrap();
        prop_assert_eq!(row_values(&a), row_values(&b));
        prop_assert_eq!((b.stats.index_scans, b.stats.full_scans), (1, 0));
        prop_assert_eq!(b.stats.rows_scanned, b.batch.n_rows());
    }

    /// A one-conjunct predicate an index serves — hash `=` / `IN`, a B-tree
    /// range, `LIKE` — is answered by its access path alone: the rows of an
    /// unindexed copy, in one index scan that reads exactly the rows it
    /// returns. Two conjuncts still read the cheapest path's rows and test
    /// the whole predicate on each, so they too return the unindexed rows.
    /// Without `ORDER BY`, and cut by `LIMIT`, the rows come in the same
    /// order as the unindexed copy's: a B-tree range used to return them in
    /// key order.
    #[test]
    fn single_conjunct_index_scan_is_exact(
        rows in proptest::collection::vec(
            (proptest::option::of(0i64..8), proptest::option::of("[ab_]{0,4}")),
            1..40,
        ),
        shape in 0u8..6,
        ints in (0i64..8, 0i64..8, 0i64..8, 0usize..4),
        word in "[ab_]{0,4}",
        pattern in "[ab_%]{0,5}",
        limit in 0usize..6,
    ) {
        let (plain, indexed) = indexed_pair(&rows);
        let [(single, _), (second, _)] = shape_preds(&indexed, shape, ints, &word, &pattern);
        let query = |db: &Database, pred: &str, tail: &str| {
            db.query(&format!("SELECT id FROM t WHERE {pred}{tail}")).unwrap()
        };
        for tail in [" ORDER BY id".to_string(), String::new(), format!(" LIMIT {limit}")] {
            let (want, got) = (query(&plain, &single, &tail), query(&indexed, &single, &tail));
            prop_assert_eq!(row_values(&want), row_values(&got), "{}{}", single, tail);
            prop_assert_eq!((got.stats.index_scans, got.stats.full_scans), (1, 0), "{}", single);

            let both = format!("{single} AND {second}");
            let (want, got) = (query(&plain, &both, &tail), query(&indexed, &both, &tail));
            prop_assert_eq!(row_values(&want), row_values(&got), "{}{}", both, tail);
            prop_assert_eq!(got.stats.index_scans, 1, "{}", both);
        }
    }

    /// The planner's counts are exact. For each shape an index serves, the
    /// count `conjunct_count` reads from the index equals the rows its
    /// access path reads and returns, and the rows an unindexed copy finds;
    /// with two conjuncts the scan reads exactly the smaller count's rows.
    #[test]
    fn counts_are_exact(
        rows in proptest::collection::vec(
            (proptest::option::of(0i64..8), proptest::option::of("[ab_]{0,6}")),
            1..40,
        ),
        shape in 0u8..6,
        ints in (0i64..8, 0i64..8, 0i64..8, 0usize..4),
        word in "[ab_]{0,4}",
        pattern in "[ab_%]{0,6}",
    ) {
        let (plain, indexed) = indexed_pair(&rows);
        let conjuncts = shape_preds(&indexed, shape, ints, &word, &pattern);
        let query = |db: &Database, pred: &str| {
            db.query(&format!("SELECT id FROM t WHERE {pred}")).unwrap()
        };
        let mut counts = [0; 2];
        for ((sql, pred), count) in conjuncts.iter().zip(&mut counts) {
            *count = indexed.conjunct_count("t", pred).unwrap().expect("an index serves it");
            let got = query(&indexed, sql);
            prop_assert_eq!((got.stats.rows_scanned, got.batch.n_rows()), (*count, *count), "{}", sql);
            prop_assert_eq!(query(&plain, sql).batch.n_rows(), *count, "{}", sql);
        }
        let both = format!("{} AND {}", conjuncts[0].0, conjuncts[1].0);
        prop_assert_eq!(query(&indexed, &both).stats.rows_scanned, counts[0].min(counts[1]), "{}", both);
    }

    /// Hash-index equality returns exactly the rows a scan-and-filter finds.
    #[test]
    fn hash_index_equals_scan(
        vals in proptest::collection::vec(0i64..20, 1..80),
        probe in 0i64..20,
    ) {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "t",
            vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("v", ColumnType::Int)],
        )).unwrap();
        db.create_hash_index("t", "v").unwrap();
        for (i, v) in vals.iter().enumerate() {
            db.insert("t", &[Ins::Int(i as i64), Ins::Int(*v)]).unwrap();
        }
        let got = db.query(&format!("SELECT id FROM t WHERE v = {probe} ORDER BY id")).unwrap();
        let want: Vec<i64> = vals
            .iter()
            .enumerate()
            .filter(|(_, v)| **v == probe)
            .map(|(i, _)| i as i64)
            .collect();
        let got_ids: Vec<i64> = row_values(&got).iter().filter_map(|r| r[0].as_int()).collect();
        prop_assert_eq!(got_ids, want);
    }

    /// Join results agree with a naive nested-loop oracle on random data.
    #[test]
    fn hash_join_equals_nested_loop(
        left in proptest::collection::vec(0i64..8, 1..30),
        right in proptest::collection::vec(0i64..8, 1..30),
    ) {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "l",
            vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("k", ColumnType::Int)],
        )).unwrap();
        db.create_table(TableSchema::new(
            "r",
            vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("k", ColumnType::Int)],
        )).unwrap();
        for (i, k) in left.iter().enumerate() {
            db.insert("l", &[Ins::Int(i as i64), Ins::Int(*k)]).unwrap();
        }
        for (i, k) in right.iter().enumerate() {
            db.insert("r", &[Ins::Int(i as i64), Ins::Int(*k)]).unwrap();
        }
        let got = db
            .query("SELECT l.id, r.id FROM l, r WHERE l.k = r.k ORDER BY l.id, r.id")
            .unwrap();
        let mut want = Vec::new();
        for (i, lk) in left.iter().enumerate() {
            for (j, rk) in right.iter().enumerate() {
                if lk == rk {
                    want.push((i as i64, j as i64));
                }
            }
        }
        want.sort_unstable();
        let got_pairs: Vec<(i64, i64)> = row_values(&got)
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        prop_assert_eq!(got_pairs, want);
    }
}

// --- The typed event matcher vs a planned three-table SQL join ---

const OPS: [&str; 3] = ["read", "write", "start"];

/// Processes then files, ids dense in that order (so each table's `id`
/// column ascends, which the typed matcher finds endpoints by), plus the
/// event indexes an audit store carries so the batch scan takes its usual
/// access paths. One event per tuple: `(subject, object, op, kind
/// agrees with the object's class, starttime)`; subject and object range
/// over *every* entity id and one id past them, so events whose endpoints
/// are of the wrong class, coincide, or dangle are all in there.
fn audit_db(
    procs: &[String],
    files: &[String],
    events: &[(usize, usize, usize, bool, i64)],
) -> Database {
    let mut db = Database::new();
    let (int, text) = (ColumnType::Int, ColumnType::Str);
    for (table, attr) in [("processes", "exename"), ("files", "name")] {
        let cols = vec![ColumnDef::new("id", int), ColumnDef::new(attr, text)];
        db.create_table(TableSchema::new(table, cols)).unwrap();
    }
    let cols = [("id", int), ("subject", int), ("object", int), ("optype", text), ("kind", text)]
        .into_iter()
        .chain([("starttime", ColumnType::Time), ("endtime", ColumnType::Time)])
        .map(|(name, ty)| ColumnDef::new(name, ty))
        .collect();
    db.create_table(TableSchema::new("events", cols)).unwrap();
    for col in ["subject", "object", "optype"] {
        db.create_hash_index("events", col).unwrap();
    }
    db.create_btree_index("events", "starttime").unwrap();

    for (i, name) in procs.iter().enumerate() {
        db.insert("processes", &[Ins::Int(i as i64), Ins::Str(name)]).unwrap();
    }
    for (i, name) in files.iter().enumerate() {
        db.insert("files", &[Ins::Int((procs.len() + i) as i64), Ins::Str(name)]).unwrap();
    }
    for (i, &(subject, object, op, kind_agrees, start)) in events.iter().enumerate() {
        let object_is_file = object >= procs.len();
        let kind = if object_is_file == kind_agrees { "file" } else { "process" };
        // The id past the last entity stands for "no endpoint recorded".
        let endpoint = |e: usize| {
            if e == procs.len() + files.len() {
                Ins::Null
            } else {
                Ins::Int(e as i64)
            }
        };
        let row = [
            // Event ids are not row ordinals (streams deliver out of order).
            Ins::Int(1000 - i as i64),
            endpoint(subject),
            endpoint(object),
            Ins::Str(OPS[op]),
            Ins::Str(kind),
            Ins::Int(start),
            Ins::Int(start + 5),
        ];
        db.insert("events", &row).unwrap();
    }
    db
}

/// `choice` 0 = no filter, 1 = `LIKE '%<first char of name>%'`, 2 = `=`.
/// `id_in` is sorted and deduplicated, as propagated ids always are.
fn entity_sel(
    db: &Database,
    class: EntityClass,
    attr: &str,
    choice: u8,
    name: &str,
    id_in: Option<Vec<i64>>,
) -> EntitySel {
    let filter = match choice {
        0 => None,
        1 => Some(Pred::Like {
            attr: attr.into(),
            pattern: format!("%{}%", &name[..1]),
            negated: false,
        }),
        _ => Some(Pred::Cmp {
            attr: attr.into(),
            op: CmpOp::Eq,
            value: Value::Str(db.dict().intern(name)),
        }),
    };
    let mut sel = EntitySel::of(class, filter);
    sel.id_in = id_in.map(|mut ids| {
        ids.sort_unstable();
        ids.dedup();
        ids
    });
    sel
}

/// `p` as SQL text over `alias`, for the parser to read back.
fn sql_text(p: &Pred, alias: &str, db: &Database) -> String {
    let lit = |v: &Value| match v {
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("'{}'", db.dict().resolve(*s)),
        Value::Null => unreachable!("not in the grammar"),
    };
    let not = |negated: bool| if negated { "NOT " } else { "" };
    match p {
        Pred::Cmp { attr, op, value } => {
            let op = match op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "!=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            format!("{alias}.{attr} {op} {}", lit(value))
        }
        Pred::Like { attr, pattern, negated } => {
            format!("{alias}.{attr} {}LIKE '{pattern}'", not(*negated))
        }
        Pred::InSet { attr, negated, values } => {
            let list: Vec<String> = values.iter().map(lit).collect();
            format!("{alias}.{attr} {}IN ({})", not(*negated), list.join(", "))
        }
        Pred::And(a, b) => format!("({} AND {})", sql_text(a, alias, db), sql_text(b, alias, db)),
        Pred::Or(a, b) => format!("({} OR {})", sql_text(a, alias, db), sql_text(b, alias, db)),
        Pred::Not(inner) => format!("NOT ({})", sql_text(inner, alias, db)),
    }
}

/// The reference: `q` written as the three-table SQL join the typed
/// matcher replaced, run through the parser, planner and hash joins. The
/// event predicate is or-ed with `s.id < 0`, which no row satisfies, so it
/// reads two aliases and is tested row by row as a join residual: the
/// reference does not share the typed scan's compiled kernels for it.
fn planned_reference(db: &Database, q: &EventPatternQuery) -> Vec<[i64; 5]> {
    let (s, o) = (&q.subject, &q.object);
    let mut conds = vec![
        "e.subject = s.id".to_string(),
        "e.object = o.id".to_string(),
        format!("e.kind = '{}'", o.class.event_kind()),
    ];
    conds.extend(q.event_pred.iter().map(|p| format!("({} OR s.id < 0)", sql_text(p, "e", db))));
    for (sel, alias) in [(s, "s"), (o, "o")] {
        conds.extend(sel.filter.iter().map(|p| sql_text(p, alias, db)));
        conds.extend(sel.id_in.as_ref().map(|ids| match ids.as_slice() {
            // `IN ()` is not SQL; ids are never negative.
            [] => format!("{alias}.id < 0"),
            ids => {
                let list: Vec<String> = ids.iter().map(i64::to_string).collect();
                format!("{alias}.id IN ({})", list.join(", "))
            }
        }));
    }
    if q.subject_is_object {
        conds.push("s.id = o.id".to_string());
    }
    let text = format!(
        "SELECT s.id, o.id, e.id, e.starttime, e.endtime FROM {} s, events e, {} o WHERE {}",
        s.class.table_name(),
        o.class.table_name(),
        conds.join(" AND ")
    );
    let r = db.query(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
    let mut rows: Vec<[i64; 5]> = row_values(&r)
        .iter()
        .map(|row| std::array::from_fn(|i| row[i].as_int().unwrap()))
        .collect();
    rows.sort_unstable();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The typed event matcher — over the whole table, and over row ranges
    /// that tile it, concatenated — returns what the same pattern written
    /// as a three-table SQL join returns through the planner, as a multiset
    /// of `(subject, object, event, start, end)`: for any pattern of a
    /// small grammar (propagated ids on either side, empty or of the wrong
    /// class included; `IN` and `NOT IN` sets, ordered string comparisons
    /// and a string against an integer column), any tiling (empty tiles
    /// included). 47 of the 128 cases match something, 29 of them with ids
    /// propagated to an endpoint. Seeded mutations fail it: skipping
    /// `Endpoint::hits`' `id_in` binary search, dropping the
    /// `subject_is_object` check, dropping a typed `NOT IN`'s negation in
    /// `bind_pred`, or folding a type mismatch to `true`.
    #[test]
    fn row_range_matches_tile_the_planned_match(
        procs in proptest::collection::vec("[ab/]{1,3}", 1..5),
        files in proptest::collection::vec("[ab/]{1,3}", 1..5),
        raw_events in proptest::collection::vec(
            (0usize..64, 0usize..64, 0usize..3, 0u8..8, 0i64..40),
            0..40,
        ),
        // optype: 0 `= a`, 1 `!= a`, 2 `= a OR = b`, 3 unconstrained,
        // 4 `IN (a, b)`, 5 `NOT IN (a, b)`, 6 ordered against `a`; 7 the
        // integer `starttime` against the string `a` (a type mismatch).
        op_shape in (0u8..8, 0usize..3, 0usize..3),
        filters in (0u8..3, 0usize..8, 0u8..3, 0usize..8),
        id_ins in (
            proptest::option::of(proptest::collection::vec(0usize..64, 0..5)),
            proptest::option::of(proptest::collection::vec(0usize..64, 0..5)),
        ),
        same_var in proptest::bool::ANY,
        object_is_file in proptest::bool::ANY,
        window in proptest::option::of((0i64..40, 0i64..40)),
        cuts in proptest::collection::vec(0usize..41, 0..6),
    ) {
        // Three events in four run process → the class the pattern asks
        // for, so that most patterns match something; the rest take any
        // endpoint, NULL included.
        let n_entities = procs.len() + files.len();
        let wanted_objects =
            if object_is_file && !same_var { procs.len()..n_entities } else { 0..procs.len() };
        let pick = |raw: usize, wanted: &std::ops::Range<usize>| {
            if raw < 48 { wanted.start + raw % wanted.len() } else { raw % (n_entities + 1) }
        };
        let events: Vec<_> = raw_events
            .iter()
            .map(|&(s, o, op, k, t)| {
                (pick(s, &(0..procs.len())), pick(o, &wanted_objects), op, k != 0, t)
            })
            .collect();
        let db = audit_db(&procs, &files, &events);

        let op = |i: usize| Value::Str(db.dict().intern(OPS[i]));
        let cmp = |attr: &str, op, value| Pred::Cmp { attr: attr.into(), op, value };
        let optype = |i: usize| cmp("optype", CmpOp::Eq, op(i));
        let op_pred = match op_shape {
            (0, a, _) => Some(optype(a)),
            (1, a, _) => Some(Pred::Not(Box::new(optype(a)))),
            (2, a, b) => Some(Pred::Or(Box::new(optype(a)), Box::new(optype(b)))),
            (shape @ (4 | 5), a, b) => Some(Pred::InSet {
                attr: "optype".into(),
                negated: shape == 5,
                values: vec![op(a), op(b)],
            }),
            (6, a, b) => Some(cmp("optype", [CmpOp::Lt, CmpOp::Ge, CmpOp::Gt][b], op(a))),
            (7, a, b) => Some(cmp("starttime", [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt][b], op(a))),
            _ => None,
        };
        let window_pred = window.map(|(a, b)| {
            let bound = |op, v: i64| Pred::Cmp {
                attr: "starttime".into(),
                op,
                value: Value::Int(v),
            };
            Pred::And(Box::new(bound(CmpOp::Ge, a.min(b))), Box::new(bound(CmpOp::Le, a.max(b))))
        });
        let (s_choice, s_name, o_choice, o_name) = filters;
        // Propagated ids are mostly of the class asked for, as a scheduler
        // propagates them; the rest are any id, dangling ones included.
        let ids = |raw: Option<Vec<usize>>, wanted: &std::ops::Range<usize>| {
            raw.map(|r| r.iter().map(|&i| pick(i, wanted) as i64).collect())
        };
        let (s_ids, o_ids) = (ids(id_ins.0, &(0..procs.len())), ids(id_ins.1, &wanted_objects));
        let subject = entity_sel(
            &db, EntityClass::Process, "exename", s_choice, &procs[s_name % procs.len()], s_ids,
        );
        let object = if same_var {
            // One variable on both sides: one class, one filter, one id set.
            subject.clone()
        } else if object_is_file {
            entity_sel(&db, EntityClass::File, "name", o_choice, &files[o_name % files.len()], o_ids)
        } else {
            let name = &procs[o_name % procs.len()];
            entity_sel(&db, EntityClass::Process, "exename", o_choice, name, o_ids)
        };
        let q = EventPatternQuery {
            subject,
            object,
            event_pred: Pred::and(op_pred.into_iter().chain(window_pred)),
            subject_is_object: same_var,
        };

        let tuples = |m: &raptor_storage::PatternMatches| -> Vec<[i64; 5]> {
            let mut t: Vec<[i64; 5]> =
                (0..m.len()).map(|i| [m.subj[i], m.obj[i], m.evt[i], m.start[i], m.end[i]]).collect();
            t.sort_unstable();
            t
        };
        let want = planned_reference(&db, &q);
        let mut stats = BackendStats::default();
        prop_assert_eq!(&tuples(&db.match_event_pattern(&q, &mut stats).unwrap()), &want);

        let n = events.len();
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).chain([0, n]).collect();
        bounds.sort_unstable();
        let mut got = Vec::new();
        for w in bounds.windows(2) {
            let tile = db.match_event_pattern_rows(&q, w[0]..w[1], &mut stats).unwrap();
            prop_assert!(tile.has_event);
            if w[0] == w[1] {
                prop_assert!(tile.is_empty());
            }
            // Within a tile, matches come in event row order.
            let rows: Vec<i64> = tile.evt.iter().map(|id| 1000 - id).collect();
            prop_assert!(rows.windows(2).all(|r| r[0] <= r[1]), "{:?}", rows);
            prop_assert!(rows.iter().all(|&r| (w[0] as i64..w[1] as i64).contains(&r)));
            got.extend(tuples(&tile));
        }
        got.sort_unstable();
        prop_assert_eq!(got, want);
        prop_assert_eq!(stats.text_parses, 0);
        // A range past the table's end is refused, not clamped.
        prop_assert!(db.match_event_pattern_rows(&q, 0..n + 1, &mut stats).is_err());
    }
}

// --- DISTINCT, ORDER BY and LIMIT against a row model ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `SELECT [DISTINCT] … FROM t [WHERE t.k >= c] [ORDER BY …] [LIMIT n]`
    /// over repeated values and NULLs, with strings interned in reverse (so
    /// symbol order is not string order), against a naive row model:
    /// DISTINCT keeps first occurrences, the sort is stable (NULL, then
    /// integers, then strings by content), LIMIT comes last. Seeded
    /// mutations that each fail it: an unstable sort, DISTINCT keeping the
    /// last occurrence, LIMIT before ORDER BY.
    #[test]
    fn distinct_order_limit_match_a_row_model(
        rows in proptest::collection::vec(
            (proptest::option::of(0i64..4), proptest::option::of(0usize..4)),
            0..64,
        ),
        (mask, rotate, distinct) in (1u8..8, 0usize..3, proptest::bool::ANY),
        filter in proptest::option::of(0i64..3),
        order in proptest::collection::vec(0usize..3, 0..3),
        limit in proptest::option::of(0usize..72),
    ) {
        // A model cell: `Option` orders NULL first, `Result` integers
        // before strings.
        type Cell = Option<Result<i64, &'static str>>;
        const WORDS: [&str; 4] = ["alpha", "beta", "gamma", "omega"];
        let mut db = Database::new();
        let cols = [("id", ColumnType::Int), ("k", ColumnType::Int), ("s", ColumnType::Str)];
        let defs = cols.iter().map(|&(n, t)| ColumnDef::new(n, t)).collect();
        db.create_table(TableSchema::new("t", defs)).unwrap();
        WORDS.iter().rev().for_each(|w| _ = db.dict().intern(w));
        let cells: Vec<[Cell; 3]> = rows
            .iter()
            .enumerate()
            .map(|(i, &(k, s))| [Some(Ok(i as i64)), k.map(Ok), s.map(|w| Err(WORDS[w]))])
            .collect();
        for row in &cells {
            let ins = row.map(|c| c.map_or(Ins::Null, |v| v.map_or_else(Ins::Str, Ins::Int)));
            db.insert("t", &ins).unwrap();
        }

        // Projected columns in a rotated order; the sort keys are among them.
        let proj: Vec<usize> =
            (0..3).map(|i| (i + rotate) % 3).filter(|c| mask & 1 << c != 0).collect();
        let keys: Vec<usize> = order.iter().map(|&o| o % proj.len()).collect();
        let names = |cs: &mut dyn Iterator<Item = &usize>| {
            cs.map(|&c| format!("t.{}", cols[c].0)).collect::<Vec<_>>().join(", ")
        };
        let order_by = names(&mut keys.iter().map(|&k| &proj[k]));
        let sql = format!(
            "SELECT {}{} FROM t{}{}{}",
            if distinct { "DISTINCT " } else { "" },
            names(&mut proj.iter()),
            filter.map_or(String::new(), |c| format!(" WHERE t.k >= {c}")),
            if keys.is_empty() { String::new() } else { format!(" ORDER BY {order_by}") },
            limit.map_or(String::new(), |n| format!(" LIMIT {n}")),
        );
        let got = db.query(&sql).unwrap().batch.rendered_rows();

        let mut model: Vec<Vec<Cell>> = Vec::new();
        for row in cells.iter().filter(|r| filter.is_none_or(|c| r[1] >= Some(Ok(c)))) {
            let row: Vec<Cell> = proj.iter().map(|&c| row[c]).collect();
            if !distinct || !model.contains(&row) {
                model.push(row);
            }
        }
        model.sort_by_key(|row| keys.iter().map(|&k| row[k]).collect::<Vec<_>>());
        model.truncate(limit.unwrap_or(usize::MAX));
        let render =
            |v: &Cell| v.map_or(String::new(), |v| v.map_or_else(String::from, |i| i.to_string()));
        let want: Vec<Vec<String>> = model.iter().map(|r| r.iter().map(render).collect()).collect();
        prop_assert_eq!(got, want, "{}", sql);
    }
}

/// The alphabet of the SQL fuzz: keywords, names, SQL's symbols (`<>`
/// among them), a quote, a sign, and a 2-byte and a 3-byte character.
const SQL_SOUP: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "LIKE", "IN", "COUNT", "DISTINCT", "ORDER",
    "BY", "LIMIT", "AS", "t", "v", "s", "id", "t.v", "'x'", " ", " ", "(", ")", "'", "*", ",", ".",
    "=", "<>", "<", ">=", "!", "-", "1", "é", "日",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Any text — here, up to 24 pieces of [`SQL_SOUP`], after a `WHERE`
    /// or not — parses and runs against `t(id, v, s)` to a value or an
    /// error, never a panic.
    #[test]
    fn never_panics(
        clause in proptest::bool::ANY,
        picks in proptest::collection::vec(0..SQL_SOUP.len(), 0..25),
    ) {
        let head = if clause { "SELECT id FROM t WHERE " } else { "" };
        let text: String = picks.into_iter().map(|i| SQL_SOUP[i]).fold(head.into(), |t, p| t + p);
        if raptor_relstore::sql::parse_select(&text).is_ok() {
            let (db, _) = indexed_pair(&[(Some(1), Some("x".into()))]);
            let _ = db.query(&text);
        }
    }
}
