//! Property-based tests: LIKE semantics vs a reference matcher, index paths
//! vs full scans, executor correctness against a naive evaluator, and the
//! typed event matcher against the planned SQL join.

use proptest::prelude::*;
use raptor_relstore::db::Ins;
use raptor_relstore::like::{containment_literal, like_match};
use raptor_relstore::{ColumnDef, ColumnType, Database, TableSchema};
use raptor_storage::{BackendStats, CmpOp, EntityClass, EntitySel, EventPatternQuery, Pred, Value};

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
        prop_assert_eq!(a.rows(), b.rows());
        prop_assert_eq!((b.stats.index_scans, b.stats.full_scans), (1, 0));
        prop_assert_eq!(b.stats.rows_scanned, b.n_rows());
    }

    /// A one-conjunct predicate an index serves — hash `=` / `IN`, a B-tree
    /// range, `LIKE` — is answered by its access path alone: the rows of an
    /// unindexed copy, in one index scan that reads exactly the rows it
    /// returns. Two conjuncts still read the cheapest path's rows and test
    /// the whole predicate on each, so they too return the unindexed rows.
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
    ) {
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
        let (a, b, c, op) = ints;
        let like = format!("s LIKE '{pattern}'");
        let single = match shape {
            0 => format!("v = {a}"),
            1 => format!("v IN ({a}, {b}, {c})"),
            2 => format!("v {} {a}", ["<", "<=", ">", ">="][op]),
            3 => format!("s = '{word}'"),
            4 => format!("s IN ('{word}', 'a', 'b_')"),
            _ => like.clone(),
        };
        let query = |db: &Database, pred: &str| {
            db.query(&format!("SELECT id FROM t WHERE {pred} ORDER BY id")).unwrap()
        };
        let (want, got) = (query(&plain, &single), query(&indexed, &single));
        prop_assert_eq!(want.rows(), got.rows(), "{}", single);
        prop_assert_eq!((got.stats.index_scans, got.stats.full_scans), (1, 0), "{}", single);
        prop_assert_eq!(got.stats.rows_scanned, got.n_rows(), "{}", single);

        let both = format!("{single} AND {}", if shape < 3 { &like } else { "v >= 2" });
        let (want, got) = (query(&plain, &both), query(&indexed, &both));
        prop_assert_eq!(want.rows(), got.rows(), "{}", both);
        prop_assert_eq!(got.stats.index_scans, 1, "{}", both);
        prop_assert!(got.stats.rows_scanned >= got.n_rows(), "{}", both);
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
        let got_ids: Vec<i64> = got.rows().iter().filter_map(|r| r[0].as_int()).collect();
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
        let got_pairs: Vec<(i64, i64)> = got
            .rows()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        prop_assert_eq!(got_pairs, want);
    }
}

// --- The typed event matcher vs a planned three-table SQL join ---

const OPS: [&str; 3] = ["read", "write", "start"];

/// Processes then files, ids dense in that order, each table's `id`
/// hash-indexed (what the typed matcher resolves endpoints through), plus
/// the event indexes an audit store carries so the batch scan takes its
/// usual access paths. One event per tuple: `(subject, object, op, kind
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
        db.create_hash_index(table, "id").unwrap();
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
            let value = match value {
                Value::Int(i) => i.to_string(),
                Value::Str(s) => format!("'{}'", db.dict().resolve(*s)),
                Value::Null => unreachable!("not in the grammar"),
            };
            format!("{alias}.{attr} {op} {value}")
        }
        Pred::Like { attr, pattern, negated } => {
            format!("{alias}.{attr} {}LIKE '{pattern}'", if *negated { "NOT " } else { "" })
        }
        Pred::And(a, b) => format!("({} AND {})", sql_text(a, alias, db), sql_text(b, alias, db)),
        Pred::Or(a, b) => format!("({} OR {})", sql_text(a, alias, db), sql_text(b, alias, db)),
        Pred::Not(inner) => format!("NOT ({})", sql_text(inner, alias, db)),
        Pred::InSet { .. } => unreachable!("not in the grammar"),
    }
}

/// The reference: `q` written as the three-table SQL join the typed
/// matcher replaced, run through the parser, planner and hash joins.
fn planned_reference(db: &Database, q: &EventPatternQuery) -> Vec<[i64; 5]> {
    let (s, o) = (&q.subject, &q.object);
    let mut conds = vec![
        "e.subject = s.id".to_string(),
        "e.object = o.id".to_string(),
        format!("e.kind = '{}'", o.class.event_kind()),
    ];
    conds.extend(q.event_pred.iter().map(|p| sql_text(p, "e", db)));
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
    let mut rows: Vec<[i64; 5]> =
        r.rows().iter().map(|row| std::array::from_fn(|i| row[i].as_int().unwrap())).collect();
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
    /// class included), any tiling (empty tiles included). 60 of the 128
    /// cases match something, 37 of them with ids propagated to an
    /// endpoint. Seeded mutations fail it: skipping
    /// `Endpoint::hits`' `id_in` binary search, or dropping the
    /// `subject_is_object` check.
    #[test]
    fn row_range_matches_tile_the_planned_match(
        procs in proptest::collection::vec("[ab/]{1,3}", 1..5),
        files in proptest::collection::vec("[ab/]{1,3}", 1..5),
        raw_events in proptest::collection::vec(
            (0usize..64, 0usize..64, 0usize..3, 0u8..8, 0i64..40),
            0..40,
        ),
        // optype: 0 `= a`, 1 `!= a`, 2 `= a OR = b`, 3 unconstrained.
        op_shape in (0u8..4, 0usize..3, 0usize..3),
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

        let optype = |i: usize| Pred::Cmp {
            attr: "optype".into(),
            op: CmpOp::Eq,
            value: Value::Str(db.dict().intern(OPS[i])),
        };
        let op_pred = match op_shape {
            (0, a, _) => Some(optype(a)),
            (1, a, _) => Some(Pred::Not(Box::new(optype(a)))),
            (2, a, b) => Some(Pred::Or(Box::new(optype(a)), Box::new(optype(b)))),
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
