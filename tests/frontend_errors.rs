//! Malformed input to the three query frontends — TBQL, the SQL subset and
//! the Cypher subset — pinned as `(input, byte offset, message)`: every case
//! is a syntax error at exactly that byte of the original text with exactly
//! that message.

use raptor_common::error::{ErrorKind, Result};

/// Runs `parse` over every case and reports each one whose error differs.
fn check<T: std::fmt::Debug>(parse: fn(&str) -> Result<T>, cases: &[(&str, usize, &str)]) {
    let mut wrong = Vec::new();
    for &(text, offset, message) in cases {
        match parse(text) {
            Err(e)
                if (e.kind, e.offset, e.message.as_str())
                    == (ErrorKind::Syntax, Some(offset), message) => {}
            Err(e) => wrong.push(format!("({text:?}, {:?}, {:?}),", e.offset, e.message)),
            Ok(v) => wrong.push(format!("{text:?} parsed: {v:?}")),
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn tbql_errors() {
    check(
        raptor_tbql::parse_tbql,
        &[
            // Unterminated strings, and the escape edges: only `\"` and `\\`
            // are escapes; `\x` stays two characters.
            (r#"proc p["%tar] read file f return f"#, 7, "unterminated string literal"),
            (r#"proc p["a\"] read file f return f"#, 7, "unterminated string literal"),
            (r#"proc p["a\\"] ; "#, 14, "unexpected character `;`"),
            (r#"proc p read file f at "a\x\"b\\" return f"#, 22, r#"invalid datetime `a\x"b\`"#),
            (r#"proc p["it''s"] read file f ; "#, 28, "unexpected character `;`"),
            // Offsets are bytes of the original text.
            ("proc p read file f 日 1", 19, "unexpected character `日`"),
            ("proc p read file f é 1", 19, "unexpected character `é`"),
            (r#"proc p["日本"] read file f ; return f"#, 29, "unexpected character `;`"),
            (r#"proc p["é"] é"#, 13, "unexpected character `é`"),
            // A keyword inside a string literal is a string.
            (r#"proc p["return"] read file f"#, 28, "expected `return`, found end of input"),
            (r#"proc p read file f["proc"] return"#, 33, "expected identifier, found end of input"),
            // Keywords are case-sensitive: `Proc` is an identifier.
            ("Proc p read file f return f", 5, "expected comparison operator, found `p`"),
            ("proc p read file f RETURN f", 19, "expected `return`, found `RETURN`"),
            ("proc p read File f return f", 17, "expected entity type (file/proc/ip), found `File`, found `f`"),
            // `<>` is not TBQL.
            ("proc p[pid <> 1] read file f return f", 12, "expected value, found `>`"),
            // `-` is a symbol: `-7` is two tokens, and `0-5` three.
            ("proc p[pid = -7] read file f return f", 13, "expected value, found `-`"),
            (
                "proc p read file f as e1 proc p write file g as e2 with e1 before[0-5 min e2 return f",
                74,
                "expected `]`, found `e2`",
            ),
            ("proc p read file f last -2 h return f", 24, "expected integer, found `-`"),
            // Integers are 64-bit.
            ("proc p[pid = 99999999999999999999] read file f return f", 13, "integer literal out of range"),
            ("proc p[pid = 9223372036854775808]", 13, "integer literal out of range"),
            // Structure.
            ("return f", 0, "expected at least one pattern, found `return`"),
            ("proc p read file f", 18, "expected `return`, found end of input"),
            ("proc p read return f", 19, "expected entity type (file/proc/ip), found `return`, found `f`"),
            ("widget w read file f return f", 7, "expected comparison operator, found `w`"),
            ("proc p read file f return f {", 28, "unexpected character `{`"),
            ("proc p read file f return f )", 28, "expected end of query, found `)`"),
            ("proc p ~>(2~4 file f return f", 14, "expected `)`, found `file`"),
            ("proc p[pid not = 1] read file f return f", 15, "expected `in` after `not`, found `=`"),
            ("proc p read file f as e1 with e1 near e1 return f", 33, "expected `before`, `after` or `within`, found `near`"),
        ],
    );
}

#[test]
fn sql_errors() {
    check(
        raptor_relstore::sql::parse_select,
        &[
            // Unterminated strings, and the escape edge: `''` is a quote.
            ("SELECT a FROM t WHERE a = 'open", 26, "unterminated string literal"),
            ("SELECT a FROM t WHERE a = 'it''", 26, "unterminated string literal"),
            ("SELECT a FROM t WHERE a = 'it''s' ;", 34, "unexpected character `;`"),
            (r"SELECT a FROM t WHERE a = 'a\' b", 31, "expected end of statement, found `b`"),
            // Offsets are bytes of the original text.
            ("SELECT id FROM events WHERE 日 1", 28, "unexpected character `日`"),
            ("SELECT id FROM events WHERE é 1", 28, "unexpected character `é`"),
            ("SELECT a FROM t WHERE a = '日本' é", 35, "unexpected character `é`"),
            ("SELECT a FROM t WHERE a = 'café' b", 34, "expected end of statement, found `b`"),
            // A keyword inside a string literal is a string.
            (
                "SELECT a FROM t WHERE a = 'SELECT' FROM",
                35,
                "expected end of statement, found `FROM`",
            ),
            ("SELECT 'FROM' FROM t", 7, "expected identifier, found string literal"),
            // Keywords fold case; the spelling in the message is the input's.
            ("Select a From t Where", 21, "expected identifier, found end of input"),
            ("select a from t where a = 1 Limit x", 34, "expected non-negative integer, found `x`"),
            ("SELECT a FROM t wHeRe a LiKe 1", 29, "expected LIKE pattern string, found integer 1"),
            ("SELECT select FROM t", 7, "expected identifier, found `select`"),
            // `<>` is another spelling of `!=`.
            ("SELECT a FROM t WHERE a <> <>", 27, "expected literal or column, found `!=`"),
            ("SELECT a FROM t WHERE a != !=", 27, "expected literal or column, found `!=`"),
            // A `-` before a digit is part of the integer: `0-5` is `0`, `-5`.
            ("SELECT a FROM t LIMIT -7", 22, "expected non-negative integer, found integer -7"),
            ("SELECT a FROM t WHERE a = 0-5", 27, "expected end of statement, found integer -5"),
            ("SELECT a FROM t WHERE a = - 5", 26, "unexpected character `-`"),
            // Integers are 64-bit.
            ("SELECT a FROM t WHERE a = 99999999999999999999", 26, "integer literal out of range"),
            ("SELECT a FROM t WHERE a = -9223372036854775809", 26, "integer literal out of range"),
            // Structure.
            ("SELECT FROM t", 7, "expected identifier, found `FROM`"),
            ("SELECT a FROM t WHERE", 21, "expected identifier, found end of input"),
            ("SELECT a FROM t extra garbage ; --", 30, "unexpected character `;`"),
            ("a ; b", 2, "unexpected character `;`"),
            ("SELECT a FROM t WHERE (a = 1", 28, "expected `)`, found end of input"),
            ("SELECT a FROM t WHERE a NOT = 1", 28, "expected LIKE or IN after NOT, found `=`"),
            ("SELECT t.id, COUNT(*) FROM t", 13, "COUNT(*) must be the only projection"),
            ("SELECT COUNT(*), COUNT(*) FROM t", 17, "COUNT(*) must be the only projection"),
            ("SELECT a FROM t ORDER a", 22, "expected `BY`, found `a`"),
        ],
    );
}

#[test]
fn cypher_errors() {
    check(
        raptor_graphstore::cypher::parse_cypher,
        &[
            // Unterminated strings, and the escape edge: `''` is a quote.
            ("MATCH (n) WHERE n.x = 'open", 22, "unterminated string literal"),
            ("MATCH (n) WHERE n.x = 'it''", 22, "unterminated string literal"),
            ("MATCH (n) WHERE n.x = 'it''s' ;", 30, "unexpected character `;`"),
            // Offsets are bytes of the original text.
            ("MATCH (n) WHERE 日 1", 16, "unexpected character `日`"),
            ("MATCH (n) WHERE é 1", 16, "unexpected character `é`"),
            ("MATCH (n {x: '日本'}) é", 24, "unexpected character `é`"),
            // A keyword inside a string literal is a string.
            ("MATCH (n) WHERE n.x = 'MATCH' RETURN", 36, "expected identifier, found end of input"),
            ("MATCH (n {name: 'RETURN'})", 26, "expected `RETURN`, found end of input"),
            // Keywords fold case; the spelling in the message is the input's.
            ("match (n) where n.x = 1 return n", 32, "expected `.`, found end of input"),
            ("MATCH (n) Return n.x Limit x", 27, "expected non-negative integer, found `x`"),
            ("MATCH (match) RETURN n.x", 7, "expected `)`, found `match`"),
            // `<>` is Cypher's not-equal; `!=` is not Cypher.
            ("MATCH (n) WHERE n.x <> <>", 23, "expected literal or property, found `<>`"),
            ("MATCH (n) WHERE n.x != 1", 20, "unexpected character `!`"),
            // A `-` before a digit is part of the integer.
            (
                "MATCH (n) RETURN n.x LIMIT -7",
                27,
                "expected non-negative integer, found integer -7",
            ),
            ("MATCH (a)-[*0-5]->(b) RETURN a.x", 13, "expected `]`, found integer -5"),
            ("MATCH (a)-5", 9, "expected `RETURN`, found integer -5"),
            // Integers are 64-bit.
            ("MATCH (n) WHERE n.x = 99999999999999999999", 22, "integer literal out of range"),
            // Structure.
            ("MATCH (p RETURN p.x", 9, "expected `)`, found `RETURN`"),
            ("MATCH (p) WHERE RETURN p.x", 16, "expected identifier, found `RETURN`"),
            ("MATCH (p) RETURN p", 18, "expected `.`, found end of input"),
            ("(p) RETURN p.x", 0, "expected `MATCH`, found `(`"),
            ("MATCH (a)-[e]-(b) RETURN a.x", 13, "expected `->`, found `-`"),
            ("MATCH (a)-[*1..x]->(b) RETURN a.x", 15, "expected `]`, found `x`"),
            (
                "MATCH (n) WHERE n.x STARTS 'a' RETURN n.x",
                27,
                "expected `WITH`, found string literal",
            ),
        ],
    );
}
