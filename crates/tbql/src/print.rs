//! Query rendering (round-trip printer).
//!
//! Prints a [`Query`] back to TBQL text. `parse(print(q)) == q` — the
//! property tests in the workspace rely on it, and query synthesis uses it
//! to materialize synthesized queries.

use std::fmt::Write as _;

use raptor_common::lex::TBQL;
use raptor_common::time::Timestamp;

use crate::ast::*;

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Str(s) => out.push_str(&TBQL.quote(s)),
    }
}

fn write_attr_expr(out: &mut String, e: &AttrExpr) {
    match e {
        AttrExpr::Bare { negated, value } => {
            if *negated {
                out.push('!');
            }
            write_value(out, value);
        }
        AttrExpr::Cmp { attr, op, value } => {
            let _ = write!(out, "{attr} {} ", op.as_str());
            write_value(out, value);
        }
        AttrExpr::InSet { attr, negated, set } => {
            let _ = write!(out, "{attr} {}in (", if *negated { "not " } else { "" });
            for (i, v) in set.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, v);
            }
            out.push(')');
        }
        AttrExpr::And(a, b) => {
            write_attr_operand(out, a);
            out.push_str(" && ");
            write_attr_operand(out, b);
        }
        AttrExpr::Or(a, b) => {
            write_attr_operand(out, a);
            out.push_str(" || ");
            write_attr_operand(out, b);
        }
    }
}

/// Operands of &&/|| that are themselves compound get parenthesized, keeping
/// the printer's output unambiguous regardless of the original nesting.
fn write_attr_operand(out: &mut String, e: &AttrExpr) {
    if matches!(e, AttrExpr::And(_, _) | AttrExpr::Or(_, _)) {
        out.push('(');
        write_attr_expr(out, e);
        out.push(')');
    } else {
        write_attr_expr(out, e);
    }
}

fn write_op_expr(out: &mut String, e: &OpExpr) {
    match e {
        OpExpr::Op(s) => out.push_str(s),
        OpExpr::Not(inner) => {
            out.push('!');
            write_op_operand(out, inner);
        }
        OpExpr::And(a, b) => {
            write_op_operand(out, a);
            out.push_str(" && ");
            write_op_operand(out, b);
        }
        OpExpr::Or(a, b) => {
            write_op_operand(out, a);
            out.push_str(" || ");
            write_op_operand(out, b);
        }
    }
}

fn write_op_operand(out: &mut String, e: &OpExpr) {
    if matches!(e, OpExpr::And(_, _) | OpExpr::Or(_, _)) {
        out.push('(');
        write_op_expr(out, e);
        out.push(')');
    } else {
        write_op_expr(out, e);
    }
}

fn write_entity(out: &mut String, e: &EntityDecl) {
    let _ = write!(out, "{} {}", e.ty.keyword(), e.id);
    if let Some(f) = &e.filter {
        out.push('[');
        write_attr_expr(out, f);
        out.push(']');
    }
}

fn write_datetime(out: &mut String, t: Timestamp) {
    let _ = write!(out, "\"{t}\"");
}

fn write_window(out: &mut String, w: &Window) {
    match w {
        Window::FromTo(a, b) => {
            out.push_str("from ");
            write_datetime(out, *a);
            out.push_str(" to ");
            write_datetime(out, *b);
        }
        Window::At(t) => {
            out.push_str("at ");
            write_datetime(out, *t);
        }
        Window::Before(t) => {
            out.push_str("before ");
            write_datetime(out, *t);
        }
        Window::After(t) => {
            out.push_str("after ");
            write_datetime(out, *t);
        }
        Window::Last { n, unit } => {
            let _ = write!(out, "last {n} {unit}");
        }
    }
}

fn write_pattern(out: &mut String, p: &Pattern) {
    write_entity(out, &p.subject);
    out.push(' ');
    match &p.op {
        PatternOp::Event(e) => write_op_expr(out, e),
        PatternOp::Path { arrow, min, max, op } => {
            out.push_str(match arrow {
                Arrow::Fuzzy => "~>",
                Arrow::Single => "->",
            });
            if min.is_some() || max.is_some() {
                out.push('(');
                if let Some(m) = min {
                    let _ = write!(out, "{m}");
                }
                if min != max {
                    out.push('~');
                    if let Some(m) = max {
                        let _ = write!(out, "{m}");
                    }
                }
                out.push(')');
            }
            if let Some(e) = op {
                out.push('[');
                write_op_expr(out, e);
                out.push(']');
            }
        }
    }
    out.push(' ');
    write_entity(out, &p.object);
    if let Some(id) = &p.id {
        let _ = write!(out, " as {id}");
        if let Some(f) = &p.event_filter {
            out.push('[');
            write_attr_expr(out, f);
            out.push(']');
        }
    }
    if let Some(w) = &p.window {
        out.push(' ');
        write_window(out, w);
    }
}

/// Renders a query as TBQL text (one pattern per line).
pub fn print_query(q: &Query) -> String {
    let mut out = String::new();
    for g in &q.global_filters {
        match g {
            GlobalFilter::Window(w) => write_window(&mut out, w),
            GlobalFilter::Attr(a) => write_attr_expr(&mut out, a),
        }
        out.push('\n');
    }
    for p in &q.patterns {
        write_pattern(&mut out, p);
        out.push('\n');
    }
    if !q.relations.is_empty() {
        out.push_str("with ");
        for (i, r) in q.relations.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match r {
                RelClause::Temporal { left, op, range, right } => {
                    let _ = write!(out, "{left} {}", op.as_str());
                    if let Some((lo, hi, unit)) = range {
                        let _ = write!(out, "[{lo}-{hi} {unit}]");
                    }
                    let _ = write!(out, " {right}");
                }
                RelClause::Attr { left, op, right } => {
                    let _ = write!(out, "{left} {} {right}", op.as_str());
                }
            }
        }
        out.push('\n');
    }
    out.push_str("return ");
    if q.ret.distinct {
        out.push_str("distinct ");
    }
    for (i, item) in q.ret.items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{item}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_tbql, FIG2_QUERY};

    #[test]
    fn figure2_roundtrip() {
        let q = parse_tbql(FIG2_QUERY).unwrap();
        let printed = print_query(&q);
        let q2 = parse_tbql(&printed).unwrap();
        assert_eq!(q, q2, "printed:\n{printed}");
    }

    #[test]
    fn path_and_window_roundtrip() {
        let text = r#"proc p["%x%"] ~>(2~4)[read || write] file f as e1 last 2 h
return distinct p, f.path"#;
        let q = parse_tbql(text).unwrap();
        let q2 = parse_tbql(&print_query(&q)).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn nested_expressions_roundtrip() {
        let text = r#"proc p[(pid = 1 && user = "root") || exename != "%x%"] !read && !write file f[name in ("%a%", "%b%")] as e[amount > 10]
return f"#;
        let q = parse_tbql(text).unwrap();
        let q2 = parse_tbql(&print_query(&q)).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn datetime_window_roundtrip() {
        let text =
            r#"proc p read file f from "2018-04-06 15:00:00" to "2018-04-07 00:00:00" return f"#;
        let q = parse_tbql(text).unwrap();
        let q2 = parse_tbql(&print_query(&q)).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn temporal_range_roundtrip() {
        let text = "proc p read file f as e1 proc p write file g as e2 with e1 before[0-5 min] e2, p.pid = p.pid return f";
        let q = parse_tbql(text).unwrap();
        let q2 = parse_tbql(&print_query(&q)).unwrap();
        assert_eq!(q, q2);
    }
}
