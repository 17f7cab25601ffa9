//! The W-grammar of RPR database schemas (paper §5.1.1).
//!
//! The grammar goes "beyond BNF in that \[it\] can express context-sensitive
//! restrictions (e.g., that all relational program variables in the OPL part
//! of a schema have been declared in the SCL part)". The declaration list is
//! carried by the metanotion `DECS`; every statement notion is of the form
//! `stmt where DECS`, and the relation-name rule
//!
//! ```text
//! rname ALPHA has NUM in rel ALPHA has NUM DECS : name ALPHA.
//! rname ALPHA has NUM in rel ALPHA2 has NUM2 DECS : rname ALPHA has NUM in DECS.
//! ```
//!
//! finds the used relation in the declarations *with the right arity* by
//! consistent substitution (the non-linear `ALPHA`/`NUM` occurrences).
//!
//! [`schema_derivation`] builds the derivation tree of a parsed [`Schema`]
//! and [`check_schema`] validates it — the paper's "syntactically correct"
//! guarantee of §5.4.

use std::sync::OnceLock;

use eclectic_logic::Signature;

use crate::ast::Stmt;
use crate::error::Result;
use crate::schema::Schema;
use crate::wgrammar::hyper::{hyper, HyperRule, Protonotion, RhsItem, WGrammar};
use crate::wgrammar::meta::{MetaGrammar, MetaSym};
use crate::wgrammar::validate::{validate, Child, DerivTree};

/// All characters allowed in identifiers, each a one-character mark.
const IDENT_CHARS: &str =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_'";

/// Builds the RPR schema W-grammar.
#[must_use]
pub fn rpr_wgrammar() -> WGrammar {
    let mut meta = MetaGrammar::new();
    meta.add_letters("LETTER", IDENT_CHARS);
    meta.add_identifier("ALPHA", "LETTER");
    meta.add_identifier("ALPHA2", "LETTER");
    meta.add_unary_number("NUM");
    meta.add_unary_number("NUM2");
    meta.add(
        "DEC",
        vec![
            MetaSym::mark("rel"),
            MetaSym::meta("ALPHA"),
            MetaSym::mark("has"),
            MetaSym::meta("NUM"),
        ],
    );
    meta.add("DECS", vec![MetaSym::meta("DEC")]);
    meta.add("DECS", vec![MetaSym::meta("DEC"), MetaSym::meta("DECS")]);

    let n = |spec: &str| RhsItem::Notion(hyper(spec));
    let l = |spec: &str| RhsItem::Leaves(hyper(spec));
    let rule = |name: &str, lhs: &str, rhs: Vec<RhsItem>| HyperRule {
        name: name.into(),
        lhs: hyper(lhs),
        rhs,
    };

    let rules = vec![
        rule(
            "schema",
            "schema with DECS",
            vec![
                l("schema"),
                n("decl list DECS"),
                n("op list where DECS"),
                l("end-schema"),
            ],
        ),
        rule(
            "decl-list-one",
            "decl list rel ALPHA has NUM",
            vec![n("decl rel ALPHA has NUM")],
        ),
        rule(
            "decl-list-cons",
            "decl list rel ALPHA has NUM DECS",
            vec![n("decl rel ALPHA has NUM"), n("decl list DECS")],
        ),
        rule(
            "decl",
            "decl rel ALPHA has NUM",
            vec![n("name ALPHA"), l("("), n("columns NUM"), l(") ;")],
        ),
        rule("columns-one", "columns i", vec![n("column ALPHA")]),
        rule(
            "columns-cons",
            "columns NUM i",
            vec![n("columns NUM"), l(","), n("column ALPHA")],
        ),
        rule("column", "column ALPHA", vec![l("ALPHA")]),
        rule("name", "name ALPHA", vec![l("ALPHA")]),
        rule("op-list-one", "op list where DECS", vec![n("op where DECS")]),
        rule(
            "op-list-cons",
            "op list where DECS",
            vec![n("op where DECS"), n("op list where DECS")],
        ),
        rule(
            "op",
            "op where DECS",
            vec![
                l("proc"),
                n("name ALPHA"),
                l("("),
                n("params"),
                l(") ="),
                n("stmt where DECS"),
            ],
        ),
        rule("params", "params", vec![]),
        // Statements.
        rule("stmt-skip", "stmt where DECS", vec![l("skip")]),
        rule(
            "stmt-insert",
            "stmt where DECS",
            vec![
                l("insert"),
                n("rname ALPHA has NUM in DECS"),
                l("("),
                n("args NUM"),
                l(")"),
            ],
        ),
        rule(
            "stmt-delete",
            "stmt where DECS",
            vec![
                l("delete"),
                n("rname ALPHA has NUM in DECS"),
                l("("),
                n("args NUM"),
                l(")"),
            ],
        ),
        rule(
            "stmt-seq",
            "stmt where DECS",
            vec![
                l("("),
                n("stmt where DECS"),
                l(";"),
                n("stmt where DECS"),
                l(")"),
            ],
        ),
        rule(
            "stmt-union",
            "stmt where DECS",
            vec![
                l("("),
                n("stmt where DECS"),
                l("[]"),
                n("stmt where DECS"),
                l(")"),
            ],
        ),
        rule(
            "stmt-star",
            "stmt where DECS",
            vec![l("("), n("stmt where DECS"), l(") *")],
        ),
        rule("stmt-test", "stmt where DECS", vec![n("wff"), l("?")]),
        rule(
            "stmt-if",
            "stmt where DECS",
            vec![
                l("if"),
                n("wff"),
                l("then"),
                n("stmt where DECS"),
                l("fi"),
            ],
        ),
        rule(
            "stmt-if-else",
            "stmt where DECS",
            vec![
                l("if"),
                n("wff"),
                l("then"),
                n("stmt where DECS"),
                l("else"),
                n("stmt where DECS"),
                l("fi"),
            ],
        ),
        rule(
            "stmt-while",
            "stmt where DECS",
            vec![
                l("while"),
                n("wff"),
                l("do"),
                n("stmt where DECS"),
                l("od"),
            ],
        ),
        rule(
            "stmt-rel-assign",
            "stmt where DECS",
            vec![
                n("rname ALPHA has NUM in DECS"),
                l(":="),
                n("relterm NUM"),
            ],
        ),
        rule(
            "stmt-scalar-assign",
            "stmt where DECS",
            vec![n("name ALPHA"), l(":="), n("term")],
        ),
        // Abstract sub-language nodes (wffs and terms are checked by the
        // type checker, not the grammar — documented substitution).
        rule("wff", "wff", vec![]),
        rule("term", "term", vec![]),
        rule("relterm", "relterm NUM", vec![]),
        rule("args-one", "args i", vec![n("term")]),
        rule(
            "args-cons",
            "args NUM i",
            vec![n("args NUM"), l(","), n("term")],
        ),
        // The context-sensitive lookup: a used relation name must occur in
        // the declaration list with the same arity.
        rule(
            "rname-found-last",
            "rname ALPHA has NUM in rel ALPHA has NUM",
            vec![n("name ALPHA")],
        ),
        rule(
            "rname-found",
            "rname ALPHA has NUM in rel ALPHA has NUM DECS",
            vec![n("name ALPHA")],
        ),
        rule(
            "rname-skip",
            "rname ALPHA has NUM in rel ALPHA2 has NUM2 DECS",
            vec![n("rname ALPHA has NUM in DECS")],
        ),
    ];
    WGrammar::new(meta, rules)
}

/// One character per token.
fn ident_tokens(name: &str) -> Protonotion {
    name.chars().map(|c| c.to_string()).collect()
}

fn unary(n: usize) -> Protonotion {
    std::iter::repeat_with(|| "i".to_string()).take(n).collect()
}

/// A declaration entry: `(relation name, arity)`.
type Dec = (String, usize);

fn decs_tokens(decs: &[Dec]) -> Protonotion {
    let mut out = Vec::new();
    for (name, arity) in decs {
        out.push("rel".into());
        out.extend(ident_tokens(name));
        out.push("has".into());
        out.extend(unary(*arity));
    }
    out
}

fn notion(head: &str, tail: Protonotion) -> Protonotion {
    let mut out: Protonotion = head.split_whitespace().map(str::to_string).collect();
    out.extend(tail);
    out
}

fn name_node(name: &str) -> DerivTree {
    let chars = ident_tokens(name);
    DerivTree::node(
        notion("name", chars.clone()),
        chars.into_iter().map(Child::Leaf).collect(),
    )
}

fn column_node(sort: &str) -> DerivTree {
    let chars = ident_tokens(sort);
    DerivTree::node(
        notion("column", chars.clone()),
        chars.into_iter().map(Child::Leaf).collect(),
    )
}

fn columns_node(sorts: &[String]) -> DerivTree {
    let k = sorts.len();
    if k == 0 {
        // Zero columns: the grammar has no nullary columns rule, so emit a
        // dead-end node validation rejects instead of underflowing below.
        DerivTree::node(notion("columns", Vec::new()), vec![])
    } else if k == 1 {
        DerivTree::node(notion("columns", unary(1)), vec![Child::Node(column_node(&sorts[0]))])
    } else {
        DerivTree::node(
            notion("columns", unary(k)),
            vec![
                Child::Node(columns_node(&sorts[..k - 1])),
                Child::Leaf(",".into()),
                Child::Node(column_node(&sorts[k - 1])),
            ],
        )
    }
}

fn decl_node(name: &str, sorts: &[String]) -> DerivTree {
    let mut tail = ident_tokens(name);
    tail.insert(0, "rel".to_string());
    tail.push("has".into());
    tail.extend(unary(sorts.len()));
    DerivTree::node(
        notion("decl", tail),
        vec![
            Child::Node(name_node(name)),
            Child::Leaf("(".into()),
            Child::Node(columns_node(sorts)),
            Child::Leaf(")".into()),
            Child::Leaf(";".into()),
        ],
    )
}

fn decl_list_node(decs: &[(String, Vec<String>)]) -> DerivTree {
    let tail = decs_tokens(
        &decs
            .iter()
            .map(|(n, s)| (n.clone(), s.len()))
            .collect::<Vec<_>>(),
    );
    let first = &decs[0];
    if decs.len() == 1 {
        DerivTree::node(
            notion("decl list", tail),
            vec![Child::Node(decl_node(&first.0, &first.1))],
        )
    } else {
        DerivTree::node(
            notion("decl list", tail),
            vec![
                Child::Node(decl_node(&first.0, &first.1)),
                Child::Node(decl_list_node(&decs[1..])),
            ],
        )
    }
}

/// Builds the declaredness-witness chain for a relation usage.
fn rname_node(name: &str, arity: usize, decs: &[Dec]) -> DerivTree {
    let mut tail = ident_tokens(name);
    tail.insert(0, "rname".into());
    tail.push("has".into());
    tail.extend(unary(arity));
    tail.push("in".into());
    tail.extend(decs_tokens(decs));
    let mut tail_no_head = tail.clone();
    tail_no_head.remove(0);

    let children = match decs.first() {
        Some(head) if head.0 == name && head.1 == arity => {
            vec![Child::Node(name_node(name))]
        }
        Some(_) => vec![Child::Node(rname_node(name, arity, &decs[1..]))],
        // Exhausted declaration list: a dead-end node that no rule derives —
        // validation rejects it, which is exactly the declaredness check.
        None => vec![Child::Node(name_node(name))],
    };
    DerivTree::node(notion("rname", tail_no_head), children)
}

fn abstract_node(head: &str, tail: Protonotion) -> DerivTree {
    DerivTree::node(notion(head, tail), vec![])
}

fn args_node(count: usize) -> DerivTree {
    if count == 0 {
        // No nullary args rule either — dead-end node, see `columns_node`.
        DerivTree::node(notion("args", Vec::new()), vec![])
    } else if count == 1 {
        DerivTree::node(
            notion("args", unary(1)),
            vec![Child::Node(abstract_node("term", Vec::new()))],
        )
    } else {
        DerivTree::node(
            notion("args", unary(count)),
            vec![
                Child::Node(args_node(count - 1)),
                Child::Leaf(",".into()),
                Child::Node(abstract_node("term", Vec::new())),
            ],
        )
    }
}

fn stmt_node(sig: &Signature, s: &Stmt, decs: &[Dec], decs_toks: &Protonotion) -> DerivTree {
    let stmt_notion = notion("stmt where", decs_toks.clone());
    let leaf = |t: &str| Child::Leaf(t.to_string());
    let sub = |s: &Stmt| Child::Node(stmt_node(sig, s, decs, decs_toks));
    let wff = || Child::Node(abstract_node("wff", Vec::new()));

    let children = match s {
        Stmt::Skip => vec![leaf("skip")],
        Stmt::Insert(r, args) => vec![
            leaf("insert"),
            Child::Node(rname_node(&sig.pred(*r).name, args.len(), decs)),
            leaf("("),
            Child::Node(args_node(args.len())),
            leaf(")"),
        ],
        Stmt::Delete(r, args) => vec![
            leaf("delete"),
            Child::Node(rname_node(&sig.pred(*r).name, args.len(), decs)),
            leaf("("),
            Child::Node(args_node(args.len())),
            leaf(")"),
        ],
        Stmt::Seq(p, q) => vec![leaf("("), sub(p), leaf(";"), sub(q), leaf(")")],
        Stmt::Union(p, q) => vec![leaf("("), sub(p), leaf("[]"), sub(q), leaf(")")],
        Stmt::Star(p) => vec![leaf("("), sub(p), leaf(")"), leaf("*")],
        Stmt::Test(_) => vec![wff(), leaf("?")],
        Stmt::IfThen(_, p) => vec![leaf("if"), wff(), leaf("then"), sub(p), leaf("fi")],
        Stmt::IfThenElse(_, p, q) => vec![
            leaf("if"),
            wff(),
            leaf("then"),
            sub(p),
            leaf("else"),
            sub(q),
            leaf("fi"),
        ],
        Stmt::While(_, p) => vec![leaf("while"), wff(), leaf("do"), sub(p), leaf("od")],
        Stmt::RelAssign(r, f) => vec![
            Child::Node(rname_node(&sig.pred(*r).name, f.vars.len(), decs)),
            leaf(":="),
            Child::Node(abstract_node("relterm", unary(f.vars.len()))),
        ],
        Stmt::Assign(x, _) => vec![
            Child::Node(name_node(&sig.func(*x).name)),
            leaf(":="),
            Child::Node(abstract_node("term", Vec::new())),
        ],
    };
    DerivTree::node(stmt_notion, children)
}

fn op_node(sig: &Signature, p: &crate::schema::ProcDecl, decs: &[Dec], decs_toks: &Protonotion) -> DerivTree {
    DerivTree::node(
        notion("op where", decs_toks.clone()),
        vec![
            Child::Leaf("proc".into()),
            Child::Node(name_node(&p.name)),
            Child::Leaf("(".into()),
            Child::Node(abstract_node("params", Vec::new())),
            Child::Leaf(")".into()),
            Child::Leaf("=".into()),
            Child::Node(stmt_node(sig, &p.body, decs, decs_toks)),
        ],
    )
}

fn op_list_node(
    sig: &Signature,
    procs: &[crate::schema::ProcDecl],
    decs: &[Dec],
    decs_toks: &Protonotion,
) -> DerivTree {
    let list_notion = notion("op list where", decs_toks.clone());
    if procs.len() == 1 {
        DerivTree::node(list_notion, vec![Child::Node(op_node(sig, &procs[0], decs, decs_toks))])
    } else {
        DerivTree::node(
            list_notion,
            vec![
                Child::Node(op_node(sig, &procs[0], decs, decs_toks)),
                Child::Node(op_list_node(sig, &procs[1..], decs, decs_toks)),
            ],
        )
    }
}

/// Constructs the derivation tree of a schema in the RPR W-grammar.
///
/// # Errors
/// Returns [`crate::RprError::BadSchema`] for schemas the grammar cannot
/// describe (no relations or no procedures).
pub fn schema_derivation(schema: &Schema) -> Result<DerivTree> {
    let sig = schema.signature();
    if schema.relations().is_empty() || schema.procs().is_empty() {
        return Err(crate::error::RprError::BadSchema(
            "the W-grammar describes schemas with at least one relation and one procedure".into(),
        ));
    }
    if let Some(&r) = schema
        .relations()
        .iter()
        .find(|&&r| sig.pred(r).domain.is_empty())
    {
        // The columns metarule requires at least one column (`columns i`),
        // so a zero-arity relation has no derivation — reject up front
        // instead of building an invalid (formerly panicking) tree.
        return Err(crate::error::RprError::BadSchema(format!(
            "relation {} has arity 0; the W-grammar requires at least one column",
            sig.pred(r).name
        )));
    }
    let decl_entries: Vec<(String, Vec<String>)> = schema
        .relations()
        .iter()
        .map(|&r| {
            let decl = sig.pred(r);
            (
                decl.name.clone(),
                decl.domain
                    .iter()
                    .map(|&s| sig.sort_name(s).to_string())
                    .collect(),
            )
        })
        .collect();
    let decs: Vec<Dec> = decl_entries
        .iter()
        .map(|(n, s)| (n.clone(), s.len()))
        .collect();
    let decs_toks = decs_tokens(&decs);

    Ok(DerivTree::node(
        notion("schema with", decs_toks.clone()),
        vec![
            Child::Leaf("schema".into()),
            Child::Node(decl_list_node(&decl_entries)),
            Child::Node(op_list_node(sig, schema.procs(), &decs, &decs_toks)),
            Child::Leaf("end-schema".into()),
        ],
    ))
}

/// The paper's §5.4 syntactic-correctness check: builds the schema's
/// derivation tree and validates it against the RPR W-grammar, which is
/// built once per process.
///
/// # Errors
/// Returns [`crate::RprError::Grammar`] if some node has no hyperrule
/// instance — in particular when a statement uses a relation that is not
/// declared (with that arity) in the SCL part.
pub fn check_schema(schema: &Schema) -> Result<DerivTree> {
    static GRAMMAR: OnceLock<WGrammar> = OnceLock::new();
    let tree = schema_derivation(schema)?;
    validate(GRAMMAR.get_or_init(rpr_wgrammar), &tree)?;
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_schema, PAPER_COURSES_SCHEMA};
    use std::sync::Arc;

    fn courses() -> Schema {
        let mut sig = Signature::new();
        sig.add_sort("student").unwrap();
        sig.add_sort("course").unwrap();
        let (rels, procs) = parse_schema(&mut sig, PAPER_COURSES_SCHEMA).unwrap();
        Schema::new(Arc::new(sig), rels, procs).unwrap()
    }

    #[test]
    fn paper_schema_is_grammatical() {
        let schema = courses();
        let tree = check_schema(&schema).unwrap();
        assert!(tree.node_count() > 30);
        // The yield starts and ends with the schema brackets.
        let y = tree.terminal_yield();
        assert_eq!(y.first().map(String::as_str), Some("schema"));
        assert_eq!(y.last().map(String::as_str), Some("end-schema"));
    }

    #[test]
    fn undeclared_relation_rejected() {
        // Build a statement using a relation that the declaration list does
        // not contain: the rname chain bottoms out and validation fails.
        let schema = courses();
        let tree = schema_derivation(&schema).unwrap();
        // Tamper: rebuild an insert node against a declaration list that
        // omits TAKES.
        let decs: Vec<Dec> = vec![("OFFERED".into(), 1)];
        let bogus = rname_node("TAKES", 2, &decs);
        assert!(validate(&rpr_wgrammar(), &bogus).is_err());
        // The untampered tree remains valid.
        validate(&rpr_wgrammar(), &tree).unwrap();
    }

    #[test]
    fn wrong_arity_rejected() {
        // TAKES declared binary; using it unary must fail even though the
        // name is declared.
        let decs: Vec<Dec> = vec![("OFFERED".into(), 1), ("TAKES".into(), 2)];
        let ok = rname_node("TAKES", 2, &decs);
        validate(&rpr_wgrammar(), &ok).unwrap();

        // Construct the chain a cheater would build for arity 1: the found
        // rule cannot instantiate (NUM occurs twice), the skip rule bottoms
        // out.
        let mut tail = ident_tokens("TAKES");
        tail.insert(0, "rname".into());
        tail.push("has".into());
        tail.extend(unary(1));
        tail.push("in".into());
        tail.extend(decs_tokens(&decs));
        tail.remove(0);
        let cheat = DerivTree::node(
            notion("rname", tail),
            vec![Child::Node(name_node("TAKES"))],
        );
        assert!(validate(&rpr_wgrammar(), &cheat).is_err());
    }

    #[test]
    fn zero_arity_relation_rejected_not_panicking() {
        use crate::ast::Stmt;
        use crate::schema::ProcDecl;
        let mut sig = Signature::new();
        let flag = sig.add_db_predicate("FLAG", &[]).unwrap();
        let proc = ProcDecl {
            name: "noop".into(),
            params: vec![],
            body: Stmt::Skip,
        };
        let schema = Schema::new(Arc::new(sig), vec![flag], vec![proc]).unwrap();
        let err = schema_derivation(&schema).unwrap_err();
        assert!(err.to_string().contains("arity 0"), "got: {err}");
        assert!(check_schema(&schema).is_err());
    }

    #[test]
    fn derivation_requires_nonempty_schema() {
        let mut sig = Signature::new();
        let course = sig.add_sort("course").unwrap();
        let r = sig.add_db_predicate("R", &[course]).unwrap();
        let schema = Schema::new(Arc::new(sig), vec![r], vec![]).unwrap();
        assert!(schema_derivation(&schema).is_err());
    }
}
