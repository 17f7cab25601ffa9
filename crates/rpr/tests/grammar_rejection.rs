//! The §5.1.1 declared-before-use constraint on generated schemas: a
//! factory domain's derivation tree validates, and the same tree with one
//! relation use re-pointed at an undeclared relation — wrong arity or
//! wrong name — does not.

use eclectic_rpr::wgrammar::{rpr_wgrammar, schema_derivation, validate, Child, DerivTree};
use eclectic_spec::fuzz::{build_domain, FuzzConfig};

const SEEDS: [u64; 6] = [0, 1, 7, 64, 509, 7919 * 64];

/// The first `rname` node in depth-first order: the head of the witness
/// chain that finds one used relation in the declaration list.
fn first_rname(tree: &DerivTree) -> Option<&DerivTree> {
    if tree.notion.first().map(String::as_str) == Some("rname") {
        return Some(tree);
    }
    tree.children.iter().find_map(|c| match c {
        Child::Node(n) => first_rname(n),
        Child::Leaf(_) => None,
    })
}

/// Splits an `rname ALPHA has NUM in DECS` notion into its name and arity.
fn name_and_arity(notion: &[String]) -> (Vec<String>, usize) {
    let has = notion.iter().position(|t| t == "has").expect("rname has `has`");
    let arity = notion[has + 1..].iter().take_while(|t| *t == "i").count();
    (notion[1..has].to_vec(), arity)
}

fn rname_head(name: &[String], arity: usize) -> Vec<String> {
    let mut head = vec!["rname".to_string()];
    head.extend_from_slice(name);
    head.push("has".into());
    head.resize(head.len() + arity, "i".into());
    head.push("in".into());
    head
}

/// Rewrites every notion that starts with `from` to start with `to` — the
/// whole witness chain of one relation use, as a cheater would build it.
fn retarget(tree: &DerivTree, from: &[String], to: &[String]) -> DerivTree {
    let notion = match tree.notion.strip_prefix(from) {
        Some(rest) => [to, rest].concat(),
        None => tree.notion.clone(),
    };
    let children = tree
        .children
        .iter()
        .map(|c| match c {
            Child::Node(n) => Child::Node(retarget(n, from, to)),
            Child::Leaf(t) => Child::Leaf(t.clone()),
        })
        .collect();
    DerivTree::node(notion, children)
}

#[test]
fn generated_schemas_reject_undeclared_relation_uses() {
    let g = rpr_wgrammar();
    let fc = FuzzConfig::default();
    for seed in SEEDS {
        let spec = build_domain(seed, &fc).expect("factory domain builds");
        let tree = schema_derivation(&spec.representation).expect("derivation");
        validate(&g, &tree).unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        let chain = first_rname(&tree).unwrap_or_else(|| panic!("seed {seed}: no relation use"));
        validate(&g, chain).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let (name, arity) = name_and_arity(&chain.notion);
        let head = rname_head(&name, arity);
        // Same length as the declared name, so only a consistent
        // substitution (not a length mismatch) tells them apart.
        let mut renamed = name.clone();
        *renamed.last_mut().expect("nonempty name") = "'".into();
        assert!(
            !chain.notion.windows(renamed.len()).any(|w| w == renamed.as_slice()),
            "seed {seed}: {renamed:?} is declared"
        );
        for (what, tampered) in [
            ("arity", rname_head(&name, arity + 1)),
            ("name", rname_head(&renamed, arity)),
        ] {
            let cheat = retarget(chain, &head, &tampered);
            assert!(
                validate(&g, &cheat).is_err(),
                "seed {seed}: chain with altered {what} validates"
            );
            assert!(
                validate(&g, &retarget(&tree, &head, &tampered)).is_err(),
                "seed {seed}: tree with altered {what} validates"
            );
        }
    }
}
