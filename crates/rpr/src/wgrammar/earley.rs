//! Earley recognition over metagrammars.
//!
//! Decides whether a protonotion (token string) belongs to the language of
//! a metanotion. General CFG recognition — handles left/right recursion and
//! empty productions — so metagrammar authors need no normal form.
//!
//! One pass answers every prefix. The completed items of Earley set `k`
//! depend only on `tokens[..k]`, so a completed `start` item with origin 0
//! in set `k` says that `tokens[..k]` derives from `start`
//! ([`accepted_prefixes`]). The consistent-substitution solver reads all
//! split points of a metanotion from one such table.
//!
//! Prediction filters by lookahead: a production whose first symbol is a
//! mark other than `tokens[i]` is not predicted in set `i`. Such an item
//! could only advance by scanning that mark, so it neither completes in set
//! `i` nor reaches set `i + 1`: the filter drops only dead items, and no
//! table entry changes. Nullable and metanotion-first productions are always
//! predicted.

use eclectic_kernel::FxHashSet;

use crate::wgrammar::meta::{MetaGrammar, MetaSym};

/// An Earley item: production `lhs → rhs`, dot position, origin set.
#[derive(Debug, Clone, Copy)]
struct Item<'g> {
    lhs: &'g str,
    rhs: &'g Vec<MetaSym>,
    dot: usize,
    origin: usize,
}

impl<'g> Item<'g> {
    fn next_sym(&self) -> Option<&'g MetaSym> {
        self.rhs.get(self.dot)
    }

    fn advanced(self) -> Self {
        Item {
            dot: self.dot + 1,
            ..self
        }
    }
}

/// The Earley sets, with one hash set deduplicating items across them.
struct Chart<'g> {
    sets: Vec<Vec<Item<'g>>>,
    /// (set, production, dot, origin). A production is identified by its
    /// address in the grammar, which is borrowed for the whole pass.
    seen: FxHashSet<(usize, *const Vec<MetaSym>, usize, usize)>,
}

impl<'g> Chart<'g> {
    fn push(&mut self, set: usize, item: Item<'g>) {
        if self.seen.insert((set, item.rhs, item.dot, item.origin)) {
            self.sets[set].push(item);
        }
    }

    /// Predicts `m` in set `i`, skipping productions that start with a mark
    /// other than `lookahead` (see the module doc).
    fn predict(&mut self, g: &'g MetaGrammar, m: &'g str, i: usize, lookahead: Option<&String>) {
        for rhs in g.productions_of(m) {
            if matches!(rhs.first(), Some(MetaSym::Mark(mark)) if lookahead != Some(mark)) {
                continue;
            }
            self.push(i, Item {
                lhs: m,
                rhs,
                dot: 0,
                origin: i,
            });
        }
    }
}

/// Which prefixes of `tokens` derive from metanotion `start`: entry `k` of
/// the result (length `tokens.len() + 1`) says whether `tokens[..k]` does.
#[must_use]
pub fn accepted_prefixes(g: &MetaGrammar, start: &str, tokens: &[String]) -> Vec<bool> {
    let n = tokens.len();
    let mut accepted = vec![false; n + 1];
    if !g.has(start) {
        return accepted;
    }
    let mut chart = Chart {
        sets: vec![Vec::new(); n + 1],
        seen: FxHashSet::default(),
    };
    chart.predict(g, start, 0, tokens.first());

    for (i, accept) in accepted.iter_mut().enumerate() {
        let lookahead = tokens.get(i);
        // Metanotions already predicted in set i, and those completed over
        // the empty span at i (Aycock & Horspool's nullable completion).
        let mut predicted: Vec<&str> = Vec::new();
        let mut nulled: Vec<&str> = Vec::new();
        let mut j = 0;
        while j < chart.sets[i].len() {
            let item = chart.sets[i][j];
            j += 1;
            match item.next_sym() {
                Some(MetaSym::Meta(m)) => {
                    if !predicted.contains(&m.as_str()) {
                        predicted.push(m);
                        chart.predict(g, m, i, lookahead);
                    }
                    if nulled.contains(&m.as_str()) {
                        chart.push(i, item.advanced());
                    }
                }
                Some(MetaSym::Mark(mark)) => {
                    if lookahead == Some(mark) {
                        chart.push(i + 1, item.advanced());
                    }
                }
                None => {
                    if item.origin == i && !nulled.contains(&item.lhs) {
                        nulled.push(item.lhs);
                    }
                    if item.origin == 0 && item.lhs == start {
                        *accept = true;
                    }
                    // Items added to the origin set after this snapshot
                    // (origin == i) advance through `nulled` instead.
                    for k in 0..chart.sets[item.origin].len() {
                        let p = chart.sets[item.origin][k];
                        if matches!(p.next_sym(), Some(MetaSym::Meta(m)) if m == item.lhs) {
                            chart.push(i, p.advanced());
                        }
                    }
                }
            }
        }
        // Only scanning fills set i + 1; once it is empty, so are the rest.
        if i < n && chart.sets[i + 1].is_empty() {
            break;
        }
    }
    accepted
}

/// Whether `tokens` is derivable from metanotion `start` in the metagrammar:
/// the last entry of [`accepted_prefixes`].
#[must_use]
pub fn recognizes(g: &MetaGrammar, start: &str, tokens: &[String]) -> bool {
    accepted_prefixes(g, start, tokens)[tokens.len()]
}

/// Convenience: recognition over `&str` tokens.
#[must_use]
pub fn recognizes_strs(g: &MetaGrammar, start: &str, tokens: &[&str]) -> bool {
    let owned: Vec<String> = tokens.iter().map(|s| (*s).to_string()).collect();
    recognizes(g, start, &owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn letters_grammar() -> MetaGrammar {
        let mut g = MetaGrammar::new();
        g.add_letters("LETTER", "abc");
        g.add_identifier("ALPHA", "LETTER");
        g.add_unary_number("NUM");
        g
    }

    #[test]
    fn identifiers() {
        let g = letters_grammar();
        assert!(recognizes_strs(&g, "ALPHA", &["a"]));
        assert!(recognizes_strs(&g, "ALPHA", &["a", "b", "c", "a"]));
        assert!(!recognizes_strs(&g, "ALPHA", &[]));
        assert!(!recognizes_strs(&g, "ALPHA", &["a", "z"]));
        assert!(!recognizes_strs(&g, "MISSING", &["a"]));
    }

    #[test]
    fn unary_numbers() {
        let g = letters_grammar();
        assert!(recognizes_strs(&g, "NUM", &["i"]));
        assert!(recognizes_strs(&g, "NUM", &["i", "i", "i"]));
        assert!(!recognizes_strs(&g, "NUM", &[]));
        assert!(!recognizes_strs(&g, "NUM", &["i", "a"]));
    }

    #[test]
    fn composite_declaration_language() {
        // DEC → 'rel' ALPHA 'has' NUM ; DECS → DEC | DEC DECS
        let mut g = letters_grammar();
        g.add(
            "DEC",
            vec![
                MetaSym::mark("rel"),
                MetaSym::meta("ALPHA"),
                MetaSym::mark("has"),
                MetaSym::meta("NUM"),
            ],
        );
        g.add("DECS", vec![MetaSym::meta("DEC")]);
        g.add("DECS", vec![MetaSym::meta("DEC"), MetaSym::meta("DECS")]);
        assert!(recognizes_strs(
            &g,
            "DECS",
            &["rel", "a", "b", "has", "i", "rel", "c", "has", "i", "i"]
        ));
        assert!(!recognizes_strs(
            &g,
            "DECS",
            &["rel", "a", "has", "i", "rel"]
        ));
    }

    #[test]
    fn nullable_productions() {
        // S → ε | 'a' S — exercises the nullable-completion path.
        let mut g = MetaGrammar::new();
        g.add("S", vec![]);
        g.add("S", vec![MetaSym::mark("a"), MetaSym::meta("S")]);
        assert!(recognizes_strs(&g, "S", &[]));
        assert!(recognizes_strs(&g, "S", &["a", "a", "a"]));
        assert!(!recognizes_strs(&g, "S", &["b"]));

        // Nullable in the middle: T → S 'b' S.
        g.add("T", vec![MetaSym::meta("S"), MetaSym::mark("b"), MetaSym::meta("S")]);
        assert!(recognizes_strs(&g, "T", &["b"]));
        assert!(recognizes_strs(&g, "T", &["a", "b", "a", "a"]));
        assert!(!recognizes_strs(&g, "T", &["a", "a"]));
    }

    #[test]
    fn ambiguous_grammars_accepted() {
        // E → E '+' E | 'x' — ambiguity must not break recognition.
        let mut g = MetaGrammar::new();
        g.add("E", vec![MetaSym::meta("E"), MetaSym::mark("+"), MetaSym::meta("E")]);
        g.add("E", vec![MetaSym::mark("x")]);
        assert!(recognizes_strs(&g, "E", &["x", "+", "x", "+", "x"]));
        assert!(!recognizes_strs(&g, "E", &["x", "+"]));
    }

    fn prefixes(g: &MetaGrammar, start: &str, tokens: &[&str]) -> Vec<bool> {
        let owned: Vec<String> = tokens.iter().map(|s| (*s).to_string()).collect();
        accepted_prefixes(g, start, &owned)
    }

    #[test]
    fn nullable_prefixes() {
        // The lookahead filter drops `'a' S` before a `b` but must keep the
        // nullable `S → ε`, or T → S 'b' S could never start.
        let mut g = MetaGrammar::new();
        g.add("S", vec![]);
        g.add("S", vec![MetaSym::mark("a"), MetaSym::meta("S")]);
        g.add("T", vec![MetaSym::meta("S"), MetaSym::mark("b"), MetaSym::meta("S")]);
        assert_eq!(prefixes(&g, "S", &[]), [true]);
        assert_eq!(prefixes(&g, "S", &["a", "a", "b", "a"]), [true, true, true, false, false]);
        assert_eq!(prefixes(&g, "T", &["b"]), [false, true]);
        assert_eq!(
            prefixes(&g, "T", &["a", "b", "a", "a", "b"]),
            [false, false, true, true, true, false]
        );
    }

    #[test]
    fn left_recursive_prefixes() {
        // L → L 'a' | 'b'
        let mut g = MetaGrammar::new();
        g.add("L", vec![MetaSym::meta("L"), MetaSym::mark("a")]);
        g.add("L", vec![MetaSym::mark("b")]);
        assert_eq!(
            prefixes(&g, "L", &["b", "a", "a", "c", "a"]),
            [false, true, true, true, false, false]
        );
        assert_eq!(prefixes(&g, "L", &["a", "b"]), [false, false, false]);
    }

    #[test]
    fn ambiguous_prefixes() {
        // E → E '+' E | 'x'
        let mut g = MetaGrammar::new();
        g.add("E", vec![MetaSym::meta("E"), MetaSym::mark("+"), MetaSym::meta("E")]);
        g.add("E", vec![MetaSym::mark("x")]);
        assert_eq!(
            prefixes(&g, "E", &["x", "+", "x", "+", "x", "+"]),
            [false, true, false, true, false, true, false]
        );
        assert_eq!(prefixes(&g, "MISSING", &["x"]), [false, false]);
    }

    /// Membership predicates for the regular languages the RPR metagrammar
    /// defines, written without reference to the grammar.
    fn is_ident_char(t: &str) -> bool {
        let mut chars = t.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => c.is_ascii_alphanumeric() || c == '_' || c == '\'',
            _ => false,
        }
    }

    fn is_num(ts: &[String]) -> bool {
        !ts.is_empty() && ts.iter().all(|t| t == "i")
    }

    fn is_alpha(ts: &[String]) -> bool {
        !ts.is_empty() && ts.iter().all(|t| is_ident_char(t))
    }

    fn is_dec(ts: &[String]) -> bool {
        // `has` is not an identifier character, so its position fixes the split.
        match ts.iter().position(|t| t == "has") {
            Some(h) => ts[0] == "rel" && is_alpha(&ts[1..h]) && is_num(&ts[h + 1..]),
            None => false,
        }
    }

    fn is_decs(ts: &[String]) -> bool {
        // Every declaration starts with `rel`, which occurs nowhere else.
        let starts: Vec<usize> = (0..ts.len()).filter(|&k| ts[k] == "rel").collect();
        starts.first() == Some(&0)
            && starts
                .iter()
                .zip(starts.iter().skip(1).chain(std::iter::once(&ts.len())))
                .all(|(&a, &b)| is_dec(&ts[a..b]))
    }

    #[test]
    fn prefix_tables_match_regular_oracles() {
        let g = crate::wgrammar::rpr_wgrammar().meta;
        type Oracle = fn(&[String]) -> bool;
        let oracles: [(&str, Oracle); 4] =
            [("NUM", is_num), ("ALPHA", is_alpha), ("DEC", is_dec), ("DECS", is_decs)];
        let pool = ["rel", "has", "i", "i", "a", "Z", "7", "_", "'", "in", "(", "ab", ""];
        let mut rng = eclectic_kernel::Rng::new(0x5eed);
        let mut accepted = [0usize; 4];
        for _ in 0..400 {
            let mut tokens: Vec<String> = Vec::new();
            if rng.chance(1, 2) {
                // A well-formed declaration list, then a few mutations.
                for _ in 0..rng.range(1, 3) {
                    tokens.push("rel".into());
                    for _ in 0..rng.range(1, 3) {
                        tokens.push(pool[rng.range(2, 8)].into());
                    }
                    tokens.push("has".into());
                    tokens.resize(tokens.len() + rng.range(1, 3), "i".into());
                }
                for _ in 0..rng.below(3) {
                    let at = rng.below(tokens.len() + 1);
                    match rng.below(3) {
                        0 => tokens.insert(at, pool[rng.below(pool.len())].into()),
                        1 if at < tokens.len() => {
                            tokens.remove(at);
                        }
                        _ if at < tokens.len() => tokens[at] = pool[rng.below(pool.len())].into(),
                        _ => {}
                    }
                }
            } else {
                for _ in 0..rng.below(12) {
                    tokens.push(pool[rng.below(pool.len())].into());
                }
            }
            for (o, (start, oracle)) in oracles.iter().enumerate() {
                let table = accepted_prefixes(&g, start, &tokens);
                assert_eq!(table.len(), tokens.len() + 1);
                for (k, &got) in table.iter().enumerate() {
                    assert_eq!(got, oracle(&tokens[..k]), "{start} on {:?}", &tokens[..k]);
                    accepted[o] += usize::from(got);
                }
                assert_eq!(recognizes(&g, start, &tokens), oracle(&tokens));
            }
        }
        // The draw reaches every language, not just its rejections.
        assert!(accepted.iter().all(|&n| n > 20), "{accepted:?}");
    }
}
