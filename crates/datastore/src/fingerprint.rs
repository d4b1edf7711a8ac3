//! Shape fingerprinting: the names the engine files what it learns under.
//!
//! State is keyed by *shape* rather than by exact text: what the engine
//! learned from `a.name = 'Brad Pitt'` also applies to `a.name = 'G. Loucas'`.
//!
//! **Who makes a key, and who only carries it.** A pushed selection's
//! [`ShapeKey`] is made once, by the planner, from the conjunct the user wrote
//! (`talkback::planner::cost`, the only caller of [`feedback_shape`]), when
//! the conjunct becomes a filter operator. The rest only carry it: the plan
//! node ([`crate::exec::plan::PlanNode::Filter`]), the filter operator, its
//! [`PlanProfile`] node, the feedback store ([`crate::adaptive`]) and the
//! misestimate ledger ([`crate::obs`], as `"filter "` + the same shape); the
//! next plan finds what was learned by making the same key from the same
//! conjunct. A filter without a key — a residual above the joins, a `HAVING`,
//! a hand-built plan — is one no plan looks up, and nothing is learned from it.
//!
//! [`normalize_predicate`] remains for what the planner never looks up: the
//! ledger's display shape of an unkeyed operator, the doctor's statement
//! shapes, and [`plan_shape_hash`].

use crate::exec::{PlanProfile, ProfileNode};
use std::fmt;

/// The name of one pushed selection's shape: the stored table it selects on
/// and the conjunct as written, with the relation's own columns spelled
/// `alias.column` and every literal, plan parameter and enclosing block's
/// column a `?` — `("MOVIES", "m.year > ?")`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeKey {
    /// The stored table the selection reads.
    pub table: String,
    /// The literal-normalized conjunct.
    pub shape: String,
}

/// FNV-1a offset basis (64-bit).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into an FNV-1a hash state.
pub fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// One-shot FNV-1a hash of a byte string.
pub fn fnv_hash(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv(&mut hash, bytes);
    hash
}

/// A stable hash over a plan's *shape* — operator names, normalized details,
/// and tree structure, but not literals or row counts — so two runs of the
/// same query template land on the same hash. Each detail is written, as a
/// reader sees it, straight into the hash: nothing is copied.
pub fn plan_shape_hash(profile: &PlanProfile) -> u64 {
    let mut hash = FNV_OFFSET;
    hash_shape(profile.root(), &mut hash);
    hash
}

fn hash_shape(node: ProfileNode<'_>, hash: &mut u64) {
    fnv(hash, node.operator().as_bytes());
    let mut utf8 = [0; 4];
    let mut shape = ShapeChars::new(|c: char| fnv(hash, c.encode_utf8(&mut utf8).as_bytes()));
    // The writer never fails.
    let _ = node.write_detail(&mut shape);
    shape.finish();
    fnv(hash, b"(");
    for c in node.children() {
        hash_shape(c, hash);
    }
    fnv(hash, b")");
}

/// Normalize a rendered predicate to its *shape*: literal numbers and quoted
/// strings become `?`, so `a.name = 'Brad Pitt'` and `a.name = 'G. Loucas'`
/// share one ledger key. Identifiers (which may contain digits) survive.
pub fn normalize_predicate(detail: &str) -> String {
    let mut out = String::with_capacity(detail.len());
    for_each_shape_char(detail, |c| out.push(c));
    out
}

/// [`normalize_predicate`], one character at a time into `out`.
fn for_each_shape_char(detail: &str, out: impl FnMut(char)) {
    let mut shape = ShapeChars::new(out);
    // The writer never fails.
    let _ = fmt::Write::write_str(&mut shape, detail);
    shape.finish();
}

/// Where [`ShapeChars`] is in the text written to it so far.
#[derive(Clone, Copy)]
enum ShapeState {
    /// Outside a literal; whether the last character continued an
    /// identifier (so a digit after it is part of the name).
    Text { ident: bool },
    /// Inside a quoted string literal.
    Quoted,
    /// Just past a quote inside a literal: `''` is the embedded-quote
    /// escape, anything else ended the literal.
    QuoteClosed,
    /// Inside a number.
    Number,
}

/// The shape of text written to it, as it is written: every quoted string
/// and every number not part of an identifier becomes one `?`, handed to
/// `out` with every other character.
struct ShapeChars<F> {
    out: F,
    state: ShapeState,
}

impl<F: FnMut(char)> ShapeChars<F> {
    fn new(out: F) -> ShapeChars<F> {
        ShapeChars {
            out,
            state: ShapeState::Text { ident: false },
        }
    }

    fn push(&mut self, c: char) {
        self.state = match self.state {
            ShapeState::Quoted if c == '\'' => ShapeState::QuoteClosed,
            ShapeState::Quoted => ShapeState::Quoted,
            ShapeState::QuoteClosed if c == '\'' => ShapeState::Quoted,
            ShapeState::Number if c.is_ascii_digit() || c == '.' => ShapeState::Number,
            ShapeState::QuoteClosed | ShapeState::Number => {
                if matches!(self.state, ShapeState::QuoteClosed) {
                    (self.out)('?');
                }
                self.state = ShapeState::Text { ident: false };
                return self.push(c);
            }
            ShapeState::Text { .. } if c == '\'' => ShapeState::Quoted,
            ShapeState::Text { ident: false } if c.is_ascii_digit() => {
                (self.out)('?');
                ShapeState::Number
            }
            ShapeState::Text { .. } => {
                (self.out)(c);
                ShapeState::Text {
                    ident: c.is_alphanumeric() || c == '_' || c == '.',
                }
            }
        };
    }

    /// The end of the text: a literal still open is one `?`.
    fn finish(mut self) {
        if matches!(self.state, ShapeState::Quoted | ShapeState::QuoteClosed) {
            (self.out)('?');
        }
    }
}

impl<F: FnMut(char)> fmt::Write for ShapeChars<F> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        s.chars().for_each(|c| self.push(c));
        Ok(())
    }
}

/// The shape half of a [`ShapeKey`], from the rendered conjunct: literals and
/// statement parameters (`?0`) both become `?`, so a parameterized plan
/// template (`m.year > ?0`) and its literal instantiation (`m.year > 2000`)
/// share one key.
pub fn feedback_shape(conjunct: &str) -> String {
    normalize_predicate(conjunct).replace("??", "?")
}

/// The table a profiled operator is best attributed to: its own index
/// access, or the leftmost scan underneath it. How the misestimate ledger
/// files an operator that carries no [`ShapeKey`].
pub fn profile_table<'a>(node: ProfileNode<'a>) -> Option<&'a str> {
    match node.table() {
        Some(table) => Some(table),
        None => node.children().find_map(profile_table),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_hash_matches_incremental_folding() {
        let mut hash = FNV_OFFSET;
        fnv(&mut hash, b"filter m.year > ?");
        assert_eq!(hash, fnv_hash(b"filter m.year > ?"));
        assert_ne!(fnv_hash(b"a"), fnv_hash(b"b"));
    }

    #[test]
    fn feedback_shape_unifies_params_and_literals() {
        assert_eq!(feedback_shape("m.year > 2000"), "m.year > ?");
        assert_eq!(feedback_shape("m.year > ?0"), "m.year > ?");
        assert_eq!(
            feedback_shape("a.name = 'Brad Pitt'"),
            feedback_shape("a.name = ?3")
        );
        // An unkeyed operator's display shape keeps the marker.
        assert_eq!(normalize_predicate("g2.mid = $0"), "g2.mid = $?");
    }
}
