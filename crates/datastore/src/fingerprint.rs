//! Shape fingerprinting shared by the observability ledger, the cardinality
//! feedback store, and the plan cache.
//!
//! All three subsystems key state by *shape* rather than by exact text: two
//! statements (or two operators) that differ only in their literals should
//! land on the same key, so that what the engine learned from `a.name =
//! 'Brad Pitt'` also applies to `a.name = 'G. Loucas'`. This module owns the
//! FNV-1a hashing and the literal-normalization rules, so every consumer
//! agrees byte-for-byte on what a shape is.

use crate::exec::stream::PlanProfile;

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
/// same query template land on the same hash.
pub fn plan_shape_hash(profile: &PlanProfile) -> u64 {
    let mut hash = FNV_OFFSET;
    hash_shape(profile, &mut hash);
    hash
}

fn hash_shape(p: &PlanProfile, hash: &mut u64) {
    fnv(hash, p.operator.as_bytes());
    fnv(hash, normalize_predicate(&p.detail).as_bytes());
    fnv(hash, b"(");
    for c in &p.children {
        hash_shape(c, hash);
    }
    fnv(hash, b")");
}

/// Normalize a rendered predicate to its *shape*: literal numbers and quoted
/// strings become `?`, so `a.name = 'Brad Pitt'` and `a.name = 'G. Loucas'`
/// share one ledger key. Identifiers (which may contain digits) survive.
pub fn normalize_predicate(detail: &str) -> String {
    let mut out = String::with_capacity(detail.len());
    let mut chars = detail.chars().peekable();
    let mut prev_ident = false;
    while let Some(c) = chars.next() {
        if c == '\'' {
            // Quoted string literal ('' is the embedded-quote escape).
            while let Some(n) = chars.next() {
                if n == '\'' {
                    if chars.peek() == Some(&'\'') {
                        chars.next();
                    } else {
                        break;
                    }
                }
            }
            out.push('?');
            prev_ident = false;
        } else if c.is_ascii_digit() && !prev_ident {
            while chars
                .peek()
                .is_some_and(|n| n.is_ascii_digit() || *n == '.')
            {
                chars.next();
            }
            out.push('?');
        } else {
            prev_ident = c.is_alphanumeric() || c == '_' || c == '.';
            out.push(c);
        }
    }
    out
}

/// Collapse plan parameters (`$0`, rendered `$?` after normalization) to
/// plain `?` placeholders. The feedback store uses this on top of
/// [`normalize_predicate`] so a parameterized plan template (`m.year > $0`)
/// and its literal instantiation (`m.year > 2000`) share one feedback key;
/// the obs ledger deliberately keeps `$?` distinct for display.
pub fn collapse_params(shape: &str) -> String {
    shape.replace("$?", "?")
}

/// The feedback-store key shape of a rendered operator detail: literals and
/// plan parameters both become `?`.
pub fn feedback_shape(detail: &str) -> String {
    collapse_params(&normalize_predicate(detail))
}

/// The table a profiled operator is best attributed to: its own index
/// access, or the leftmost scan underneath it. Shared by the misestimate
/// ledger and the feedback store so both attribute an error to the same
/// relation.
pub fn profile_table(node: &PlanProfile) -> Option<String> {
    match node.table() {
        Some(table) => Some(table.to_string()),
        None => node.children.iter().find_map(profile_table),
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
        assert_eq!(feedback_shape("m.year > $0"), "m.year > ?");
        assert_eq!(
            feedback_shape("a.name = 'Brad Pitt'"),
            feedback_shape("a.name = $3")
        );
        // The obs-facing normalization still keeps the marker.
        assert_eq!(normalize_predicate("g2.mid = $0"), "g2.mid = $?");
    }
}
