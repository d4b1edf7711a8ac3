//! Common-expression identification and merging (§2.2).
//!
//! When translating one relation with several attributes, each attribute
//! template yields a clause with the same subject ("DNAME was born in
//! BLOCATION", "DNAME was born on BDATE"). The paper's "mechanism for
//! resolving common expressions" finds the shared prefix and produces a
//! single clause: "DNAME was born in BLOCATION on BDATE". This module
//! implements that mechanism over whitespace-tokenized clauses.

/// Tokenize a clause into words (whitespace-separated).
fn words(clause: &str) -> Vec<&str> {
    clause.split_whitespace().collect()
}

/// Length (in words) of the longest common prefix of two clauses.
pub fn common_prefix_len(a: &str, b: &str) -> usize {
    words(a)
        .iter()
        .zip(words(b).iter())
        .take_while(|(x, y)| x == y)
        .count()
}

/// Merge two clauses that share a common prefix of at least
/// `min_prefix_words` words: the result is the shared prefix followed by the
/// two remainders. Returns `None` when the prefix is too short.
pub fn merge_pair(a: &str, b: &str, min_prefix_words: usize) -> Option<String> {
    let shared = common_prefix_len(a, b);
    if shared < min_prefix_words {
        return None;
    }
    let wa = words(a);
    let wb = words(b);
    let mut out: Vec<&str> = Vec::new();
    out.extend(&wa[..shared]);
    out.extend(&wa[shared..]);
    out.extend(&wb[shared..]);
    Some(out.join(" "))
}

/// Greedily merge a list of clauses: clauses sharing a prefix of at least
/// `min_prefix_words` words are combined (in input order), others are left
/// untouched. The default threshold of 2 requires at least a shared subject
/// and verb, which is what the paper's example relies on.
pub fn merge_clauses(clauses: &[String], min_prefix_words: usize) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for clause in clauses {
        if clause.trim().is_empty() {
            continue;
        }
        match out
            .iter_mut()
            .find(|existing| common_prefix_len(existing, clause) >= min_prefix_words)
        {
            Some(existing) => {
                if let Some(merged) = merge_pair(existing, clause, min_prefix_words) {
                    *existing = merged;
                }
            }
            None => out.push(clause.clone()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_the_paper_born_clauses() {
        let clauses = vec![
            "Woody Allen was born in Brooklyn, New York, USA".to_string(),
            "Woody Allen was born on December 1, 1935".to_string(),
        ];
        let merged = merge_clauses(&clauses, 2);
        assert_eq!(merged.len(), 1);
        assert_eq!(
            merged[0],
            "Woody Allen was born in Brooklyn, New York, USA on December 1, 1935"
        );
    }

    #[test]
    fn prefix_length_counts_words() {
        assert_eq!(
            common_prefix_len("Woody Allen was born in X", "Woody Allen was born on Y"),
            4
        );
        assert_eq!(common_prefix_len("A b", "C d"), 0);
        assert_eq!(common_prefix_len("", "anything"), 0);
    }

    #[test]
    fn short_prefixes_are_not_merged() {
        let clauses = vec![
            "Woody Allen was born in Brooklyn".to_string(),
            "Woody directed Match Point".to_string(),
        ];
        // Only one word is shared ("Woody"), below the threshold of 2.
        let merged = merge_clauses(&clauses, 2);
        assert_eq!(merged.len(), 2);
        assert!(merge_pair(&clauses[0], &clauses[1], 2).is_none());
    }

    #[test]
    fn unrelated_clauses_pass_through_and_empties_are_dropped() {
        let clauses = vec![
            "The movie Troy was released in 2004".to_string(),
            String::new(),
            "The actor Brad Pitt is American".to_string(),
        ];
        let merged = merge_clauses(&clauses, 2);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn three_way_merge_accumulates() {
        let clauses = vec![
            "Carol works in Research".to_string(),
            "Carol works since 2019".to_string(),
            "Carol works remotely".to_string(),
        ];
        let merged = merge_clauses(&clauses, 2);
        assert_eq!(merged, vec!["Carol works in Research since 2019 remotely"]);
    }
}
