//! Clause aggregation: combining clauses into one sentence.
//!
//! The split pattern of §2.2: the description of each branch entity is
//! folded into the introducing clause as a relative clause — "the director
//! D1 *who was born in Italy*" — and the branches are joined with commas and
//! a final "and".

use crate::clause::Clause;

/// Build the split-pattern sentence of §2.2: a source clause introducing
/// several branches joined by a conjunction, each branch optionally carrying
/// its own relative clause. This is what turns the "vapid narrative" into
/// "The movie M1 involves the director D1 who was born in Italy and the
/// actor A1 who is Greek."
pub fn split_pattern_sentence(
    subject: &str,
    verb: &str,
    branches: &[(String, Option<Clause>, &str)],
) -> String {
    let mut parts: Vec<String> = Vec::new();
    for (mention, description, pronoun) in branches {
        let mut part = mention.clone();
        if let Some(d) = description {
            if !d.is_empty() {
                part.push(' ');
                part.push_str(&d.as_relative(pronoun));
            }
        }
        parts.push(part);
    }
    let list = join_with_and(&parts);
    format!("{} {} {}", subject.trim(), verb.trim(), list)
}

/// Join phrases with commas and a final "and".
pub fn join_with_and(parts: &[String]) -> String {
    match parts.len() {
        0 => String::new(),
        1 => parts[0].clone(),
        2 => format!("{} and {}", parts[0], parts[1]),
        _ => {
            let head = parts[..parts.len() - 1].join(", ");
            format!("{}, and {}", head, parts[parts.len() - 1])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_pattern_matches_the_paper_example() {
        let sentence = split_pattern_sentence(
            "The movie M1",
            "involves",
            &[
                (
                    "the director D1".to_string(),
                    Some(Clause::new("the director D1", "was born in Italy")),
                    "who",
                ),
                (
                    "the actor A1".to_string(),
                    Some(Clause::new("the actor A1", "is Greek")),
                    "who",
                ),
            ],
        );
        assert_eq!(
            sentence,
            "The movie M1 involves the director D1 who was born in Italy and the actor A1 who is Greek"
        );
    }

    #[test]
    fn list_joining() {
        assert_eq!(join_with_and(&[]), "");
        assert_eq!(join_with_and(&["a".into()]), "a");
        assert_eq!(join_with_and(&["a".into(), "b".into()]), "a and b");
        assert_eq!(
            join_with_and(&["a".into(), "b".into(), "c".into()]),
            "a, b, and c"
        );
    }
}
