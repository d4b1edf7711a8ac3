//! Clause aggregation: combining clauses that share structure.
//!
//! Two operations from §2.2:
//!
//! * **Shared-subject merging** — clauses about the same subject become one
//!   clause with conjoined predicates ("inevitably the same subject has to
//!   be repeated many times. To avoid this …").
//! * **Relative-clause embedding** — in the split pattern, the description
//!   of a branch entity is folded into the introducing clause as a relative
//!   clause: "the director D1 *who was born in Italy*".

use crate::clause::Clause;

/// Merge clauses with identical subjects (case-insensitive) into a single
/// clause whose extra predicates carry the additional information. Clause
/// order is preserved.
pub fn merge_same_subject(clauses: &[Clause]) -> Vec<Clause> {
    let mut out: Vec<Clause> = Vec::new();
    for clause in clauses {
        if clause.is_empty() {
            continue;
        }
        match out
            .iter_mut()
            .find(|c| c.subject.eq_ignore_ascii_case(&clause.subject))
        {
            Some(existing) => {
                existing.add_predicate(clause.predicate.clone());
                for extra in &clause.extra_predicates {
                    existing.add_predicate(extra.clone());
                }
            }
            None => out.push(clause.clone()),
        }
    }
    out
}

/// Embed descriptions of entities as relative clauses inside a main clause.
///
/// `main` is the introducing clause ("The movie M1 involves the director D1
/// and the actor A1"); `descriptions` maps an entity mention to the clause
/// describing it ("The director D1" -> "was born in Italy"). Every mention
/// found in the main clause is expanded in place to
/// `<mention> <pronoun> <description>`. Mentions not present are ignored.
pub fn embed_relative_clauses(main: &str, descriptions: &[(String, Clause, &str)]) -> String {
    let mut out = main.to_string();
    for (mention, description, pronoun) in descriptions {
        if description.is_empty() {
            continue;
        }
        if let Some(pos) = out.to_lowercase().find(&mention.to_lowercase()) {
            let end = pos + mention.len();
            let relative = description.as_relative(pronoun);
            out = format!("{} {}{}", &out[..end], relative, &out[end..]);
        }
    }
    out
}

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
    fn same_subject_clauses_merge() {
        let clauses = vec![
            Clause::new("Woody Allen", "was born in Brooklyn"),
            Clause::new("Woody Allen", "directed Match Point"),
            Clause::new("Brad Pitt", "plays in Troy"),
        ];
        let merged = merge_same_subject(&clauses);
        assert_eq!(merged.len(), 2);
        assert_eq!(
            merged[0].render(),
            "Woody Allen was born in Brooklyn and directed Match Point"
        );
        assert_eq!(merged[1].render(), "Brad Pitt plays in Troy");
    }

    #[test]
    fn empty_clauses_are_dropped_during_merge() {
        let clauses = vec![Clause::default(), Clause::new("X", "is fine")];
        assert_eq!(merge_same_subject(&clauses).len(), 1);
    }

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
    fn embedding_expands_mentions_in_place() {
        let main = "The movie M1 involves the director D1 and the actor A1";
        let out = embed_relative_clauses(
            main,
            &[
                (
                    "the director D1".to_string(),
                    Clause::new("the director D1", "was born in Italy"),
                    "who",
                ),
                (
                    "the actor A1".to_string(),
                    Clause::new("the actor A1", "is Greek"),
                    "who",
                ),
                (
                    "nowhere to be found".to_string(),
                    Clause::new("x", "y"),
                    "which",
                ),
            ],
        );
        assert_eq!(
            out,
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
