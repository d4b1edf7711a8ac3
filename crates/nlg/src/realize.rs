//! Surface realization: turning clauses into finished sentences and
//! sentences into paragraphs.

use crate::clause::Clause;
use crate::morph::capitalize_first;

/// Finish a clause or fragment as a sentence: squash stray whitespace,
/// capitalize the first letter, ensure terminal punctuation.
pub fn finish_sentence(fragment: &str) -> String {
    let squashed = fragment.split_whitespace().collect::<Vec<_>>().join(" ");
    if squashed.is_empty() {
        return String::new();
    }
    // Fix space before punctuation introduced by concatenation ("word ,").
    let squashed = squashed
        .replace(" ,", ",")
        .replace(" .", ".")
        .replace(" ;", ";")
        .replace(" )", ")")
        .replace("( ", "(");
    let capitalized = capitalize_first(&squashed);
    if capitalized.ends_with('.') || capitalized.ends_with('!') || capitalized.ends_with('?') {
        capitalized
    } else {
        format!("{capitalized}.")
    }
}

/// Whether [`finish_sentence`] leaves `fragment` as it is anywhere in a
/// sentence but first (single spaces, no word a space would glue to its
/// neighbour, no terminal punctuation): it can be put into a finished one.
pub fn realizes_verbatim(fragment: &str) -> bool {
    !fragment.ends_with(['.', '!', '?'])
        && fragment.split(' ').all(|word| {
            !word.is_empty()
                && !word.contains(char::is_whitespace)
                && !word.starts_with([',', '.', ';', ')'])
                && !word.ends_with('(')
        })
}

/// Realize a list of clauses as a paragraph: each clause becomes a sentence.
pub fn realize_clauses(clauses: &[Clause]) -> String {
    let sentences: Vec<String> = clauses
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| finish_sentence(&c.render()))
        .collect();
    sentences.join(" ")
}

/// Join already-finished sentences into a paragraph, dropping empties.
pub fn join_sentences(sentences: &[String]) -> String {
    sentences
        .iter()
        .map(|s| s.trim())
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Quote a SQL fragment inside a narrative.
pub fn quote_sql(fragment: &str) -> String {
    format!("`{}`", fragment.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_sentence_capitalizes_and_punctuates() {
        assert_eq!(
            finish_sentence("the movie  was released"),
            "The movie was released."
        );
        assert_eq!(finish_sentence("Already done."), "Already done.");
        assert_eq!(finish_sentence(""), "");
        assert_eq!(finish_sentence("is it a question?"), "Is it a question?");
    }

    #[test]
    fn finish_sentence_cleans_spacing_around_punctuation() {
        assert_eq!(
            finish_sentence("Match Point (2005) , and Anything Else ( 2003 )."),
            "Match Point (2005), and Anything Else (2003)."
        );
    }

    #[test]
    fn realizes_verbatim_is_exactly_what_finish_sentence_leaves_alone() {
        let fragments = [
            "Brad Pitt",
            "O'Brien",
            "Amélie",
            "a.b",
            "x,y",
            "(2005)",
            "Troy.",
            "Why?",
            "",
            " x",
            "x ",
            "a  b",
            "a\tb",
            "a\nb",
            ", x",
            "x (",
            "a ( b",
            "a ) b",
            "a ; b",
            ".x",
            "x.y.",
            "Mr. Smith",
            "a - b",
            "¿qué",
            ")",
            "(",
            "'",
            "''",
        ];
        for f in fragments {
            let left_alone = finish_sentence(&format!("a {f} a {f}")) == format!("A {f} a {f}.");
            assert_eq!(realizes_verbatim(f), left_alone, "{f:?}");
        }
    }

    #[test]
    fn realize_clauses_builds_a_paragraph() {
        let clauses = vec![
            Clause::new("Woody Allen", "was born in Brooklyn"),
            Clause::default(),
            Clause::new("he", "directed Match Point"),
        ];
        assert_eq!(
            realize_clauses(&clauses),
            "Woody Allen was born in Brooklyn. He directed Match Point."
        );
    }

    #[test]
    fn join_sentences_skips_empties() {
        assert_eq!(
            join_sentences(&["A.".to_string(), "".to_string(), "B.".to_string()]),
            "A. B."
        );
    }

    #[test]
    fn sql_quoting() {
        assert_eq!(
            quote_sql(" a.name = 'Brad Pitt' "),
            "`a.name = 'Brad Pitt'`"
        );
    }
}
