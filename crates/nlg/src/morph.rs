//! Minimal English morphology: articles, plurals, possessives, agreement.

/// Choose the indefinite article for a noun phrase ("a movie", "an actor").
pub fn indefinite_article(word: &str) -> &'static str {
    match word.chars().next().map(|c| c.to_ascii_lowercase()) {
        Some('a' | 'e' | 'i' | 'o' | 'u') => "an",
        _ => "a",
    }
}

/// Pluralize a regular English noun ("movie" -> "movies", "actress" ->
/// "actresses", "company" -> "companies").
pub fn pluralize(word: &str) -> String {
    if word.is_empty() {
        return String::new();
    }
    let lower = word.to_lowercase();
    if lower.ends_with('s')
        || lower.ends_with('x')
        || lower.ends_with('z')
        || lower.ends_with("ch")
        || lower.ends_with("sh")
    {
        return format!("{word}es");
    }
    if let Some(stem) = word.strip_suffix('y') {
        let before = stem.chars().last().unwrap_or('a');
        if !"aeiou".contains(before.to_ascii_lowercase()) {
            return format!("{stem}ies");
        }
    }
    format!("{word}s")
}

/// Possessive form ("Woody Allen" -> "Woody Allen's", "actors" -> "actors'").
pub fn possessive(name: &str) -> String {
    if name.ends_with('s') {
        format!("{name}'")
    } else {
        format!("{name}'s")
    }
}

/// Subject–verb agreement for "to be" ("is"/"are").
pub fn be_verb(plural: bool) -> &'static str {
    if plural {
        "are"
    } else {
        "is"
    }
}

/// Capitalize the first letter of a sentence, leaving the rest untouched
/// (acronyms and proper nouns keep their case).
pub fn capitalize_first(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        None => String::new(),
        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
    }
}

/// Number words for small counts ("one", "two", …); larger numbers fall back
/// to digits.
pub fn count_phrase(n: usize) -> String {
    const WORDS: [&str; 13] = [
        "zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten",
        "eleven", "twelve",
    ];
    WORDS
        .get(n)
        .map(|s| s.to_string())
        .unwrap_or_else(|| n.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn articles() {
        assert_eq!(indefinite_article("movie"), "a");
        assert_eq!(indefinite_article("actor"), "an");
        assert_eq!(indefinite_article("employee"), "an");
        assert_eq!(indefinite_article(""), "a");
    }

    #[test]
    fn plurals() {
        assert_eq!(pluralize("movie"), "movies");
        assert_eq!(pluralize("actress"), "actresses");
        assert_eq!(pluralize("company"), "companies");
        assert_eq!(pluralize("day"), "days");
        assert_eq!(pluralize("genre"), "genres");
        assert_eq!(pluralize(""), "");
    }

    #[test]
    fn possessives() {
        assert_eq!(possessive("Woody Allen"), "Woody Allen's");
        assert_eq!(possessive("actors"), "actors'");
    }

    #[test]
    fn agreement_and_capitalization() {
        assert_eq!(be_verb(false), "is");
        assert_eq!(be_verb(true), "are");
        assert_eq!(capitalize_first("the movie"), "The movie");
        assert_eq!(capitalize_first(""), "");
    }

    #[test]
    fn count_phrases() {
        assert_eq!(count_phrase(1), "one");
        assert_eq!(count_phrase(3), "three");
        assert_eq!(count_phrase(42), "42");
    }
}
