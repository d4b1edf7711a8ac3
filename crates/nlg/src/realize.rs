//! Surface realization: turning fragments into finished sentences and
//! sentences into paragraphs.

/// Finish a fragment as a sentence, in one pass over it into one buffer:
///
/// * leading and trailing whitespace is dropped, and every other whitespace
///   run (`char::is_whitespace`) becomes one space — unless it comes before
///   `,` `.` `;` `)` or after `(`, where it is dropped;
/// * the first character is uppercased (`ß` becomes `SS`);
/// * a period is added unless the text ends in `.`, `!` or `?`;
/// * a backquote and everything up to the next backquote (a SQL fragment
///   from [`quote_sql`]) is copied as written, and counts as one word; a
///   backquote with no partner is an ordinary character.
///
/// Outside backquotes this is the old chain — `split_whitespace`, `join`,
/// five `replace` calls, `capitalize_first`, the period — because after
/// squashing every space is single, and dropping one never makes another
/// match. The unit tests keep that chain as their `oracle` and hold this
/// function to it on random fragments (`REALIZE_SEED` adds a seed).
pub fn finish_sentence(fragment: &str) -> String {
    let fragment = fragment.trim_start();
    if fragment.is_empty() {
        return String::new();
    }
    let mut out = String::with_capacity(fragment.len() + 1);
    let mut chars = fragment.chars();
    // A whitespace run since the last character written, which is held back
    // until the next one says whether it stays; and whether that last one
    // was a `(` outside backquotes.
    let (mut space, mut after_open) = (false, false);
    while let Some(c) = chars.next() {
        if c.is_whitespace() {
            space = true;
            continue;
        }
        if space && !after_open && !matches!(c, ',' | '.' | ';' | ')') {
            out.push(' ');
        }
        space = false;
        after_open = c == '(';
        if out.is_empty() {
            out.extend(c.to_uppercase());
        } else {
            out.push(c);
        }
        if c == '`' {
            let quoted = chars.as_str();
            if let Some(end) = quoted.find('`') {
                out.push_str(&quoted[..=end]);
                chars = quoted[end + 1..].chars();
            }
        }
    }
    if !out.ends_with(['.', '!', '?']) {
        out.push('.');
    }
    out
}

/// Whether [`finish_sentence`] leaves `fragment` as it is anywhere in a
/// sentence but first (single spaces, no word a space would glue to its
/// neighbour, no terminal punctuation, no backquote, which could pair with
/// one around it): it can be put into a finished one.
pub fn realizes_verbatim(fragment: &str) -> bool {
    !fragment.ends_with(['.', '!', '?'])
        && !fragment.contains('`')
        && fragment.split(' ').all(|word| {
            !word.is_empty()
                && !word.contains(char::is_whitespace)
                && !word.starts_with([',', '.', ';', ')'])
                && !word.ends_with('(')
        })
}

/// Join already-finished sentences into a paragraph, dropping empties.
pub fn join_sentences(sentences: &[String]) -> String {
    let mut out = String::with_capacity(sentences.iter().map(|s| s.len() + 1).sum());
    for sentence in sentences.iter().map(|s| s.trim()).filter(|s| !s.is_empty()) {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(sentence);
    }
    out
}

/// Quote a SQL fragment inside a narrative.
pub fn quote_sql(fragment: &str) -> String {
    format!("`{}`", fragment.trim())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morph::capitalize_first;

    /// [`finish_sentence`] as it was defined before it became one pass,
    /// verbatim: what the one pass must equal outside backquotes.
    fn oracle(fragment: &str) -> String {
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

    /// `fragment` with each backquoted span (a backquote up to the next
    /// one) replaced by a private-use token that holds no whitespace and no
    /// punctuation, and the spans in order.
    fn mask_quotes(fragment: &str) -> (String, Vec<&str>) {
        let (mut masked, mut spans, mut rest) = (String::new(), Vec::new(), fragment);
        while let Some(open) = rest.find('`') {
            let Some(len) = rest[open + 1..].find('`') else {
                break;
            };
            let end = open + len + 2;
            masked.push_str(&rest[..open]);
            masked.push_str(&format!("\u{E000}{}\u{E001}", spans.len()));
            spans.push(&rest[open..end]);
            rest = &rest[end..];
        }
        masked.push_str(rest);
        (masked, spans)
    }

    /// The oracle with every backquoted span kept as written.
    fn oracle_with_quotes(fragment: &str) -> String {
        let (masked, spans) = mask_quotes(fragment);
        let mut out = oracle(&masked);
        for (i, span) in spans.iter().enumerate() {
            out = out.replacen(&format!("\u{E000}{i}\u{E001}"), span, 1);
        }
        out
    }

    /// A small deterministic generator (SplitMix64), so the crate needs no
    /// dependency for its tests.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Pieces random fragments are made of: words, every kind of
    /// whitespace, the punctuation the realizer looks at, backquotes, and
    /// letters whose uppercase is several characters.
    const PIECES: &[&str] = &[
        "a", "b", "Z", "é", "ß", "ﬁ", "ŉ", "'", "x1", " ", " ", "  ", "\t", "\n", "\r\n", "\u{a0}",
        "\u{2003}", "\u{3000}", "\u{85}", ",", ".", ";", "(", ")", "!", "?", "`", "`", "-",
    ];

    fn fragment(rng: &mut SplitMix) -> String {
        let len = rng.below(16);
        (0..len).map(|_| PIECES[rng.below(PIECES.len())]).collect()
    }

    fn seeds() -> Vec<u64> {
        let mut seeds = vec![1, 2, 20090104];
        if let Ok(extra) = std::env::var("REALIZE_SEED") {
            seeds.push(extra.parse().expect("REALIZE_SEED is a u64"));
        }
        seeds
    }

    #[test]
    fn finish_sentence_equals_its_old_definition_outside_backquotes() {
        let fixed = ["", " ", "\t\n", "\u{a0}\u{3000}", "ß", "ﬁx", "`", "` `"];
        for f in fixed {
            assert_eq!(finish_sentence(f), oracle_with_quotes(f), "{f:?}");
        }
        for seed in seeds() {
            let mut rng = SplitMix(seed);
            for _ in 0..100_000 {
                let f = fragment(&mut rng);
                let finished = finish_sentence(&f);
                assert_eq!(finished, oracle_with_quotes(&f), "seed {seed}: {f:?}");
                if !f.contains('`') {
                    assert_eq!(finished, oracle(&f), "seed {seed}: {f:?}");
                }
                // Inside backquotes the text comes out as written, in order.
                let mut rest = finished.as_str();
                for span in mask_quotes(&f).1 {
                    let at = rest
                        .find(span)
                        .unwrap_or_else(|| panic!("{span:?} in {f:?}"));
                    rest = &rest[at + span.len()..];
                }
            }
        }
    }

    #[test]
    fn realizes_verbatim_fragments_are_left_alone_on_random_fragments() {
        for seed in seeds() {
            let mut rng = SplitMix(seed);
            for _ in 0..100_000 {
                let f = fragment(&mut rng);
                if !realizes_verbatim(&f) {
                    continue;
                }
                assert_eq!(
                    finish_sentence(&format!("a {f} a {f}")),
                    format!("A {f} a {f}."),
                    "seed {seed}: {f:?}"
                );
                assert_eq!(
                    finish_sentence(&format!("a {f} `p  ( q` {f} `r`")),
                    format!("A {f} `p  ( q` {f} `r`."),
                    "seed {seed}: {f:?}"
                );
            }
        }
    }

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
    fn finish_sentence_copies_quoted_sql_as_written() {
        assert_eq!(
            finish_sentence("the condition  `a.name = 'Brad  Pitt'` ,  eliminated"),
            "The condition `a.name = 'Brad  Pitt'`, eliminated."
        );
        assert_eq!(finish_sentence("( `x = 'a ( b )'` )"), "(`x = 'a ( b )'`).");
        assert_eq!(finish_sentence("one ` quote  ,"), "One ` quote,.");
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
