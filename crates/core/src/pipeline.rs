//! The accessibility loop of §2.1, simulated end to end.
//!
//! The paper motivates text generation with users "with visual impairments
//! or reading disabilities": a speech recognizer turns a spoken question
//! into a query, the DBMS answers, the answer is narrated, and a
//! text-to-speech system reads it back. Real ASR/TTS engines are outside
//! the scope of a reproduction, so this module simulates both ends — a
//! word-error-injecting recognizer and a duration-estimating synthesizer —
//! which exercises exactly the same code path the paper describes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Output of the simulated speech recognizer.
#[derive(Debug, Clone, PartialEq)]
pub struct Recognition {
    /// The recognized text (possibly with substituted words).
    pub text: String,
    /// Simulated per-utterance confidence in `[0, 1]`.
    pub confidence: f64,
    /// Number of words that were corrupted.
    pub corrupted_words: usize,
}

/// A simulated automatic speech recognizer with a configurable word error
/// rate. Deterministic for a given seed.
#[derive(Debug, Clone)]
pub struct SpeechRecognizer {
    word_error_rate: f64,
    seed: u64,
}

impl SpeechRecognizer {
    /// Recognizer with the given word error rate (0.0 = perfect).
    pub fn new(word_error_rate: f64, seed: u64) -> SpeechRecognizer {
        SpeechRecognizer {
            word_error_rate: word_error_rate.clamp(0.0, 1.0),
            seed,
        }
    }

    /// A perfect recognizer.
    pub fn perfect() -> SpeechRecognizer {
        SpeechRecognizer::new(0.0, 0)
    }

    /// "Recognize" an utterance: each word is independently corrupted with
    /// probability equal to the word error rate.
    pub fn recognize(&self, utterance: &str) -> Recognition {
        let mut rng = StdRng::seed_from_u64(self.seed ^ utterance.len() as u64);
        let mut corrupted = 0usize;
        let words: Vec<String> = utterance
            .split_whitespace()
            .map(|w| {
                if self.word_error_rate > 0.0 && rng.gen_bool(self.word_error_rate) {
                    corrupted += 1;
                    format!("{w}~")
                } else {
                    w.to_string()
                }
            })
            .collect();
        let total = words.len().max(1);
        Recognition {
            text: words.join(" "),
            confidence: 1.0 - corrupted as f64 / total as f64,
            corrupted_words: corrupted,
        }
    }
}

/// One synthesized chunk of speech.
#[derive(Debug, Clone, PartialEq)]
pub struct SpokenChunk {
    /// The text of the chunk (one sentence).
    pub text: String,
    /// Estimated duration in milliseconds at the configured speaking rate.
    pub duration_ms: u64,
}

/// A simulated text-to-speech engine: splits text into sentences and
/// estimates speaking time from word count.
#[derive(Debug, Clone)]
pub struct TextToSpeech {
    /// Speaking rate in words per minute.
    pub words_per_minute: u64,
}

impl Default for TextToSpeech {
    fn default() -> Self {
        TextToSpeech {
            words_per_minute: 160,
        }
    }
}

impl TextToSpeech {
    /// Synthesize a narrative into per-sentence chunks with durations.
    pub fn synthesize(&self, narrative: &str) -> Vec<SpokenChunk> {
        split_sentences(narrative)
            .into_iter()
            .map(|sentence| {
                let words = sentence.split_whitespace().count() as u64;
                let duration_ms = words * 60_000 / self.words_per_minute.max(1);
                SpokenChunk {
                    text: sentence,
                    duration_ms,
                }
            })
            .collect()
    }
}

/// Common abbreviations that end with a period without ending a sentence.
const ABBREVIATIONS: &[&str] = &[
    "Mr", "Mrs", "Ms", "Dr", "Prof", "St", "Jr", "Sr", "vs", "etc", "e.g", "i.e", "cf", "al",
];

/// Split a paragraph into sentences on terminal punctuation.
///
/// A period only ends a sentence when it is followed by whitespace and the
/// next word starts with a capital letter (or the text ends), and when the
/// word before it is not a known abbreviation — so "Mr. Allen" and "a 7.5
/// rating" stay inside one sentence.
pub fn split_sentences(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut current = String::new();
    for (i, &c) in chars.iter().enumerate() {
        current.push(c);
        if !matches!(c, '.' | '!' | '?') {
            continue;
        }
        // The punctuation must be followed by whitespace or end of text —
        // "7.5" and "e.g." mid-token never split.
        let followed_by_ws = match chars.get(i + 1) {
            None => true,
            Some(n) => n.is_whitespace(),
        };
        if !followed_by_ws {
            continue;
        }
        if c == '.' {
            // The next word must start a new sentence (capital letter).
            let next_non_ws = chars[i + 1..].iter().find(|ch| !ch.is_whitespace());
            if let Some(n) = next_non_ws {
                if !n.is_uppercase() && !n.is_numeric() {
                    continue;
                }
            }
            // The word before the period must not be a known abbreviation.
            let word: String = current
                .trim_end_matches('.')
                .chars()
                .rev()
                .take_while(|ch| !ch.is_whitespace())
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            if ABBREVIATIONS.iter().any(|a| word.eq_ignore_ascii_case(a)) {
                continue;
            }
        }
        let s = current.trim().to_string();
        if !s.is_empty() {
            out.push(s);
        }
        current.clear();
    }
    let tail = current.trim().to_string();
    if !tail.is_empty() {
        out.push(tail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_recognizer_passes_text_through() {
        let r = SpeechRecognizer::perfect().recognize("find movies with brad pitt");
        assert_eq!(r.text, "find movies with brad pitt");
        assert_eq!(r.confidence, 1.0);
        assert_eq!(r.corrupted_words, 0);
    }

    #[test]
    fn noisy_recognizer_corrupts_words_and_reports_confidence() {
        let r = SpeechRecognizer::new(0.5, 42).recognize("find movies with brad pitt playing");
        assert!(r.corrupted_words > 0);
        assert!(r.confidence < 1.0);
        // Deterministic for a given seed.
        let again = SpeechRecognizer::new(0.5, 42).recognize("find movies with brad pitt playing");
        assert_eq!(r, again);
    }

    #[test]
    fn tts_estimates_durations_per_sentence() {
        let tts = TextToSpeech::default();
        let chunks = tts.synthesize("Woody Allen was born in Brooklyn. He directed Match Point.");
        assert_eq!(chunks.len(), 2);
        assert!(chunks.iter().all(|c| c.duration_ms > 0));
    }

    #[test]
    fn sentence_splitting_handles_missing_final_period() {
        assert_eq!(
            split_sentences("One. Two? Three"),
            vec!["One.", "Two?", "Three"]
        );
        assert!(split_sentences("").is_empty());
    }

    #[test]
    fn abbreviations_do_not_split_sentences() {
        assert_eq!(
            split_sentences("Mr. Allen directed it. He was born in Brooklyn."),
            vec!["Mr. Allen directed it.", "He was born in Brooklyn."]
        );
        assert_eq!(
            split_sentences("Dr. Smith met Mrs. Jones. They talked."),
            vec!["Dr. Smith met Mrs. Jones.", "They talked."]
        );
    }

    #[test]
    fn decimals_do_not_split_sentences() {
        assert_eq!(
            split_sentences("The movie has a 7.5 rating. Critics agree."),
            vec!["The movie has a 7.5 rating.", "Critics agree."]
        );
        assert_eq!(
            split_sentences("Version 2.10.3 shipped"),
            vec!["Version 2.10.3 shipped"]
        );
    }

    #[test]
    fn lowercase_continuation_does_not_split() {
        // A period followed by a lowercase word is treated as internal
        // punctuation (e.g. a stray abbreviation the list does not know).
        assert_eq!(
            split_sentences("the movie was prod. by someone famous"),
            vec!["the movie was prod. by someone famous"]
        );
    }

    #[test]
    fn tts_keeps_abbreviated_names_in_one_chunk() {
        let tts = TextToSpeech::default();
        let chunks = tts.synthesize("Mr. Allen directed Match Point. It is set in London.");
        assert_eq!(chunks.len(), 2);
        assert!(chunks[0].text.contains("Mr. Allen"));
    }
}
