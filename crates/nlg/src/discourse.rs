//! Discourse planning: choosing between the compact (declarative) and
//! procedural synthesis styles of §2.2, and truncating what is said.
//!
//! The paper contrasts two renderings of the same content: a compact one —
//! "more complex and in more complicated cases may even be infeasible" — and
//! a procedural one, "a coalescence of several simple sentences … simpler to
//! create and can be used to describe more complex database schema graphs".
//! "Automatically choosing between the two based on the characteristics of
//! the database part concerned at any point is a great challenge"; this
//! module implements the choice as an explicit, measurable policy.

/// The two synthesis styles of §2.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// Single fluent sentences, merged clauses, no repetition.
    Compact,
    /// A sequence of simple sentences, one fact each.
    Procedural,
}

/// Characteristics of the material about to be narrated, used to pick a
/// style.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ContentComplexity {
    /// Number of attributes that will be verbalized for the focus entity.
    pub attributes: usize,
    /// Number of related tuples (e.g. movies of the director).
    pub related_tuples: usize,
    /// Number of relations involved.
    pub relations: usize,
}

/// Policy thresholds for style selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StylePolicy {
    /// Compact synthesis is attempted only below these bounds.
    pub max_attributes_for_compact: usize,
    pub max_related_for_compact: usize,
    pub max_relations_for_compact: usize,
}

impl Default for StylePolicy {
    fn default() -> Self {
        StylePolicy {
            max_attributes_for_compact: 4,
            max_related_for_compact: 6,
            max_relations_for_compact: 4,
        }
    }
}

impl StylePolicy {
    /// Choose a style for the given complexity.
    pub fn choose(&self, complexity: ContentComplexity) -> Style {
        if complexity.attributes <= self.max_attributes_for_compact
            && complexity.related_tuples <= self.max_related_for_compact
            && complexity.relations <= self.max_relations_for_compact
        {
            Style::Compact
        } else {
            Style::Procedural
        }
    }
}

/// Truncate a narrative to at most `max_sentences` sentences, appending an
/// ellipsis marker when material was dropped (the paper's "less significant
/// tuples to be ignored according to appropriate constraints").
pub fn truncate_sentences(sentences: &[String], max_sentences: usize) -> Vec<String> {
    if sentences.len() <= max_sentences {
        return sentences.to_vec();
    }
    let mut out: Vec<String> = sentences[..max_sentences].to_vec();
    out.push("…".to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_content_gets_the_compact_style() {
        let policy = StylePolicy::default();
        assert_eq!(
            policy.choose(ContentComplexity {
                attributes: 3,
                related_tuples: 3,
                relations: 2
            }),
            Style::Compact
        );
    }

    #[test]
    fn large_content_falls_back_to_procedural() {
        let policy = StylePolicy::default();
        assert_eq!(
            policy.choose(ContentComplexity {
                attributes: 9,
                related_tuples: 3,
                relations: 2
            }),
            Style::Procedural
        );
        assert_eq!(
            policy.choose(ContentComplexity {
                attributes: 2,
                related_tuples: 50,
                relations: 2
            }),
            Style::Procedural
        );
    }

    #[test]
    fn truncation_appends_an_ellipsis() {
        let sentences: Vec<String> = (0..5).map(|i| format!("S{i}.")).collect();
        let out = truncate_sentences(&sentences, 3);
        assert_eq!(out.len(), 4);
        assert_eq!(out.last().unwrap(), "…");
        assert_eq!(truncate_sentences(&sentences, 10), sentences);
    }
}
