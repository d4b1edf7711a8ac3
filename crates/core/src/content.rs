//! Content-to-text translation (§2 of the paper).
//!
//! The translator walks the schema graph (annotated with template labels)
//! over the actual tuples of a database and composes a narrative. It
//! implements the full §2.2 repertoire:
//!
//! * single-relation translation with the heading attribute as subject and
//!   common-expression merging across attribute clauses;
//! * entity narratives that follow join edges (eliding bridge relations such
//!   as `DIRECTED`), in both the **compact** and the **procedural** style,
//!   with the style chosen automatically from the content's complexity;
//! * the **split pattern** sentence ("The movie M1 involves the director D1
//!   who was born in Italy and the actor A1 who is Greek");
//! * whole-database summaries bounded by traversal budgets, weights and
//!   tuple ranking;
//! * personalization (per-user weights, heading overrides, verbosity);
//! * textual summaries of derived data (histograms, column summaries).

use crate::error::TalkbackError;
use datastore::stats::{histogram, summarize_column, top_values};
use datastore::{Database, ForeignKey, NamedRow, Value};
use nlg::{
    finish_sentence, join_sentences, split_pattern_sentence, Clause, ContentComplexity,
    PronounPlanner, Referent, Style, StylePolicy,
};
use schemagraph::{dfs_traversal, SchemaGraph, TraversalConfig};
use templates::{
    instantiate, instantiate_loop, AnnotationRegistry, Bindings, Gender, Lexicon, LoopTemplate,
    Segment,
};

/// Per-user personalization settings (§2.2: "it is possible to have
/// personalized settings (e.g., different heading attributes for relations
/// or different weights on nodes and edges) in order to produce customized
/// narratives for different users or user groups").
#[derive(Debug, Clone, Default)]
pub struct UserProfile {
    /// Name of the profile (for logs and tests).
    pub name: String,
    /// Relation-weight overrides applied to the schema graph.
    pub relation_weights: Vec<(String, f64)>,
    /// Heading-attribute overrides per relation.
    pub heading_overrides: Vec<(String, String)>,
    /// Maximum number of sentences in a database summary.
    pub max_sentences: Option<usize>,
    /// Maximum number of relations a summary traversal may visit.
    pub max_relations: Option<usize>,
    /// Style policy override.
    pub style: Option<StylePolicy>,
}

/// Configuration of a content translation run.
#[derive(Debug, Clone, Default)]
pub struct ContentConfig {
    /// Traversal bounds (budget, depth, weighted order).
    pub traversal: Option<TraversalConfig>,
    /// Maximum tuples narrated per relation in database summaries.
    pub max_tuples_per_relation: usize,
    /// Style policy (compact vs. procedural thresholds).
    pub style: StylePolicy,
    /// Force a specific style instead of choosing automatically.
    pub forced_style: Option<Style>,
}

impl ContentConfig {
    /// Defaults: weighted traversal over the whole graph, three tuples per
    /// relation, automatic style choice.
    pub fn standard() -> ContentConfig {
        ContentConfig {
            traversal: None,
            max_tuples_per_relation: 3,
            style: StylePolicy::default(),
            forced_style: None,
        }
    }
}

/// The content translator.
#[derive(Debug, Clone)]
pub struct ContentTranslator {
    lexicon: Lexicon,
    annotations: AnnotationRegistry,
}

impl ContentTranslator {
    /// Translator with the movie-domain lexicon and the paper's designer
    /// annotations.
    pub fn movie_domain() -> ContentTranslator {
        ContentTranslator {
            lexicon: Lexicon::movie_domain(),
            annotations: AnnotationRegistry::movie_domain(),
        }
    }

    /// Translator with a custom lexicon/annotation registry.
    pub fn new(lexicon: Lexicon, annotations: AnnotationRegistry) -> ContentTranslator {
        ContentTranslator {
            lexicon,
            annotations,
        }
    }

    /// The lexicon in use.
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    fn gender_referent(&self, relation: &str) -> Referent {
        match self.lexicon.gender(relation) {
            Gender::Masculine => Referent::Masculine,
            Gender::Feminine => Referent::Feminine,
            Gender::Neuter => Referent::NeuterSingular,
        }
    }

    /// §2.2, alternative (a): a single sentence based only on the heading
    /// attribute — "The director's name is Woody Allen".
    pub fn describe_tuple_brief(
        &self,
        db: &Database,
        relation: &str,
        row: &NamedRow<'_>,
    ) -> Result<String, TalkbackError> {
        let template = self
            .annotations
            .relation_label(db.catalog(), &self.lexicon, relation);
        let bindings = Bindings::from_named_row(row);
        Ok(finish_sentence(&instantiate(&template, &bindings)?))
    }

    /// §2.2, alternative (b): clauses for every informative attribute,
    /// merged through common-expression identification — "Woody Allen was
    /// born in Brooklyn, New York, USA on December 1, 1935."
    pub fn describe_tuple(
        &self,
        db: &Database,
        relation: &str,
        row: &NamedRow<'_>,
    ) -> Result<String, TalkbackError> {
        let clauses = self.attribute_clauses(db, relation, row)?;
        if clauses.is_empty() {
            return self.describe_tuple_brief(db, relation, row);
        }
        let merged = templates::merge_clauses(&clauses, 2);
        let sentences: Vec<String> = merged.iter().map(|c| finish_sentence(c)).collect();
        Ok(join_sentences(&sentences))
    }

    /// The raw per-attribute clauses of a tuple (before merging). Key
    /// attributes and the heading attribute itself are skipped; NULL values
    /// are skipped ("Jane Doe was born in unknown" is not a narrative).
    fn attribute_clauses(
        &self,
        db: &Database,
        relation: &str,
        row: &NamedRow<'_>,
    ) -> Result<Vec<String>, TalkbackError> {
        let Some(schema) = db.catalog().table(relation) else {
            return Ok(Vec::new());
        };
        let heading = schema.effective_heading().to_string();
        let mut clauses = Vec::new();
        for column in &schema.columns {
            if column.name.eq_ignore_ascii_case(&heading) {
                continue;
            }
            if schema
                .primary_key
                .iter()
                .any(|k| k.eq_ignore_ascii_case(&column.name))
            {
                continue;
            }
            // Skip foreign-key columns: they are narrated by following the
            // join edge, not as raw identifiers.
            if db.catalog().foreign_keys_from(relation).iter().any(|fk| {
                fk.columns
                    .iter()
                    .any(|c| c.eq_ignore_ascii_case(&column.name))
            }) {
                continue;
            }
            let value = row.value(&column.name);
            if value.map(Value::is_null).unwrap_or(true) {
                continue;
            }
            let template = self.annotations.projection_label(
                db.catalog(),
                &self.lexicon,
                relation,
                &column.name,
            );
            let bindings = Bindings::from_named_row(row);
            clauses.push(instantiate(&template, &bindings)?);
        }
        Ok(clauses)
    }

    /// The §2.2 entity narrative: describe a focus tuple and its related
    /// tuples reached through join edges (bridge relations elided), in the
    /// requested or automatically chosen style. For the Woody Allen fixture
    /// this reproduces both texts of the paper.
    pub fn describe_entity(
        &self,
        db: &Database,
        relation: &str,
        heading_value: &str,
        config: &ContentConfig,
    ) -> Result<String, TalkbackError> {
        let table = db.table(relation).ok_or_else(|| {
            TalkbackError::Store(datastore::StoreError::UnknownTable {
                table: relation.to_string(),
            })
        })?;
        let heading = table.schema().effective_heading().to_string();
        let heading_idx = table.schema().column_index(&heading).unwrap_or(0);
        let row = table
            .rows()
            .iter()
            .find(|r| {
                r.get(heading_idx)
                    .map(|v| v.to_string().eq_ignore_ascii_case(heading_value))
                    .unwrap_or(false)
            })
            .ok_or_else(|| {
                TalkbackError::Unsupported(format!(
                    "no {relation} tuple with {heading} = {heading_value}"
                ))
            })?;
        let named = NamedRow::new(table.schema(), row);

        // Intro: merged attribute clauses.
        let intro = self.describe_tuple(db, relation, &named)?;

        // Related tuples through join edges where this relation is the
        // referenced side, following the bridge to the far relation when the
        // referencing relation is a pure connector (DIRECTED).
        let mut related_sections: Vec<(String, Vec<(String, NamedRow<'_>)>)> = Vec::new();
        for fk in db.catalog().foreign_keys_to(relation) {
            let referencing = db.referencing_rows(fk, row);
            if referencing.is_empty() {
                continue;
            }
            // Does the referencing relation connect onward to a third one?
            let onward: Vec<ForeignKey> = db
                .catalog()
                .foreign_keys_from(&fk.table)
                .into_iter()
                .filter(|other| !other.ref_table.eq_ignore_ascii_case(relation))
                .cloned()
                .collect();
            if let Some(onward_fk) = onward.first() {
                let mut targets = Vec::new();
                for bridge_row in &referencing {
                    if let Some(target) = db.follow_fk(onward_fk, bridge_row.row) {
                        targets.push((onward_fk.ref_table.clone(), target));
                    }
                }
                if !targets.is_empty() {
                    related_sections.push((onward_fk.ref_table.clone(), targets));
                }
            } else {
                related_sections.push((
                    fk.table.clone(),
                    referencing
                        .into_iter()
                        .map(|r| (fk.table.clone(), r))
                        .collect(),
                ));
            }
        }

        let related_count: usize = related_sections.iter().map(|(_, v)| v.len()).sum();
        let complexity = ContentComplexity {
            attributes: table.schema().arity(),
            related_tuples: related_count,
            relations: 1 + related_sections.len(),
        };
        let style = config
            .forced_style
            .unwrap_or_else(|| config.style.choose(complexity));

        let mut sentences = vec![intro];
        for (target_relation, rows) in &related_sections {
            sentences.push(self.related_section(
                db,
                relation,
                &named,
                target_relation,
                rows,
                style,
            )?);
        }
        Ok(join_sentences(&sentences))
    }

    /// One "related entities" section of an entity narrative (e.g. the
    /// movies of a director), in the requested style.
    fn related_section(
        &self,
        db: &Database,
        relation: &str,
        focus: &NamedRow<'_>,
        target_relation: &str,
        rows: &[(String, NamedRow<'_>)],
        style: Style,
    ) -> Result<String, TalkbackError> {
        let target_schema = db.catalog().table(target_relation);
        let target_heading = target_schema
            .map(|t| t.effective_heading().to_string())
            .unwrap_or_else(|| "name".to_string());
        let focus_heading_value = focus
            .heading_value()
            .map(Value::narrative_form)
            .unwrap_or_default();
        let concept = self.lexicon.concept(relation);

        match style {
            Style::Compact => {
                // "As a director, Woody Allen's work includes Match Point
                // (2005), … and Anything Else (2003)."
                let loop_template = self.compact_list_template(target_relation, &target_heading);
                let elements: Vec<Bindings> = rows
                    .iter()
                    .map(|(_, r)| Bindings::from_named_row(r))
                    .collect();
                let list = instantiate_loop(&loop_template, &elements)?;
                let lead = format!(
                    "As a {concept}, {} work includes {list}",
                    nlg::possessive(&focus_heading_value)
                );
                Ok(finish_sentence(&lead))
            }
            Style::Procedural => {
                // "…work includes Match Point, Melinda and Melinda, Anything
                // Else." followed by one simple sentence per related tuple.
                let names: Vec<String> = rows
                    .iter()
                    .filter_map(|(_, r)| r.value(&target_heading).map(Value::narrative_form))
                    .collect();
                let lead = finish_sentence(&format!(
                    "As a {concept}, {} work includes {}",
                    nlg::possessive(&focus_heading_value),
                    names.join(", ")
                ));
                let mut sentences = vec![lead];
                let mut pronouns = PronounPlanner::new();
                for (rel, r) in rows {
                    pronouns.mention(&focus_heading_value, self.gender_referent(relation));
                    let detail = self.describe_tuple(db, rel, r)?;
                    if !detail.is_empty() {
                        sentences.push(detail);
                    }
                }
                Ok(join_sentences(&sentences))
            }
        }
    }

    /// The compact list template for a related relation: heading plus, when
    /// the relation has a "year"-like attribute, the parenthesized year —
    /// exactly the paper's MOVIE_LIST.
    fn compact_list_template(&self, relation: &str, heading: &str) -> LoopTemplate {
        let with_year = relation.eq_ignore_ascii_case("MOVIES");
        let mut body = vec![Segment::attr(heading.to_string())];
        let mut last = vec![Segment::lit(" and "), Segment::attr(heading.to_string())];
        if with_year {
            body.push(Segment::lit(" ("));
            body.push(Segment::attr("year"));
            body.push(Segment::lit(")"));
            last.push(Segment::lit(" ("));
            last.push(Segment::attr("year"));
            last.push(Segment::lit(")"));
        }
        body.push(Segment::lit(", "));
        last.push(Segment::lit("."));
        LoopTemplate {
            name: format!("{}_LIST", relation.to_uppercase()),
            bound_attribute: heading.to_string(),
            body,
            last,
        }
    }

    /// The split-pattern sentence of §2.2 for a tuple that joins out to two
    /// (or more) other relations: "The movie Troy involves the director
    /// Sofia Ricci who was born in Rome, Italy and the actor Brad Pitt who
    /// is American."
    pub fn describe_split(
        &self,
        db: &Database,
        relation: &str,
        heading_value: &str,
    ) -> Result<String, TalkbackError> {
        let table = db.table(relation).ok_or_else(|| {
            TalkbackError::Store(datastore::StoreError::UnknownTable {
                table: relation.to_string(),
            })
        })?;
        let heading = table.schema().effective_heading().to_string();
        let heading_idx = table.schema().column_index(&heading).unwrap_or(0);
        let row = table
            .rows()
            .iter()
            .find(|r| {
                r.get(heading_idx)
                    .map(|v| v.to_string().eq_ignore_ascii_case(heading_value))
                    .unwrap_or(false)
            })
            .ok_or_else(|| {
                TalkbackError::Unsupported(format!(
                    "no {relation} tuple with {heading} = {heading_value}"
                ))
            })?;

        let concept = self.lexicon.concept(relation);
        let subject = format!("The {concept} {heading_value}");
        let mut branches: Vec<(String, Option<Clause>, &str)> = Vec::new();
        for fk in db.catalog().foreign_keys_to(relation) {
            let referencing = db.referencing_rows(fk, row);
            let Some(first) = referencing.first() else {
                continue;
            };
            // Follow the bridge one hop further when possible.
            let onward: Vec<ForeignKey> = db
                .catalog()
                .foreign_keys_from(&fk.table)
                .into_iter()
                .filter(|other| !other.ref_table.eq_ignore_ascii_case(relation))
                .cloned()
                .collect();
            let (branch_relation, branch_row) = match onward.first() {
                Some(onward_fk) => match db.follow_fk(onward_fk, first.row) {
                    Some(target) => (onward_fk.ref_table.clone(), target),
                    None => continue,
                },
                None => (fk.table.clone(), *first),
            };
            let branch_concept = self.lexicon.concept(&branch_relation);
            let branch_heading = branch_row
                .heading_value()
                .map(Value::narrative_form)
                .unwrap_or_default();
            let mention = format!("the {branch_concept} {branch_heading}");
            let clauses = self.attribute_clauses(db, &branch_relation, &branch_row)?;
            let description = clauses.first().map(|c| {
                // Reuse the clause but strip its subject (the heading value)
                // so it reads as a relative clause.
                let predicate = c
                    .strip_prefix(&branch_heading)
                    .map(str::trim)
                    .unwrap_or(c)
                    .to_string();
                Clause::new(mention.clone(), predicate)
            });
            let pronoun = match self.lexicon.gender(&branch_relation) {
                Gender::Neuter => "which",
                _ => "who",
            };
            branches.push((mention, description, pronoun));
        }
        if branches.is_empty() {
            return self.describe_tuple(db, relation, &NamedRow::new(table.schema(), row));
        }
        let sentence = split_pattern_sentence(&subject, "involves", &branches);
        Ok(finish_sentence(&sentence))
    }

    /// A whole-database summary: traverse the schema graph within the
    /// configured budget and produce one short paragraph per visited
    /// relation (tuple counts, top values of the heading attribute, a few
    /// narrated tuples ranked by how referenced they are).
    pub fn describe_database(
        &self,
        db: &Database,
        config: &ContentConfig,
        profile: Option<&UserProfile>,
    ) -> Result<String, TalkbackError> {
        let mut graph = SchemaGraph::from_catalog(db.catalog());
        if let Some(p) = profile {
            for (relation, weight) in &p.relation_weights {
                graph.set_relation_weight(relation, *weight);
            }
        }
        let mut traversal_config = config.traversal.unwrap_or_default();
        if let Some(p) = profile {
            if let Some(max) = p.max_relations {
                traversal_config.max_relations = max;
            }
        }
        let plan = dfs_traversal(&graph, None, traversal_config);
        let mut sentences: Vec<String> = Vec::new();
        for step in &plan.steps {
            let relation = &graph.relations[step.relation].name;
            let Some(table) = db.table(relation) else {
                continue;
            };
            if table.is_empty() {
                continue;
            }
            let concept = self.lexicon.concept(relation);
            sentences.push(finish_sentence(&format!(
                "The database contains {} {}",
                table.len(),
                if table.len() == 1 {
                    concept.clone()
                } else {
                    nlg::pluralize(&concept)
                }
            )));
            // Narrate the most-referenced tuples of this relation.
            let ranked = rank_tuples(db, relation, config.max_tuples_per_relation);
            for idx in ranked {
                let row = &table.rows()[idx];
                let named = NamedRow::new(table.schema(), row);
                let text = self.describe_tuple(db, relation, &named)?;
                if !text.is_empty() {
                    sentences.push(text);
                }
            }
        }
        let limit = profile.and_then(|p| p.max_sentences);
        let sentences = match limit {
            Some(max) => nlg::truncate_sentences(&sentences, max),
            None => sentences,
        };
        Ok(join_sentences(&sentences))
    }

    /// Textual summary of a histogram over a numeric column (§2.1 lists
    /// histograms among the derived data worth narrating).
    pub fn describe_histogram(
        &self,
        db: &Database,
        relation: &str,
        column: &str,
        buckets: usize,
    ) -> Result<String, TalkbackError> {
        let table = db.table(relation).ok_or_else(|| {
            TalkbackError::Store(datastore::StoreError::UnknownTable {
                table: relation.to_string(),
            })
        })?;
        let Some(h) = histogram(table, column, buckets) else {
            return Err(TalkbackError::Unsupported(format!(
                "cannot build a histogram over {relation}.{column}"
            )));
        };
        let concept = nlg::pluralize(&self.lexicon.concept(relation));
        let modal = h.modal_bucket().unwrap_or(0);
        let (lo, hi) = h.bucket_range(modal);
        let mut sentences = vec![finish_sentence(&format!(
            "The {column} of the {} {concept} ranges from {} to {}",
            h.total(),
            h.min,
            h.max
        ))];
        sentences.push(finish_sentence(&format!(
            "most of them ({} of {}) have a {column} between {:.0} and {:.0}",
            h.buckets[modal],
            h.total(),
            lo,
            hi
        )));
        if h.nulls > 0 {
            sentences.push(finish_sentence(&format!(
                "{} {concept} have no recorded {column}",
                h.nulls
            )));
        }
        Ok(join_sentences(&sentences))
    }

    /// Textual summary of a column (distinct counts, extremes, most common
    /// values).
    pub fn describe_column(
        &self,
        db: &Database,
        relation: &str,
        column: &str,
    ) -> Result<String, TalkbackError> {
        let table = db.table(relation).ok_or_else(|| {
            TalkbackError::Store(datastore::StoreError::UnknownTable {
                table: relation.to_string(),
            })
        })?;
        let Some(summary) = summarize_column(table, column) else {
            return Err(TalkbackError::Unsupported(format!(
                "unknown column {relation}.{column}"
            )));
        };
        let concept = nlg::pluralize(&self.lexicon.concept(relation));
        let mut sentences = vec![finish_sentence(&format!(
            "Across {} {concept}, {column} takes {} distinct values",
            summary.non_null + summary.nulls,
            summary.distinct
        ))];
        if let (Some(min), Some(max)) = (&summary.min, &summary.max) {
            sentences.push(finish_sentence(&format!(
                "values range from {} to {}",
                min.narrative_form(),
                max.narrative_form()
            )));
        }
        let top = top_values(table, column, 1);
        if let Some((value, count)) = top.first() {
            if *count > 1 {
                sentences.push(finish_sentence(&format!(
                    "the most common value is {} ({} occurrences)",
                    value.narrative_form(),
                    count
                )));
            }
        }
        Ok(join_sentences(&sentences))
    }

    /// Apply a user profile's heading overrides to a database (in place).
    pub fn apply_profile(&self, db: &mut Database, profile: &UserProfile) {
        for (relation, heading) in &profile.heading_overrides {
            if let Some(schema) = db.catalog_mut().table_mut(relation) {
                schema.heading_attribute = Some(heading.clone());
            }
        }
    }
}

/// Rank the tuples of a relation by how many tuples of other relations
/// reference them (a simple interestingness proxy), returning the indices of
/// the top `k` rows; falls back to the first `k` rows for unreferenced
/// relations.
pub fn rank_tuples(db: &Database, relation: &str, k: usize) -> Vec<usize> {
    let Some(table) = db.table(relation) else {
        return Vec::new();
    };
    let incoming = db.catalog().foreign_keys_to(relation);
    let mut scored: Vec<(usize, usize)> = table
        .rows()
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let score: usize = incoming
                .iter()
                .map(|fk| db.referencing_rows(fk, row).len())
                .sum();
            (i, score)
        })
        .collect();
    scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.into_iter().take(k).map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::sample::{movie_database, scaled_movie_database, ScaleConfig};

    fn translator() -> ContentTranslator {
        ContentTranslator::movie_domain()
    }

    fn woody_row(db: &Database) -> usize {
        db.table("DIRECTOR")
            .unwrap()
            .rows()
            .iter()
            .position(|r| r.get(1) == Some(&Value::text("Woody Allen")))
            .unwrap()
    }

    #[test]
    fn brief_description_matches_the_paper() {
        let db = movie_database();
        let t = translator();
        let table = db.table("DIRECTOR").unwrap();
        let row = &table.rows()[woody_row(&db)];
        let named = NamedRow::new(table.schema(), row);
        assert_eq!(
            t.describe_tuple_brief(&db, "DIRECTOR", &named).unwrap(),
            "The director's name is Woody Allen."
        );
    }

    #[test]
    fn merged_tuple_description_matches_the_paper() {
        let db = movie_database();
        let t = translator();
        let table = db.table("DIRECTOR").unwrap();
        let row = &table.rows()[woody_row(&db)];
        let named = NamedRow::new(table.schema(), row);
        assert_eq!(
            t.describe_tuple(&db, "DIRECTOR", &named).unwrap(),
            "Woody Allen was born in Brooklyn, New York, USA on December 1, 1935."
        );
    }

    #[test]
    fn compact_entity_narrative_reproduces_the_woody_allen_text() {
        let db = movie_database();
        let t = translator();
        let text = t
            .describe_entity(
                &db,
                "DIRECTOR",
                "Woody Allen",
                &ContentConfig {
                    forced_style: Some(Style::Compact),
                    ..ContentConfig::standard()
                },
            )
            .unwrap();
        assert!(text
            .starts_with("Woody Allen was born in Brooklyn, New York, USA on December 1, 1935."));
        assert!(text.contains("As a director, Woody Allen's work includes"));
        assert!(text.contains("Match Point (2005)"));
        assert!(text.contains("and Anything Else (2003)"));
    }

    #[test]
    fn procedural_entity_narrative_reproduces_the_second_variant() {
        let db = movie_database();
        let t = translator();
        let text = t
            .describe_entity(
                &db,
                "DIRECTOR",
                "Woody Allen",
                &ContentConfig {
                    forced_style: Some(Style::Procedural),
                    ..ContentConfig::standard()
                },
            )
            .unwrap();
        assert!(text.contains("work includes Match Point, Melinda and Melinda, Anything Else."));
        assert!(text.contains("Match Point was released in 2005."));
        assert!(text.contains("Anything Else was released in 2003."));
    }

    #[test]
    fn automatic_style_prefers_compact_for_small_content() {
        let db = movie_database();
        let t = translator();
        let auto = t
            .describe_entity(&db, "DIRECTOR", "Woody Allen", &ContentConfig::standard())
            .unwrap();
        // Three movies and four attributes are within the compact bounds.
        assert!(auto.contains("Match Point (2005)"));
    }

    #[test]
    fn split_pattern_sentence_for_a_movie() {
        let db = movie_database();
        let t = translator();
        let text = t.describe_split(&db, "MOVIES", "Troy").unwrap();
        assert!(text.starts_with("The movie Troy involves"));
        assert!(text.contains("the director Sofia Ricci who was born in Rome, Italy"));
        assert!(text.contains("and"));
        assert!(text.contains("the actor Brad Pitt"));
    }

    #[test]
    fn database_summary_respects_budgets_and_profiles() {
        let db = movie_database();
        let t = translator();
        let full = t
            .describe_database(&db, &ContentConfig::standard(), None)
            .unwrap();
        assert!(full.contains("The database contains 10 movies."));
        assert!(full.contains("directors"));

        let profile = UserProfile {
            name: "brief".into(),
            relation_weights: vec![("DIRECTOR".into(), 5.0)],
            max_sentences: Some(3),
            max_relations: Some(2),
            ..UserProfile::default()
        };
        let brief = t
            .describe_database(&db, &ContentConfig::standard(), Some(&profile))
            .unwrap();
        assert!(brief.len() < full.len());
        assert!(brief.contains("…"));
    }

    #[test]
    fn heading_override_changes_the_subject() {
        let mut db = movie_database();
        let t = translator();
        let profile = UserProfile {
            name: "by-location".into(),
            heading_overrides: vec![("DIRECTOR".into(), "blocation".into())],
            ..UserProfile::default()
        };
        t.apply_profile(&mut db, &profile);
        assert_eq!(
            db.catalog().table("DIRECTOR").unwrap().effective_heading(),
            "blocation"
        );
    }

    #[test]
    fn histogram_and_column_summaries_are_narrated() {
        let db = movie_database();
        let t = translator();
        let h = t.describe_histogram(&db, "MOVIES", "year", 4).unwrap();
        assert!(h.contains("year"));
        assert!(h.contains("ranges from 1980 to 2006"));
        let c = t.describe_column(&db, "GENRE", "genre").unwrap();
        assert!(c.contains("distinct values"));
        assert!(c.contains("most common value is drama"));
        assert!(t.describe_histogram(&db, "MOVIES", "title", 3).is_err());
    }

    #[test]
    fn ranking_prefers_referenced_tuples() {
        let db = movie_database();
        // Movie 10 ("The Return", 2006) has 2 cast entries + 2 genres + 1
        // directed = 5 references; movie 4 has 2 cast + 2 genres + 1 = 5 too;
        // either way the top entries must be more referenced than the rest.
        let ranked = rank_tuples(&db, "MOVIES", 3);
        assert_eq!(ranked.len(), 3);
        let incoming = db.catalog().foreign_keys_to("MOVIES");
        let score = |idx: usize| -> usize {
            let row = &db.table("MOVIES").unwrap().rows()[idx];
            incoming
                .iter()
                .map(|fk| db.referencing_rows(fk, row).len())
                .sum()
        };
        let min_ranked = ranked.iter().map(|&i| score(i)).min().unwrap();
        let all: Vec<usize> = (0..db.table("MOVIES").unwrap().len()).collect();
        let max_unranked = all
            .iter()
            .filter(|i| !ranked.contains(i))
            .map(|&i| score(i))
            .max()
            .unwrap();
        assert!(min_ranked >= max_unranked);
    }

    #[test]
    fn unknown_entities_and_relations_error_cleanly() {
        let db = movie_database();
        let t = translator();
        assert!(t
            .describe_entity(&db, "DIRECTOR", "Nobody", &ContentConfig::standard())
            .is_err());
        assert!(t
            .describe_entity(&db, "NOPE", "x", &ContentConfig::standard())
            .is_err());
        assert!(t.describe_histogram(&db, "NOPE", "x", 3).is_err());
    }

    #[test]
    fn scaled_databases_summarize_without_error() {
        let db = scaled_movie_database(ScaleConfig {
            movies: 50,
            ..ScaleConfig::default()
        });
        let t = translator();
        let text = t
            .describe_database(
                &db,
                &ContentConfig {
                    max_tuples_per_relation: 1,
                    ..ContentConfig::standard()
                },
                None,
            )
            .unwrap();
        assert!(text.contains("The database contains 50 movies."));
    }
}
