//! The database schema graph of §2.2 (Figure 1).
//!
//! Relations and attributes are nodes; each attribute is connected to its
//! relation by a *projection edge*, and primary-key/foreign-key relationships
//! become *join edges* between relation nodes. Nodes and edges carry weights
//! that the content translator uses to steer and bound its traversal
//! ("structural constraints affecting the traversal … based on weights on
//! its nodes and/or edges").

use datastore::Catalog;

/// A relation node of the schema graph.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationNode {
    /// Relation name (catalog spelling).
    pub name: String,
    /// Conceptual, real-world meaning ("movie").
    pub concept: String,
    /// Heading attribute used as the subject of sentences about its tuples.
    pub heading: String,
    /// Traversal weight; higher means more interesting.
    pub weight: f64,
}

/// An attribute node of the schema graph.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeNode {
    /// Index of the owning relation node.
    pub relation: usize,
    /// Attribute name.
    pub name: String,
    /// Weight used when selecting which attributes to narrate.
    pub weight: f64,
}

/// A projection edge from a relation to one of its attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionEdge {
    pub relation: usize,
    pub attribute: usize,
    pub weight: f64,
}

/// A join edge between two relation nodes, derived from a foreign key.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinEdge {
    /// Referencing relation node (FK side).
    pub from: usize,
    /// Referenced relation node (PK side).
    pub to: usize,
    /// Referencing columns.
    pub from_columns: Vec<String>,
    /// Referenced columns.
    pub to_columns: Vec<String>,
    pub weight: f64,
}

/// The schema graph.
#[derive(Debug, Clone, Default)]
pub struct SchemaGraph {
    pub relations: Vec<RelationNode>,
    pub attributes: Vec<AttributeNode>,
    pub projection_edges: Vec<ProjectionEdge>,
    pub join_edges: Vec<JoinEdge>,
}

impl SchemaGraph {
    /// Build the schema graph from a catalog: one relation node per table,
    /// one attribute node + projection edge per column, one join edge per
    /// foreign key. All weights start at 1.0.
    pub fn from_catalog(catalog: &Catalog) -> SchemaGraph {
        let mut graph = SchemaGraph::default();
        for table in catalog.tables() {
            let rel_index = graph.relations.len();
            graph.relations.push(RelationNode {
                name: table.name.clone(),
                concept: table.effective_concept(),
                heading: table.effective_heading().to_string(),
                weight: 1.0,
            });
            for column in &table.columns {
                let attr_index = graph.attributes.len();
                graph.attributes.push(AttributeNode {
                    relation: rel_index,
                    name: column.name.clone(),
                    weight: 1.0,
                });
                graph.projection_edges.push(ProjectionEdge {
                    relation: rel_index,
                    attribute: attr_index,
                    weight: 1.0,
                });
            }
        }
        for fk in catalog.foreign_keys() {
            let (Some(from), Some(to)) = (
                graph.relation_index(&fk.table),
                graph.relation_index(&fk.ref_table),
            ) else {
                continue;
            };
            graph.join_edges.push(JoinEdge {
                from,
                to,
                from_columns: fk.columns.clone(),
                to_columns: fk.ref_columns.clone(),
                weight: 1.0,
            });
        }
        graph
    }

    /// Index of a relation node by case-insensitive name.
    pub fn relation_index(&self, name: &str) -> Option<usize> {
        self.relations
            .iter()
            .position(|r| r.name.eq_ignore_ascii_case(name))
    }

    /// The relation node by name.
    pub fn relation(&self, name: &str) -> Option<&RelationNode> {
        self.relation_index(name).map(|i| &self.relations[i])
    }

    /// The join edge between two relations, if one exists (in either
    /// direction).
    pub fn join_between(&self, a: usize, b: usize) -> Option<&JoinEdge> {
        self.join_edges
            .iter()
            .find(|e| (e.from == a && e.to == b) || (e.from == b && e.to == a))
    }

    /// Degree of a relation node in the join graph.
    pub fn join_degree(&self, relation: usize) -> usize {
        self.join_edges
            .iter()
            .filter(|e| e.from == relation || e.to == relation)
            .count()
    }

    /// Set the traversal weight of a relation node. Unknown names are
    /// ignored (personalization profiles may mention relations that are not
    /// in this schema).
    pub fn set_relation_weight(&mut self, name: &str, weight: f64) {
        if let Some(i) = self.relation_index(name) {
            self.relations[i].weight = weight;
        }
    }

    /// The relation with the highest weight (first by weight, ties broken by
    /// join degree then name) — the "central point of interest" a traversal
    /// starts from when the caller does not specify one.
    pub fn central_relation(&self) -> Option<usize> {
        (0..self.relations.len()).max_by(|&a, &b| {
            let wa = self.relations[a].weight;
            let wb = self.relations[b].weight;
            wa.partial_cmp(&wb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(self.join_degree(a).cmp(&self.join_degree(b)))
                .then(self.relations[b].name.cmp(&self.relations[a].name))
        })
    }

    /// Number of relation nodes.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::sample::{movie_catalog, movie_database};

    fn graph() -> SchemaGraph {
        SchemaGraph::from_catalog(movie_database().catalog())
    }

    #[test]
    fn figure1_graph_has_expected_shape() {
        let g = graph();
        assert_eq!(g.relation_count(), 6);
        // 3 + 4 + 2 + 3 + 3 + 2 = 17 attributes and projection edges.
        assert_eq!(g.attributes.len(), 17);
        assert_eq!(g.projection_edges.len(), 17);
        // Five FK join edges (Fig. 1).
        assert_eq!(g.join_edges.len(), 5);
    }

    #[test]
    fn relation_lookup_and_metadata() {
        let g = graph();
        let movies = g.relation("movies").unwrap();
        assert_eq!(movies.heading, "title");
        assert_eq!(movies.concept, "movie");
        assert!(g.relation("UNKNOWN").is_none());
    }

    #[test]
    fn join_navigation() {
        let g = graph();
        let movies = g.relation_index("MOVIES").unwrap();
        let cast = g.relation_index("CAST").unwrap();
        let director = g.relation_index("DIRECTOR").unwrap();
        assert!(g.join_between(movies, cast).is_some());
        assert!(g.join_between(cast, movies).is_some());
        assert!(g.join_between(movies, director).is_none());
        // MOVIES is referenced by DIRECTED, CAST and GENRE.
        assert_eq!(g.join_degree(movies), 3);
        assert_eq!(g.join_degree(director), 1);
    }

    #[test]
    fn weights_and_central_relation() {
        let mut g = graph();
        // With uniform weights the most connected relation (MOVIES) is the
        // central point of interest.
        let central = g.central_relation().unwrap();
        assert_eq!(g.relations[central].name, "MOVIES");
        // Boosting DIRECTOR makes it central.
        g.set_relation_weight("DIRECTOR", 5.0);
        let central = g.central_relation().unwrap();
        assert_eq!(g.relations[central].name, "DIRECTOR");
    }

    #[test]
    fn catalog_without_data_also_builds() {
        let g = SchemaGraph::from_catalog(movie_catalog().catalog());
        assert_eq!(g.relation_count(), 6);
    }
}
