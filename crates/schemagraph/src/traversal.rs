//! Traversal of the schema graph.
//!
//! Section 2.2: "the translation of the contents of a whole database
//! containing multiple relations … can be realized in several ways, e.g.
//! with a simple DFS-like traversal starting from a central point of
//! interest". Traversals are also where the size-limiting structural
//! constraints live: weights decide which neighbours are visited first and a
//! budget bounds how many relations the narrative covers.

use crate::schema_graph::SchemaGraph;

/// One step of a traversal: the relation reached and (except for the start)
/// the relation it was reached from through which join edge.
#[derive(Debug, Clone, PartialEq)]
pub struct TraversalStep {
    /// Relation node index in the schema graph.
    pub relation: usize,
    /// Relation this one was reached from (`None` for the start node).
    pub reached_from: Option<usize>,
    /// Index into `graph.join_edges` of the edge used (`None` for the start).
    pub via_edge: Option<usize>,
    /// Depth from the start (0 for the start).
    pub depth: usize,
}

/// A complete traversal plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraversalPlan {
    pub steps: Vec<TraversalStep>,
}

impl TraversalPlan {
    /// The relation indices in visit order.
    pub fn order(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.relation).collect()
    }

    /// True when the plan contains a relation.
    pub fn visits(&self, relation: usize) -> bool {
        self.steps.iter().any(|s| s.relation == relation)
    }
}

/// Configuration of a traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraversalConfig {
    /// Maximum number of relations to visit (the structural size constraint
    /// of §2.2). `usize::MAX` means unbounded.
    pub max_relations: usize,
    /// Maximum depth from the start relation.
    pub max_depth: usize,
    /// When true, neighbours are visited in descending weight order
    /// (weighted traversal); otherwise in graph order (plain DFS).
    pub weighted: bool,
}

impl Default for TraversalConfig {
    fn default() -> Self {
        TraversalConfig {
            max_relations: usize::MAX,
            max_depth: usize::MAX,
            weighted: true,
        }
    }
}

/// Depth-first traversal of the schema graph starting from `start`
/// (defaults to the central relation when `None`), honouring the config's
/// bounds. Each relation is visited at most once.
pub fn dfs_traversal(
    graph: &SchemaGraph,
    start: Option<usize>,
    config: TraversalConfig,
) -> TraversalPlan {
    let mut plan = TraversalPlan::default();
    let Some(start) = start.or_else(|| graph.central_relation()) else {
        return plan;
    };
    if graph.relations.is_empty() || config.max_relations == 0 {
        return plan;
    }
    let mut visited = vec![false; graph.relations.len()];
    let mut stack: Vec<(usize, Option<usize>, Option<usize>, usize)> = vec![(start, None, None, 0)];
    while let Some((relation, reached_from, via_edge, depth)) = stack.pop() {
        if visited[relation] || plan.steps.len() >= config.max_relations {
            continue;
        }
        visited[relation] = true;
        plan.steps.push(TraversalStep {
            relation,
            reached_from,
            via_edge,
            depth,
        });
        if depth >= config.max_depth {
            continue;
        }
        // Gather unvisited neighbours with the edge that reaches them.
        let mut neighbours: Vec<(usize, usize, f64)> = Vec::new();
        for (edge_index, edge) in graph.join_edges.iter().enumerate() {
            let other = if edge.from == relation {
                Some(edge.to)
            } else if edge.to == relation {
                Some(edge.from)
            } else {
                None
            };
            if let Some(other) = other {
                if !visited[other] {
                    let score = graph.relations[other].weight * edge.weight;
                    neighbours.push((other, edge_index, score));
                }
            }
        }
        if config.weighted {
            // Sort ascending so that the highest-score neighbour is pushed
            // last and therefore popped (visited) first.
            neighbours.sort_by(|a, b| {
                a.2.partial_cmp(&b.2)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(graph.relations[b.0].name.cmp(&graph.relations[a.0].name))
            });
        } else {
            neighbours.reverse();
        }
        for (other, edge_index, _) in neighbours {
            stack.push((other, Some(relation), Some(edge_index), depth + 1));
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_graph::SchemaGraph;
    use datastore::sample::movie_database;

    fn graph() -> SchemaGraph {
        SchemaGraph::from_catalog(movie_database().catalog())
    }

    #[test]
    fn dfs_visits_every_relation_once_when_unbounded() {
        let g = graph();
        let plan = dfs_traversal(&g, None, TraversalConfig::default());
        assert_eq!(plan.steps.len(), g.relation_count());
        let mut order = plan.order();
        order.sort_unstable();
        order.dedup();
        assert_eq!(order.len(), g.relation_count());
        // The default start is the central relation (MOVIES).
        assert_eq!(g.relations[plan.steps[0].relation].name, "MOVIES");
    }

    #[test]
    fn max_relations_bounds_the_plan() {
        let g = graph();
        let plan = dfs_traversal(
            &g,
            None,
            TraversalConfig {
                max_relations: 3,
                ..TraversalConfig::default()
            },
        );
        assert_eq!(plan.steps.len(), 3);
    }

    #[test]
    fn max_depth_bounds_the_plan() {
        let g = graph();
        let movies = g.relation_index("MOVIES").unwrap();
        let plan = dfs_traversal(
            &g,
            Some(movies),
            TraversalConfig {
                max_depth: 1,
                ..TraversalConfig::default()
            },
        );
        // MOVIES plus its direct neighbours (DIRECTED, CAST, GENRE).
        assert_eq!(plan.steps.len(), 4);
        assert!(plan.steps.iter().all(|s| s.depth <= 1));
    }

    #[test]
    fn weights_steer_the_visit_order() {
        let mut g = graph();
        g.set_relation_weight("GENRE", 10.0);
        let movies = g.relation_index("MOVIES").unwrap();
        let plan = dfs_traversal(&g, Some(movies), TraversalConfig::default());
        let genre = g.relation_index("GENRE").unwrap();
        // GENRE is visited immediately after MOVIES because of its weight.
        assert_eq!(plan.steps[1].relation, genre);
    }

    #[test]
    fn starting_relation_can_be_chosen() {
        let g = graph();
        let director = g.relation_index("DIRECTOR").unwrap();
        let plan = dfs_traversal(&g, Some(director), TraversalConfig::default());
        assert_eq!(plan.steps[0].relation, director);
        assert!(plan.visits(g.relation_index("ACTOR").unwrap()));
        // Only DIRECTED is adjacent.
        let reached = plan
            .steps
            .iter()
            .filter(|s| s.reached_from == Some(director));
        assert_eq!(reached.count(), 1);
    }

    #[test]
    fn empty_graph_and_zero_budget_give_empty_plans() {
        let empty = SchemaGraph::default();
        assert!(dfs_traversal(&empty, None, TraversalConfig::default())
            .steps
            .is_empty());
        let g = graph();
        let plan = dfs_traversal(
            &g,
            None,
            TraversalConfig {
                max_relations: 0,
                ..TraversalConfig::default()
            },
        );
        assert!(plan.steps.is_empty());
    }
}
