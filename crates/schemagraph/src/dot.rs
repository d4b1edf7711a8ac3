//! Graphviz DOT export of schema graphs and query graphs.
//!
//! The paper's figures are diagrams of exactly these two structures
//! (Figure 1 is the schema graph; Figures 3–7 are query graphs), so the
//! reproduction regenerates them as DOT text that can be rendered with
//! `dot -Tpng`.

use crate::query_graph::{NestingConnector, QueryGraph};
use crate::schema_graph::SchemaGraph;
use std::fmt::Write as _;

fn escape(s: &str) -> String {
    s.replace('"', "\\\"")
}

/// Render the schema graph (relations, attributes, projection and join
/// edges) as DOT. Attribute nodes can be suppressed to match the paper's
/// Figure 1, which "for clarity of presentation" shows only relation nodes
/// and join edges.
pub fn schema_graph_to_dot(graph: &SchemaGraph, include_attributes: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph schema {{");
    let _ = writeln!(out, "  node [shape=box];");
    for (i, rel) in graph.relations.iter().enumerate() {
        let _ = writeln!(
            out,
            "  r{} [label=\"{}\" penwidth=2];",
            i,
            escape(&rel.name)
        );
    }
    if include_attributes {
        for (i, attr) in graph.attributes.iter().enumerate() {
            let _ = writeln!(
                out,
                "  a{} [label=\"{}\" shape=ellipse];",
                i,
                escape(&attr.name)
            );
        }
        for edge in &graph.projection_edges {
            let _ = writeln!(
                out,
                "  r{} -- a{} [style=dotted];",
                edge.relation, edge.attribute
            );
        }
    }
    for edge in &graph.join_edges {
        let label = format!(
            "{} = {}",
            edge.from_columns.join(","),
            edge.to_columns.join(",")
        );
        let _ = writeln!(
            out,
            "  r{} -- r{} [label=\"{}\"];",
            edge.from,
            edge.to,
            escape(&label)
        );
    }
    let _ = writeln!(out, "}}");
    out
}

/// Render a query graph as DOT. Each relation class becomes a record-shaped
/// node with its `<<FROM>>`, `<<SELECT>>`, `<<WHERE>>` and `<<HAVING>>`
/// compartments (Figure 2); join edges connect classes; nested blocks are
/// clustered and connected by labelled nesting edges (Figure 7).
pub fn query_graph_to_dot(graph: &QueryGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph query {{");
    let _ = writeln!(out, "  compound=true;");
    let _ = writeln!(out, "  node [shape=record];");
    for (b, block) in graph.blocks.iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_{b} {{");
        let _ = writeln!(
            out,
            "    label=\"{}\";",
            if b == 0 {
                "Q".to_string()
            } else {
                format!("NQ{b}")
            }
        );
        for (c, class) in block.classes.iter().enumerate() {
            let select = class
                .select
                .iter()
                .map(|s| match &s.output_alias {
                    Some(a) => format!("{}: {}", s.column, a),
                    None => s.column.clone(),
                })
                .collect::<Vec<_>>()
                .join("\\n");
            let where_part = class.where_constraints.join("\\n");
            let having_part = class.having_constraints.join("\\n");
            let label = format!(
                "{{&lt;&lt;alias&gt;&gt; {}|&lt;&lt;FROM&gt;&gt; {}|&lt;&lt;SELECT&gt;&gt; {}|&lt;&lt;WHERE&gt;&gt; {}|&lt;&lt;HAVING&gt;&gt; {}}}",
                escape(&class.alias),
                escape(&class.relation),
                escape(&select),
                escape(&where_part),
                escape(&having_part)
            );
            let _ = writeln!(out, "    b{b}c{c} [label=\"{label}\"];");
        }
        if !block.group_by.is_empty() {
            let _ = writeln!(
                out,
                "    b{b}group [shape=note label=\"GROUP BY\\n{}\"];",
                escape(&block.group_by.join("\\n"))
            );
        }
        if !block.order_by.is_empty() {
            let _ = writeln!(
                out,
                "    b{b}order [shape=note label=\"ORDER BY\\n{}\"];",
                escape(&block.order_by.join("\\n"))
            );
        }
        for join in &block.joins {
            let _ = writeln!(
                out,
                "    b{b}c{} -> b{b}c{} [dir=none label=\"{}\"{}];",
                join.left,
                join.right,
                escape(&join.predicate),
                if join.is_foreign_key {
                    ""
                } else {
                    " style=dashed"
                }
            );
        }
        let _ = writeln!(out, "  }}");
    }
    for edge in &graph.nesting {
        // Connect the first class of each block (or the cluster itself when
        // a block has no FROM item).
        let outer_anchor = format!("b{}c0", edge.outer_block);
        let inner_anchor = format!("b{}c0", edge.inner_block);
        let _ = writeln!(
            out,
            "  {outer_anchor} -> {inner_anchor} [label=\"{}\" lhead=cluster_{} style=bold{}];",
            escape(&connector_label(&edge.connector)),
            edge.inner_block,
            if edge.correlated { " color=blue" } else { "" }
        );
    }
    let _ = writeln!(out, "}}");
    out
}

/// A nesting edge's label: `IN`, `NOT EXISTS`, `<= ALL`, `scalar`.
pub fn connector_label(connector: &NestingConnector) -> String {
    match connector {
        NestingConnector::In { negated: false } => "IN".to_string(),
        NestingConnector::In { negated: true } => "NOT IN".to_string(),
        NestingConnector::Exists { negated: false } => "EXISTS".to_string(),
        NestingConnector::Exists { negated: true } => "NOT EXISTS".to_string(),
        NestingConnector::Quantified { op, all } => {
            format!("{} {}", op.sql(), if *all { "ALL" } else { "ANY" })
        }
        NestingConnector::Scalar => "scalar".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_graph::QueryGraph;
    use crate::schema_graph::SchemaGraph;
    use datastore::sample::movie_database;
    use sqlparse::parse_query;

    #[test]
    fn figure1_dot_lists_relations_and_join_edges() {
        let db = movie_database();
        let g = SchemaGraph::from_catalog(db.catalog());
        let dot = schema_graph_to_dot(&g, false);
        for rel in ["MOVIES", "DIRECTOR", "DIRECTED", "ACTOR", "CAST", "GENRE"] {
            assert!(dot.contains(rel), "missing {rel} in DOT output");
        }
        assert_eq!(dot.matches(" -- ").count(), 5);
        assert!(!dot.contains("ellipse"));
        let with_attrs = schema_graph_to_dot(&g, true);
        assert!(with_attrs.contains("ellipse"));
        assert!(with_attrs.matches("style=dotted").count() >= 17);
    }

    #[test]
    fn query_graph_dot_has_uml_compartments_and_nesting() {
        let db = movie_database();
        let q = parse_query(
            "select m.id, m.title, count(*) from MOVIES m, CAST c where m.id = c.mid \
             group by m.id, m.title having 1 < (select count(*) from GENRE g where g.mid = m.id)",
        )
        .unwrap();
        let g = QueryGraph::from_query(db.catalog(), &q).unwrap();
        let dot = query_graph_to_dot(&g);
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("cluster_1"));
        assert!(dot.contains("NQ1"));
        assert!(dot.contains("FROM"));
        assert!(dot.contains("GROUP BY"));
        assert!(dot.contains("scalar"));
    }

    #[test]
    fn non_fk_joins_are_dashed() {
        let db = movie_database();
        let q = parse_query(
            "select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = m.title",
        )
        .unwrap();
        let g = QueryGraph::from_query(db.catalog(), &q).unwrap();
        let dot = query_graph_to_dot(&g);
        assert!(dot.contains("style=dashed"));
    }
}
