//! Minimal CSV-style import/export for tables.
//!
//! The reproduction keeps everything in memory, but examples and tests want
//! to load small fixture files and dump query answers; this module provides
//! a dependency-free CSV dialect (comma separated, double-quote quoting,
//! first line is the header).

use crate::error::StoreError;
use crate::schema::TableSchema;
use crate::table::Table;
use crate::value::{DataType, Date, Value};

/// Serialize a table (header + rows) as CSV text.
pub fn table_to_csv(table: &Table) -> String {
    let mut out = String::new();
    let header: Vec<String> = table
        .schema()
        .columns
        .iter()
        .map(|c| escape(&c.name))
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in table.rows() {
        let cells: Vec<String> = row
            .values()
            .iter()
            .map(|v| match v {
                Value::Null => String::new(),
                Value::Date(d) => escape(&d.iso_format()),
                other => escape(&other.to_string()),
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Parse CSV text into rows of raw string fields. Handles quoted fields with
/// embedded commas, quotes and newlines.
pub fn parse_csv(text: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        field.push('"');
                        chars.next();
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    row.push(std::mem::take(&mut field));
                }
                '\r' => {}
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                _ => field.push(c),
            }
        }
    }
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    rows
}

/// Load CSV text into a table with the given schema. The first CSV line must
/// be a header whose column names match the schema (case-insensitive,
/// order-insensitive).
pub fn csv_to_table(schema: TableSchema, text: &str) -> Result<Table, StoreError> {
    let rows = parse_csv(text);
    let mut table = Table::new(schema);
    let Some(header) = rows.first() else {
        return Ok(table);
    };
    // Map CSV column position -> schema column position.
    let mut mapping: Vec<Option<usize>> = Vec::with_capacity(header.len());
    for name in header {
        mapping.push(table.schema().column_index(name));
    }
    for record in rows.iter().skip(1) {
        let mut values = vec![Value::Null; table.schema().arity()];
        for (i, cell) in record.iter().enumerate() {
            if let Some(Some(target)) = mapping.get(i) {
                let dt = table.schema().columns[*target].data_type;
                values[*target] = parse_cell(cell, dt);
            }
        }
        table.insert(crate::tuple::Row::new(values))?;
    }
    Ok(table)
}

fn parse_cell(cell: &str, dt: DataType) -> Value {
    if cell.is_empty() {
        return Value::Null;
    }
    match dt {
        DataType::Integer => cell
            .parse::<i64>()
            .map(Value::Integer)
            .unwrap_or(Value::Null),
        DataType::Float => cell.parse::<f64>().map(Value::Float).unwrap_or(Value::Null),
        DataType::Boolean => match cell.to_ascii_lowercase().as_str() {
            "true" | "t" | "1" | "yes" => Value::Boolean(true),
            "false" | "f" | "0" | "no" => Value::Boolean(false),
            _ => Value::Null,
        },
        DataType::Date => Date::parse_iso(cell)
            .map(Value::Date)
            .unwrap_or(Value::Null),
        DataType::Text => Value::Text(cell.into()),
    }
}

fn escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn schema() -> TableSchema {
        TableSchema::new(
            "MOVIES",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("title", DataType::Text),
                ColumnDef::nullable("year", DataType::Integer),
                ColumnDef::nullable("released", DataType::Date),
            ],
        )
        .with_primary_key(&["id"])
    }

    #[test]
    fn round_trip_preserves_values() {
        let mut t = Table::new(schema());
        t.insert_values(vec![
            Value::int(1),
            Value::text("Match, Point"),
            Value::int(2005),
            Value::Date(Date::new(2005, 10, 28).unwrap()),
        ])
        .unwrap();
        t.insert_values(vec![
            Value::int(2),
            Value::text("He said \"hi\""),
            Value::Null,
            Value::Null,
        ])
        .unwrap();
        let csv = table_to_csv(&t);
        let back = csv_to_table(schema(), &csv).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.rows()[0], t.rows()[0]);
        assert_eq!(back.rows()[1], t.rows()[1]);
    }

    #[test]
    fn parse_csv_handles_quotes_and_newlines() {
        let rows = parse_csv("a,\"b,c\",\"d\"\"e\"\n1,\"two\nlines\",3\n");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec!["a", "b,c", "d\"e"]);
        assert_eq!(rows[1][1], "two\nlines");
    }

    #[test]
    fn header_mapping_is_order_insensitive() {
        let csv = "title,id,year\nTroy,6,2004\n";
        let t = csv_to_table(schema(), csv).unwrap();
        assert_eq!(t.rows()[0].get(0), Some(&Value::int(6)));
        assert_eq!(t.rows()[0].get(1), Some(&Value::text("Troy")));
    }

    #[test]
    fn unparseable_cells_become_null() {
        // Use a fully-nullable schema so the NULLs produced by unparseable
        // cells are accepted by the insertion path.
        let lenient = TableSchema::new(
            "MOVIES",
            vec![
                ColumnDef::nullable("id", DataType::Integer),
                ColumnDef::nullable("title", DataType::Text),
                ColumnDef::nullable("year", DataType::Integer),
            ],
        );
        let csv = "id,title,year\nnot-a-number,Troy,xyz\n";
        let t = csv_to_table(lenient, csv).unwrap();
        assert_eq!(t.rows()[0].get(0), Some(&Value::Null));
        assert_eq!(t.rows()[0].get(2), Some(&Value::Null));
    }

    #[test]
    fn non_nullable_schema_rejects_unparseable_required_cells() {
        let csv = "id,title,year\nnot-a-number,Troy,2004\n";
        assert!(csv_to_table(schema(), csv).is_err());
    }

    #[test]
    fn empty_text_gives_empty_table() {
        let t = csv_to_table(schema(), "").unwrap();
        assert!(t.is_empty());
    }
}
