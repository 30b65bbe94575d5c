//! The graph wire format: pattern sets and update batches as JSON.
//!
//! A graph is `{"labels": [0, 1], "edges": [[0, 1]]}`; a pattern set is an
//! array of graphs; a batch is `{"insert": [graph, ...], "delete": [id,
//! ...]}`. The encoders are hand-rolled for exactly these shapes (the
//! serving read path renders every `GET /patterns` body with
//! [`patterns_to_json`]). The decoders work on a document already parsed
//! by [`midas_obs::json::Value::parse`], the workspace's one JSON parser,
//! and validate the graphs: edge endpoints in range, no self-loops, no
//! duplicate edges.

use crate::db::{BatchUpdate, GraphId};
use crate::graph::LabeledGraph;
use midas_obs::json::Value;

/// Serialization/deserialization errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}
impl std::error::Error for Error {}

/// Result alias for this module.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a pattern set to JSON.
pub fn patterns_to_json(patterns: &[LabeledGraph]) -> Result<String> {
    let mut out = String::new();
    out.push('[');
    for (i, g) in patterns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_graph(&mut out, g);
    }
    out.push(']');
    Ok(out)
}

/// Serializes a batch update to JSON:
/// `{"insert": [graph, ...], "delete": [id, ...]}` — the wire format of
/// the serving daemon's `POST /v1/{tenant}/updates` endpoint.
pub fn batch_to_json(batch: &BatchUpdate) -> Result<String> {
    let mut out = String::new();
    out.push_str("{\"insert\":[");
    for (i, g) in batch.insert.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_graph(&mut out, g);
    }
    out.push_str("],\"delete\":[");
    for (i, id) in batch.delete.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&id.0.to_string());
    }
    out.push_str("]}");
    Ok(out)
}

fn write_graph(out: &mut String, g: &LabeledGraph) {
    out.push_str("{\"labels\":[");
    for (i, l) in g.labels().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&l.to_string());
    }
    out.push_str("],\"edges\":[");
    for (i, &(u, v)) in g.edges().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        out.push_str(&u.to_string());
        out.push(',');
        out.push_str(&v.to_string());
        out.push(']');
    }
    out.push_str("]}");
}

/// Converts a `{"labels": [...], "edges": [[u, v], ...]}` object into a
/// validated [`LabeledGraph`].
pub fn graph_from_value(v: &Value) -> std::result::Result<LabeledGraph, String> {
    let labels: Vec<u32> = v
        .get("labels")
        .and_then(Value::as_arr)
        .ok_or("graph missing \"labels\" array")?
        .iter()
        .map(|l| as_u32(l).ok_or_else(|| "label out of u32 range".to_owned()))
        .collect::<std::result::Result<_, _>>()?;
    let n = labels.len() as u32;
    let mut g = LabeledGraph::from_parts(labels, &[]);
    for pair in v
        .get("edges")
        .and_then(Value::as_arr)
        .ok_or("graph missing \"edges\" array")?
    {
        let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or("bad edge")?;
        let (u, w) = match (as_u32(&pair[0]), as_u32(&pair[1])) {
            (Some(u), Some(w)) => (u, w),
            _ => return Err("bad edge endpoint".into()),
        };
        if u >= n || w >= n || u == w {
            return Err(format!("invalid edge ({u}, {w}) for {n} vertices"));
        }
        if g.has_edge(u, w) {
            return Err(format!("duplicate edge ({u}, {w})"));
        }
        g.add_edge(u, w);
    }
    Ok(g)
}

fn as_u32(v: &Value) -> Option<u32> {
    v.as_u64().and_then(|n| u32::try_from(n).ok())
}

/// Converts an array of graph objects (a pattern set).
pub fn graphs_from_value(v: &Value) -> std::result::Result<Vec<LabeledGraph>, String> {
    v.as_arr()
        .ok_or("expected an array of graphs")?
        .iter()
        .map(graph_from_value)
        .collect()
}

/// Converts a `{"insert": [...], "delete": [...]}` document into a
/// [`BatchUpdate`]. Both keys are optional; a missing one is empty.
pub fn batch_from_value(doc: &Value) -> std::result::Result<BatchUpdate, String> {
    let insert = match doc.get("insert") {
        Some(v) => graphs_from_value(v)?,
        None => Vec::new(),
    };
    let delete = match doc.get("delete") {
        Some(v) => v
            .as_arr()
            .ok_or("\"delete\" must be an array of ids")?
            .iter()
            .map(|id| id.as_u64().map(GraphId).ok_or("bad graph id"))
            .collect::<std::result::Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    Ok(BatchUpdate { insert, delete })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn parse_graphs(json: &str) -> std::result::Result<Vec<LabeledGraph>, String> {
        graphs_from_value(&Value::parse(json)?)
    }

    fn parse_batch(json: &str) -> std::result::Result<BatchUpdate, String> {
        batch_from_value(&Value::parse(json)?)
    }

    #[test]
    fn patterns_roundtrip() {
        let patterns = vec![path(&[0, 1, 2]), path(&[4, 4])];
        let json = patterns_to_json(&patterns).expect("serialize");
        assert_eq!(
            json,
            "[{\"labels\":[0,1,2],\"edges\":[[0,1],[1,2]]},{\"labels\":[4,4],\"edges\":[[0,1]]}]"
        );
        assert_eq!(parse_graphs(&json).expect("deserialize"), patterns);
    }

    #[test]
    fn batch_roundtrips_through_json() {
        let batch = BatchUpdate {
            insert: vec![path(&[0, 1, 2]), path(&[7])],
            delete: vec![GraphId(3), GraphId(11)],
        };
        let json = batch_to_json(&batch).expect("serialize");
        let back = parse_batch(&json).expect("deserialize");
        assert_eq!(back.insert, batch.insert);
        assert_eq!(back.delete, batch.delete);

        let empty = BatchUpdate::default();
        let back = parse_batch(&batch_to_json(&empty).unwrap()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn batch_keys_are_optional() {
        assert!(parse_batch("{}").unwrap().is_empty());
        let only_delete = parse_batch("{\"delete\": [4]}").unwrap();
        assert_eq!(only_delete.delete, vec![GraphId(4)]);
        assert!(only_delete.insert.is_empty());
        let only_insert = parse_batch("{\"insert\": [{\"labels\": [1], \"edges\": []}]}").unwrap();
        assert_eq!(only_insert.insert, vec![path(&[1])]);
        assert!(only_insert.delete.is_empty());
    }

    #[test]
    fn malformed_batch_json_is_an_error() {
        assert!(parse_batch("{\"insert\":[],\"delete\":[]} x").is_err());
        assert!(
            parse_batch("{\"insert\":[{\"labels\":[0],\"edges\":[[0,1]]}],\"delete\":[]}").is_err()
        );
        assert!(parse_batch("{\"insert\":{},\"delete\":[]}").is_err());
        assert!(parse_batch("{\"delete\":3}").is_err());
        assert!(parse_batch("{\"delete\":[-1]}").is_err());
        assert!(parse_batch("{\"delete\":[1.5]}").is_err());
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(parse_graphs("[").is_err());
        assert!(parse_graphs("").is_err());
        assert!(parse_graphs("[{}").is_err());
        assert!(parse_graphs("[] trailing").is_err());
        assert!(parse_graphs("{}").is_err());
        assert!(parse_graphs("[{\"edges\": []}]").is_err());
        assert!(parse_graphs("[{\"labels\": [4294967296], \"edges\": []}]").is_err());
    }

    #[test]
    fn whitespace_is_tolerated() {
        let json = "[ { \"labels\" : [ 0 , 1 ] , \"edges\" : [ [ 0 , 1 ] ] } ]";
        let back = parse_graphs(json).expect("deserialize");
        assert_eq!(back, vec![path(&[0, 1])]);
    }

    #[test]
    fn invalid_edges_are_rejected() {
        // Out of range endpoint.
        assert!(parse_graphs("[{\"labels\":[0],\"edges\":[[0,1]]}]").is_err());
        // Self loop.
        assert!(parse_graphs("[{\"labels\":[0,0],\"edges\":[[1,1]]}]").is_err());
        // Duplicate edge.
        assert!(parse_graphs("[{\"labels\":[0,0],\"edges\":[[0,1],[1,0]]}]").is_err());
        // Endpoint past u32 (must not wrap around to vertex 0).
        assert!(parse_graphs("[{\"labels\":[0,0],\"edges\":[[4294967296,1]]}]").is_err());
        // Not a pair.
        assert!(parse_graphs("[{\"labels\":[0,0,0],\"edges\":[[0,1,2]]}]").is_err());
    }

    #[test]
    fn empty_batch_and_empty_patterns() {
        assert_eq!(patterns_to_json(&[]).unwrap(), "[]");
        assert!(parse_graphs("[]").unwrap().is_empty());
        let empty = batch_to_json(&BatchUpdate::default()).unwrap();
        assert_eq!(empty, "{\"insert\":[],\"delete\":[]}");
        assert!(parse_batch(&empty).unwrap().is_empty());
    }
}
