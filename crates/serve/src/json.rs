//! The serving API's JSON types, re-exported from their one home: the
//! document model and parser in [`midas_obs::json`], the graph decoders in
//! [`midas_graph::io`].

pub use midas_graph::io::graphs_from_value;
pub use midas_obs::json::Value;

#[cfg(test)]
mod tests {
    //! `servebench`, a workspace of its own that `cargo test` never
    //! builds, imports exactly these two names; these tests keep that
    //! surface compiling and decoding the wire format.

    use super::{graphs_from_value, Value};
    use midas_graph::GraphBuilder;

    #[test]
    fn graph_conversion_validates() {
        let ok = Value::parse("[{\"labels\": [0, 1], \"edges\": [[0, 1]]}]").unwrap();
        let gs = graphs_from_value(&ok).unwrap();
        assert_eq!(gs.len(), 1);
        assert_eq!(gs[0].vertex_count(), 2);
        for bad in [
            "[{\"labels\": [0], \"edges\": [[0, 1]]}]",
            "[{\"labels\": [0, 0], \"edges\": [[1, 1]]}]",
            "[{\"labels\": [0, 0], \"edges\": [[0, 1], [1, 0]]}]",
            "[{\"edges\": []}]",
            "{\"labels\": [0], \"edges\": []}",
        ] {
            let v = Value::parse(bad).unwrap();
            assert!(graphs_from_value(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn graph_roundtrips_through_io_format() {
        let g = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .path(&[0, 1, 2])
            .build();
        let json = midas_graph::io::patterns_to_json(std::slice::from_ref(&g)).unwrap();
        let v = Value::parse(&json).unwrap();
        assert_eq!(graphs_from_value(&v).unwrap(), vec![g]);
    }
}
