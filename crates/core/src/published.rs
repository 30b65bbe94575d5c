//! Epoch-stamped, `Arc`-swapped publication of the live pattern set.
//!
//! A visual graph query interface serves the canned pattern set to *many*
//! concurrent users while maintenance (`Midas::apply_batch`) mutates it.
//! Readers must never observe a half-swapped set and must never wait for a
//! batch: the multi-scan swap holds `&mut` over the [`PatternStore`] for
//! the whole maintenance round, so handing readers the store itself is a
//! non-starter.
//!
//! [`Published<T>`] is the serving-side answer: an immutable snapshot
//! behind an atomically swapped [`Arc`]. Writers build the next snapshot
//! *off to the side* and [`Published::publish`] it with one pointer store;
//! readers [`Published::read`] an `Arc` clone and keep it for as long as
//! they like. The swap is guarded by an [`RwLock`] held only for the
//! pointer store / pointer clone — nanoseconds — never across any
//! maintenance work, so a reader is never blocked *by a batch*, only (at
//! worst) by another reader's pointer clone. Consistency is structural:
//! a snapshot is immutable once published, so "partially updated" states
//! are unrepresentable.
//!
//! [`PatternSnapshot`] is the payload [`crate::Midas`] publishes at
//! bootstrap and at the end of every `apply_batch`: the pattern graphs, a
//! monotone epoch (batches applied when the snapshot was built), and the
//! graphlet distribution of the database at publish time — enough for a
//! reader to compute its own *staleness* (batches behind + graphlet drift)
//! against a later snapshot without touching `Midas` at all. Its JSON
//! rendering ([`PatternSnapshot::json_fields`]) is made on the first read
//! that asks for it and kept with the snapshot, so a serving daemon renders
//! each published pattern set once, not once per request.
//!
//! [`PatternStore`]: crate::patterns::PatternStore

use midas_graph::graphlets::GraphletDistribution;
use midas_graph::{io, LabeledGraph};
use std::sync::{Arc, OnceLock, RwLock};

/// A shared cell holding the latest published `Arc<T>`.
///
/// Cloning the cell clones the *handle* (both ends see the same slot);
/// cloning never copies the payload. Reads and publishes are wait-free in
/// practice: the internal lock protects only an `Arc` pointer
/// clone/store, so no reader ever waits on in-progress snapshot
/// *construction* — writers assemble the new value before touching the
/// cell.
#[derive(Debug)]
pub struct Published<T> {
    slot: Arc<RwLock<Arc<T>>>,
}

impl<T> Clone for Published<T> {
    fn clone(&self) -> Self {
        Published {
            slot: Arc::clone(&self.slot),
        }
    }
}

impl<T> Published<T> {
    /// Creates a cell with an initial published value.
    pub fn new(value: T) -> Self {
        Published {
            slot: Arc::new(RwLock::new(Arc::new(value))),
        }
    }

    /// The latest published snapshot. The returned `Arc` stays valid (and
    /// immutable) however many publishes happen afterwards.
    pub fn read(&self) -> Arc<T> {
        self.slot.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Atomically replaces the published snapshot. Readers holding the
    /// previous `Arc` keep it; new reads see `value`.
    pub fn publish(&self, value: T) {
        let next = Arc::new(value);
        *self.slot.write().unwrap_or_else(|e| e.into_inner()) = next;
    }
}

impl<T: Default> Default for Published<T> {
    fn default() -> Self {
        Published::new(T::default())
    }
}

/// One immutable publication of the canned pattern set, with everything a
/// reader needs to judge how stale its copy is.
///
/// The snapshot caches its own JSON rendering ([`Self::json_fields`]). The
/// cache does not watch the public fields, so edit an owned snapshot
/// before its first render; a published one sits behind an `Arc` and
/// cannot be edited. A clone starts with an empty cache.
#[derive(Debug, Default)]
pub struct PatternSnapshot {
    /// Batches applied when this snapshot was published (0 = bootstrap).
    /// Monotone per `Midas` instance: `latest.epoch - mine.epoch` is the
    /// "batches behind" staleness of a held snapshot.
    pub epoch: u64,
    /// The canned pattern set as of `epoch`.
    pub patterns: Vec<LabeledGraph>,
    /// Graphlet distribution of the database at publish time.
    /// `mine.graphlets.euclidean_distance(&latest.graphlets)` is the
    /// drift-at-read-time staleness measure (same metric that classifies
    /// batches as major/minor, §3.4).
    pub graphlets: GraphletDistribution,
    /// Database size at publish time.
    pub db_len: usize,
    /// Wall-clock publish time (unix milliseconds; 0 if the clock is
    /// unavailable).
    pub published_unix_ms: u64,
    /// The JSON rendering of `graphlets` and `patterns`, made on first use.
    rendered: OnceLock<Rendered>,
}

/// `"graphlets": [...], "patterns": [...]`, the two members of a snapshot's
/// JSON document that only change with the snapshot.
#[derive(Debug)]
struct Rendered {
    text: String,
    /// Length of the `"graphlets": [...]` member at the start of `text`.
    graphlets_len: usize,
}

impl Clone for PatternSnapshot {
    /// Copies the payload; the clone renders its own JSON, so a clone
    /// edited before its first read never serves the original's bytes.
    fn clone(&self) -> Self {
        PatternSnapshot::new(
            self.epoch,
            self.patterns.clone(),
            self.graphlets,
            self.db_len,
            self.published_unix_ms,
        )
    }
}

impl PatternSnapshot {
    /// A snapshot with an empty render cache.
    pub fn new(
        epoch: u64,
        patterns: Vec<LabeledGraph>,
        graphlets: GraphletDistribution,
        db_len: usize,
        published_unix_ms: u64,
    ) -> Self {
        PatternSnapshot {
            epoch,
            patterns,
            graphlets,
            db_len,
            published_unix_ms,
            rendered: OnceLock::new(),
        }
    }

    /// The `"graphlets": [f, ...], "patterns": [graph, ...]` members of this
    /// snapshot's JSON document (graphs in the `midas_graph::io` format).
    /// Rendered on the first call; every later call returns the same
    /// bytes.
    pub fn json_fields(&self) -> &str {
        &self.rendered().text
    }

    /// The `"graphlets": [f, ...]` member alone: the start of
    /// [`Self::json_fields`].
    pub fn graphlets_json_field(&self) -> &str {
        let rendered = self.rendered();
        &rendered.text[..rendered.graphlets_len]
    }

    fn rendered(&self) -> &Rendered {
        self.rendered.get_or_init(|| {
            let mut text = String::from("\"graphlets\": [");
            for (i, f) in self.graphlets.as_array().iter().enumerate() {
                if i > 0 {
                    text.push_str(", ");
                }
                text.push_str(&midas_obs::json::number(*f));
            }
            text.push(']');
            let graphlets_len = text.len();
            text.push_str(", \"patterns\": ");
            text.push_str(&io::patterns_to_json(&self.patterns).unwrap_or_else(|_| "[]".into()));
            Rendered {
                text,
                graphlets_len,
            }
        })
    }

    /// Batches applied between this snapshot and `latest` (saturating, so
    /// comparing snapshots from different `Midas` instances degrades to 0
    /// instead of wrapping).
    pub fn batches_behind(&self, latest: &PatternSnapshot) -> u64 {
        latest.epoch.saturating_sub(self.epoch)
    }

    /// Graphlet-distribution distance between this snapshot's database
    /// view and `latest`'s — how far the data moved since this pattern
    /// set was published.
    pub fn drift_to(&self, latest: &PatternSnapshot) -> f64 {
        self.graphlets.euclidean_distance(&latest.graphlets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn read_returns_latest_publish() {
        let cell = Published::new(1u64);
        assert_eq!(*cell.read(), 1);
        cell.publish(2);
        assert_eq!(*cell.read(), 2);
    }

    #[test]
    fn old_readers_keep_their_snapshot() {
        let cell = Published::new(vec![1, 2, 3]);
        let held = cell.read();
        cell.publish(vec![9]);
        assert_eq!(*held, vec![1, 2, 3], "held Arc is immutable");
        assert_eq!(*cell.read(), vec![9]);
    }

    #[test]
    fn clones_share_the_slot() {
        let a = Published::new(0u64);
        let b = a.clone();
        a.publish(7);
        assert_eq!(*b.read(), 7);
    }

    #[test]
    fn concurrent_reads_and_publishes_never_tear() {
        // Snapshots are (n, n) pairs; a torn read would surface a mixed
        // pair. Immutability of the published Arc makes that impossible —
        // this test pins the invariant under real thread interleavings.
        let cell = Published::new((0u64, 0u64));
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let snap = cell.read();
                        assert_eq!(snap.0, snap.1, "torn snapshot observed");
                    }
                });
            }
            for n in 1..=1000u64 {
                cell.publish((n, n));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(*cell.read(), (1000, 1000));
    }

    fn path(labels: &[u32]) -> LabeledGraph {
        let mut b = midas_graph::GraphBuilder::new().vertices(labels);
        for v in 1..labels.len() as u32 {
            b = b.edge(v - 1, v);
        }
        b.build()
    }

    fn snapshot(patterns: Vec<LabeledGraph>) -> PatternSnapshot {
        PatternSnapshot::new(
            4,
            patterns,
            GraphletDistribution::default(),
            10,
            1_700_000_000_000,
        )
    }

    #[test]
    fn json_fields_render_graphlets_then_patterns() {
        let patterns = vec![path(&[0, 1]), path(&[2, 3, 4])];
        let snap = snapshot(patterns.clone());
        let graphlets: Vec<String> = snap
            .graphlets
            .as_array()
            .iter()
            .map(|f| midas_obs::json::number(*f))
            .collect();
        let graphlets = format!("\"graphlets\": [{}]", graphlets.join(", "));
        assert_eq!(snap.graphlets_json_field(), graphlets);
        assert_eq!(
            snap.json_fields(),
            format!(
                "{graphlets}, \"patterns\": {}",
                io::patterns_to_json(&patterns).unwrap()
            )
        );
    }

    #[test]
    fn reads_of_one_snapshot_share_one_render() {
        let cell = Published::new(snapshot(vec![path(&[0, 1, 2])]));
        let (first, second) = (cell.read(), cell.read());
        assert!(std::ptr::eq(
            first.json_fields().as_ptr(),
            second.json_fields().as_ptr()
        ));
        assert!(std::ptr::eq(
            first.graphlets_json_field().as_ptr(),
            second.json_fields().as_ptr()
        ));
    }

    #[test]
    fn an_edited_clone_renders_its_own_patterns() {
        let original = snapshot(vec![path(&[0, 1])]);
        let before = original.json_fields().to_owned();
        let mut clone = original.clone();
        clone.patterns = vec![path(&[5, 6, 7])];
        assert_eq!(
            clone.json_fields(),
            snapshot(vec![path(&[5, 6, 7])]).json_fields()
        );
        assert_ne!(clone.json_fields(), before);
        assert_eq!(original.json_fields(), before);
    }

    #[test]
    fn staleness_measures() {
        let old = PatternSnapshot {
            epoch: 3,
            ..PatternSnapshot::default()
        };
        let new = PatternSnapshot {
            epoch: 8,
            ..PatternSnapshot::default()
        };
        assert_eq!(old.batches_behind(&new), 5);
        assert_eq!(new.batches_behind(&old), 0, "saturates, never wraps");
        assert_eq!(old.drift_to(&new), 0.0);
    }
}
