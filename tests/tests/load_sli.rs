//! Reader consistency and non-blocking reads for the published pattern
//! snapshot.
//!
//! The acceptance property of the snapshot layer: a pattern-set read
//! *completes* while an `apply_batch` is in flight (readers never wait for
//! maintenance), and no read ever observes a partially-updated set — every
//! observed `Arc` is pointer-identical to some *published* end-of-batch
//! snapshot, because snapshots are immutable once published.

use midas_core::{Midas, PatternSnapshot};
use midas_datagen::{DatasetKind, DatasetSpec, MotifKind};
use midas_tests::test_config;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn bootstrap(db_size: usize) -> Midas {
    let dataset = DatasetSpec::new(DatasetKind::PubchemLike, db_size, 11).generate();
    Midas::bootstrap(dataset.db, test_config(11)).expect("bootstrap")
}

/// Two snapshots are "the same publication" iff they are the same Arc.
/// Pointer identity also pins the read path's cost: a `Published::read`
/// that copied the pattern set would hand out an unpublished Arc.
fn is_published(observed: &Arc<PatternSnapshot>, published: &[Arc<PatternSnapshot>]) -> bool {
    published.iter().any(|p| Arc::ptr_eq(p, observed))
}

#[test]
fn reads_complete_while_apply_batch_is_in_flight() {
    let mut midas = bootstrap(60);
    let handle = midas.snapshot_handle();
    // Every publication the batches will produce, collected as they
    // happen; observed snapshots must each be one of these.
    let mut published: Vec<Arc<PatternSnapshot>> = vec![midas.pattern_snapshot()];

    let in_flight = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let mut reads_during_flight = 0u64;

    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut during = 0u64;
            let mut observed: Vec<Arc<PatternSnapshot>> = Vec::new();
            while !stop.load(Ordering::Acquire) {
                let flight = in_flight.load(Ordering::Acquire);
                let snap = handle.read();
                // The read returned at all while a batch was mid-flight:
                // that is the non-blocking property (an RwLock held across
                // maintenance would park us here until the batch ended).
                if flight {
                    during += 1;
                }
                if !observed.iter().any(|o| Arc::ptr_eq(o, &snap)) {
                    observed.push(snap);
                }
            }
            (during, observed)
        });

        // Sizable novel-family batches so each apply_batch has real work
        // in flight; a handful of batches gives the reader plenty of
        // overlap without any fault-injection env coupling.
        for i in 0..5u64 {
            let wave = midas_datagen::novel_family_batch(
                if i % 2 == 0 {
                    MotifKind::BoronicEster
                } else {
                    MotifKind::Phosphate
                },
                24,
                900 + i,
            );
            in_flight.store(true, Ordering::Release);
            midas.apply_batch(wave);
            in_flight.store(false, Ordering::Release);
            published.push(midas.pattern_snapshot());
        }
        stop.store(true, Ordering::Release);

        let (during, observed) = reader.join().expect("reader panicked");
        reads_during_flight = during;
        // Consistency: every snapshot the reader ever saw is one of the
        // published end-of-batch states — never an intermediate.
        for snap in &observed {
            assert!(
                is_published(snap, &published),
                "reader observed a snapshot that was never published \
                 (epoch {})",
                snap.epoch
            );
        }
        assert!(
            observed.len() >= 2,
            "reader saw {} distinct snapshots; expected the batches to \
             publish visibly",
            observed.len()
        );
    });

    assert!(
        reads_during_flight > 0,
        "no read completed while a batch was in flight — reads are \
         blocking on maintenance"
    );
    assert_eq!(midas.pattern_snapshot().epoch, 5);
}

#[test]
fn patterns_accessor_routes_through_the_snapshot() {
    let mut midas = bootstrap(40);
    assert_eq!(midas.patterns(), midas.pattern_snapshot().patterns);
    let wave = midas_datagen::novel_family_batch(MotifKind::BoronicEster, 16, 3);
    midas.apply_batch(wave);
    let snap = midas.pattern_snapshot();
    assert_eq!(snap.epoch, 1);
    assert_eq!(
        midas.patterns(),
        snap.patterns,
        "patterns() must serve the published snapshot, not internal state"
    );
    assert_eq!(snap.db_len, midas.db().len());
}

#[test]
fn held_snapshots_age_but_never_mutate() {
    let mut midas = bootstrap(40);
    let held = midas.pattern_snapshot();
    let held_patterns = held.patterns.clone();
    for i in 0..3u64 {
        let wave = midas_datagen::novel_family_batch(MotifKind::Phosphate, 12, 70 + i);
        midas.apply_batch(wave);
    }
    let latest = midas.pattern_snapshot();
    assert_eq!(held.patterns, held_patterns, "held snapshot is immutable");
    assert_eq!(held.batches_behind(&latest), 3);
    assert!(held.drift_to(&latest).is_finite());
}
