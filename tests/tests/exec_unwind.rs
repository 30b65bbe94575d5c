//! `exec::map_tasks` catches no panic: a panicking task unwinds out of the
//! map with its own payload, so the caller's phase backstop reports the
//! task's message, and the first panicking task in input order ends the
//! map.
//!
//! The test names predate the rename of `par_map` to `map_tasks`; they
//! are kept so the test ids stay one series.

use midas_graph::exec::{map_tasks, panic_message};
use std::panic::catch_unwind;

#[test]
fn par_map_resumes_a_task_panic() {
    let items: Vec<u64> = (0..100).collect();
    let payload = catch_unwind(|| {
        map_tasks(&items, |&x| {
            if x == 37 {
                panic!("boom at {x}");
            }
            x
        })
    })
    .expect_err("task 37 panics");
    assert_eq!(panic_message(payload), "boom at 37");
}

#[test]
fn par_map_resumes_the_first_panic_in_chunk_order() {
    // Slots 3 and 53 both panic; slot 3 comes first.
    let items: Vec<usize> = (0..64).collect();
    let payload = catch_unwind(|| {
        map_tasks(&items, |&i| {
            if i % 50 == 3 {
                panic!("bad slot {i}");
            }
            i
        })
    })
    .expect_err("slots 3 and 53 panic");
    assert_eq!(panic_message(payload), "bad slot 3");
}
