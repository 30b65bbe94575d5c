//! `exec::par_map` catches no panic: a panicking task unwinds out of the
//! fan-out with its own payload, on the serial and the threaded path, so
//! the caller's phase backstop reports the task's message rather than
//! `std::thread::scope`'s generic one.

use midas_graph::exec::{panic_message, par_map};
use std::panic::catch_unwind;

#[test]
fn par_map_resumes_a_task_panic() {
    let items: Vec<u64> = (0..100).collect();
    for threads in [1, 4] {
        let payload = catch_unwind(|| {
            par_map(threads, &items, |&x| {
                if x == 37 {
                    panic!("boom at {x}");
                }
                x
            })
        })
        .expect_err("task 37 panics");
        assert_eq!(panic_message(payload), "boom at 37");
    }
}

#[test]
fn par_map_resumes_the_first_panic_in_chunk_order() {
    // Two chunks of 32: slot 3 panics in the first, slot 53 in the second.
    let items: Vec<usize> = (0..64).collect();
    let payload = catch_unwind(|| {
        par_map(2, &items, |&i| {
            if i % 50 == 3 {
                panic!("bad slot {i}");
            }
            i
        })
    })
    .expect_err("slots 3 and 53 panic");
    assert_eq!(panic_message(payload), "bad slot 3");
}
