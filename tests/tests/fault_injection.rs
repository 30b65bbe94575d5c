//! End-to-end fault-isolation test: an injected worker panic (the
//! `MIDAS_FAULT=task:N` injector, armed programmatically) must be
//! contained by the exec layer and surface as a [`KernelError`] on the
//! maintenance report — the process stays alive, the flight recorder
//! logs the event, and the framework keeps working afterwards.
//!
//! The injector is process-global, so this file holds a single test
//! function: everything that arms it runs sequentially in here, and no
//! other test in this process fans out through the kernel while armed.

use midas_graph::exec::{set_fault_for_tests, slow_fault, try_par_map, Fault};
use midas_graph::KernelError;
use midas_oracle::fault_containment_pass;

#[test]
fn injected_worker_panic_is_contained_end_to_end() {
    // Phase 1: the full framework pass — bootstrap, arm `task:3`, apply a
    // growth batch, and require a KernelError-carrying report plus the
    // flight-recorder trail instead of an abort.
    let line = fault_containment_pass(7, 3).expect("injected fault must be contained");
    assert!(
        line.contains("kernel_error=true"),
        "flight recorder must log the contained failure: {line}"
    );
    assert!(
        line.contains("task 3"),
        "the error must name the injected task: {line}"
    );

    // Phase 2: the exec primitive directly — the n-th task panics, the
    // others complete, and the first failure (in slot order) is reported.
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    set_fault_for_tests(Some(Fault::Task(2)));
    let items: Vec<u64> = (0..16).collect();
    let result = try_par_map(4, &items, |&x| x * 2);
    set_fault_for_tests(None);
    std::panic::set_hook(quiet);
    let err = result.expect_err("the armed ordinal must surface as an error");
    assert_eq!(err.task, 2);
    assert!(err.to_string().contains("injected fault"));
    assert_ne!(err.task, KernelError::PHASE);

    // Phase 3: disarmed, the same fan-out succeeds — the injector left no
    // poisoned global state behind.
    let clean = try_par_map(4, &items, |&x| x * 2).expect("disarmed run is clean");
    assert_eq!(clean, (0..16).map(|x| x * 2).collect::<Vec<u64>>());

    // Phase 4: `slow:US` arms the batch.index delay and never a task
    // panic; disarming clears it.
    set_fault_for_tests(Some(Fault::Slow(250)));
    assert_eq!(slow_fault(), Some(std::time::Duration::from_micros(250)));
    assert!(try_par_map(4, &items, |&x| x).is_ok());
    set_fault_for_tests(None);
    assert_eq!(slow_fault(), None);
}
