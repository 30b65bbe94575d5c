//! The closed loops over real HTTP: set-up, readers, the updater, the
//! end-to-end metrics and the correctness gate.

use crate::plan::{self, TenantPlan};
use crate::procfs::{self, Sched};
use crate::stats::{median, ms, percentile, sorted, us};
use crate::{layers, metric, Args, Metric, Report, Workload};
use midas_obs::sli::reduction_from_steps;
use midas_serve::client::ServeClient;
use midas_serve::{ServeConfig, ServeDaemon, Tenant};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// Repetitions per run, each on a freshly set-up daemon. A batch's CPU and
/// each read figure are medians over the repetitions, so one disturbed
/// repetition cannot move a run's figures. (The least over the repetitions
/// was tried too, and spread more: it follows the luckiest moment.)
const REPS: usize = 3;
/// Set-ups per run, the repetitions' own included; `setup_s` is their
/// median.
const SETUPS: usize = 5;
/// Reads sent before the window opens are not recorded: they pay for the
/// first connections and the first renders of each tenant's panel.
const WARMUP: Duration = Duration::from_millis(500);
/// Readers in the isolated workload's read phase: one per core of the
/// 2-core reference host. Two busy readers keep both cores loaded, so the
/// scheduler's placement cannot swing their latency the way it swings a
/// single reader's.
const READERS: usize = 2;

/// Rounds per tenant of the update plan. Fixed by `--seconds`, never by a
/// clock, so every commit posts the same batches.
fn plan_rounds(seconds: u64) -> usize {
    (seconds as usize).max(5)
}

/// The isolated workload's read window.
fn read_window(seconds: u64) -> Duration {
    Duration::from_secs(seconds) / 5
}

/// Flags the client threads share with the thread that times the window.
/// Each publishes only its own value, so relaxed ordering suffices.
#[derive(Default)]
struct Flags {
    stop: AtomicBool,
    /// Reads sent while set are recorded.
    recording: AtomicBool,
    /// Set while a sync update is in flight.
    updating: AtomicBool,
}

/// What the readers saw.
#[derive(Debug, Default)]
pub struct ReadLog {
    /// Round trips of the recorded reads, µs.
    pub rtt_us: Vec<f64>,
    /// Per recorded read: was a sync update in flight when it was sent?
    pub overlapped: Vec<bool>,
    pub attempted: u64,
    pub failed: u64,
    /// Reads that saw a tenant's epoch lower than an earlier read had.
    pub regressions: u64,
    /// Length of the recording window, s.
    pub window_s: f64,
    /// CPU the process spent in the window outside the maintenance
    /// threads, s.
    pub serving_cpu_s: f64,
    /// Each reader thread's own CPU and run-queue time.
    pub sched: Vec<Sched>,
}

/// What the updater saw.
#[derive(Debug, Default)]
pub struct UpdateLog {
    /// Sync POST sent → new epoch read back, ms, in posting order.
    pub visible_ms: Vec<f64>,
    /// CPU the maintenance threads spent per batch, ms, in posting order.
    pub apply_cpu_ms: Vec<f64>,
    /// Graphs inserted plus deleted by the batches that became visible.
    pub graphs: u64,
    pub steps_live: u64,
    pub steps_baseline: u64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// The updater thread's own CPU and run-queue time.
    pub sched: Option<Sched>,
}

/// One repetition: its peak memory and what its clients saw.
pub struct Rep {
    pub peak_rss_mb: f64,
    pub reads: ReadLog,
    pub updates: UpdateLog,
}

/// Runs one workload `REPS` times, each on a freshly set-up daemon, and
/// reports the end-to-end metrics over all repetitions. A traced run
/// measures the layers after the last repetition.
pub fn run(args: &Args) -> Result<Report, String> {
    let plan = plan::build(args.seed, plan_rounds(args.seconds));
    let mut report = Report {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Vec::new(),
    };
    // Set-ups beyond the repetitions' own come first, before anything has
    // been timed, and leave no daemon behind.
    let mut setups: Vec<f64> = Vec::with_capacity(SETUPS);
    for _ in REPS..SETUPS {
        let begin = Instant::now();
        let daemon = start(&plan)?;
        setups.push(begin.elapsed().as_secs_f64());
        daemon.shutdown();
    }
    let mut reps: Vec<Rep> = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        procfs::reset_peak_rss();
        let begin = Instant::now();
        let daemon = start(&plan)?;
        setups.push(begin.elapsed().as_secs_f64());
        let client = ServeClient::new(daemon.addr().to_string());

        let sample = procfs::Sample::take();
        let (reads, updates, readers) = match args.workload {
            Workload::Isolated => {
                let reads = read_only(&client, &plan, read_window(args.seconds));
                (reads, update_only(&client, &plan), READERS)
            }
            Workload::ReadUpdate => {
                let (reads, updates) = read_and_update(&client, &plan);
                (reads, updates, 1)
            }
        };
        let end = procfs::Sample::take();

        report.attempted += reads.attempted + updates.attempted;
        report.failed += reads.failed + updates.failed;
        report.problems.extend(updates.problems.iter().cloned());
        if reads.regressions > 0 {
            report.problems.push(format!(
                "{} reads saw a tenant's epoch go down",
                reads.regressions
            ));
        }
        check_final_state(&client, &plan, &mut report);
        reps.push(Rep {
            peak_rss_mb: procfs::peak_rss_mb(),
            reads,
            updates,
        });

        if args.trace && rep + 1 == REPS {
            let last = &reps[rep];
            let clients: Vec<Sched> = last
                .reads
                .sched
                .iter()
                .copied()
                .chain(last.updates.sched)
                .collect();
            let window = layers::Window {
                daemon: &daemon,
                plan: &plan,
                readers,
                reads: &last.reads,
                updates: &last.updates,
                groups: procfs::groups(&sample, &end, &clients),
                end_to_end: end_to_end(&setups, &reps),
                wall: wall(&reps),
            };
            report.metrics = layers::measure(&window, &mut report.problems);
        }
        daemon.shutdown();
    }
    let metrics = end_to_end(&setups, &reps);
    for m in metrics.iter().chain(&wall(&reps)) {
        if !(m.value.is_finite() && m.value > 0.0) {
            report.problems.push(format!("{} is {}", m.name, m.value));
        }
    }
    if !args.trace {
        report.metrics = metrics;
    }
    Ok(report)
}

/// Per batch, the median CPU over the repetitions, ms, in posting order.
/// Every repetition posts the same batches to a fresh daemon, so they
/// differ only by what else ran on the host.
fn apply_cpu_ms(reps: &[Rep]) -> Vec<f64> {
    let batches = reps
        .iter()
        .map(|r| r.updates.apply_cpu_ms.len())
        .min()
        .unwrap_or(0);
    (0..batches)
        .map(|i| {
            median(
                &reps
                    .iter()
                    .map(|r| r.updates.apply_cpu_ms[i])
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// A figure's median over the repetitions.
fn over_reps(reps: &[Rep], figure: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(figure).collect::<Vec<_>>())
}

/// The end-to-end metrics. Latency is taken only where one operation is
/// short against the host's scheduling slices (a read); where an operation
/// runs for milliseconds (a batch), the metric is its CPU time, which the
/// kernel keeps apart from time the hypervisor gave another guest.
fn end_to_end(setups: &[f64], reps: &[Rep]) -> Vec<Metric> {
    let apply_cpu = apply_cpu_ms(reps);
    vec![
        metric("setup_s", median(setups), "s"),
        metric(
            "read_p50_us",
            over_reps(reps, |r| percentile(&sorted(r.reads.rtt_us.clone()), 0.50)),
            "us",
        ),
        metric(
            "read_cpu_us",
            over_reps(reps, |r| {
                r.reads.serving_cpu_s * 1e6 / r.reads.rtt_us.len() as f64
            }),
            "us",
        ),
        metric(
            "apply_cpu_p50_ms",
            percentile(&sorted(apply_cpu.clone()), 0.50),
            "ms",
        ),
        metric(
            "update_graphs_per_cpu_s",
            reps[0].updates.graphs as f64 * 1e3 / apply_cpu.iter().sum::<f64>(),
            "1/s",
        ),
        metric(
            "formulation_reduction",
            over_reps(reps, |r| {
                reduction_from_steps(r.updates.steps_live, r.updates.steps_baseline)
            }),
            "ratio",
        ),
        // The least, not the median: glibc opens a thread's own arena only
        // when the shared ones are busy, so a repetition's peak is sometimes
        // a few MB higher with the same data.
        metric(
            "peak_rss_mb",
            reps.iter()
                .map(|r| r.peak_rss_mb)
                .fold(f64::INFINITY, f64::min),
            "MB",
        ),
    ]
}

/// Wall-clock figures a user waits on, medians over the repetitions. Only
/// the traced run reports them: time the host gives other guests moves
/// them between runs by more than any bound.
fn wall(reps: &[Rep]) -> Vec<Metric> {
    let read_q = |q: f64| over_reps(reps, |r| percentile(&sorted(r.reads.rtt_us.clone()), q));
    let visible_q = |q: f64| {
        over_reps(reps, |r| {
            percentile(&sorted(r.updates.visible_ms.clone()), q)
        })
    };
    vec![
        metric("read_p99_us", read_q(0.99), "us"),
        metric(
            "read_rps",
            over_reps(reps, |r| r.reads.rtt_us.len() as f64 / r.reads.window_s),
            "1/s",
        ),
        metric("visible_p50_ms", visible_q(0.50), "ms"),
        metric("visible_p90_ms", visible_q(0.90), "ms"),
        metric(
            "update_graphs_per_s",
            over_reps(reps, |r| {
                r.updates.graphs as f64 * 1e3 / r.updates.visible_ms.iter().sum::<f64>()
            }),
            "1/s",
        ),
    ]
}

/// Set-up: starts a daemon, installs every tenant, and waits until each
/// answers `GET /patterns` at epoch 0.
fn start(plan: &[TenantPlan]) -> Result<ServeDaemon, String> {
    let daemon =
        ServeDaemon::start(ServeConfig::default()).map_err(|e| format!("daemon start: {e}"))?;
    for tenant in plan {
        let bootstrapped = Tenant::bootstrap(
            tenant.name.clone(),
            plan::KIND,
            tenant.db.clone(),
            plan::config(),
        )?;
        daemon.state().install(Arc::new(bootstrapped));
    }
    let client = ServeClient::new(daemon.addr().to_string());
    for tenant in plan {
        let body = call(&client, "GET", &patterns_path(&tenant.name), None)?;
        if field(&body, "epoch") != Some(0) {
            return Err(format!("{}: a fresh tenant is not at epoch 0", tenant.name));
        }
    }
    Ok(daemon)
}

fn patterns_path(tenant: &str) -> String {
    format!("/v1/{tenant}/patterns")
}

fn epoch_path(tenant: &str) -> String {
    format!("/v1/{tenant}/epoch")
}

/// One request; the body of a 2xx answer, else what went wrong.
fn call(
    client: &ServeClient,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<String, String> {
    match client.request(method, path, body) {
        Ok(reply) if (200..300).contains(&reply.status) => Ok(reply.body),
        Ok(reply) => Err(format!("{method} {path}: HTTP {}", reply.status)),
        Err(e) => Err(format!("{method} {path}: {e}")),
    }
}

/// A whole-number field of a daemon reply, found by its `"key": ` prefix.
/// Every key read here precedes any nested object in the reply, so the
/// reader's hot path needs no full JSON parse.
fn field(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let rest = &body[body.find(&needle)? + needle.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn spawn<'scope, T: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    name: &str,
    f: impl FnOnce() -> T + Send + 'scope,
) -> ScopedJoinHandle<'scope, T> {
    thread::Builder::new()
        .name(name.to_owned())
        .spawn_scoped(scope, f)
        .expect("spawn a client thread")
}

fn join<T>(handle: ScopedJoinHandle<'_, T>) -> T {
    handle.join().expect("a client thread panicked")
}

/// One reader: `GET /v1/{t}/patterns` round-robin over the tenants, from
/// tenant `first`, until stopped.
fn read_loop(client: &ServeClient, paths: &[String], first: usize, flags: &Flags) -> ReadLog {
    let mut log = ReadLog::default();
    let mut last_epoch = vec![0u64; paths.len()];
    for i in first.. {
        if flags.stop.load(Ordering::Relaxed) {
            break;
        }
        let t = i % paths.len();
        let recording = flags.recording.load(Ordering::Relaxed);
        let overlapped = flags.updating.load(Ordering::Relaxed);
        let begin = Instant::now();
        let reply = call(client, "GET", &paths[t], None);
        let rtt_us = us(begin.elapsed());
        log.attempted += 1;
        match reply.map(|body| field(&body, "epoch")) {
            Ok(Some(epoch)) => {
                if epoch < last_epoch[t] {
                    log.regressions += 1;
                }
                last_epoch[t] = epoch;
            }
            _ => {
                log.failed += 1;
                continue;
            }
        }
        if recording {
            log.rtt_us.push(rtt_us);
            log.overlapped.push(overlapped);
        }
    }
    log.sched.push(procfs::this_thread());
    log
}

/// The updater: each round's batch for each tenant in turn, sync, then the
/// read that shows its epoch, then that round's query log.
fn update_loop(client: &ServeClient, plan: &[TenantPlan], flags: &Flags) -> UpdateLog {
    let mut log = UpdateLog::default();
    let maint = procfs::threads_named("serve-maint");
    for (round, tenant, step) in plan::posting_order(plan) {
        let updates_url = format!("/v1/{}/updates?mode=sync", tenant.name);
        let epoch_url = epoch_path(&tenant.name);
        let want = round as u64 + 1;
        let maint_cpu = procfs::cpu_ns(&maint);
        flags.updating.store(true, Ordering::Relaxed);
        let begin = Instant::now();
        log.attempted += 1;
        let seen = match call(client, "POST", &updates_url, Some(&step.body)) {
            Ok(_) => {
                log.attempted += 1;
                call(client, "GET", &epoch_url, None)
            }
            Err(e) => Err(e),
        };
        let visible_ms = ms(begin.elapsed());
        flags.updating.store(false, Ordering::Relaxed);
        let apply_cpu_ms = (procfs::cpu_ns(&maint) - maint_cpu) as f64 / 1e6;
        match seen.map(|body| field(&body, "epoch")) {
            Ok(Some(epoch)) if epoch == want => {
                log.visible_ms.push(visible_ms);
                log.apply_cpu_ms.push(apply_cpu_ms);
                log.graphs += step.batch.len() as u64;
            }
            Ok(epoch) => log.problems.push(format!(
                "{} round {want}: the sync update returned but epoch {epoch:?} is readable",
                tenant.name
            )),
            Err(e) => {
                log.failed += 1;
                log.problems.push(e);
            }
        }
        log.attempted += 1;
        let querylog_url = format!("/v1/{}/querylog", tenant.name);
        match call(client, "POST", &querylog_url, Some(&step.querylog)) {
            Ok(body) => {
                log.steps_live += field(&body, "steps_live").unwrap_or(0);
                log.steps_baseline += field(&body, "steps_baseline").unwrap_or(0);
            }
            Err(e) => {
                log.failed += 1;
                log.problems.push(e);
            }
        }
    }
    log.sched = Some(procfs::this_thread());
    log
}

/// The wall and CPU clocks of a recording window.
struct WindowClock {
    begin: Instant,
    serving_cpu_s: f64,
    maint: Vec<PathBuf>,
}

impl WindowClock {
    fn open() -> WindowClock {
        let maint = procfs::threads_named("serve-maint");
        WindowClock {
            begin: Instant::now(),
            serving_cpu_s: serving_cpu_s(&maint),
            maint,
        }
    }

    /// The window's length and the CPU the process spent in it outside
    /// the maintenance threads, s.
    fn close(&self) -> (f64, f64) {
        (
            self.begin.elapsed().as_secs_f64(),
            serving_cpu_s(&self.maint) - self.serving_cpu_s,
        )
    }
}

/// CPU seconds of the process so far outside the maintenance threads.
fn serving_cpu_s(maint: &[PathBuf]) -> f64 {
    procfs::process_cpu_clock_s() - procfs::cpu_ns(maint) as f64 / 1e9
}

fn merge(logs: impl Iterator<Item = ReadLog>, (window_s, serving_cpu_s): (f64, f64)) -> ReadLog {
    let mut all = ReadLog {
        window_s,
        serving_cpu_s,
        ..ReadLog::default()
    };
    for log in logs {
        all.rtt_us.extend(log.rtt_us);
        all.overlapped.extend(log.overlapped);
        all.attempted += log.attempted;
        all.failed += log.failed;
        all.regressions += log.regressions;
        all.sched.extend(log.sched);
    }
    all
}

/// The isolated workload's read phase: `READERS` readers, no updates.
fn read_only(client: &ServeClient, plan: &[TenantPlan], window: Duration) -> ReadLog {
    let flags = Flags::default();
    let paths: Vec<String> = plan.iter().map(|t| patterns_path(&t.name)).collect();
    let (flags, paths) = (&flags, &paths);
    thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|i| {
                spawn(scope, &format!("bench-reader-{i}"), move || {
                    read_loop(client, paths, i, flags)
                })
            })
            .collect();
        thread::sleep(WARMUP);
        flags.recording.store(true, Ordering::Relaxed);
        let clock = WindowClock::open();
        thread::sleep(window);
        flags.recording.store(false, Ordering::Relaxed);
        let closed = clock.close();
        flags.stop.store(true, Ordering::Relaxed);
        merge(readers.into_iter().map(join), closed)
    })
}

/// The isolated workload's update phase: the whole plan, no readers.
fn update_only(client: &ServeClient, plan: &[TenantPlan]) -> UpdateLog {
    let flags = Flags::default();
    thread::scope(|scope| {
        join(spawn(scope, "bench-updater", || {
            update_loop(client, plan, &flags)
        }))
    })
}

/// One reader and the updater at once; reads are recorded while the
/// updater runs.
fn read_and_update(client: &ServeClient, plan: &[TenantPlan]) -> (ReadLog, UpdateLog) {
    let flags = Flags::default();
    let paths: Vec<String> = plan.iter().map(|t| patterns_path(&t.name)).collect();
    let (flags, paths) = (&flags, &paths);
    thread::scope(|scope| {
        let reader = spawn(scope, "bench-reader-0", move || {
            read_loop(client, paths, 0, flags)
        });
        thread::sleep(WARMUP);
        flags.recording.store(true, Ordering::Relaxed);
        let clock = WindowClock::open();
        let updates = join(spawn(scope, "bench-updater", move || {
            update_loop(client, plan, flags)
        }));
        flags.recording.store(false, Ordering::Relaxed);
        let closed = clock.close();
        flags.stop.store(true, Ordering::Relaxed);
        (merge(std::iter::once(join(reader)), closed), updates)
    })
}

/// Each tenant's final epoch must equal the batches posted to it and its
/// size the mirror's.
fn check_final_state(client: &ServeClient, plan: &[TenantPlan], report: &mut Report) {
    for tenant in plan {
        report.attempted += 1;
        let body = match call(client, "GET", &epoch_path(&tenant.name), None) {
            Ok(body) => body,
            Err(e) => {
                report.failed += 1;
                report.problems.push(e);
                continue;
            }
        };
        let got = (field(&body, "epoch"), field(&body, "db_len"));
        let want = (tenant.rounds.len() as u64, tenant.final_len as u64);
        if got != (Some(want.0), Some(want.1)) {
            report.problems.push(format!(
                "{}: final (epoch, db_len) is {got:?}, want {want:?}",
                tenant.name
            ));
        }
    }
}
