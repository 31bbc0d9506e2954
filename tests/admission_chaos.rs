//! Kill-and-recover chaos coverage of the durable admission service.
//!
//! The headline test re-spawns this test binary as a *workload child*
//! (selected by the `ADMIT_CHAOS_WAL` environment variable): the child
//! drives a durable [`AdmissionService`] against a write-ahead log while
//! the parent watches the log grow, SIGKILLs the child mid-stream, and
//! then proves recovery: every verdict sealed before the kill is
//! recovered, the recovered committed state is bit-identical to a fresh
//! sequential controller fed the sealed prefix, and the recovered
//! transcript replays bit-identically.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use feast::{
    AdmissionController, AdmissionService, AdmitConfig, AdmitError, AdmitRequest, Scenario,
};
use slicing::{CommEstimate, MetricKind};
use taskgraph::gen::{generate_seeded, ExecVariation, WorkloadSpec};
use taskgraph::{Subtask, TaskGraph, TaskGraphBuilder, Time};

const CHILD_ENV: &str = "ADMIT_CHAOS_WAL";

fn spec() -> WorkloadSpec {
    WorkloadSpec::paper(ExecVariation::Mdet)
}

fn config(size: usize) -> AdmitConfig {
    let scenario = Scenario::paper("ADM/CHAOS", spec(), MetricKind::adapt(), CommEstimate::Ccne);
    AdmitConfig::new(scenario, size)
}

/// Generates the first paper workload at or after `seed`.
fn graph(seed: u64) -> Arc<TaskGraph> {
    Arc::new(
        (seed..seed + 16)
            .find_map(|s| generate_seeded(&spec(), s).ok())
            .expect("a paper workload generates within 16 seed attempts"),
    )
}

/// A provably infeasible chain (200 units of serial WCET, end-to-end
/// deadline 50): the pre-filter refuses it, and the refusal is sealed to
/// the WAL like any other conclusion.
fn infeasible_graph() -> Arc<TaskGraph> {
    let mut b = TaskGraphBuilder::new();
    let head = b.add_subtask(Subtask::new(Time::new(100)).released_at(Time::ZERO));
    let tail = b.add_subtask(Subtask::new(Time::new(100)).due_at(Time::new(50)));
    b.add_edge(head, tail, 1).unwrap();
    Arc::new(b.build().unwrap())
}

/// The workload child: drive a durable service until the parent kills us.
/// The stream is far longer than the parent lets it run; every conclusion
/// is sealed to the WAL before its verdict returns, so whatever prefix
/// survives the SIGKILL is exactly the set of committed decisions. Every
/// fifth request is provably infeasible, so the sealed prefix always
/// carries pre-filter refusals for recovery to reproduce.
fn run_child(wal: &str) -> ! {
    let config = config(8).with_workers(2).durable(wal);
    let service = AdmissionService::new(config).expect("child service starts");
    for id in 0..1_000_000u64 {
        let request = AdmitRequest::Admit {
            id,
            graph: if id % 5 == 0 {
                infeasible_graph()
            } else {
                graph(id % 64 + 1)
            },
            origin: Time::new(i64::try_from(id).unwrap() * 500),
        };
        loop {
            match service.submit(request.clone()) {
                Ok(()) => break,
                Err(AdmitError::QueueFull { .. }) => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => std::process::exit(3),
            }
        }
    }
    let _ = service.shutdown();
    std::process::exit(0)
}

/// Newline-terminated records in the log: `Sealed` lines only, not the
/// header or the `Graph` lines that hold each distinct graph once. A line
/// still missing its newline is an append in flight — its verdict has not
/// been returned, so it does not count as sealed.
fn sealed_lines(path: &PathBuf) -> usize {
    std::fs::read(path)
        .map(|bytes| {
            bytes
                .split_inclusive(|&byte| byte == b'\n')
                .filter(|line| line.starts_with(b"{\"Sealed\"") && line.ends_with(b"\n"))
                .count()
        })
        .unwrap_or(0)
}

fn spawn_child(test_name: &str, wal: &PathBuf) -> Child {
    Command::new(std::env::current_exe().expect("test binary path"))
        .arg(test_name)
        .arg("--exact")
        .arg("--nocapture")
        .arg("--test-threads=1")
        .env(CHILD_ENV, wal)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("child spawns")
}

/// SIGKILL the durable service mid-stream, then recover from its WAL.
#[test]
fn sigkill_mid_stream_recovers_every_sealed_verdict() {
    if let Ok(wal) = std::env::var(CHILD_ENV) {
        run_child(&wal);
    }

    let wal = std::env::temp_dir().join(format!(
        "feast-admission-chaos-{}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&wal).ok();

    let mut child = spawn_child("sigkill_mid_stream_recovers_every_sealed_verdict", &wal);

    // Wait until the child has sealed a healthy prefix, then kill it
    // without ceremony — `Child::kill` delivers SIGKILL on Unix, so the
    // service gets no chance to flush or shut down cleanly.
    const TARGET: usize = 8;
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut observed = 0;
    while Instant::now() < deadline {
        observed = sealed_lines(&wal);
        if observed >= TARGET {
            break;
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("child exited prematurely with {status} after {observed} sealed records");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("SIGKILL delivered");
    let _ = child.wait();
    assert!(
        observed >= TARGET,
        "child sealed only {observed} records within the deadline"
    );

    // Recovery: every record that was sealed at observation time must
    // survive (a record torn by the kill itself is, by definition, one
    // whose verdict had not yet been returned).
    let (recovered, log) =
        AdmissionController::recover(config(8), &wal).expect("recovery succeeds after SIGKILL");
    assert!(
        log.outcomes.len() >= observed,
        "lost sealed verdicts: observed {observed} before the kill, recovered {}",
        log.outcomes.len()
    );

    // The sealed prefix necessarily contains pre-filter refusals (every
    // fifth request, starting at id 0, is provably infeasible), and each
    // one was recovered as the refusal it was sealed as.
    assert!(
        log.prefilter_rejected() >= observed / 5,
        "expected >= {} recovered pre-filter refusals in {} sealed records, found {}",
        observed / 5,
        log.outcomes.len(),
        log.prefilter_rejected()
    );

    // Bit-identical replay: a fresh sequential controller fed the sealed
    // prefix reproduces the transcript and the recovered state exactly.
    assert_eq!(recovered.digest(), log.digest);
    assert_eq!(recovered.residents(), log.residents);
    let replayed = log.replay(&config(8)).expect("replay builds");
    assert!(
        log.matches(&replayed),
        "recovered transcript diverged from sequential replay"
    );

    std::fs::remove_file(&wal).ok();
}

/// Crash-then-continue: recover from a killed run and keep admitting on
/// the same log; a second recovery sees the combined history.
#[test]
fn recovered_service_continues_on_the_same_log() {
    if std::env::var(CHILD_ENV).is_ok() {
        // Not this test's child mode; only the chaos test runs children.
        return;
    }
    let wal = std::env::temp_dir().join(format!(
        "feast-admission-continue-{}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&wal).ok();

    let mut durable = AdmissionController::new(config(8).durable(&wal)).unwrap();
    for id in 0..3 {
        durable
            .admit(
                id,
                graph(id + 1),
                Time::new(i64::try_from(id).unwrap() * 500),
            )
            .unwrap();
    }
    drop(durable); // crash stand-in

    let (mut recovered, log) = AdmissionController::recover(config(8), &wal).unwrap();
    assert_eq!(log.outcomes.len(), 3);
    for id in 3..6 {
        recovered
            .admit(
                id,
                graph(id + 1),
                Time::new(i64::try_from(id).unwrap() * 500),
            )
            .unwrap();
    }
    let digest = recovered.digest();
    drop(recovered);

    let (again, full) = AdmissionController::recover(config(8), &wal).unwrap();
    assert_eq!(full.outcomes.len(), 6, "combined history recovered");
    assert_eq!(again.digest(), digest);
    let replayed = full.replay(&config(8)).unwrap();
    assert!(full.matches(&replayed));

    std::fs::remove_file(&wal).ok();
}
