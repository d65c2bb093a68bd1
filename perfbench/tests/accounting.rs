//! Self-tests of the benchmark's accounting: CPU of reaped children,
//! peak memory that excludes a parent's, warm-up runs left out of the
//! samples, output digests and span self time.

use std::process::Command;
use std::time::Duration;
use tempograph::engine::{Emit, JobResult};
use tempograph::prelude::VertexIdx;
use tempograph_perfbench::measure::{
    digest, interleaved, least_disturbed, peak_rss_mb, CpuTimes, Spans,
};

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");

#[test]
fn cpu_of_reaped_child_processes_is_counted() {
    let before = CpuTimes::now();
    let status = Command::new(BIN)
        .args(["burn", "--ms", "400"])
        .output()
        .expect("spawn the burning child");
    assert!(status.status.success());
    let after = CpuTimes::now();
    let children = after.children_s - before.children_s;
    let own = after.own_s - before.own_s;
    assert!(
        children >= 0.39,
        "child burned 0.4 s of CPU, counted {children:.3} s"
    );
    assert!(own < 0.2, "the parent only waited, yet used {own:.3} s");
    assert!(
        after.since(&before) >= children,
        "since() must include the children"
    );
}

#[test]
fn peak_rss_of_a_fresh_process_excludes_the_parents_memory() {
    // Stand-in for the generator: a large, touched allocation in the
    // parent process.
    let big = std::hint::black_box(vec![1u8; 128 << 20]);
    assert!(
        peak_rss_mb() >= 128.0,
        "the parent's own peak includes its allocation"
    );
    let out = Command::new(BIN)
        .arg("rss")
        .output()
        .expect("spawn the probe");
    assert!(out.status.success());
    let child_mb: f64 = String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("a number");
    assert!(
        child_mb < 64.0,
        "a child's peak RSS must not inherit the parent's: {child_mb} MiB"
    );
    assert_eq!(big[big.len() - 1], 1);
}

#[test]
fn warm_up_runs_are_not_counted() {
    let mut calls = [0usize; 3];
    // Each sample is the call number of its variant, so the warm-up of
    // variant 0 is its sample 0.
    let (warm, samples) = interleaved(3, 1, 4, Duration::ZERO, |v| {
        let n = calls[v];
        calls[v] += 1;
        n
    });
    assert_eq!(warm, vec![0]);
    assert_eq!(
        samples[0],
        vec![1, 2, 3, 4],
        "warm-up dropped, 4 rounds kept"
    );
    assert_eq!(samples[1], vec![0, 1, 2, 3]);
    assert_eq!(samples[2], vec![0, 1, 2, 3]);

    // Past twice the budget, 2 rounds are enough.
    let (_, slow) = interleaved(1, 0, 5, Duration::from_millis(1), |_| {
        std::thread::sleep(Duration::from_millis(2));
    });
    assert_eq!(slow[0].len(), 2);
}

#[test]
fn digest_follows_the_output_only() {
    let mut a = JobResult {
        timesteps_run: 3,
        emitted: vec![
            Emit {
                timestep: 0,
                vertex: VertexIdx(4),
                value: 1.5,
            },
            Emit {
                timestep: 2,
                vertex: VertexIdx(1),
                value: 7.0,
            },
        ],
        ..JobResult::default()
    };
    a.counters
        .insert("hits".into(), vec![vec![1, 2], vec![3, 4]]);
    let mut b = a.clone();
    b.total_wall_ns = 12_345;
    b.emitted.reverse();
    assert_eq!(
        digest(&a),
        digest(&b),
        "timings and emit order are not output"
    );
    b.emitted[0].value = 7.5;
    assert_ne!(digest(&a), digest(&b));
}

#[test]
fn self_time_excludes_child_spans() {
    let mut spans = Spans::new("test");
    spans.time("outer", |s| {
        std::thread::sleep(Duration::from_millis(20));
        s.time("inner", |_| std::thread::sleep(Duration::from_millis(30)));
    });
    let outer = &spans.spans[0];
    assert_eq!(spans.spans[1].parent, Some(0));
    let total = outer.end_ns - outer.start_ns;
    let own = spans.self_ns(0);
    assert!(
        total >= 50_000_000 && (20_000_000..30_000_000).contains(&own),
        "total {total}, self {own}"
    );
}

#[test]
fn median_samples_are_chosen_by_steal_only() {
    // Quiet samples are all kept.
    assert_eq!(least_disturbed(&[0.0, 0.01, 0.3, 0.05]), vec![0, 1, 3]);
    // With fewer than half quiet, the least-disturbed half is kept.
    assert_eq!(least_disturbed(&[0.2, 0.06, 0.0, 0.1, 0.3]), vec![1, 2, 3]);
    assert_eq!(least_disturbed(&[0.5]), vec![0]);
}
