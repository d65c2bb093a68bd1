//! Measurement primitives: CPU and memory accounting, output digests,
//! order statistics, the warm-up-aware sampler and the benchmark's own
//! span recorder.

use std::time::{Duration, Instant};
use tempograph::engine::JobResult;
use tempograph::gofs::codec::fnv1a64;

/// User + system CPU seconds of this process (all threads, finished or
/// not) and of its reaped children, from `getrusage(2)`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTimes {
    /// CPU seconds of this process.
    pub own_s: f64,
    /// CPU seconds of every child this process has waited for.
    pub children_s: f64,
}

impl CpuTimes {
    /// Read both counters now.
    pub fn now() -> CpuTimes {
        CpuTimes {
            own_s: rusage_cpu_s(RUSAGE_SELF),
            children_s: rusage_cpu_s(RUSAGE_CHILDREN),
        }
    }

    /// CPU seconds spent since `earlier`, children included.
    pub fn since(&self, earlier: &CpuTimes) -> f64 {
        (self.own_s - earlier.own_s) + (self.children_s - earlier.children_s)
    }
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// `struct rusage` on 64-bit Linux: two `timeval`s (two `long`s each)
/// followed by fourteen `long`s, 144 bytes. The buffer is larger than
/// that so a kernel writing a few more fields still stays in bounds.
#[repr(C)]
struct RUsage {
    longs: [i64; 32],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sync();
}

/// Write every dirty page to disk (`sync(2)`), so that write-back of
/// files written earlier does not run during a timed section.
pub fn flush_dirty_pages() {
    // SAFETY: sync(2) takes no arguments, touches no memory of this
    // process and cannot fail.
    unsafe { sync() }
}

fn rusage_cpu_s(who: i32) -> f64 {
    let mut usage = RUsage { longs: [0; 32] };
    // SAFETY: `usage` is a live, writable buffer larger than the kernel's
    // `struct rusage`, and `who` is one of the two selectors getrusage
    // accepts; the call writes only within that buffer.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let l = &usage.longs;
    // ru_utime = {l[0] s, l[1] µs}, ru_stime = {l[2] s, l[3] µs}.
    (l[0] + l[2]) as f64 + (l[1] + l[3]) as f64 * 1e-6
}

/// CPU time the hypervisor gave to other guests while this VM wanted to
/// run (`steal` in `/proc/stat`), and all CPU time, in clock ticks summed
/// over every CPU. Outside a VM steal stays 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostTicks {
    pub steal: u64,
    pub total: u64,
}

impl HostTicks {
    pub fn now() -> HostTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        // cpu user nice system idle iowait irq softirq steal [guest ...]
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|x| x.parse().ok())
            .collect();
        HostTicks {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// Share of all CPU time since `earlier` that the host stole.
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Steal share up to which a sample counts as undisturbed by the host.
pub const QUIET_STEAL: f64 = 0.05;

/// Indices of the samples to take a median over, given each sample's
/// steal share: every sample with at most [`QUIET_STEAL`], or, when fewer
/// than half are that quiet, the least-disturbed half. The choice looks
/// only at what the host took, never at the measured value.
pub fn least_disturbed(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    let quiet = steal.iter().filter(|&&s| s <= QUIET_STEAL).count();
    order.truncate(quiet.max(steal.len().div_ceil(2)));
    order.sort_unstable();
    order
}

/// Peak resident set size of this process in MiB (`VmHWM`). Unlike
/// `ru_maxrss`, the high-water mark belongs to the address space, so it
/// starts afresh at `exec` and never includes a parent's memory.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Digest of a job's output: sorted `emitted`, `counters`,
/// `merge_counters` and `timesteps_run`. Equal outputs give equal digests
/// on every transport.
pub fn digest(r: &JobResult) -> String {
    fn put(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    let mut buf = Vec::new();
    put(&mut buf, r.timesteps_run as u64);
    let mut emitted: Vec<(u64, u32, u64)> = r
        .emitted
        .iter()
        .map(|e| (e.timestep as u64, e.vertex.0, e.value.to_bits()))
        .collect();
    emitted.sort_unstable();
    put(&mut buf, emitted.len() as u64);
    for (t, v, bits) in emitted {
        put(&mut buf, t);
        put(&mut buf, u64::from(v));
        put(&mut buf, bits);
    }
    // Both maps are `BTreeMap`s, so they iterate in key order.
    for (name, per_t) in &r.counters {
        buf.extend_from_slice(name.as_bytes());
        for per_p in per_t {
            put(&mut buf, per_p.len() as u64);
            per_p.iter().for_each(|&c| put(&mut buf, c));
        }
    }
    for (name, per_p) in &r.merge_counters {
        buf.extend_from_slice(name.as_bytes());
        put(&mut buf, per_p.len() as u64);
        per_p.iter().for_each(|&c| put(&mut buf, c));
    }
    format!("{:016x}", fnv1a64(&buf))
}

/// Counts a seeded job must reproduce exactly, on every transport and in
/// every run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactCounts {
    pub supersteps: u64,
    /// Supersteps of the merge phase (eventually-dependent jobs), part
    /// of `supersteps`.
    pub merge_supersteps: u64,
    pub msgs_remote: u64,
    pub bytes_remote: u64,
    pub batches_remote: u64,
    pub slice_loads: u64,
    pub emitted: u64,
    pub timesteps_run: u64,
}

impl ExactCounts {
    /// Fold the counts out of a job's per-timestep metrics.
    pub fn of(r: &JobResult) -> ExactCounts {
        let rows = r.metrics.iter().flatten().chain(r.merge_metrics.iter());
        let mut c = ExactCounts {
            emitted: r.emitted.len() as u64,
            timesteps_run: r.timesteps_run as u64,
            ..ExactCounts::default()
        };
        for m in rows {
            c.msgs_remote += m.msgs_remote;
            c.bytes_remote += m.bytes_remote;
            c.batches_remote += m.batches_remote;
            c.slice_loads += m.slice_loads;
        }
        // Supersteps are barrier-synchronised: the per-timestep maximum.
        c.merge_supersteps = u64::from(
            r.merge_metrics
                .iter()
                .map(|m| m.supersteps)
                .max()
                .unwrap_or(0),
        );
        c.supersteps = r
            .metrics
            .iter()
            .map(|per_t| u64::from(per_t.iter().map(|m| m.supersteps).max().unwrap_or(0)))
            .sum::<u64>()
            + c.merge_supersteps;
        c
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `xs` by the nearest-rank rule.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Run `n` variants in interleaved rounds, after `warm_ups` uncounted
/// runs of variant 0 (the first job of a process pays for page faults,
/// allocator growth and cold caches). Rounds run every variant once,
/// rotating which goes first, until at least `min_rounds` rounds are
/// done and `budget` has passed; but once twice a nonzero budget has
/// passed, 2 rounds are enough, so a slowed-down host cannot stretch a
/// run without end. `run(variant)` returns a sample; the result is the
/// warm-up samples and the counted samples per variant.
pub fn interleaved<T>(
    n: usize,
    warm_ups: usize,
    min_rounds: usize,
    budget: Duration,
    mut run: impl FnMut(usize) -> T,
) -> (Vec<T>, Vec<Vec<T>>) {
    let warm: Vec<T> = (0..warm_ups).map(|_| run(0)).collect();
    let started = Instant::now();
    let mut out: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    let mut round = 0;
    loop {
        let elapsed = started.elapsed();
        let slowed = !budget.is_zero() && elapsed >= 2 * budget;
        let enough = if slowed {
            min_rounds.min(2)
        } else {
            min_rounds
        };
        if round >= enough && elapsed >= budget {
            break;
        }
        for i in 0..n {
            let v = (round + i) % n;
            out[v].push(run(v));
        }
        round += 1;
    }
    (warm, out)
}

/// One span recorded by the benchmark around a call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder for one benchmark run. Spans nest by call
/// order; they are written out once, when the run ends.
pub struct Spans {
    pub run_id: String,
    epoch: Instant,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(run_id: impl Into<String>) -> Spans {
        Spans {
            run_id: run_id.into(),
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s value and the span's duration in seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Duration minus the time its direct children cover (children run
    /// one after another, so their durations add up without overlap).
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Per-name totals: (name, count, total seconds, self seconds), in
    /// first-seen order.
    pub fn table(&self) -> Vec<(String, usize, f64, f64)> {
        let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
        for s in &self.spans {
            let total = (s.end_ns - s.start_ns) as f64 * 1e-9;
            let own = self.self_ns(s.id) as f64 * 1e-9;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name.clone(), 1, total, own)),
            }
        }
        rows
    }

    /// The spans as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"run_id\":\"{}\",\"spans\":[", self.run_id);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                parent,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(s.id)
            ));
        }
        out.push_str("]}");
        out
    }
}
