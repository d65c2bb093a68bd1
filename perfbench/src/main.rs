//! `perfbench` — the measuring half of the tempograph benchmark.
//!
//! ```text
//! perfbench setup --workload W --seed N --work DIR
//! perfbench jobs  --workload W --work DIR --seconds S --worker-bin PATH
//! perfbench trace --workload W --seed N --work DIR --seconds S --worker-bin PATH
//! ```
//!
//! `setup` generates the seeded input and sets it up as a GoFS store
//! [`SETUP_REPS`] times; `jobs` runs the store's job on every transport in a
//! fresh process (so its peak memory excludes the generator); `trace`
//! does all of it in one process with spans around every layer call.
//! Each prints one JSON object as its last stdout line. `run.py` builds
//! this binary and the `tempograph` CLI, runs these subcommands and
//! prints the benchmark's result.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tempograph::engine::JobResult;
use tempograph::metrics::Metric;
use tempograph::prelude::TimeSeriesCollection;
use tempograph_perfbench::layers::{self, SetupTimes};
use tempograph_perfbench::measure::{
    digest, flush_dirty_pages, interleaved, least_disturbed, median, peak_rss_mb, quantile,
    CpuTimes, ExactCounts, HostTicks, Spans, QUIET_STEAL,
};
use tempograph_perfbench::workload::{JobSetup, Variant, Workload};
use tempograph_perfbench::JsonObj;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: perfbench setup|jobs|trace|burn|rss [--key value]...");
        return ExitCode::FAILURE;
    };
    let mut opts = HashMap::new();
    let mut it = rest.iter();
    while let Some(k) = it.next() {
        let (Some(name), Some(v)) = (k.strip_prefix("--"), it.next()) else {
            eprintln!("error: expected `--key value` pairs, got `{k}`");
            return ExitCode::FAILURE;
        };
        opts.insert(name.to_string(), v.clone());
    }
    let result = match cmd.as_str() {
        "setup" => cmd_setup(&opts),
        "jobs" => cmd_jobs(&opts),
        "trace" => cmd_trace(&opts),
        "burn" => cmd_burn(&opts),
        "rss" => {
            println!("{}", peak_rss_mb());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type Opts = HashMap<String, String>;

fn req<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("--{key} is required"))
}

fn num<T: std::str::FromStr>(opts: &Opts, key: &str, default: Option<T>) -> Result<T, String> {
    match opts.get(key) {
        Some(v) => v.parse().map_err(|_| format!("invalid --{key} `{v}`")),
        None => default.ok_or_else(|| format!("--{key} is required")),
    }
}

/// Burn `--ms` milliseconds of CPU in this process (a child for the
/// accounting self-test).
fn cmd_burn(opts: &Opts) -> Result<(), String> {
    let ms: f64 = num(opts, "ms", None)?;
    let start = CpuTimes::now();
    let mut x = 0u64;
    while CpuTimes::now().since(&start) < ms / 1e3 {
        for i in 0..100_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
    }
    println!("{x}");
    Ok(())
}

/// How many times a run sets the input up; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Generate the input, then set it up [`SETUP_REPS`] times into fresh
/// directories under `work`; the last set-up is kept as `work/store`.
/// Earlier set-ups are deleted only after the last one, and dirty pages
/// are flushed before each set-up and at the end, so no deletion or
/// write-back of earlier files runs while a set-up or a job is timed.
fn prepare(
    w: Workload,
    seed: u64,
    work: &Path,
    spans: &mut Spans,
) -> Result<(f64, Vec<SetupTimes>), String> {
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let (series, gen_s): (std::sync::Arc<TimeSeriesCollection>, f64) =
        spans.time("gen", |_| w.generate(seed));
    let dirs: Vec<PathBuf> = (0..SETUP_REPS)
        .map(|i| work.join(format!("setup-{i}")))
        .collect();
    let mut times = Vec::with_capacity(dirs.len());
    for dir in &dirs {
        remove_dir(dir)?;
        flush_dirty_pages();
        times.push(layers::setup(&series, dir, spans)?);
    }
    drop(series);
    let store = work.join("store");
    remove_dir(&store)?;
    let (last, earlier) = dirs.split_last().expect("at least one set-up");
    std::fs::rename(last, &store).map_err(|e| format!("keeping {}: {e}", last.display()))?;
    for dir in earlier {
        remove_dir(dir)?;
    }
    flush_dirty_pages();
    Ok((gen_s, times))
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

fn cmd_setup(opts: &Opts) -> Result<(), String> {
    let w = Workload::parse(req(opts, "workload")?)?;
    let seed: u64 = num(opts, "seed", None)?;
    let work = PathBuf::from(req(opts, "work")?);
    let mut spans = Spans::new(format!("{}-{seed}-setup", w.name()));
    let (gen_s, times) = prepare(w, seed, &work, &mut spans)?;
    let totals: Vec<f64> = times.iter().map(|t| t.total_s).collect();
    println!(
        "{}",
        JsonObj::default()
            .num("gen_s", gen_s)
            .nums("setup_s", &totals)
            .render()
    );
    Ok(())
}

/// Runs jobs, checks each against the first in-process job, and counts
/// attempts and failures.
struct Checker<'a> {
    setup: &'a JobSetup,
    reference: Option<(String, ExactCounts)>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

/// One checked job: wall seconds, CPU seconds (children included) and
/// the result.
struct Timed {
    wall_s: f64,
    cpu_s: f64,
    /// Share of the VM's CPU time the host stole during the job.
    steal: f64,
    result: JobResult,
}

impl<'a> Checker<'a> {
    fn new(setup: &'a JobSetup) -> Checker<'a> {
        Checker {
            setup,
            reference: None,
            attempted: 0,
            failed: 0,
            first_error: None,
        }
    }

    fn run(&mut self, v: Variant) -> Option<Timed> {
        self.attempted += 1;
        let host0 = HostTicks::now();
        let cpu0 = CpuTimes::now();
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| self.setup.run(v)));
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = CpuTimes::now().since(&cpu0);
        let steal = HostTicks::now().steal_share_since(&host0);
        let problem = match outcome {
            Err(_) => Some("panicked".to_string()),
            Ok(Err(e)) => Some(e),
            Ok(Ok(result)) => {
                let d = digest(&result);
                let c = ExactCounts::of(&result);
                match &self.reference {
                    None if v == Variant::InProcess => {
                        self.reference = Some((d, c));
                        return Some(Timed {
                            wall_s,
                            cpu_s,
                            steal,
                            result,
                        });
                    }
                    None => Some("no in-process reference job yet".to_string()),
                    Some((rd, rc)) if *rd == d && *rc == c => {
                        return Some(Timed {
                            wall_s,
                            cpu_s,
                            steal,
                            result,
                        })
                    }
                    Some((rd, rc)) => Some(format!(
                        "output differs from in-process: digest {d} vs {rd}, counts {c:?} vs {rc:?}"
                    )),
                }
            }
        };
        self.failed += 1;
        let msg = format!("{v:?} job: {}", problem.unwrap_or_default());
        eprintln!("FAILED {msg}");
        self.first_error.get_or_insert(msg);
        None
    }

    fn tally(&self, out: &mut JsonObj) {
        let (d, c) = self.reference.clone().unwrap_or_default();
        out.int("attempted", self.attempted)
            .int("failed", self.failed)
            .str("digest", &d)
            .obj("counts", &counts_json(&c));
        if let Some(e) = &self.first_error {
            out.str("first_error", e);
        }
    }
}

fn counts_json(c: &ExactCounts) -> JsonObj {
    let mut o = JsonObj::default();
    o.int("supersteps", c.supersteps)
        .int("msgs_remote", c.msgs_remote)
        .int("bytes_remote", c.bytes_remote)
        .int("batches_remote", c.batches_remote)
        .int("slice_loads", c.slice_loads)
        .int("emitted", c.emitted)
        .int("timesteps_run", c.timesteps_run);
    o
}

/// The successful samples a median is taken over: those the host
/// disturbed least (see [`least_disturbed`]).
fn kept(samples: &[Option<Timed>]) -> Vec<&Timed> {
    let ok: Vec<&Timed> = samples.iter().flatten().collect();
    let steal: Vec<f64> = ok.iter().map(|t| t.steal).collect();
    least_disturbed(&steal).into_iter().map(|i| ok[i]).collect()
}

/// Report the largest steal share among the kept samples of every
/// variant, and whether the run was steady: no kept sample disturbed by
/// the host beyond [`QUIET_STEAL`].
fn put_steal(out: &mut JsonObj, variants: &[&[Option<Timed>]]) {
    let max = variants
        .iter()
        .flat_map(|s| kept(s))
        .map(|t| t.steal)
        .fold(0.0, f64::max);
    out.num("steal_max", max)
        .int("steady", u64::from(max <= QUIET_STEAL));
}

/// Put the medians of the kept samples under `wall_key`/`cpu_key`, and
/// every sample with its steal share under `samples`.
fn put_medians(
    out: &mut JsonObj,
    all: &mut JsonObj,
    samples: &[Option<Timed>],
    wall_key: &str,
    cpu_key: Option<&str>,
) {
    let kept = kept(samples);
    if kept.is_empty() {
        return;
    }
    let pick = |f: fn(&Timed) -> f64| kept.iter().map(|&t| f(t)).collect::<Vec<f64>>();
    let ok = samples.iter().flatten();
    out.num(wall_key, median(&pick(|t| t.wall_s)));
    all.nums(wall_key, &ok.clone().map(|t| t.wall_s).collect::<Vec<_>>())
        .nums(
            &format!("{wall_key}.steal"),
            &ok.clone().map(|t| t.steal).collect::<Vec<_>>(),
        );
    if let Some(k) = cpu_key {
        out.num(k, median(&pick(|t| t.cpu_s)));
        all.nums(k, &ok.map(|t| t.cpu_s).collect::<Vec<_>>());
    }
}

fn job_setup(opts: &Opts, w: Workload, store: &Path) -> Result<JobSetup, String> {
    let worker_bin = opts.get("worker-bin").map(PathBuf::from);
    if let Some(bin) = &worker_bin {
        if !bin.is_file() {
            return Err(format!("worker binary {} not found", bin.display()));
        }
    }
    JobSetup::open(w, store, worker_bin)
}

/// The timed run: in-process jobs first (their process's peak memory is
/// read right after them), then rounds of the three TCP variants.
fn cmd_jobs(opts: &Opts) -> Result<(), String> {
    let w = Workload::parse(req(opts, "workload")?)?;
    let work = PathBuf::from(req(opts, "work")?);
    let seconds: f64 = num(opts, "seconds", None)?;
    let setup = job_setup(opts, w, &work.join("store"))?;
    let mut ck = Checker::new(&setup);

    // The process's first job is the warm-up: uncounted, but checked, and
    // the reference every later job must match. A fixed count of jobs, as
    // the process's peak memory grows with the number of jobs it ran.
    let started = Instant::now();
    let (warm, inproc) = interleaved(1, 1, 6, Duration::ZERO, |_| ck.run(Variant::InProcess));
    let peak_rss = peak_rss_mb();
    if ck.reference.is_none() {
        return Err("the in-process job never succeeded".into());
    }
    const NET: [Variant; 3] = [Variant::Tcp, Variant::Processes, Variant::ArmedTcp];
    let (_, net) = interleaved(
        NET.len(),
        0,
        3,
        Duration::from_secs_f64(seconds).saturating_sub(started.elapsed()),
        |v| ck.run(NET[v]),
    );

    let mut out = JsonObj::default();
    let mut all = JsonObj::default();
    if let Some(t) = warm.first().and_then(Option::as_ref) {
        out.num("warm_up_s", t.wall_s);
    }
    put_medians(&mut out, &mut all, &inproc[0], "job_s", Some("cpu_s"));
    put_medians(&mut out, &mut all, &net[0], "job_tcp_s", Some("cpu_tcp_s"));
    put_medians(
        &mut out,
        &mut all,
        &net[1],
        "job_proc_s",
        Some("cpu_proc_s"),
    );
    put_medians(&mut out, &mut all, &net[2], "job_obs_tcp_s", None);
    out.num("peak_rss_mb", peak_rss).obj("samples", &all);
    put_steal(&mut out, &[&inproc[0], &net[0], &net[1], &net[2]]);
    ck.tally(&mut out);
    println!("{}", out.render());
    Ok(())
}

/// Total of one `TimestepMetrics` field over every row, merge included.
fn phase_s(r: &JobResult, f: impl Fn(&tempograph::engine::TimestepMetrics) -> u64) -> f64 {
    r.metrics
        .iter()
        .flatten()
        .chain(r.merge_metrics.iter())
        .map(f)
        .sum::<u64>() as f64
        * 1e-9
}

/// Median of `f` over the kept samples.
fn median_of(samples: &[Option<Timed>], f: impl Fn(&Timed) -> f64) -> Result<f64, String> {
    let xs: Vec<f64> = kept(samples).into_iter().map(f).collect();
    if xs.is_empty() {
        return Err("every job of a variant failed".into());
    }
    Ok(median(&xs))
}

/// The traced run: every layer timed from outside with spans, plus
/// traced, armed and TCP jobs for the in-job split and the overhead
/// ratios. Prints the tables and the per-layer metrics.
fn cmd_trace(opts: &Opts) -> Result<(), String> {
    let w = Workload::parse(req(opts, "workload")?)?;
    let seed: u64 = num(opts, "seed", None)?;
    let work = PathBuf::from(req(opts, "work")?);
    let seconds: f64 = num(opts, "seconds", None)?;
    let run_id = format!(
        "{}-{seed}-{}-{}",
        w.name(),
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis())
    );
    let mut spans = Spans::new(run_id);
    let mut m = JsonObj::default();
    let mut out = JsonObj::default();
    let (res, _) = spans.time("run", |spans| {
        trace_body(opts, w, seed, &work, seconds, spans, &mut m, &mut out)
    });
    res?;

    println!(
        "\nbenchmark spans ({} recorded, run {}):",
        spans.spans.len(),
        spans.run_id
    );
    println!(
        "  {:<28} {:>5} {:>10} {:>10}",
        "span", "count", "total s", "self s"
    );
    for (name, count, total, own) in spans.table() {
        println!("  {name:<28} {count:>5} {total:>10.4} {own:>10.4}");
    }
    let spans_path = work.join("spans.json");
    std::fs::write(&spans_path, spans.to_json())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    out.obj("metrics", &m)
        .str("spans", &spans_path.display().to_string());
    println!("{}", out.render());
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn trace_body(
    opts: &Opts,
    w: Workload,
    seed: u64,
    work: &Path,
    seconds: f64,
    spans: &mut Spans,
    m: &mut JsonObj,
    out: &mut JsonObj,
) -> Result<(), String> {
    let (gen_s, setups) = prepare(w, seed, work, spans)?;
    let field = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let last = setups.last().expect("at least one set-up");
    m.num("gen_s", gen_s)
        .num("partition.multilevel_s", field(|t| t.multilevel_s))
        .num("partition.discover_s", field(|t| t.discover_s))
        .int("partition.cut_edges", last.cut_edges)
        .int("partition.subgraphs", last.subgraphs)
        .num("gofs.write_s", field(|t| t.write_s))
        .num("gofs.write_mb", last.write_mb)
        .num("gofs.open_s", field(|t| t.open_s));

    let store = work.join("store");
    let setup = job_setup(opts, w, &store)?;
    let mut ck = Checker::new(&setup);
    let budget = |share: f64| Duration::from_secs_f64(share * seconds);

    // In-process, untraced vs traced, interleaved. The first (warm-up)
    // in-process job is the reference every other job is checked against.
    const LOCAL: [(Variant, &str); 2] = [
        (Variant::InProcess, "engine.job.inprocess"),
        (Variant::Traced, "engine.job.traced"),
    ];
    let (_, local) = interleaved(2, 1, 3, budget(0.3), |v| {
        spans.time(LOCAL[v].1, |_| ck.run(LOCAL[v].0)).0
    });
    let reference = ck
        .reference
        .clone()
        .ok_or("the in-process job never succeeded")?
        .1;
    let job_s = median_of(&local[0], |t| t.wall_s)?;
    let traced_s = median_of(&local[1], |t| t.wall_s)?;

    let (load, _) = spans.time("gofs.load", |_| {
        layers::gofs_cold_load(&store, &setup.pg, reference.timesteps_run as usize)
    });
    let (load_s, stats) = load?;
    m.num("gofs.load_s", load_s)
        .int("gofs.bytes_read", stats.bytes_read)
        .int("gofs.slice_loads", stats.slice_loads)
        .num("gofs.cache_hit_ratio", stats.hit_rate());

    let traced: Vec<&Timed> = local[1].iter().flatten().collect();
    let phase = |f: fn(&tempograph::engine::TimestepMetrics) -> u64| {
        median(
            &traced
                .iter()
                .map(|t| phase_s(&t.result, f))
                .collect::<Vec<_>>(),
        )
    };
    let (compute_s, sync_s) = (phase(|x| x.compute_ns), phase(|x| x.sync_ns));
    m.int("engine.supersteps", reference.supersteps)
        .num("engine.compute_s", compute_s)
        .num("engine.sync_s", sync_s)
        .num("engine.msg_s", phase(|x| x.msg_ns))
        .num("engine.io_s", phase(|x| x.io_ns))
        .num(
            "engine.virtual_s",
            median(
                &traced
                    .iter()
                    .map(|t| t.result.virtual_total_ns() as f64 * 1e-9)
                    .collect::<Vec<_>>(),
            ),
        )
        .int("engine.emitted", reference.emitted)
        .int("batch.msgs_remote", reference.msgs_remote)
        .int("batch.bytes_remote", reference.bytes_remote)
        .int("batch.batches_remote", reference.batches_remote);
    let last_traced = traced.last().ok_or("every traced job failed")?;
    print_fig7(w, &last_traced.result);

    // Armed in-process: barrier-wait count, attribution, ledger record.
    let armed = spans
        .time("engine.job.armed", |_| ck.run(Variant::Armed))
        .0
        .ok_or("the armed in-process job failed")?;
    let snap = armed
        .result
        .registry
        .as_ref()
        .ok_or("armed job returned no registry")?
        .snapshot();
    let barrier_waits = match snap.get("tempograph_barrier_wait_ns", &[]) {
        Some(Metric::Histogram(h)) => h.count(),
        _ => return Err("registry lacks tempograph_barrier_wait_ns".into()),
    };
    let per_sg = armed
        .result
        .attribution
        .as_ref()
        .ok_or("armed job returned no attribution")?
        .per_subgraph_ns();
    let mean = per_sg.iter().map(|&(_, ns)| ns as f64).sum::<f64>() / per_sg.len().max(1) as f64;
    let max = per_sg.iter().map(|&(_, ns)| ns as f64).fold(0.0, f64::max);
    m.int("engine.barrier_waits", barrier_waits).num(
        "algos.compute_skew",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
    let mut record = Vec::new();
    for i in 0..3 {
        let dir = work.join(format!("ledger-{i}"));
        remove_dir(&dir)?;
        let (s, _) = spans.time("ledger.record", |_| {
            layers::ledger_record(&armed.result, w.algo(), &setup.pg, &dir)
        });
        record.push(s?);
    }
    m.num("ledger.record_s", median(&record));

    // Loopback TCP, dark vs armed, interleaved.
    const NET: [(Variant, &str); 2] = [
        (Variant::Tcp, "engine.job.tcp"),
        (Variant::ArmedTcp, "engine.job.armed_tcp"),
    ];
    let (_, net) = interleaved(2, 0, 2, budget(0.3), |v| {
        spans.time(NET[v].1, |_| ck.run(NET[v].0)).0
    });
    let tcp_s = median_of(&net[0], |t| t.wall_s)?;
    let armed_tcp_s = median_of(&net[1], |t| t.wall_s)?;
    let tcp_round_us = (tcp_s - job_s) / reference.supersteps.max(1) as f64 * 1e6;
    m.num("transport.tcp_round_us", tcp_round_us)
        .num("obs.armed_tcp_ratio", armed_tcp_s / tcp_s)
        .num("obs.trace_ratio", traced_s / job_s);

    // Single-layer calls.
    // The job's mean batch, in messages and in bytes.
    let per_batch = |total: u64| total.checked_div(reference.batches_remote);
    let batch = per_batch(reference.msgs_remote).unwrap_or(1).max(1) as usize;
    let batch_bytes = per_batch(reference.bytes_remote).unwrap_or(64) as usize;
    let ((enc, dec, merge), _) =
        spans.time("batch.codec", |_| layers::batch_codec_ns(w.algo(), batch));
    m.num("batch.encode_ns_per_msg", enc)
        .num("batch.decode_ns_per_msg", dec)
        .num("batch.merge_ns_per_msg", merge);
    let (rounds, _) = spans.time("sync.rounds", |_| layers::sync_round_us(20_000));
    m.num("sync.round_us.p50", median(&rounds))
        .num("sync.round_us.p99", quantile(&rounds, 0.99));
    let (rtt, _) = spans.time("net.frame_rtt", |_| layers::frame_rtt_us(5_000));
    let rtt = rtt?;
    m.num("net.frame_rtt_us.p50", median(&rtt))
        .num("net.frame_rtt_us.p99", quantile(&rtt, 0.99));
    let (codec, _) = spans.time("net.frame_codec", |_| layers::frame_codec_mb_s(batch_bytes));
    m.num("net.frame_codec_mb_s", codec);
    let ((sssp_s, sssp_steps), _) = spans.time("pregel.sssp", |_| layers::pregel_sssp(&setup.pg));
    m.num("pregel.sssp_s", sssp_s)
        .int("pregel.supersteps", sssp_steps as u64);

    println!("\nratios (base in parentheses):");
    println!("  obs.trace_ratio     = {:.4} (traced in-process job {traced_s:.4} s / untraced {job_s:.4} s)", traced_s / job_s);
    println!("  obs.armed_tcp_ratio = {:.4} (armed tcp job {armed_tcp_s:.4} s / dark tcp job {tcp_s:.4} s)", armed_tcp_s / tcp_s);
    println!("  transport.tcp_round_us = {tcp_round_us:.2} (({tcp_s:.4} s tcp - {job_s:.4} s in-process) / {} supersteps)", reference.supersteps);
    println!(
        "  gofs.cache_hit_ratio = {:.4} ({} hits / {} requests)",
        stats.hit_rate(),
        stats.cache_hits,
        stats.cache_hits + stats.cache_misses
    );
    println!(
        "  algos.compute_skew  = {:.4} (max per-subgraph compute / mean over {} subgraphs)",
        if mean > 0.0 { max / mean } else { 0.0 },
        per_sg.len()
    );

    character_check(w, compute_s, sync_s, &reference, barrier_waits);
    put_steal(out, &[&local[0], &local[1], &net[0], &net[1]]);
    ck.tally(out);
    Ok(())
}

/// The paper's Fig 7 split of the traced job, per partition.
fn print_fig7(w: Workload, r: &JobResult) {
    println!(
        "\nFig 7 split of the traced {} job (ms per partition):",
        w.name()
    );
    println!(
        "  {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9} {:>14}",
        "partition", "compute", "msg", "sync", "io", "wall", "compute%", "trace compute"
    );
    for (p, b) in r.partition_breakdown().iter().enumerate() {
        let from_trace = r
            .trace
            .as_ref()
            .map_or(0, |t| t.sum_spans_on(p as u32, "compute"));
        println!(
            "  {p:>9} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>8.1}% {:>14.2}",
            b.compute_ns as f64 / 1e6,
            b.msg_ns as f64 / 1e6,
            b.sync_ns as f64 / 1e6,
            b.io_ns as f64 / 1e6,
            b.wall_ns as f64 / 1e6,
            100.0 * b.compute_fraction(),
            from_trace as f64 / 1e6
        );
    }
}

/// Warn, by name, when a workload no longer has the character it was
/// chosen for.
fn character_check(w: Workload, compute_s: f64, sync_s: f64, c: &ExactCounts, barrier_waits: u64) {
    let mut warnings = Vec::new();
    match w {
        Workload::RoadTdsp if compute_s < 2.0 * sync_s => warnings.push(format!(
            "road-tdsp is no longer compute-bound: engine.compute_s {compute_s:.3} < 2 x engine.sync_s {sync_s:.3}"
        )),
        Workload::BarrierMeme if c.supersteps < 5000 => warnings.push(format!(
            "barrier-meme is no longer rendezvous-bound: engine.supersteps {} < 5000",
            c.supersteps
        )),
        Workload::TweetsHash => {
            if c.supersteps - c.merge_supersteps > c.timesteps_run {
                warnings.push(format!(
                    "tweets-hash runs more than 1 superstep per timestep: {} supersteps over {} timesteps",
                    c.supersteps - c.merge_supersteps,
                    c.timesteps_run
                ));
            }
            if c.msgs_remote >= 100 {
                warnings.push(format!(
                    "tweets-hash ships messages: batch.msgs_remote {} >= 100",
                    c.msgs_remote
                ));
            }
        }
        _ => {}
    }
    println!("\nworkload character ({}):", w.name());
    if warnings.is_empty() {
        println!(
            "  ok: compute {compute_s:.3} s, sync {sync_s:.3} s, {} supersteps, {barrier_waits} barrier waits, {} remote msgs",
            c.supersteps, c.msgs_remote
        );
    }
    for wmsg in warnings {
        println!("  WARNING workload-drift: {wmsg}");
    }
}
