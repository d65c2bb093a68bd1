//! The TI-BSP executor: a simulated distributed cluster.
//!
//! One OS thread per partition stands in for one GoFFish host (the paper's
//! EC2 VMs). Within a timestep, workers run barrier-synchronised BSP
//! supersteps over their subgraphs; across timesteps the configured
//! [`Pattern`] decides how state flows (§II.B's three design patterns).
//!
//! **Messaging.** Intra-partition messages move as values; inter-partition
//! messages are genuinely serialised through [`crate::wire`], shipped over
//! a crossbeam channel, and deserialised by the receiving worker — so the
//! "partition overhead" metric measures real marshalling work and remote
//! byte counts are true wire sizes.
//!
//! **Synchronisation.** Each superstep ends at a [`SyncPoint`] rendezvous
//! that also folds the halting votes and message counts; BSP terminates when
//! all subgraphs voted to halt and no messages are in flight (§II.C), and in
//! `WhileActive` mode the timestep loop terminates when all subgraphs voted
//! `VoteToHaltTimestep` and no cross-timestep messages were emitted (§II.D).
//!
//! **Determinism.** Message delivery is sorted by (sender, sequence), so a
//! job's emitted results are identical across runs and partition layouts
//! don't leak scheduling nondeterminism into algorithm output.

use crate::batch::{
    combine_envelopes, merge_sorted_runs, merge_sorted_runs_traced, BufferPool, Combiner,
    MessageBatch,
};
use crate::checkpoint::{
    self, checkpoint_path, commit_manifest, CheckpointConfig, SubgraphCheckpoint, WorkerCheckpoint,
};
use crate::error::EngineError;
use crate::faults::{injected_panic_message, FaultPlan};
use crate::metrics::{Emit, JobResult, MetricsShard, TimestepMetrics};
use crate::program::{Context, Outbox, Phase, SubgraphProgram};
use crate::provider::{InstanceProvider, InstanceSource};
use crate::sync::{join_partition, Contribution};
use crate::transport::{run_job_tcp, BatchKind, Cluster, TelemetryFlush, Transport};
use crate::wire::{sort_envelopes, Envelope};
use bytes::{Buf, Bytes, BytesMut};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use tempograph_gofs::store::{tmp_sibling, write_atomic};
use tempograph_gofs::SubgraphInstance;
use tempograph_partition::{PartitionedGraph, SubgraphId};
use tempograph_trace::{Clock, Trace, TraceConfig, TraceSink};

/// One unit of work for the intra-partition compute pool: the subgraph's
/// index, its program slot (taken while the worker thread runs it), and
/// its delivered inbox.
type WorkItem<'a, P> = (
    usize,
    &'a mut Option<P>,
    Vec<Envelope<<P as SubgraphProgram>::Msg>>,
);

/// The paper's three design patterns for time-series graph algorithms.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Every instance is analysed independently; results are the union of
    /// per-instance results. Cross-timestep messaging is forbidden.
    Independent,
    /// Instances run independently, then a Merge BSP aggregates
    /// `SendMessageToMerge` traffic.
    EventuallyDependent,
    /// Each timestep's computation consumes the previous timestep's output
    /// via `SendToNextTimestep` (the paper's focus).
    SequentiallyDependent,
}

/// How many timesteps to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TimestepMode {
    /// Run exactly this many instances (a `For` loop over `ti..ti+n`).
    Fixed(usize),
    /// Run until every subgraph votes `VoteToHaltTimestep` and no
    /// cross-timestep messages are emitted (a `While` loop), capped at
    /// `max`.
    WhileActive {
        /// Upper bound on timesteps (≤ stored instances).
        max: usize,
    },
}

/// Default [`JobConfig::straggler_factor`]: a worker must wait 4× the
/// round's median barrier wait before the coordinator flags it.
pub const DEFAULT_STRAGGLER_FACTOR: f64 = 4.0;

/// TI-BSP job configuration.
#[derive(Clone)]
pub struct JobConfig<M> {
    /// Design pattern (decides merge phase and cross-timestep rules).
    pub pattern: Pattern,
    /// Timestep loop mode.
    pub mode: TimestepMode,
    /// Safety bound on supersteps per timestep.
    pub max_supersteps: usize,
    /// Application input messages, delivered at timestep 0, superstep 0.
    pub initial_messages: Vec<(SubgraphId, M)>,
    /// Ablation A1: process instances without per-timestep barriers
    /// (independent / eventually-dependent patterns whose compute uses no
    /// superstep messaging only). The paper notes GoFFish does *not* exploit
    /// this; defaults to `false` for fidelity.
    pub temporal_parallelism: bool,
    /// Run a worker's subgraphs in parallel within each superstep (scoped
    /// threads) —
    /// the multi-core use of a host that GoFFish gets from the JVM (the
    /// paper's m3.large VMs have 2 cores). Instances for active subgraphs
    /// are prefetched eagerly in this mode, trading per-subgraph lazy
    /// loading for parallelism. Deterministic: outboxes are merged in
    /// subgraph order regardless of completion order.
    pub intra_partition_parallelism: bool,
    /// Optional sender-side message combiner (see [`Combiner`]). Sound only
    /// for order-insensitive (associative + commutative) reductions; with
    /// such a reduction, results are byte-identical with or without it.
    pub combiner: Option<Arc<dyn Combiner<M>>>,
    /// Structured tracing (see [`tempograph_trace`]). When set, every
    /// worker records timestep/superstep/compute/send/barrier spans and
    /// traffic counters into a per-partition sink, and [`JobResult::trace`]
    /// carries the assembled [`Trace`]. `None` (the default) keeps the
    /// engine on the inert-sink path: clock reads only, no recording.
    pub trace: Option<TraceConfig>,
    /// Metrics collection (see [`tempograph_metrics`]). When `true`, every
    /// worker keeps an inline histogram shard fed from the same
    /// `TraceSink::now` readings the trace spans use, the driver folds the
    /// shards plus job-level counters into a registry, and
    /// [`JobResult::registry`] carries it. `false` (the default) adds no
    /// work and no allocations to the superstep hot path.
    pub metrics: bool,
    /// Per-(subgraph, timestep) compute attribution (see
    /// [`crate::metrics::CostAttribution`]). When `true`, every worker
    /// accumulates per-invocation compute nanoseconds into a dense
    /// preallocated grid — same `TraceSink::now` clock discipline as the
    /// trace and metrics layers — and [`JobResult::attribution`] carries
    /// the assembled table. `false` (the default) keeps every record site
    /// a branch on `None`: no clock reads, no allocations.
    pub attribution: bool,
    /// Superstep checkpointing (see [`crate::checkpoint`]). When set, every
    /// worker snapshots its recovery state at the configured timestep
    /// interval, and an injected worker death makes the job driver restart
    /// the cluster from the latest committed checkpoint instead of failing.
    pub checkpoint: Option<CheckpointConfig>,
    /// Deterministic fault injection (see [`crate::faults`]). Arc-shared so
    /// one-shot panic events stay latched across recovery attempts.
    pub faults: Option<Arc<FaultPlan>>,
    /// TCP-mode live introspection: when set, [`crate::run_job_tcp`]'s
    /// coordinator serves the status board (`tempograph status`) on this
    /// address for the life of the job. Ignored by [`Cluster::InProcess`].
    pub status_addr: Option<String>,
    /// Straggler threshold: a worker whose per-timestep barrier wait
    /// exceeds this multiple of the round's median wait earns a
    /// `straggler.detected` instant from the TCP coordinator. Only
    /// meaningful when tracing is armed over TCP.
    pub straggler_factor: f64,
}

impl<M> std::fmt::Debug for JobConfig<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobConfig")
            .field("pattern", &self.pattern)
            .field("mode", &self.mode)
            .field("max_supersteps", &self.max_supersteps)
            .field("initial_messages", &self.initial_messages.len())
            .field("temporal_parallelism", &self.temporal_parallelism)
            .field(
                "intra_partition_parallelism",
                &self.intra_partition_parallelism,
            )
            .field("combiner", &self.combiner.is_some())
            .field("trace", &self.trace)
            .field("metrics", &self.metrics)
            .field("attribution", &self.attribution)
            .field("checkpoint", &self.checkpoint)
            .field("faults", &self.faults)
            .field("status_addr", &self.status_addr)
            .field("straggler_factor", &self.straggler_factor)
            .finish()
    }
}

impl<M> JobConfig<M> {
    /// A sequentially dependent job over `timesteps` instances.
    pub fn sequentially_dependent(timesteps: usize) -> Self {
        Self::with_pattern(Pattern::SequentiallyDependent, timesteps)
    }

    /// An eventually dependent job over `timesteps` instances.
    pub fn eventually_dependent(timesteps: usize) -> Self {
        Self::with_pattern(Pattern::EventuallyDependent, timesteps)
    }

    /// An independent job over `timesteps` instances.
    pub fn independent(timesteps: usize) -> Self {
        Self::with_pattern(Pattern::Independent, timesteps)
    }

    fn with_pattern(pattern: Pattern, timesteps: usize) -> Self {
        JobConfig {
            pattern,
            mode: TimestepMode::Fixed(timesteps),
            max_supersteps: 100_000,
            initial_messages: Vec::new(),
            temporal_parallelism: false,
            intra_partition_parallelism: false,
            combiner: None,
            trace: None,
            metrics: false,
            attribution: false,
            checkpoint: None,
            faults: None,
            status_addr: None,
            straggler_factor: DEFAULT_STRAGGLER_FACTOR,
        }
    }

    /// Switch to `WhileActive` (vote-driven) timestep termination.
    pub fn while_active(mut self, max: usize) -> Self {
        self.mode = TimestepMode::WhileActive { max };
        self
    }

    /// Provide application input messages.
    pub fn with_initial_messages(mut self, msgs: Vec<(SubgraphId, M)>) -> Self {
        self.initial_messages = msgs;
        self
    }

    /// Enable the temporal-parallelism ablation (see field docs).
    pub fn with_temporal_parallelism(mut self) -> Self {
        self.temporal_parallelism = true;
        self
    }

    /// Enable parallelism across a partition's subgraphs (see field docs).
    pub fn with_intra_partition_parallelism(mut self) -> Self {
        self.intra_partition_parallelism = true;
        self
    }

    /// Install a sender-side message combiner (see field docs).
    pub fn with_combiner(mut self, combiner: Arc<dyn Combiner<M>>) -> Self {
        self.combiner = Some(combiner);
        self
    }

    /// Enable structured tracing (see field docs).
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Enable metrics collection (see field docs).
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Enable per-(subgraph, timestep) compute attribution (see field docs).
    pub fn with_attribution(mut self) -> Self {
        self.attribution = true;
        self
    }

    /// Checkpoint every `every` timesteps into `dir` (see field docs).
    /// `usize::MAX` means "never write a checkpoint" — recovery is still
    /// armed but restarts from scratch.
    pub fn with_checkpoint(mut self, every: usize, dir: impl Into<std::path::PathBuf>) -> Self {
        assert!(every >= 1, "checkpoint interval must be ≥ 1");
        self.checkpoint = Some(CheckpointConfig {
            every,
            dir: dir.into(),
        });
        self
    }

    /// Install a deterministic fault-injection plan (see field docs).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Serve the live status board on `addr` (TCP mode; see field docs).
    pub fn with_status_addr(mut self, addr: impl Into<String>) -> Self {
        self.status_addr = Some(addr.into());
        self
    }

    /// Set the straggler-detection threshold (see field docs).
    pub fn with_straggler_factor(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "straggler factor must be ≥ 1");
        self.straggler_factor = factor;
        self
    }
}

/// Per-worker compute-attribution accumulator: a dense
/// `(timestep × local subgraph)` grid preallocated once at worker setup,
/// so the record path is two indexed adds and never allocates. Slot
/// `merge_slot` (one past the configured timestep range) is reserved for
/// the merge phase and surfaces as `timestep == u32::MAX` in the
/// assembled [`crate::metrics::CostAttribution`].
pub(crate) struct AttributionShard {
    /// This worker's subgraphs, in local index order (row labels).
    sg_ids: Vec<SubgraphId>,
    /// Grid slot reserved for the merge phase (== configured timesteps).
    merge_slot: usize,
    /// Accumulated compute nanoseconds, indexed `slot * n_sg + i`.
    compute_ns: Vec<u64>,
    /// Program-hook invocation counts, same indexing. Deterministic for a
    /// seeded run, unlike the measured nanoseconds.
    invocations: Vec<u32>,
}

impl AttributionShard {
    fn new(sg_ids: Vec<SubgraphId>, timesteps: usize) -> Self {
        let cells = sg_ids.len() * (timesteps + 1);
        AttributionShard {
            sg_ids,
            merge_slot: timesteps,
            compute_ns: vec![0; cells],
            invocations: vec![0; cells],
        }
    }

    /// Record one program-hook invocation for local subgraph `i` at grid
    /// slot `slot` (a timestep, or `merge_slot`). Bounds-checked with
    /// `get_mut` — this runs inside the superstep hot path, where lint
    /// rule P01 bans panicking accessors.
    #[inline]
    fn record(&mut self, i: usize, slot: usize, dur_ns: u64) {
        let idx = slot * self.sg_ids.len() + i;
        if let (Some(c), Some(n)) = (self.compute_ns.get_mut(idx), self.invocations.get_mut(idx)) {
            *c += dur_ns;
            *n += 1;
        }
    }

    /// Non-empty cells as attribution rows (merge slot ⇒ `u32::MAX`).
    fn rows(&self) -> Vec<crate::metrics::AttributionRow> {
        let n = self.sg_ids.len();
        let mut out = Vec::new();
        for (idx, (&ns, &count)) in self.compute_ns.iter().zip(&self.invocations).enumerate() {
            if count == 0 {
                continue;
            }
            let slot = idx / n;
            out.push(crate::metrics::AttributionRow {
                subgraph: self.sg_ids[idx % n],
                timestep: if slot == self.merge_slot {
                    u32::MAX
                } else {
                    slot as u32
                },
                compute_ns: ns,
                invocations: count,
            });
        }
        out
    }
}

/// Per-worker result shipped back to the driver.
///
/// Counter maps are `BTreeMap`s: they are iterated when assembling the
/// global [`JobResult`] and when encoding checkpoints, and `HashMap`
/// iteration order would leak hasher nondeterminism into both (lint rule
/// D01).
pub(crate) struct WorkerOutput {
    pub(crate) metrics: Vec<TimestepMetrics>,
    pub(crate) merge_metrics: TimestepMetrics,
    pub(crate) counters: Vec<BTreeMap<&'static str, u64>>,
    pub(crate) merge_counters: BTreeMap<&'static str, u64>,
    pub(crate) emits: Vec<Emit>,
    pub(crate) timesteps_run: usize,
    /// Final per-subgraph program state (see [`JobResult::final_states`]).
    pub(crate) final_states: Vec<(SubgraphId, Vec<u8>)>,
    /// Drained trace sinks (worker + provider), named for track metadata.
    pub(crate) sinks: Vec<(String, TraceSink)>,
    /// This worker's metrics shard, when the job ran with metrics enabled.
    pub(crate) shard: Option<Box<MetricsShard>>,
    /// This worker's attribution rows, when the job ran with attribution
    /// enabled. Already row-form (not the dense grid) so the TCP
    /// coordinator can substitute shipped snapshots without rebuilding a
    /// worker-shaped [`AttributionShard`].
    pub(crate) attr_rows: Vec<crate::metrics::AttributionRow>,
}

/// Run a TI-BSP job on the in-process cluster and gather its results and
/// metrics: [`run_job_tcp`] over [`Cluster::InProcess`], kept as the entry
/// point for callers (tests, benches, examples) that treat a failed job as
/// a bug.
///
/// `factory` builds one program instance per subgraph; program state
/// persists across supersteps and timesteps.
///
/// # Panics
///
/// When the job fails — an invalid configuration, a worker's typed error,
/// or a worker death with no recovery to spend — with the
/// [`EngineError`]'s message.
pub fn run_job<P, F>(
    pg: &Arc<PartitionedGraph>,
    source: &InstanceSource,
    factory: F,
    config: JobConfig<P::Msg>,
) -> JobResult
where
    P: SubgraphProgram,
    F: Fn(&tempograph_partition::Subgraph, &PartitionedGraph) -> P + Send + Sync,
{
    run_job_tcp(pg, source, factory, config, Cluster::InProcess).unwrap_or_else(|e| panic!("{e}"))
}

/// Resolve the configured [`TimestepMode`] against the stored instance
/// count and validate mode/pattern/checkpoint interactions. Shared by the
/// job driver and every TCP worker, so both reject the same
/// misconfigurations and agree on the loop bound.
pub(crate) fn effective_timesteps<M>(
    config: &JobConfig<M>,
    available: usize,
) -> Result<usize, EngineError> {
    let invalid = |detail: String| Err(EngineError::Config { detail });
    let timesteps = match config.mode {
        TimestepMode::Fixed(n) if n > available => {
            return invalid(format!(
                "job wants {n} timesteps but source stores {available}"
            ))
        }
        TimestepMode::Fixed(n) => n,
        TimestepMode::WhileActive { max } => max.min(available),
    };
    if config.temporal_parallelism {
        if config.pattern == Pattern::SequentiallyDependent {
            return invalid(
                "temporal parallelism cannot apply to sequentially dependent jobs".into(),
            );
        }
        if !matches!(config.mode, TimestepMode::Fixed(_)) {
            return invalid("temporal parallelism requires a fixed timestep range".into());
        }
        if config.checkpoint.is_some() {
            return invalid("checkpointing requires the barriered timestep loop".into());
        }
    }
    if let Some(ck) = &config.checkpoint {
        std::fs::create_dir_all(&ck.dir).map_err(|e| EngineError::Checkpoint {
            context: format!("creating checkpoint directory {}", ck.dir.display()),
            detail: e.to_string(),
        })?;
    }
    Ok(timesteps)
}

/// One worker's whole life over an already-connected transport: provider
/// setup, program construction, optional checkpoint restore, then the
/// TI-BSP run. Shared by the in-process epoch (one call per scoped
/// thread) and the TCP worker (one call per connected worker).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_worker_body<P, F>(
    partition: u16,
    pg: &Arc<PartitionedGraph>,
    source: &InstanceSource,
    factory: &F,
    config: &JobConfig<P::Msg>,
    timesteps: usize,
    resume_from: Option<u64>,
    transport: &mut dyn Transport,
) -> Result<WorkerOutput, EngineError>
where
    P: SubgraphProgram,
    F: Fn(&tempograph_partition::Subgraph, &PartitionedGraph) -> P,
{
    let mut provider = source.provider(pg, partition);
    if let Some(tc) = config.trace {
        // The loader records onto the worker's track; its spans nest
        // inside the compute spans that trigger the loads.
        provider.install_trace(tc.sink(partition as u32));
    }
    let mut worker = Worker::<P>::new(partition, pg, provider, transport, config, timesteps);
    worker.init_programs(factory);
    let start_t = match resume_from {
        Some(ct) => {
            worker.restore_from(ct);
            ct as usize + 1
        }
        None => 0,
    };
    worker.run(start_t, timesteps, config)
}

/// Fold per-worker outputs into the global [`JobResult`]; called once, by
/// the job driver, for every cluster.
pub(crate) fn assemble_job_result(
    mut outputs: Vec<WorkerOutput>,
    k: usize,
    total_wall_ns: u64,
    recoveries: usize,
    trace: Option<Trace>,
    metrics_enabled: bool,
    attribution_enabled: bool,
) -> JobResult {
    let timesteps_run = outputs[0].timesteps_run;
    debug_assert!(outputs.iter().all(|o| o.timesteps_run == timesteps_run));
    let mut metrics = vec![vec![TimestepMetrics::default(); k]; timesteps_run];
    for (p, o) in outputs.iter().enumerate() {
        for (t, m) in o.metrics.iter().enumerate() {
            metrics[t][p] = m.clone();
        }
    }
    let merge_metrics = outputs.iter().map(|o| o.merge_metrics.clone()).collect();

    let mut counters: BTreeMap<String, Vec<Vec<u64>>> = BTreeMap::new();
    for (p, o) in outputs.iter().enumerate() {
        for (t, per_t) in o.counters.iter().enumerate() {
            for (&name, &v) in per_t {
                let rows = counters
                    .entry(name.to_string())
                    .or_insert_with(|| vec![vec![0; k]; timesteps_run]);
                rows[t][p] += v;
            }
        }
    }
    let mut merge_counters: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for (p, o) in outputs.iter().enumerate() {
        for (&name, &v) in &o.merge_counters {
            merge_counters
                .entry(name.to_string())
                .or_insert_with(|| vec![0; k])[p] += v;
        }
    }

    let mut final_states: Vec<(SubgraphId, Vec<u8>)> = outputs
        .iter_mut()
        .flat_map(|o| o.final_states.drain(..))
        .collect();
    final_states.sort_by_key(|(sg, _)| *sg);

    // Fold the per-worker histogram shards (barrier-time shard merging is
    // associative and commutative, so worker order cannot matter). Shards
    // cover the final successful attempt; the restored pre-crash portion of
    // a recovered run lives in the counter aggregates added by
    // `JobResult::export_into` below.
    let registry_base = metrics_enabled.then(|| {
        let mut reg = tempograph_metrics::Registry::new();
        let mut hits = 0u64;
        let mut misses = 0u64;
        for o in &outputs {
            if let Some(sh) = &o.shard {
                sh.fold_into(&mut reg);
                hits += sh.cache_hits;
                misses += sh.cache_misses;
            }
        }
        reg.gauge_set(
            "tempograph_gofs_cache_hit_rate",
            &[],
            tempograph_metrics::ratio_or_zero(hits, hits + misses),
        );
        reg
    });

    // Assemble the attribution table: concatenate worker rows (each
    // subgraph lives on exactly one partition, so rows cannot collide) and
    // sort by (subgraph, timestep) — merge rows (`u32::MAX`) sort last.
    let attribution = attribution_enabled.then(|| {
        let mut rows: Vec<crate::metrics::AttributionRow> = outputs
            .iter_mut()
            .flat_map(|o| o.attr_rows.drain(..))
            .collect();
        rows.sort_by_key(|r| (r.subgraph, r.timestep));
        crate::metrics::CostAttribution { rows }
    });

    let mut emitted: Vec<Emit> = outputs.into_iter().flat_map(|o| o.emits).collect();
    emitted.sort_by(|a, b| {
        (a.timestep, a.vertex)
            .cmp(&(b.timestep, b.vertex))
            .then(a.value.total_cmp(&b.value))
    });

    let mut result = JobResult {
        timesteps_run,
        metrics,
        merge_metrics,
        counters,
        merge_counters,
        emitted,
        total_wall_ns,
        recoveries,
        final_states,
        trace,
        attribution,
        registry: None,
    };
    if let Some(mut reg) = registry_base {
        result.export_into(&mut reg);
        result.registry = Some(reg);
    }
    result
}

/// Per-partition execution state.
struct Worker<'a, P: SubgraphProgram> {
    partition: u16,
    pg: &'a PartitionedGraph,
    sg_ids: Vec<SubgraphId>,
    index_of: HashMap<SubgraphId, usize>,
    programs: Vec<Option<P>>,
    provider: Box<dyn InstanceProvider>,
    /// Inter-partition batch exchange and barrier sync — the only surface
    /// the worker shares with its peers (see [`Transport`]).
    transport: &'a mut dyn Transport,

    /// Delivered inboxes, sorted by `(from, seq)`.
    inbox: Vec<Vec<Envelope<P::Msg>>>,
    /// Per-subgraph staged sorted runs for the *next superstep* (locals
    /// routed this superstep + decoded remote runs). Merged into `inbox`
    /// once per superstep by [`Worker::deliver_staged`].
    inbox_runs: Vec<Vec<Vec<Envelope<P::Msg>>>>,
    /// Per-subgraph staged sorted runs for the *next timestep*.
    next_runs: Vec<Vec<Vec<Envelope<P::Msg>>>>,
    merge_inbox: Vec<Vec<Envelope<P::Msg>>>,
    halted: Vec<bool>,
    voted_halt_ts: Vec<bool>,
    merge_seq: Vec<u32>,
    /// Persistent per-subgraph send-sequence counters (never reset for the
    /// life of the job), making `(from, seq)` globally unique — see
    /// [`Outbox::seq`].
    next_seq: Vec<u32>,
    memo: HashMap<SubgraphId, Arc<SubgraphInstance>>,
    /// Recycled frame buffers (see [`BufferPool`]).
    pool: BufferPool,
    combiner: Option<Arc<dyn Combiner<P::Msg>>>,
    /// Trace sink for this partition's track; inert when the job is
    /// untraced. Also the worker's clock: the same `tracer.now()` readings
    /// feed metric accumulation and span recording, so aggregates are
    /// exactly derivable from the trace.
    tracer: TraceSink,
    /// Metrics shard, boxed to keep the worker small when metrics are off
    /// (`None` ⇒ the hot path does no metrics work at all). Every duration
    /// recorded into it is a difference of the same `tracer.now()` readings
    /// the spans above consume — no second clock read per event.
    shard: Option<Box<MetricsShard>>,
    /// Compute-attribution grid, boxed and optional for the same reason as
    /// `shard` (`None` ⇒ no attribution work, no extra clock reads).
    attr: Option<Box<AttributionShard>>,
    /// Cumulative traffic totals, sampled as trace counters per timestep.
    /// Cumulative (not per-sample) so every trace counter series is
    /// monotonically non-decreasing — `Trace::validate` enforces this.
    cum_msgs_local: u64,
    cum_msgs_remote: u64,
    cum_bytes_remote: u64,
    cum_msgs_combined: u64,
    cum_checkpoint_bytes: u64,

    checkpoint: Option<CheckpointConfig>,
    faults: Option<Arc<FaultPlan>>,
    /// Current (timestep, superstep) coordinate, kept for the fault hooks
    /// on the send path (the merge phase runs at `timestep == timesteps`).
    cur_t: u64,
    cur_ss: u64,
    /// Restored from a checkpoint whose timestep loop had already ended
    /// (`WorkerCheckpoint::loop_done`): skip straight to the merge phase.
    loop_finished: bool,

    out: WorkerOutput,
    cur_counters: BTreeMap<&'static str, u64>,
    allow_next_timestep: bool,
}

impl<'a, P: SubgraphProgram> Worker<'a, P> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        partition: u16,
        pg: &'a PartitionedGraph,
        provider: Box<dyn InstanceProvider>,
        transport: &'a mut dyn Transport,
        config: &JobConfig<P::Msg>,
        timesteps: usize,
    ) -> Self {
        let sg_ids: Vec<SubgraphId> = pg.subgraphs_of_partition(partition).to_vec();
        let index_of = sg_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect::<HashMap<_, _>>();
        let n = sg_ids.len();
        let sg_ids_for_attr = sg_ids.clone();
        Worker {
            partition,
            pg,
            sg_ids,
            index_of,
            programs: Vec::new(),
            provider,
            transport,
            inbox: vec![Vec::new(); n],
            inbox_runs: vec![Vec::new(); n],
            next_runs: vec![Vec::new(); n],
            merge_inbox: vec![Vec::new(); n],
            halted: vec![false; n],
            voted_halt_ts: vec![false; n],
            merge_seq: vec![0; n],
            next_seq: vec![0; n],
            memo: HashMap::new(),
            pool: BufferPool::new(),
            combiner: config.combiner.clone(),
            tracer: config
                .trace
                .map(|tc| tc.sink(partition as u32))
                .unwrap_or_else(TraceSink::inert),
            shard: config.metrics.then(Box::default),
            attr: config
                .attribution
                .then(|| Box::new(AttributionShard::new(sg_ids_for_attr, timesteps))),
            cum_msgs_local: 0,
            cum_msgs_remote: 0,
            cum_bytes_remote: 0,
            cum_msgs_combined: 0,
            cum_checkpoint_bytes: 0,
            checkpoint: config.checkpoint.clone(),
            faults: config.faults.clone(),
            cur_t: 0,
            cur_ss: 0,
            loop_finished: false,
            out: WorkerOutput {
                metrics: Vec::new(),
                merge_metrics: TimestepMetrics::default(),
                counters: Vec::new(),
                merge_counters: BTreeMap::new(),
                emits: Vec::new(),
                timesteps_run: 0,
                final_states: Vec::new(),
                sinks: Vec::new(),
                shard: None,
                attr_rows: Vec::new(),
            },
            cur_counters: BTreeMap::new(),
            allow_next_timestep: config.pattern == Pattern::SequentiallyDependent,
        }
    }

    fn init_programs<F>(&mut self, factory: &F)
    where
        F: Fn(&tempograph_partition::Subgraph, &PartitionedGraph) -> P,
    {
        self.programs = self
            .sg_ids
            .iter()
            .map(|&id| Some(factory(self.pg.subgraph(id), self.pg)))
            .collect();
    }

    fn run(
        mut self,
        start_t: usize,
        timesteps: usize,
        config: &JobConfig<P::Msg>,
    ) -> Result<WorkerOutput, EngineError> {
        if config.temporal_parallelism {
            debug_assert_eq!(start_t, 0, "checkpointing excludes the temporal fast path");
            self.run_temporally_parallel(timesteps, config)?;
        } else if !self.loop_finished {
            self.run_timestep_loop(start_t, timesteps, config)?;
        }
        if config.pattern == Pattern::EventuallyDependent {
            self.run_merge(config)?;
        }
        // Capture final program states for the recovery-equivalence check.
        for i in 0..self.sg_ids.len() {
            let mut buf = BytesMut::new();
            self.programs[i]
                .as_ref()
                .expect("program present")
                .save_state(&mut buf);
            self.out.final_states.push((self.sg_ids[i], buf.to_vec()));
        }
        // Drain the trace sinks into the output. The provider's (GoFS
        // loader) sink shares this partition's track and is merged at
        // assembly.
        let tracer = std::mem::replace(&mut self.tracer, TraceSink::inert());
        self.out
            .sinks
            .push((format!("partition {}", self.partition), tracer));
        self.out.shard = self.shard.take();
        self.out.attr_rows = self.attr.take().map(|a| a.rows()).unwrap_or_default();
        if let Some(sink) = self.provider.take_trace() {
            self.out
                .sinks
                .push((format!("partition {} gofs", self.partition), sink));
        }
        Ok(self.out)
    }

    // ---- main timestep loop -------------------------------------------

    fn run_timestep_loop(
        &mut self,
        start_t: usize,
        timesteps: usize,
        config: &JobConfig<P::Msg>,
    ) -> Result<(), EngineError> {
        for t in start_t..timesteps {
            let ts0 = self.tracer.now();
            let mut m = TimestepMetrics::default();
            self.cur_counters = BTreeMap::new();
            self.memo.clear();
            self.halted.iter_mut().for_each(|h| *h = false);
            self.voted_halt_ts.iter_mut().for_each(|h| *h = false);

            // Messages from the previous timestep become this timestep's
            // superstep-0 inbox. Each staged run is (from, seq)-sorted, so
            // the k-way merge reproduces the canonical delivery order.
            for i in 0..self.inbox.len() {
                debug_assert!(
                    self.inbox[i].is_empty(),
                    "prior timestep consumed its inbox"
                );
                let runs = std::mem::take(&mut self.next_runs[i]);
                self.inbox[i] = merge_sorted_runs_traced(runs, &mut self.tracer);
            }
            if t == 0 {
                // Initial messages self-address (from == to) with ascending
                // seq, so each inbox stays sorted without a sort.
                for (i, (to, msg)) in config.initial_messages.iter().enumerate() {
                    if let Some(&idx) = self.index_of.get(to) {
                        self.inbox[idx].push(Envelope {
                            from: *to,
                            to: *to,
                            seq: i as u32,
                            payload: msg.clone(),
                        });
                    }
                }
            }

            let mut next_msgs_total = 0u64;
            let supersteps = self.run_bsp(
                t,
                timesteps,
                config,
                Phase::Compute,
                &mut m,
                &mut next_msgs_total,
            )?;
            m.supersteps = supersteps;

            // EndOfTimestep on every subgraph.
            let eot0 = self.tracer.now();
            let mut next_out: Vec<Envelope<P::Msg>> = Vec::new();
            for i in 0..self.sg_ids.len() {
                let mut outbox = Outbox::new(
                    false,
                    self.allow_next_timestep,
                    self.merge_seq[i],
                    self.next_seq[i],
                );
                let a0 = if self.attr.is_some() {
                    self.tracer.now()
                } else {
                    0
                };
                self.invoke(
                    i,
                    t,
                    supersteps as usize,
                    timesteps,
                    Phase::EndOfTimestep,
                    &[],
                    &mut outbox,
                );
                if let Some(at) = self.attr.as_deref_mut() {
                    let a1 = self.tracer.now();
                    at.record(i, t, a1 - a0);
                }
                self.merge_seq[i] = outbox.merge_seq;
                self.next_seq[i] = outbox.seq;
                self.absorb_outbox(i, t, &mut outbox, &mut next_out, None);
                if outbox.voted_halt_timestep {
                    self.voted_halt_ts[i] = true;
                }
            }
            let eot1 = self.tracer.now();
            let eot_elapsed = eot1 - eot0;
            if let Some(sh) = self.shard.as_deref_mut() {
                sh.compute_ns.record(eot_elapsed);
            }
            m.compute_ns += eot_elapsed;
            // EndOfTimestep is barriered like a superstep; record it so the
            // virtual-makespan model accounts for its skew too.
            m.superstep_compute_ns.push(eot_elapsed);
            self.tracer.span_at("end_of_timestep", eot0, eot1);

            // Route cross-timestep messages.
            let send0 = self.tracer.now();
            next_msgs_total += next_out.len() as u64;
            self.route(next_out, BatchKind::NextTimestep, &mut m)?;
            let send1 = self.tracer.now();
            if let Some(sh) = self.shard.as_deref_mut() {
                sh.send_ns.record(send1 - send0);
            }
            m.msg_ns += send1 - send0;
            self.tracer.span_at("send", send0, send1);

            // Timestep barrier + global while-loop decision.
            let wait0 = self.tracer.now();
            let agg = self.transport.arrive(Contribution {
                msgs_sent: next_msgs_total,
                all_halted: self.voted_halt_ts.iter().all(|&v| v),
            })?;
            let wait1 = self.tracer.now();
            if let Some(sh) = self.shard.as_deref_mut() {
                sh.barrier_wait_ns.record(wait1 - wait0);
            }
            m.sync_ns += wait1 - wait0;
            self.tracer.span_at("barrier.arrive", wait0, wait1);
            self.tracer.straggler_check(wait1 - wait0);
            let drain_span = self.tracer.start();
            self.drain()?;
            self.tracer.span_since("drain", drain_span);
            // Late-arrival barrier: nobody starts the next timestep until
            // every worker has drained this one's traffic.
            let wait2 = self.tracer.now();
            self.transport.barrier()?;
            let wait3 = self.tracer.now();
            if let Some(sh) = self.shard.as_deref_mut() {
                sh.barrier_wait_ns.record(wait3 - wait2);
            }
            m.sync_ns += wait3 - wait2;
            self.tracer.span_at("barrier.post", wait2, wait3);

            let io = self.provider.take_io_stats();
            if let Some(sh) = self.shard.as_deref_mut() {
                sh.cache_hits += io.cache_hits;
                sh.cache_misses += io.cache_misses;
                sh.cache_evictions += io.cache_evictions;
                sh.bytes_read += io.bytes;
            }
            m.io_ns += io.ns;
            m.slice_loads += io.loads;
            self.sample_traffic_counters(&m);
            let ts1 = self.tracer.now();
            m.wall_ns = ts1 - ts0;
            self.tracer.span_arg_at("timestep", ts0, ts1, "t", t as u64);
            let round_sync_ns = m.sync_ns;
            self.out.metrics.push(m);
            self.out
                .counters
                .push(std::mem::take(&mut self.cur_counters));
            self.out.timesteps_run = t + 1;

            // Ship this round's observability snapshot to the coordinator.
            // Only the TCP transport wants these; the in-process path (and
            // a TCP run with observability disabled) pays one virtual call
            // and a branch — no allocation, no frame.
            if self.transport.wants_telemetry() {
                self.transport.telemetry(TelemetryFlush {
                    timestep: t as u32,
                    supersteps,
                    barrier_wait_ns: round_sync_ns,
                    final_flush: false,
                    events: self.tracer.take_events(),
                    shard: self.shard.as_deref().cloned(),
                    attr_rows: self
                        .attr
                        .as_deref()
                        .map(AttributionShard::rows)
                        .unwrap_or_default(),
                })?;
            }

            // Checkpoint decisions are pure functions of (t, config, agg),
            // so all workers take the same barriers in maybe_checkpoint.
            let stopping =
                matches!(config.mode, TimestepMode::WhileActive { .. }) && agg.should_stop();
            self.maybe_checkpoint(t, stopping || t + 1 == timesteps)?;
            if stopping {
                break;
            }
        }
        Ok(())
    }

    /// Run one BSP (compute or merge phase). Returns superstep count.
    fn run_bsp(
        &mut self,
        t: usize,
        timesteps: usize,
        config: &JobConfig<P::Msg>,
        phase: Phase,
        m: &mut TimestepMetrics,
        next_msgs_total: &mut u64,
    ) -> Result<u32, EngineError> {
        let mut ss: usize = 0;
        loop {
            self.cur_t = t as u64;
            self.cur_ss = ss as u64;
            if let Some(faults) = &self.faults {
                // Injected worker death at a (partition, timestep, superstep)
                // coordinate. The merge phase runs at t == timesteps, so
                // plans can target it too.
                if faults.should_panic(self.partition, t as u64, ss as u64) {
                    panic!("{}", injected_panic_message(self.partition, t, ss));
                }
            }
            let compute0 = self.tracer.now();
            let mut superstep_out: Vec<Envelope<P::Msg>> = Vec::new();
            let mut next_out: Vec<Envelope<P::Msg>> = Vec::new();
            let active: Vec<bool> = (0..self.sg_ids.len())
                .map(|i| ss == 0 || !self.halted[i] || !self.inbox[i].is_empty())
                .collect();
            if config.intra_partition_parallelism && active.iter().filter(|&&a| a).count() > 1 {
                let outboxes = self.compute_phase_parallel(t, ss, timesteps, phase, &active);
                for (i, mut outbox, attr_ns) in outboxes {
                    if let Some(at) = self.attr.as_deref_mut() {
                        let slot = if phase == Phase::Merge {
                            at.merge_slot
                        } else {
                            t
                        };
                        at.record(i, slot, attr_ns);
                    }
                    self.merge_seq[i] = outbox.merge_seq;
                    self.next_seq[i] = outbox.seq;
                    self.halted[i] = outbox.voted_halt;
                    if outbox.voted_halt_timestep {
                        self.voted_halt_ts[i] = true;
                    }
                    self.absorb_outbox(i, t, &mut outbox, &mut next_out, Some(&mut superstep_out));
                }
            } else {
                for (i, &is_active) in active.iter().enumerate() {
                    let msgs = std::mem::take(&mut self.inbox[i]);
                    if !is_active {
                        continue;
                    }
                    self.halted[i] = false;
                    let mut outbox = Outbox::new(
                        true,
                        self.allow_next_timestep && phase == Phase::Compute,
                        self.merge_seq[i],
                        self.next_seq[i],
                    );
                    // Attribution reads the clock only when armed; both
                    // readings come from the same `tracer.now()` source the
                    // enclosing compute span uses.
                    let a0 = if self.attr.is_some() {
                        self.tracer.now()
                    } else {
                        0
                    };
                    self.invoke(i, t, ss, timesteps, phase, &msgs, &mut outbox);
                    if let Some(at) = self.attr.as_deref_mut() {
                        let a1 = self.tracer.now();
                        let slot = if phase == Phase::Merge {
                            at.merge_slot
                        } else {
                            t
                        };
                        at.record(i, slot, a1 - a0);
                    }
                    self.merge_seq[i] = outbox.merge_seq;
                    self.next_seq[i] = outbox.seq;
                    if outbox.voted_halt {
                        self.halted[i] = true;
                    }
                    if outbox.voted_halt_timestep {
                        self.voted_halt_ts[i] = true;
                    }
                    self.absorb_outbox(i, t, &mut outbox, &mut next_out, Some(&mut superstep_out));
                }
            }
            let compute1 = self.tracer.now();
            let compute_elapsed = compute1 - compute0;
            if let Some(sh) = self.shard.as_deref_mut() {
                sh.compute_ns.record(compute_elapsed);
            }
            m.compute_ns += compute_elapsed;
            m.superstep_compute_ns.push(compute_elapsed);
            self.tracer
                .span_arg_at("compute", compute0, compute1, "superstep", ss as u64);

            let send0 = self.tracer.now();
            let sent = superstep_out.len() as u64;
            *next_msgs_total += next_out.len() as u64;
            self.route(superstep_out, BatchKind::Superstep, m)?;
            self.route(next_out, BatchKind::NextTimestep, m)?;
            let send1 = self.tracer.now();
            if let Some(sh) = self.shard.as_deref_mut() {
                sh.send_ns.record(send1 - send0);
            }
            m.msg_ns += send1 - send0;
            self.tracer.span_at("send", send0, send1);

            let wait0 = self.tracer.now();
            let agg = self.transport.arrive(Contribution {
                msgs_sent: sent,
                all_halted: self.halted.iter().all(|&h| h),
            })?;
            let wait1 = self.tracer.now();
            if let Some(sh) = self.shard.as_deref_mut() {
                sh.barrier_wait_ns.record(wait1 - wait0);
            }
            m.sync_ns += wait1 - wait0;
            self.tracer.span_at("barrier.arrive", wait0, wait1);
            self.tracer.straggler_check(wait1 - wait0);

            let drain_span = self.tracer.start();
            self.drain()?;
            self.deliver_staged();
            self.tracer.span_since("drain", drain_span);
            // Second rendezvous: a fast worker must not start the next
            // superstep (and send new batches) before every worker finished
            // draining this one — otherwise a batch from superstep s+1
            // could sneak into a slow worker's superstep-s drain.
            let wait2 = self.tracer.now();
            self.transport.barrier()?;
            let wait3 = self.tracer.now();
            if let Some(sh) = self.shard.as_deref_mut() {
                sh.barrier_wait_ns.record(wait3 - wait2);
            }
            m.sync_ns += wait3 - wait2;
            self.tracer.span_at("barrier.post", wait2, wait3);
            self.tracer
                .span_arg_at("superstep", compute0, wait3, "superstep", ss as u64);
            ss += 1;
            if agg.should_stop() || ss >= config.max_supersteps {
                return Ok(ss as u32);
            }
        }
    }

    /// Parallel compute phase: prefetch instances for active subgraphs,
    ///
    /// (See [`WorkItem`] for the shape of a queued unit of work.)
    /// then run their programs concurrently on scoped threads pulling from
    /// a shared work queue. Returns per-index outboxes in subgraph order
    /// (deterministic merge), each with the invocation's measured compute
    /// nanoseconds (0 when attribution is disarmed — no clock reads).
    fn compute_phase_parallel(
        &mut self,
        t: usize,
        ss: usize,
        timesteps: usize,
        phase: Phase,
        active: &[bool],
    ) -> Vec<(usize, Outbox<P::Msg>, u64)> {
        let k = self.transport.num_partitions();
        // Eager prefetch (sequential: the provider owns the disk handle).
        if phase != Phase::Merge {
            for (i, &is_active) in active.iter().enumerate() {
                if is_active {
                    let sg = self.pg.subgraph(self.sg_ids[i]);
                    let provider = &mut self.provider;
                    self.memo
                        .entry(sg.id())
                        .or_insert_with(|| provider.fetch(sg, t));
                }
            }
        }

        let taken: Vec<Vec<Envelope<P::Msg>>> = self.inbox.iter_mut().map(std::mem::take).collect();
        let partition = self.partition as usize;
        let pg = self.pg;
        let sg_ids = &self.sg_ids;
        let memo = &self.memo;
        let start_time = self.provider.start_time();
        let period = self.provider.period();
        let allow_next = self.allow_next_timestep && phase == Phase::Compute;
        let merge_seq = &self.merge_seq;
        let next_seq = &self.next_seq;
        // Shared immutable clock for the pool threads: attribution reads
        // the same `TraceSink::now` epoch the worker's spans use, and only
        // when armed.
        let attr_armed = self.attr.is_some();
        let clock = &self.tracer;

        let run_one = |i: usize,
                       program_slot: &mut Option<P>,
                       msgs: Vec<Envelope<P::Msg>>|
         -> (usize, Outbox<P::Msg>, u64) {
            let a0 = if attr_armed { clock.now() } else { 0 };
            let sg = pg.subgraph(sg_ids[i]);
            let mut outbox = Outbox::new(true, allow_next, merge_seq[i], next_seq[i]);
            let mut fetch =
                |sg: &tempograph_partition::Subgraph, _t: usize| -> Arc<SubgraphInstance> {
                    memo.get(&sg.id())
                        .expect("active subgraphs are prefetched")
                        .clone()
                };
            let mut ctx = Context {
                sg,
                pg,
                phase,
                timestep: t,
                superstep: ss,
                num_timesteps: timesteps,
                start_time,
                period,
                instance: None,
                fetch: &mut fetch,
                out: &mut outbox,
            };
            let program = program_slot.as_mut().expect("program present");
            match phase {
                Phase::Compute => program.compute(&mut ctx, &msgs),
                Phase::EndOfTimestep => program.end_of_timestep(&mut ctx),
                Phase::Merge => program.merge(&mut ctx, &msgs),
            }
            drop(ctx);
            let attr_ns = if attr_armed { clock.now() - a0 } else { 0 };
            (i, outbox, attr_ns)
        };

        // One work item per active subgraph, served lowest-index first.
        let mut work: Vec<WorkItem<'_, P>> = self
            .programs
            .iter_mut()
            .zip(taken)
            .enumerate()
            .filter(|(i, _)| active[*i])
            .map(|(i, (slot, msgs))| (i, slot, msgs))
            .collect();
        work.reverse();

        // Each of the k partition workers runs its own compute pool; divide
        // the host's cores among them to avoid oversubscription.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let n_threads = (cores / k.max(1)).max(1).min(work.len());

        let mut results: Vec<(usize, Outbox<P::Msg>, u64)> = if n_threads <= 1 {
            work.into_iter()
                .rev()
                .map(|(i, slot, msgs)| run_one(i, slot, msgs))
                .collect()
        } else {
            let queue = parking_lot::Mutex::new(work);
            std::thread::scope(|scope| {
                let queue = &queue;
                let run_one = &run_one;
                let handles: Vec<_> = (0..n_threads)
                    .map(|_| {
                        scope.spawn(move || {
                            let mut local = Vec::new();
                            loop {
                                let item = queue.lock().pop();
                                match item {
                                    Some((i, slot, msgs)) => local.push(run_one(i, slot, msgs)),
                                    None => break,
                                }
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| join_partition(partition, h.join()))
                    .collect()
            })
        };
        results.sort_by_key(|(i, _, _)| *i);
        results
    }

    // ---- merge phase ----------------------------------------------------

    fn run_merge(&mut self, config: &JobConfig<P::Msg>) -> Result<(), EngineError> {
        let timesteps = self.out.timesteps_run;
        // Merge superstep-0 inbox: the accumulated SendMessageToMerge
        // traffic, already per-subgraph and chronologically ordered by seq.
        let n = self.sg_ids.len();
        self.inbox = std::mem::replace(&mut self.merge_inbox, vec![Vec::new(); n]);
        self.halted.iter_mut().for_each(|h| *h = false);
        for list in &mut self.inbox {
            sort_envelopes(list);
        }
        let mut m = TimestepMetrics::default();
        self.cur_counters = BTreeMap::new();
        let wall0 = self.tracer.now();
        let mut ignored = 0u64;
        let supersteps = self.run_bsp(
            timesteps,
            timesteps,
            config,
            Phase::Merge,
            &mut m,
            &mut ignored,
        )?;
        m.supersteps = supersteps;
        self.sample_traffic_counters(&m);
        let wall1 = self.tracer.now();
        m.wall_ns = wall1 - wall0;
        self.tracer.span_at("merge_phase", wall0, wall1);
        self.out.merge_metrics = m;
        self.out.merge_counters = std::mem::take(&mut self.cur_counters);
        Ok(())
    }

    // ---- temporal-parallelism fast path ---------------------------------

    fn run_temporally_parallel(
        &mut self,
        timesteps: usize,
        _config: &JobConfig<P::Msg>,
    ) -> Result<(), EngineError> {
        // No per-timestep barriers: each worker streams through all
        // (subgraph, timestep) pairs. Valid only for programs whose compute
        // never uses superstep messaging (Context enforces this).
        let mut per_t = vec![TimestepMetrics::default(); timesteps];
        let mut per_t_counters: Vec<BTreeMap<&'static str, u64>> = vec![BTreeMap::new(); timesteps];
        let wall = Clock::start();
        for i in 0..self.sg_ids.len() {
            for t in 0..timesteps {
                self.memo.clear();
                let c0 = self.tracer.now();
                let mut outbox = Outbox::new(false, false, self.merge_seq[i], self.next_seq[i]);
                self.invoke(i, t, 0, timesteps, Phase::Compute, &[], &mut outbox);
                self.merge_seq[i] = outbox.merge_seq;
                self.next_seq[i] = outbox.seq;
                let mut none = Vec::new();
                self.cur_counters = std::mem::take(&mut per_t_counters[t]);
                self.absorb_outbox(i, t, &mut outbox, &mut none, None);
                debug_assert!(none.is_empty());

                let mut outbox = Outbox::new(false, false, self.merge_seq[i], self.next_seq[i]);
                self.invoke(i, t, 1, timesteps, Phase::EndOfTimestep, &[], &mut outbox);
                self.merge_seq[i] = outbox.merge_seq;
                self.next_seq[i] = outbox.seq;
                self.absorb_outbox(i, t, &mut outbox, &mut none, None);
                per_t_counters[t] = std::mem::take(&mut self.cur_counters);
                let c1 = self.tracer.now();
                if let Some(sh) = self.shard.as_deref_mut() {
                    sh.compute_ns.record(c1 - c0);
                }
                if let Some(at) = self.attr.as_deref_mut() {
                    // One cell covers the fused compute+end-of-timestep
                    // pair this fast path runs per (subgraph, timestep);
                    // reuses the readings above (no extra clock reads).
                    at.record(i, t, c1 - c0);
                }
                per_t[t].compute_ns += c1 - c0;
                self.tracer.span_arg_at("compute", c0, c1, "t", t as u64);
                per_t[t].supersteps = 1;
            }
        }
        let io = self.provider.take_io_stats();
        if let Some(sh) = self.shard.as_deref_mut() {
            sh.cache_hits += io.cache_hits;
            sh.cache_misses += io.cache_misses;
            sh.cache_evictions += io.cache_evictions;
            sh.bytes_read += io.bytes;
        }
        if let Some(first) = per_t.first_mut() {
            first.io_ns = io.ns;
            first.slice_loads = io.loads;
        }
        // Wall time is not separable per timestep in this mode; assign the
        // total to the aggregate and split evenly for plotting.
        let total_wall = wall.elapsed_ns();
        let share = total_wall / timesteps.max(1) as u64;
        for mt in &mut per_t {
            mt.wall_ns = share;
        }
        self.out.metrics = per_t;
        self.out.counters = per_t_counters;
        self.out.timesteps_run = timesteps;
        self.transport.barrier()
    }

    // ---- plumbing -------------------------------------------------------

    /// Call one program hook with a fresh context.
    #[allow(clippy::too_many_arguments)]
    fn invoke(
        &mut self,
        i: usize,
        timestep: usize,
        superstep: usize,
        timesteps: usize,
        phase: Phase,
        msgs: &[Envelope<P::Msg>],
        outbox: &mut Outbox<P::Msg>,
    ) {
        let mut program = self.programs[i].take().expect("program present");
        let sg = self.pg.subgraph(self.sg_ids[i]);
        let pg = self.pg;
        let start_time = self.provider.start_time();
        let period = self.provider.period();
        let provider = &mut self.provider;
        let memo = &mut self.memo;
        let mut fetch = |sg: &tempograph_partition::Subgraph, t: usize| -> Arc<SubgraphInstance> {
            memo.entry(sg.id())
                .or_insert_with(|| provider.fetch(sg, t))
                .clone()
        };
        let mut ctx = Context {
            sg,
            pg,
            phase,
            timestep,
            superstep,
            num_timesteps: timesteps,
            start_time,
            period,
            instance: None,
            fetch: &mut fetch,
            out: outbox,
        };
        match phase {
            Phase::Compute => program.compute(&mut ctx, msgs),
            Phase::EndOfTimestep => program.end_of_timestep(&mut ctx),
            Phase::Merge => program.merge(&mut ctx, msgs),
        }
        drop(ctx);
        self.programs[i] = Some(program);
    }

    /// Pull counters/emits/merge messages out of an outbox; superstep and
    /// next-timestep messages are handed back for routing.
    fn absorb_outbox(
        &mut self,
        i: usize,
        timestep: usize,
        outbox: &mut Outbox<P::Msg>,
        next_out: &mut Vec<Envelope<P::Msg>>,
        superstep_out: Option<&mut Vec<Envelope<P::Msg>>>,
    ) {
        for (name, v) in outbox.counters.drain(..) {
            *self.cur_counters.entry(name).or_insert(0) += v;
        }
        let phase_timestep = timestep;
        for (vertex, value) in outbox.emits.drain(..) {
            self.out.emits.push(Emit {
                timestep: phase_timestep,
                vertex,
                value,
            });
        }
        self.merge_inbox[i].append(&mut outbox.merge_msgs);
        next_out.append(&mut outbox.next_timestep_msgs);
        if let Some(out) = superstep_out {
            out.append(&mut outbox.superstep_msgs);
        } else {
            debug_assert!(outbox.superstep_msgs.is_empty());
        }
    }

    /// Stage local messages as sorted runs; pack remote ones into one
    /// pooled [`MessageBatch`] frame per peer (one allocation-free encode
    /// and one channel send per (src, dst) pair and phase).
    ///
    /// `msgs` arrives (from, seq)-sorted — senders are drained in ascending
    /// subgraph order and each sender's seq only grows — so every
    /// per-destination bucket formed here is itself a sorted run.
    fn route(
        &mut self,
        mut msgs: Vec<Envelope<P::Msg>>,
        kind: BatchKind,
        m: &mut TimestepMetrics,
    ) -> Result<(), EngineError> {
        if msgs.is_empty() {
            return Ok(());
        }
        if let Some(combiner) = &self.combiner {
            let before = msgs.len();
            msgs = combine_envelopes(combiner.as_ref(), msgs);
            m.msgs_combined += (before - msgs.len()) as u64;
        }
        let mut local: MessageBatch<P::Msg> = MessageBatch::new();
        let mut remote: Vec<Option<MessageBatch<P::Msg>>> =
            (0..self.transport.num_partitions()).map(|_| None).collect();
        for e in msgs {
            let target_part = self.pg.subgraph(e.to).partition();
            if target_part == self.partition {
                m.msgs_local += 1;
                local.push(e);
            } else {
                m.msgs_remote += 1;
                remote[target_part as usize]
                    .get_or_insert_with(MessageBatch::new)
                    .push(e);
            }
        }
        for (to, run) in local.into_runs() {
            let idx = self.index_of[&to];
            match kind {
                BatchKind::Superstep => self.inbox_runs[idx].push(run),
                BatchKind::NextTimestep => self.next_runs[idx].push(run),
            }
        }
        for (part, batch) in remote.into_iter().enumerate() {
            let Some(batch) = batch else { continue };
            let mut buf = self.pool.get();
            batch.encode_traced(&mut buf, &mut self.tracer);
            let bytes = buf.freeze();
            m.bytes_remote += bytes.len() as u64;
            m.batches_remote += 1;
            if self
                .faults
                .as_ref()
                .is_some_and(|f| f.should_fail_send(self.partition, self.cur_t, self.cur_ss))
            {
                // Transient loss: the first transmission is dropped and the
                // batch retried — one counter tick and one trace marker, no
                // behavioural change (delivery stays exactly-once).
                m.send_retries += 1;
                self.tracer
                    .instant("fault.send_retry", Some(("dest", part as u64)));
            }
            let retransmits = self.transport.send(part as u16, kind, bytes)?;
            if retransmits > 0 {
                // Injected frame loss the transport recovered from (see
                // [`crate::FrameFault`]) — same exactly-once accounting.
                m.send_retries += retransmits;
                self.tracer
                    .instant("fault.frame_retransmit", Some(("dest", part as u64)));
            }
        }
        Ok(())
    }

    /// Drain every queued frame into per-subgraph staged runs, recycling
    /// the frame allocations into this worker's pool. A frame that fails to
    /// decode surfaces as a typed error; the caller poisons the barrier and
    /// the driver names the failing partition.
    fn drain(&mut self) -> Result<(), EngineError> {
        for (kind, bytes) in self.transport.exchange()? {
            let mut bytes = bytes;
            for (to, run) in MessageBatch::<P::Msg>::decode(&mut bytes)? {
                let idx = self.index_of[&to];
                match kind {
                    BatchKind::Superstep => self.inbox_runs[idx].push(run),
                    BatchKind::NextTimestep => self.next_runs[idx].push(run),
                }
            }
            debug_assert_eq!(bytes.remaining(), 0);
            self.pool.reclaim(bytes);
        }
        Ok(())
    }

    /// Merge each subgraph's staged superstep runs into its inbox — the
    /// O(n) replacement for the old concatenate-and-stable-sort delivery,
    /// yielding the identical (from, seq) order.
    fn deliver_staged(&mut self) {
        for i in 0..self.inbox.len() {
            debug_assert!(self.inbox[i].is_empty(), "compute consumed the inbox");
            let runs = std::mem::take(&mut self.inbox_runs[i]);
            self.inbox[i] = merge_sorted_runs_traced(runs, &mut self.tracer);
        }
    }

    // ---- checkpoint / recovery -----------------------------------------

    /// Write this worker's checkpoint for timestep `t` when one is due, and
    /// rendezvous around partition 0's manifest commit. `last` marks the
    /// final executed timestep (configured end or a `WhileActive` stop
    /// vote), which always checkpoints so a merge-phase crash can resume
    /// without re-running the loop. Runs *after* the timestep's metrics are
    /// finalised, so checkpoint cost never pollutes `TimestepMetrics`.
    fn maybe_checkpoint(&mut self, t: usize, last: bool) -> Result<(), EngineError> {
        let Some(ck) = self.checkpoint.clone() else {
            return Ok(());
        };
        if ck.every == usize::MAX || !(ck.due_at(t) || last) {
            return Ok(());
        }
        let ck0 = self.tracer.now();
        let snapshot = self.build_checkpoint(t as u64, last);
        let data = snapshot.encode();
        let path = checkpoint_path(&ck.dir, t as u64, self.partition);
        if self
            .faults
            .as_ref()
            .is_some_and(|f| f.should_panic_in_checkpoint(self.partition, t as u64))
        {
            // Torn write: stage half the frame, then die before the rename.
            // Recovery must only ever see the `.tmp` leftover.
            std::fs::write(tmp_sibling(&path), &data[..data.len() / 2])
                .expect("write staging file");
            panic!("{}", injected_panic_message(self.partition, t, usize::MAX));
        }
        write_atomic(&path, &data).map_err(|e| EngineError::Checkpoint {
            context: format!("writing checkpoint for timestep {t}"),
            detail: e.to_string(),
        })?;
        let ck1 = self.tracer.now();
        if let Some(sh) = self.shard.as_deref_mut() {
            sh.checkpoint_write_ns.record(ck1 - ck0);
        }
        self.tracer
            .span_arg_at("checkpoint.write", ck0, ck1, "t", t as u64);
        self.cum_checkpoint_bytes += data.len() as u64;
        self.tracer
            .counter("checkpoint.bytes", self.cum_checkpoint_bytes);
        // Every partition file must be in place before the single commit
        // point, and the commit must land before anyone moves on.
        self.transport.barrier()?;
        if self.partition == 0 {
            commit_manifest(&ck.dir, t as u64).map_err(|e| EngineError::Checkpoint {
                context: format!("committing manifest for timestep {t}"),
                detail: e.to_string(),
            })?;
        }
        self.transport.barrier()
    }

    /// Snapshot everything this worker needs to resume after timestep `t`.
    fn build_checkpoint(&mut self, t: u64, loop_done: bool) -> WorkerCheckpoint<P::Msg> {
        let mut subgraphs = Vec::with_capacity(self.sg_ids.len());
        for i in 0..self.sg_ids.len() {
            // Collapse the staged next-timestep runs into the canonical
            // sorted order, then put the merged run back as the sole run —
            // the k-way merge is associative, so delivery is unchanged.
            let runs = std::mem::take(&mut self.next_runs[i]);
            let merged = merge_sorted_runs(runs);
            let mut state = BytesMut::new();
            self.programs[i]
                .as_ref()
                .expect("program present")
                .save_state(&mut state);
            subgraphs.push((
                self.sg_ids[i],
                SubgraphCheckpoint {
                    state: state.to_vec(),
                    next_seq: self.next_seq[i],
                    merge_seq: self.merge_seq[i],
                    next_inbox: merged.clone(),
                    merge_inbox: self.merge_inbox[i].clone(),
                },
            ));
            if !merged.is_empty() {
                self.next_runs[i].push(merged);
            }
        }
        WorkerCheckpoint {
            partition: self.partition,
            timestep: t,
            loop_done,
            subgraphs,
            metrics: self.out.metrics.clone(),
            counters: self
                .out
                .counters
                .iter()
                // BTreeMap iteration is already name-sorted — the encoded
                // rows are canonical without an explicit sort.
                .map(|row| row.iter().map(|(&n, &val)| (n.to_string(), val)).collect())
                .collect(),
            emits: self.out.emits.clone(),
        }
    }

    /// Load the (driver-validated) checkpoint of timestep `ct` and rebuild
    /// all resume state: program state, inboxes, sequence counters, and the
    /// metrics/counters/emits accumulated before the crash.
    fn restore_from(&mut self, ct: u64) {
        let ck = self
            .checkpoint
            .clone()
            .expect("restore requires checkpoint config");
        let r0 = self.tracer.now();
        let data = std::fs::read(checkpoint_path(&ck.dir, ct, self.partition))
            .expect("validated checkpoint readable");
        let snapshot =
            WorkerCheckpoint::<P::Msg>::decode(&data).expect("validated checkpoint decodes");
        assert_eq!(snapshot.partition, self.partition, "checkpoint misfiled");
        assert_eq!(snapshot.timestep, ct, "checkpoint misfiled");
        assert_eq!(
            snapshot.subgraphs.len(),
            self.sg_ids.len(),
            "subgraph set changed under the checkpoint directory"
        );
        for (i, (sg, sub)) in snapshot.subgraphs.into_iter().enumerate() {
            assert_eq!(sg, self.sg_ids[i], "subgraph order changed");
            let mut state = Bytes::from(sub.state);
            self.programs[i]
                .as_mut()
                .expect("program present")
                .restore_state(&mut state);
            self.next_seq[i] = sub.next_seq;
            self.merge_seq[i] = sub.merge_seq;
            self.next_runs[i] = if sub.next_inbox.is_empty() {
                Vec::new()
            } else {
                vec![sub.next_inbox]
            };
            self.merge_inbox[i] = sub.merge_inbox;
        }
        self.loop_finished = snapshot.loop_done;
        self.out.metrics = snapshot.metrics;
        self.out.counters = snapshot
            .counters
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|(name, v)| (checkpoint::intern(&name), v))
                    .collect()
            })
            .collect();
        self.out.emits = snapshot.emits;
        self.out.timesteps_run = ct as usize + 1;
        // Resume the cumulative trace-counter series where it left off.
        self.cum_msgs_local = self.out.metrics.iter().map(|m| m.msgs_local).sum();
        self.cum_msgs_remote = self.out.metrics.iter().map(|m| m.msgs_remote).sum();
        self.cum_bytes_remote = self.out.metrics.iter().map(|m| m.bytes_remote).sum();
        self.cum_msgs_combined = self.out.metrics.iter().map(|m| m.msgs_combined).sum();
        let r1 = self.tracer.now();
        if let Some(sh) = self.shard.as_deref_mut() {
            sh.recovery_restore_ns.record(r1 - r0);
        }
        self.tracer.span_arg_at("recovery.restore", r0, r1, "t", ct);
    }

    /// Sample cumulative traffic totals as trace counters (one sample per
    /// timestep keeps the event volume O(timesteps), not O(messages)).
    fn sample_traffic_counters(&mut self, m: &TimestepMetrics) {
        self.cum_msgs_local += m.msgs_local;
        self.cum_msgs_remote += m.msgs_remote;
        self.cum_bytes_remote += m.bytes_remote;
        self.cum_msgs_combined += m.msgs_combined;
        self.tracer.counter("msgs.local", self.cum_msgs_local);
        self.tracer.counter("msgs.remote", self.cum_msgs_remote);
        self.tracer.counter("bytes.remote", self.cum_bytes_remote);
        self.tracer.counter("msgs.combined", self.cum_msgs_combined);
    }
}
