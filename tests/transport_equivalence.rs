//! Cross-transport equivalence harness: the same TI-BSP job must produce
//! **byte-identical** output whether partitions exchange batches over
//! in-process channels ([`run_job`]), a localhost TCP mesh between worker
//! threads, or real spawned worker *processes* talking TCP — same emitted
//! values (as f64 bit patterns), same counter totals, same final
//! per-subgraph program state, same `(from, seq)` delivery order.
//!
//! Every paper algorithm (Hashtag Aggregation, Meme Tracking, TDSP, SSSP,
//! WCC) is exercised at 3 and 6 partitions over both transports; one
//! configuration additionally runs with real child processes spawned from
//! the `tempograph` binary (`worker` subcommand) over a GoFS dataset.
//!
//! When loopback sockets are unavailable in the sandbox, TCP cases print a
//! NOTICE and skip rather than fail.

use bytes::BufMut;
use std::collections::BTreeMap;
use std::sync::Arc;
use tempograph::engine::{Context, Envelope, WireError, WireMsg};
use tempograph::metrics::Metric;
use tempograph::prelude::*;
use tempograph::trace::TraceEvent;

const TIMESTEPS: usize = 6;

fn sockets_available() -> bool {
    match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(_) => true,
        Err(e) => {
            eprintln!("NOTICE: loopback sockets unavailable ({e}); skipping TCP test");
            false
        }
    }
}

fn road(width: usize, height: usize, seed: u64) -> Arc<GraphTemplate> {
    Arc::new(tempograph::gen::road_network(&RoadNetConfig {
        width,
        height,
        seed,
        ..Default::default()
    }))
}

fn partitioned(t: &Arc<GraphTemplate>, k: usize) -> Arc<PartitionedGraph> {
    let p = MultilevelPartitioner::default().partition(t, k);
    Arc::new(discover_subgraphs(t.clone(), p))
}

fn road_fixture() -> (Arc<GraphTemplate>, InstanceSource) {
    let t = road(10, 10, 0xBEAC0A);
    let coll = Arc::new(tempograph::gen::generate_road_latencies(
        t.clone(),
        &RoadLatencyConfig {
            timesteps: TIMESTEPS,
            period: 50,
            min_latency: 4.0,
            max_latency: 60.0,
            seed: 29,
            ..Default::default()
        },
    ));
    (t, InstanceSource::Memory(coll))
}

fn tweet_fixture() -> (Arc<GraphTemplate>, InstanceSource, SirConfig) {
    let t = road(12, 12, 0xBEEFED);
    let cfg = SirConfig {
        timesteps: TIMESTEPS,
        hit_prob: 0.4,
        initial_infected: 4,
        infectious_steps: 3,
        background_rate: 0.08,
        ..Default::default()
    };
    let coll = Arc::new(tempograph::gen::generate_sir_tweets(t.clone(), &cfg));
    (t, InstanceSource::Memory(coll), cfg)
}

/// Everything observable about a run, in canonical order, floats as bit
/// patterns. Equal fingerprints ⇔ byte-identical runs.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    emitted: Vec<(usize, u32, u64)>,
    counters: BTreeMap<String, Vec<u64>>,
    timesteps_run: usize,
    final_states: Vec<(u32, Vec<u8>)>,
}

fn fingerprint(r: &JobResult) -> Fingerprint {
    Fingerprint {
        emitted: r
            .emitted
            .iter()
            .map(|e| (e.timestep, e.vertex.0, e.value.to_bits()))
            .collect(),
        counters: r
            .counters
            .iter()
            .map(|(name, per_t)| {
                (
                    name.clone(),
                    per_t.iter().map(|per_p| per_p.iter().sum()).collect(),
                )
            })
            .collect(),
        timesteps_run: r.timesteps_run,
        final_states: r
            .final_states
            .iter()
            .map(|(sg, bytes)| (sg.0, bytes.clone()))
            .collect(),
    }
}

/// Run the same job over in-process channels and over a thread-per-worker
/// localhost TCP mesh; assert byte-identical fingerprints.
fn assert_transport_equivalent<P, F>(
    label: &str,
    pg: &Arc<PartitionedGraph>,
    src: &InstanceSource,
    factory: F,
    mk_cfg: impl Fn() -> JobConfig<P::Msg>,
) where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync,
{
    let local = run_job(pg, src, &factory, mk_cfg());
    let tcp = run_job_tcp(pg, src, &factory, mk_cfg(), Cluster::Threads)
        .unwrap_or_else(|e| panic!("{label}: tcp job failed: {e}"));
    assert_eq!(
        fingerprint(&local),
        fingerprint(&tcp),
        "{label}: TCP run must be byte-identical to the in-process run"
    );
}

#[test]
fn sssp_is_transport_equivalent_at_3_and_6_partitions() {
    if !sockets_available() {
        return;
    }
    let (t, src) = road_fixture();
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();
    for k in [3, 6] {
        let pg = partitioned(&t, k);
        assert_transport_equivalent(
            &format!("sssp-k{k}"),
            &pg,
            &src,
            Sssp::factory(VertexIdx(0), Some(lat_col)),
            || JobConfig::independent(1),
        );
    }
}

#[test]
fn wcc_is_transport_equivalent_at_3_and_6_partitions() {
    if !sockets_available() {
        return;
    }
    let (t, src) = road_fixture();
    for k in [3, 6] {
        let pg = partitioned(&t, k);
        assert_transport_equivalent(&format!("wcc-k{k}"), &pg, &src, Wcc::factory(), || {
            JobConfig::independent(1)
        });
    }
}

#[test]
fn tdsp_is_transport_equivalent_at_3_and_6_partitions() {
    if !sockets_available() {
        return;
    }
    let (t, src) = road_fixture();
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();
    for k in [3, 6] {
        let pg = partitioned(&t, k);
        assert_transport_equivalent(
            &format!("tdsp-k{k}"),
            &pg,
            &src,
            Tdsp::factory(VertexIdx(0), lat_col),
            || JobConfig::sequentially_dependent(TIMESTEPS).while_active(TIMESTEPS),
        );
    }
}

#[test]
fn meme_is_transport_equivalent_at_3_and_6_partitions() {
    if !sockets_available() {
        return;
    }
    let (t, src, cfg) = tweet_fixture();
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    for k in [3, 6] {
        let pg = partitioned(&t, k);
        assert_transport_equivalent(
            &format!("meme-k{k}"),
            &pg,
            &src,
            MemeTracking::factory(cfg.meme.clone(), tweets_col),
            || JobConfig::sequentially_dependent(TIMESTEPS),
        );
    }
}

/// Hashtag aggregation's Merge BSP routes every partial to one master
/// subgraph — the heaviest cross-partition convergecast in the suite.
#[test]
fn hashtag_is_transport_equivalent_at_3_and_6_partitions() {
    if !sockets_available() {
        return;
    }
    let (t, src, _) = tweet_fixture();
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    for k in [3, 6] {
        let pg = partitioned(&t, k);
        assert_transport_equivalent(
            &format!("hash-k{k}"),
            &pg,
            &src,
            HashtagAggregation::factory("#meme", tweets_col),
            || JobConfig::eventually_dependent(TIMESTEPS),
        );
    }
}

/// Records the exact `(from, seq)` sequence of every inbox it is handed
/// into its saved state, while broadcasting to every other subgraph for a
/// few supersteps — if a transport delivered messages in a different
/// order, the final states would differ.
struct OrderProbe {
    id: SubgraphId,
    peers: Vec<SubgraphId>,
    log: Vec<(u32, u32)>,
}

impl SubgraphProgram for OrderProbe {
    type Msg = u32;

    fn compute(&mut self, ctx: &mut Context<'_, u32>, msgs: &[Envelope<u32>]) {
        for e in msgs {
            self.log.push((e.from.0, e.seq));
        }
        if ctx.superstep() < 3 {
            for &p in &self.peers {
                ctx.send_to_subgraph(p, self.id.0);
            }
        } else {
            ctx.vote_to_halt();
        }
    }

    fn save_state(&self, buf: &mut bytes::BytesMut) {
        buf.put_u32_le(self.log.len() as u32);
        for &(from, seq) in &self.log {
            buf.put_u32_le(from);
            buf.put_u32_le(seq);
        }
    }
}

fn order_probe_factory() -> impl Fn(&Subgraph, &PartitionedGraph) -> OrderProbe + Send + Sync {
    |sg, pg| OrderProbe {
        id: sg.id(),
        peers: pg
            .subgraphs()
            .iter()
            .map(|s| s.id())
            .filter(|&id| id != sg.id())
            .collect(),
        log: Vec::new(),
    }
}

/// The delivery-order probe: all-to-all traffic for three supersteps, the
/// observed `(from, seq)` sequences shipped home as final state. Both
/// transports must observe the identical order.
#[test]
fn delivery_order_is_deterministic_across_transports() {
    if !sockets_available() {
        return;
    }
    let (t, src) = road_fixture();
    for k in [3, 6] {
        let pg = partitioned(&t, k);
        let local = run_job(&pg, &src, order_probe_factory(), JobConfig::independent(1));
        let tcp = run_job_tcp(
            &pg,
            &src,
            order_probe_factory(),
            JobConfig::independent(1),
            Cluster::Threads,
        )
        .unwrap_or_else(|e| panic!("order-probe-k{k}: tcp job failed: {e}"));
        // The probe must actually have observed traffic...
        assert!(
            local.final_states.iter().any(|(_, s)| s.len() > 4),
            "order-probe-k{k}: probe saw no messages"
        );
        // ...and both transports the same traffic in the same order.
        assert_eq!(
            fingerprint(&local),
            fingerprint(&tcp),
            "order-probe-k{k}: (from, seq) delivery order must match"
        );
    }
}

/// Real child processes: spawn one `tempograph worker` per partition from
/// the compiled binary, drive them over localhost TCP, and require the
/// result byte-identical to the in-process run of the same GoFS dataset.
#[test]
fn spawned_worker_processes_match_in_process_run() {
    if !sockets_available() {
        return;
    }
    let (t, src) = road_fixture();
    let InstanceSource::Memory(coll) = &src else {
        unreachable!()
    };
    let dir = std::env::temp_dir().join(format!("transport-eq-gofs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pg = partitioned(&t, 3);
    tempograph::gofs::store::write_dataset(&dir, pg.clone(), coll, 2, 2).unwrap();

    // Reopen exactly as the worker processes will, so subgraph discovery
    // and instance projection go through the same code path.
    let store = GofsStore::open(&dir).unwrap();
    let pg = Arc::new(store.partitioned_graph());
    let gofs_src = InstanceSource::Gofs(dir.clone());
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();
    let factory = Sssp::factory(VertexIdx(0), Some(lat_col));

    let local = run_job(&pg, &gofs_src, &factory, JobConfig::independent(1));

    let dir_str = dir.to_str().unwrap().to_string();
    let procs = run_job_tcp(
        &pg,
        &gofs_src,
        &factory,
        JobConfig::independent(1),
        Cluster::Processes {
            worker_bin: env!("CARGO_BIN_EXE_tempograph").into(),
            worker_args: vec![
                "worker".into(),
                "--data".into(),
                dir_str,
                "--algo".into(),
                "sssp".into(),
                "--timesteps".into(),
                TIMESTEPS.to_string(),
                "--source".into(),
                "0".into(),
            ],
        },
    )
    .expect("process-cluster job failed");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(procs.recoveries, 0, "clean run must not recover");
    assert_eq!(
        fingerprint(&local),
        fingerprint(&procs),
        "worker processes must be byte-identical to the in-process run"
    );
}

// ---------------------------------------------------------------------------
// Telemetry-plane equivalence: a TCP run's JobResult must carry the same
// registry, attribution table, trace, and ledger record as an in-process
// run — the worker shards cross the wire as Telemetry frames and the
// coordinator merges them through the same fold paths `run_job` uses.
// ---------------------------------------------------------------------------

/// Canonical JSON of a result's registry snapshot with clock-measured
/// content normalised away: counter values are kept verbatim unless the
/// instrument name ends in `_ns_total` (measured time), histograms keep
/// only their observation count (observations are durations, but *how
/// many* were taken is barrier-deterministic — equal counts prove the
/// shard histograms crossed the wire and merged), gauges keep exact f64
/// bits (they are ratios of deterministic message counts).
fn registry_canonical_json(label: &str, r: &JobResult) -> String {
    let reg = r
        .registry
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: result lacks a registry"));
    let mut out = String::from("{");
    for (i, e) in reg.snapshot().metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let labels: Vec<String> = e
            .key
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let val = match &e.value {
            Metric::Counter(_) if e.key.name.ends_with("_ns_total") => {
                "\"measured-ns\"".to_string()
            }
            Metric::Counter(c) => c.to_string(),
            Metric::Gauge(g) => format!("\"gauge-bits:{:016x}\"", g.to_bits()),
            Metric::Histogram(h) => format!("{{\"count\":{}}}", h.count()),
        };
        out.push_str(&format!("\"{}[{}]\":{val}", e.key.name, labels.join(",")));
    }
    out.push('}');
    out
}

/// The per-(subgraph, timestep) attribution table with the measured
/// nanoseconds dropped — invocation counts are deterministic.
fn attribution_rows(label: &str, r: &JobResult) -> Vec<(u32, u32, u32)> {
    let attr = r
        .attribution
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: result lacks an attribution table"));
    assert!(
        !attr.rows.is_empty(),
        "{label}: attribution table must not be empty"
    );
    attr.rows
        .iter()
        .map(|row| (row.subgraph.0, row.timestep, row.invocations))
        .collect()
}

/// A stripped, seeded ledger record's canonical JSON — the exact bytes
/// `tempograph run --ledger --deterministic true` persists.
fn stripped_record_json(
    algo: &str,
    pattern: &str,
    pg: &Arc<PartitionedGraph>,
    r: &JobResult,
) -> String {
    let fp = ConfigFingerprint {
        algorithm: algo.to_string(),
        pattern: pattern.to_string(),
        partitions: pg.num_partitions() as u32,
        subgraphs: pg.subgraphs().len() as u32,
        timesteps: TIMESTEPS as u32,
        start_time: 0,
        period: 50,
        seed: 0xCAFE_F00D,
        dataset: format!("telemetry-eq-{algo}"),
        env: ConfigFingerprint::host_env(),
    };
    let mut rec = RunRecord::from_result(fp, r);
    rec.strip_nondeterminism();
    rec.to_value().write_pretty()
}

/// Per-worker-track multiset of span names. Clock domains differ between
/// an in-process run and TCP worker threads/processes, so timestamps are
/// not comparable — but the *set* of spans each worker records is, since
/// both transports drive the identical executor. Driver tracks (id ≥ k)
/// are skipped (transport-specific bookkeeping), as are `net.*` events
/// (transport-layer instrumentation the in-process path never emits).
fn worker_span_multisets(
    label: &str,
    r: &JobResult,
    k: usize,
) -> BTreeMap<u32, BTreeMap<&'static str, usize>> {
    let trace = r
        .trace
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: result lacks a trace"));
    trace
        .validate()
        .unwrap_or_else(|e| panic!("{label}: trace validation failed: {e}"));
    let mut out = BTreeMap::new();
    for t in &trace.tracks {
        if t.track >= k as u32 {
            continue;
        }
        let names: &mut BTreeMap<&'static str, usize> = out.entry(t.track).or_default();
        for ev in &t.events {
            if let TraceEvent::Span { name, .. } = ev {
                if !name.starts_with("net.") {
                    *names.entry(name).or_insert(0) += 1;
                }
            }
        }
    }
    out
}

/// Drive one algorithm through all three transports with full
/// observability armed and require the merged telemetry identical.
/// The process leg arms the workers via the CLI's `--observe true`
/// (trace stays coordinator-side only — the `worker` subcommand has no
/// trace flag — so the trace comparison covers inprocess vs tcp).
#[allow(clippy::too_many_arguments)]
fn assert_telemetry_equivalent<P, F>(
    algo: &str,
    pattern: &str,
    k: usize,
    pg: &Arc<PartitionedGraph>,
    src: &InstanceSource,
    factory: F,
    mk_cfg: impl Fn() -> JobConfig<P::Msg>,
    proc_worker_args: Option<Vec<String>>,
) where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync,
{
    let label = format!("{algo}-k{k}");
    let obs = |cfg: JobConfig<P::Msg>| cfg.with_metrics().with_attribution();

    let local = run_job(
        pg,
        src,
        &factory,
        obs(mk_cfg()).with_trace(TraceConfig::new()),
    );
    let tcp = run_job_tcp(
        pg,
        src,
        &factory,
        obs(mk_cfg()).with_trace(TraceConfig::new()),
        Cluster::Threads,
    )
    .unwrap_or_else(|e| panic!("{label}: tcp job failed: {e}"));

    assert_eq!(
        fingerprint(&local),
        fingerprint(&tcp),
        "{label}: TCP result must be byte-identical"
    );
    assert_eq!(
        registry_canonical_json(&format!("{label}-local"), &local),
        registry_canonical_json(&format!("{label}-tcp"), &tcp),
        "{label}: merged registry must match the in-process fold"
    );
    assert_eq!(
        attribution_rows(&format!("{label}-local"), &local),
        attribution_rows(&format!("{label}-tcp"), &tcp),
        "{label}: per-(subgraph, timestep) attribution must match"
    );
    assert_eq!(
        stripped_record_json(algo, pattern, pg, &local),
        stripped_record_json(algo, pattern, pg, &tcp),
        "{label}: stripped ledger records must be byte-identical"
    );
    // Shard histograms really crossed the wire: the merged distribution
    // holds one compute observation per superstep per worker.
    let h = tcp
        .registry
        .as_ref()
        .unwrap()
        .snapshot()
        .get("tempograph_superstep_compute_ns", &[])
        .cloned()
        .unwrap_or_else(|| panic!("{label}: merged registry lacks the compute histogram"));
    match h {
        Metric::Histogram(h) => assert!(h.count() > 0, "{label}: compute histogram is empty"),
        other => panic!("{label}: expected a histogram, got {other:?}"),
    }
    let local_spans = worker_span_multisets(&format!("{label}-local"), &local, k);
    let tcp_spans = worker_span_multisets(&format!("{label}-tcp"), &tcp, k);
    assert!(
        local_spans.values().any(|m| !m.is_empty()),
        "{label}: in-process trace recorded no worker spans"
    );
    assert_eq!(
        local_spans, tcp_spans,
        "{label}: per-worker span multisets must match modulo clock domains"
    );

    if let Some(worker_args) = proc_worker_args {
        let procs = run_job_tcp(
            pg,
            src,
            &factory,
            obs(mk_cfg()),
            Cluster::Processes {
                worker_bin: env!("CARGO_BIN_EXE_tempograph").into(),
                worker_args,
            },
        )
        .unwrap_or_else(|e| panic!("{label}: process-cluster job failed: {e}"));
        assert_eq!(
            fingerprint(&local),
            fingerprint(&procs),
            "{label}: process-cluster result must be byte-identical"
        );
        assert_eq!(
            registry_canonical_json(&format!("{label}-local"), &local),
            registry_canonical_json(&format!("{label}-procs"), &procs),
            "{label}: process-cluster registry must match the in-process fold"
        );
        assert_eq!(
            attribution_rows(&format!("{label}-local"), &local),
            attribution_rows(&format!("{label}-procs"), &procs),
            "{label}: process-cluster attribution must match"
        );
        assert_eq!(
            stripped_record_json(algo, pattern, pg, &local),
            stripped_record_json(algo, pattern, pg, &procs),
            "{label}: process-cluster ledger record must be byte-identical"
        );
    }
}

/// Write `coll` as a GoFS store partitioned `k` ways and reopen it the
/// way worker processes will.
fn gofs_fixture(
    tag: &str,
    t: &Arc<GraphTemplate>,
    coll: &Arc<TimeSeriesCollection>,
    k: usize,
) -> (std::path::PathBuf, Arc<PartitionedGraph>, InstanceSource) {
    let dir = std::env::temp_dir().join(format!("telemetry-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pg = partitioned(t, k);
    tempograph::gofs::store::write_dataset(&dir, pg, coll, 2, 2).unwrap();
    let store = GofsStore::open(&dir).unwrap();
    let pg = Arc::new(store.partitioned_graph());
    let src = InstanceSource::Gofs(dir.clone());
    (dir, pg, src)
}

/// HASH (eventually dependent, Merge-BSP convergecast) ships telemetry
/// identically over all three transports at 3 and 6 partitions.
#[test]
fn hashtag_telemetry_is_transport_equivalent_at_3_and_6_partitions() {
    if !sockets_available() {
        return;
    }
    let (t, src, _) = tweet_fixture();
    let InstanceSource::Memory(coll) = &src else {
        unreachable!()
    };
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    for k in [3, 6] {
        let (dir, pg, gofs_src) = gofs_fixture(&format!("hash-k{k}"), &t, coll, k);
        let worker_args = vec![
            "worker".into(),
            "--data".into(),
            dir.to_str().unwrap().into(),
            "--algo".into(),
            "hash".into(),
            "--timesteps".into(),
            TIMESTEPS.to_string(),
            "--meme".into(),
            "#meme".into(),
            "--observe".into(),
            "true".into(),
        ];
        assert_telemetry_equivalent(
            "hash",
            "eventually-dependent",
            k,
            &pg,
            &gofs_src,
            HashtagAggregation::factory("#meme", tweets_col),
            || JobConfig::eventually_dependent(TIMESTEPS),
            Some(worker_args),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// TDSP (sequentially dependent, while-active) ships telemetry
/// identically over all three transports at 3 and 6 partitions.
#[test]
fn tdsp_telemetry_is_transport_equivalent_at_3_and_6_partitions() {
    if !sockets_available() {
        return;
    }
    let (t, src) = road_fixture();
    let InstanceSource::Memory(coll) = &src else {
        unreachable!()
    };
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();
    for k in [3, 6] {
        let (dir, pg, gofs_src) = gofs_fixture(&format!("tdsp-k{k}"), &t, coll, k);
        let worker_args = vec![
            "worker".into(),
            "--data".into(),
            dir.to_str().unwrap().into(),
            "--algo".into(),
            "tdsp".into(),
            "--timesteps".into(),
            TIMESTEPS.to_string(),
            "--source".into(),
            "0".into(),
            "--observe".into(),
            "true".into(),
        ];
        assert_telemetry_equivalent(
            "tdsp",
            "sequentially-dependent",
            k,
            &pg,
            &gofs_src,
            Tdsp::factory(VertexIdx(0), lat_col),
            || JobConfig::sequentially_dependent(TIMESTEPS).while_active(TIMESTEPS),
            Some(worker_args),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// With no observability armed, a TCP job result carries no trace, no
/// registry, and no attribution — and the coordinator would reject any
/// Telemetry frame with a protocol error, so equal results also prove no
/// telemetry frames were sent.
#[test]
fn disabled_observability_ships_no_telemetry() {
    if !sockets_available() {
        return;
    }
    let (t, src) = road_fixture();
    let pg = partitioned(&t, 3);
    let tcp = run_job_tcp(
        &pg,
        &src,
        Wcc::factory(),
        JobConfig::independent(1),
        Cluster::Threads,
    )
    .expect("disabled-observability tcp job failed");
    assert!(tcp.trace.is_none(), "unexpected trace on a disabled run");
    assert!(
        tcp.registry.is_none(),
        "unexpected registry on a disabled run"
    );
    assert!(
        tcp.attribution.is_none(),
        "unexpected attribution on a disabled run"
    );
}

// ---------------------------------------------------------------------------
// Failure equivalence: one driver decides how every cluster fails, so the
// same broken job fails with the same typed error on each of them.
// ---------------------------------------------------------------------------

/// A message whose decode always fails: any batch that crosses a
/// partition boundary is undeliverable.
#[derive(Clone)]
struct Undecodable;

impl WireMsg for Undecodable {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        buf.put_u8(0);
    }
    fn decode(_buf: &mut bytes::Bytes) -> Result<Self, WireError> {
        Err(WireError::BadTag {
            context: "Undecodable",
            tag: 0,
        })
    }
}

/// At superstep 0, every subgraph outside the target's partition sends
/// one message to `target`, so exactly one worker (the target's) has
/// remote messages to decode, and fails.
struct SendToOne {
    target: Option<SubgraphId>,
}

impl SubgraphProgram for SendToOne {
    type Msg = Undecodable;

    fn compute(&mut self, ctx: &mut Context<'_, Undecodable>, _msgs: &[Envelope<Undecodable>]) {
        if let Some(target) = self.target.take() {
            ctx.send_to_subgraph(target, Undecodable);
        }
        ctx.vote_to_halt();
    }
}

/// A worker's typed error ends the job with that error, equal on the
/// in-process cluster and the TCP thread cluster — never a panic.
#[test]
fn typed_worker_error_is_transport_equivalent() {
    if !sockets_available() {
        return;
    }
    let (t, src) = road_fixture();
    let pg = partitioned(&t, 3);
    let target = pg
        .subgraphs()
        .iter()
        .find(|s| s.partition() == 1)
        .map(|s| s.id())
        .expect("partition 1 owns a subgraph");
    let factory = |sg: &Subgraph, _: &PartitionedGraph| SendToOne {
        target: (sg.partition() != 1).then_some(target),
    };
    let run = |cluster| run_job_tcp(&pg, &src, factory, JobConfig::independent(1), cluster);
    let local = run(Cluster::InProcess).expect_err("in-process job must fail");
    let tcp = run(Cluster::Threads).expect_err("tcp job must fail");
    assert!(matches!(local, EngineError::Wire(_)), "{local}");
    assert_eq!(local, tcp, "both clusters must fail with the same error");
}

/// Run the `tempograph` CLI; returns its exit code and stderr.
fn tempograph_cli(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tempograph"))
        .args(args)
        .output()
        .expect("spawn the tempograph binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `run` on every transport, against a 3-partition road dataset, with
/// `extra` flags; asserts each fails with exit code 1 (not a panic's 101)
/// and an `error:` line containing `expect`.
fn assert_cli_fails_everywhere(tag: &str, extra: &[&str], expect: &str) {
    let (t, src) = road_fixture();
    let InstanceSource::Memory(coll) = &src else {
        unreachable!()
    };
    let (dir, _, _) = gofs_fixture(tag, &t, coll, 3);
    for transport in ["inprocess", "tcp", "tcp-process"] {
        let mut args = vec![
            "run",
            "--algo",
            "tdsp",
            "--data",
            dir.to_str().unwrap(),
            "--transport",
            transport,
        ];
        args.extend_from_slice(extra);
        let (code, stderr) = tempograph_cli(&args);
        assert_eq!(code, Some(1), "{tag} on {transport}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {transport} job failed: ")) && stderr.contains(expect),
            "{tag} on {transport}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected worker death without checkpointing fails the job the same
/// way on every transport.
#[test]
fn cli_worker_death_fails_alike_on_every_transport() {
    if !sockets_available() {
        return;
    }
    assert_cli_fails_everywhere(
        "cli-death",
        &["--faults", "panic@p1:t2:s0"],
        "remote worker for partition 1 died",
    );
}

/// A checkpoint directory that cannot be created is a typed error on every
/// transport, not a panic.
#[test]
fn cli_bad_checkpoint_dir_fails_alike_on_every_transport() {
    if !sockets_available() {
        return;
    }
    let file = std::env::temp_dir().join(format!("cli-ckfile-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let ckdir = file.join("ck");
    assert_cli_fails_everywhere(
        "cli-ckdir",
        &[
            "--checkpoint-dir",
            ckdir.to_str().unwrap(),
            "--checkpoint-every",
            "2",
        ],
        "checkpoint failure",
    );
    let _ = std::fs::remove_file(&file);
}

/// A zero checkpoint interval is a usage error, not a builder panic.
#[test]
fn cli_zero_checkpoint_interval_is_an_error() {
    let (code, stderr) = tempograph_cli(&[
        "run",
        "--algo",
        "tdsp",
        "--data",
        "unused",
        "--checkpoint-dir",
        "unused",
        "--checkpoint-every",
        "0",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("error: --checkpoint-every must be an integer >= 1"),
        "{stderr}"
    );
}
