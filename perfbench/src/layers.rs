//! Calls into single layers, each timed from outside: set-up (partition,
//! subgraph discovery, GoFS write and open), cold GoFS loads, message
//! batch codec and merge, barrier rounds, frame round trips and codec,
//! the vertex-centric baseline and the run ledger.

use crate::measure::{median, Spans};
use crate::workload::{Algo, BINNING, PACKING, PARTITIONS};
use bytes::{Bytes, BytesMut};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tempograph::algos::tdsp::TdspMsg;
use tempograph::engine::net::{encode_payload, Frame, FrameConn, FrameKind};
use tempograph::engine::{
    merge_sorted_runs, Contribution, Envelope, JobResult, MessageBatch, SyncPoint, WireMsg,
};
use tempograph::gofs::{GofsStore, InstanceLoader, LoaderStats};
use tempograph::ledger::{ConfigFingerprint, Ledger, RunRecord};
use tempograph::partition::{
    discover_subgraphs, edge_cut, MultilevelPartitioner, PartitionedGraph, Partitioner, SubgraphId,
};
use tempograph::pregel::{run_pregel, SsspVertex};
use tempograph::prelude::{TimeSeriesCollection, VertexIdx};

/// Timings and sizes of one set-up: the work `setup_s` measures.
#[derive(Clone, Debug, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub multilevel_s: f64,
    pub discover_s: f64,
    pub write_s: f64,
    pub open_s: f64,
    pub write_mb: f64,
    pub cut_edges: u64,
    pub subgraphs: u64,
}

/// Partition the series' template, discover subgraphs, write the GoFS
/// store to `dir` (which must not exist) and open it again.
pub fn setup(
    series: &TimeSeriesCollection,
    dir: &Path,
    spans: &mut Spans,
) -> Result<SetupTimes, String> {
    let template = series.template().clone();
    let mut out = SetupTimes::default();
    let (res, total_s) = spans.time("setup", |spans| -> Result<(), String> {
        let (parts, s) = spans.time("partition.multilevel", |_| {
            MultilevelPartitioner::default().partition(&template, PARTITIONS)
        });
        out.multilevel_s = s;
        out.cut_edges = edge_cut(&template, &parts) as u64;
        let (pg, s) = spans.time("partition.discover", |_| {
            Arc::new(discover_subgraphs(template.clone(), parts))
        });
        out.discover_s = s;
        out.subgraphs = pg.subgraphs().len() as u64;
        let (written, s) = spans.time("gofs.write", |_| {
            tempograph::gofs::store::write_dataset(dir, pg, series, PACKING, BINNING)
        });
        written.map_err(|e| format!("writing {}: {e}", dir.display()))?;
        out.write_s = s;
        let (opened, s) = spans.time("gofs.open", |_| GofsStore::open(dir));
        black_box(opened.map_err(|e| format!("opening {}: {e}", dir.display()))?);
        out.open_s = s;
        Ok(())
    });
    res?;
    out.total_s = total_s;
    out.write_mb = dir_bytes(dir) as f64 / (1024.0 * 1024.0);
    Ok(out)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One thread loads every (subgraph, timestep) a job touched through a
/// fresh loader per partition, in the engine's order (timestep-major).
/// Returns seconds and the summed loader statistics.
pub fn gofs_cold_load(
    store_dir: &Path,
    pg: &PartitionedGraph,
    timesteps: usize,
) -> Result<(f64, LoaderStats), String> {
    let started = Instant::now();
    let mut total = LoaderStats::default();
    for p in 0..pg.num_partitions() as u16 {
        let store = GofsStore::open(store_dir).map_err(|e| e.to_string())?;
        let mut loader = InstanceLoader::with_default_capacity(store, pg, p);
        for t in 0..timesteps {
            for &sg in pg.subgraphs_of_partition(p) {
                black_box(loader.load(sg, t).map_err(|e| e.to_string())?);
            }
        }
        let s = loader.total_stats();
        total.slice_loads += s.slice_loads;
        total.bytes_read += s.bytes_read;
        total.cache_hits += s.cache_hits;
        total.cache_misses += s.cache_misses;
        total.evictions += s.evictions;
        total.load_ns += s.load_ns;
    }
    Ok((started.elapsed().as_secs_f64(), total))
}

/// Nanoseconds per message of `MessageBatch::encode`, `MessageBatch::decode`
/// and `merge_sorted_runs`, on envelopes of the workload's message type in
/// batches of `batch` messages; each the median of several trials.
pub fn batch_codec_ns(algo: Algo, batch: usize) -> (f64, f64, f64) {
    match algo {
        Algo::Tdsp => codec_ns(batch, |i| {
            TdspMsg::Relax(VertexIdx(i as u32), 100.0 + i as f64 * 0.25)
        }),
        Algo::Meme => codec_ns(batch, |i| VertexIdx(i as u32)),
        Algo::Hash => codec_ns(batch, |i| vec![i as u64, 7, 1, (i % 5) as u64]),
    }
}

fn codec_ns<M: WireMsg + Clone>(batch: usize, payload: impl Fn(usize) -> M) -> (f64, f64, f64) {
    let batch = batch.max(1);
    // Two senders, four destination subgraphs; runs sorted by (from, seq)
    // as the engine produces them.
    let envelopes: Vec<Envelope<M>> = (0..batch)
        .map(|i| Envelope {
            from: SubgraphId((i % 2) as u32),
            to: SubgraphId(2 + (i % 4) as u32),
            seq: (i / 2) as u32,
            payload: payload(i),
        })
        .collect();
    let iters = (400_000 / batch).clamp(20, 20_000);
    let per_msg = |elapsed: f64| elapsed * 1e9 / (iters * batch) as f64;

    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut merge = Vec::new();
    let mut buf = BytesMut::new();
    for _ in 0..5 {
        let started = Instant::now();
        for _ in 0..iters {
            let mut b = MessageBatch::new();
            for e in &envelopes {
                b.push(e.clone());
            }
            buf.clear();
            b.encode(&mut buf);
            black_box(&buf);
        }
        encode.push(per_msg(started.elapsed().as_secs_f64()));

        let frozen: Bytes = buf.clone().freeze();
        let started = Instant::now();
        for _ in 0..iters {
            let mut bytes = frozen.clone();
            black_box(MessageBatch::<M>::decode(&mut bytes).expect("decode what was encoded"));
        }
        decode.push(per_msg(started.elapsed().as_secs_f64()));

        let runs: Vec<Vec<Vec<Envelope<M>>>> = (0..iters)
            .map(|_| {
                (0..2)
                    .map(|s| {
                        envelopes
                            .iter()
                            .filter(|e| e.from.0 == s)
                            .cloned()
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let started = Instant::now();
        for r in runs {
            black_box(merge_sorted_runs(r));
        }
        merge.push(per_msg(started.elapsed().as_secs_f64()));
    }
    (median(&encode), median(&decode), median(&merge))
}

/// Microseconds of `rounds` barrier rounds (`SyncPoint::arrive` then
/// `SyncPoint::barrier`) between two threads, as seen by one of them.
pub fn sync_round_us(rounds: usize) -> Vec<f64> {
    let sp = SyncPoint::new(2);
    let c = Contribution {
        msgs_sent: 1,
        all_halted: false,
    };
    std::thread::scope(|s| {
        let peer = s.spawn(|| {
            for _ in 0..rounds {
                black_box(sp.arrive(c));
                sp.barrier();
            }
        });
        let mut out = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t0 = Instant::now();
            black_box(sp.arrive(c));
            sp.barrier();
            out.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        peer.join().expect("barrier peer thread");
        out
    })
}

/// Microseconds of `n` control-frame round trips over a loopback
/// `FrameConn` pair.
pub fn frame_rtt_us(n: usize) -> Result<Vec<f64>, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> Result<(), String> {
            let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
            let mut conn = FrameConn::new(stream, "client").map_err(|e| e.to_string())?;
            for _ in 0..n {
                let f = conn.recv().map_err(|e| e.to_string())?;
                conn.send(&f).map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let mut conn = FrameConn::new(stream, "echo").map_err(|e| e.to_string())?;
        let ping = Frame::control(
            FrameKind::Contribution,
            0,
            0,
            encode_payload(&Contribution {
                msgs_sent: 1,
                all_halted: false,
            }),
        );
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let t0 = Instant::now();
            conn.send(&ping).map_err(|e| e.to_string())?;
            black_box(conn.recv().map_err(|e| e.to_string())?);
            out.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        echo.join()
            .map_err(|_| "echo thread panicked".to_string())??;
        Ok(out)
    })
}

/// `Frame::encode` + `Frame::decode` throughput in MB/s on a data frame
/// with a `payload_bytes` payload; median of several trials.
pub fn frame_codec_mb_s(payload_bytes: usize) -> f64 {
    let payload_bytes = payload_bytes.max(64);
    let frame = Frame {
        kind: FrameKind::DataSuperstep,
        sender: 0,
        epoch: 0,
        seq: 1,
        payload: Bytes::from(
            (0..payload_bytes)
                .map(|i| (i * 31) as u8)
                .collect::<Vec<u8>>(),
        ),
    };
    let iters = (64 << 20) / payload_bytes;
    let mut trials = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let mut moved = 0usize;
        for _ in 0..iters {
            let mut wire = frame.encode();
            moved += wire.len();
            black_box(Frame::decode(&mut wire).expect("decode what was encoded"));
        }
        trials.push(moved as f64 / 1e6 / started.elapsed().as_secs_f64());
    }
    median(&trials)
}

/// Vertex-centric SSSP (unit weights) from vertex 0 over the store's
/// template and partitioning: (seconds, supersteps).
pub fn pregel_sssp(pg: &PartitionedGraph) -> (f64, usize) {
    let program = SsspVertex {
        source: VertexIdx(0),
        latencies: None,
    };
    let started = Instant::now();
    let r = run_pregel(pg.template(), pg.partitioning(), &program, 1_000_000);
    let secs = started.elapsed().as_secs_f64();
    black_box(&r.states);
    (secs, r.metrics.supersteps)
}

/// `RunRecord::from_result` + `Ledger::record` of an armed job into a
/// fresh ledger directory; seconds.
pub fn ledger_record(
    result: &JobResult,
    algo: Algo,
    pg: &PartitionedGraph,
    ledger_dir: &Path,
) -> Result<f64, String> {
    let fp = ConfigFingerprint {
        algorithm: algo.cli_name().to_string(),
        pattern: match algo {
            Algo::Hash => "eventually-dependent",
            Algo::Tdsp | Algo::Meme => "sequentially-dependent",
        }
        .to_string(),
        partitions: pg.num_partitions() as u32,
        subgraphs: pg.subgraphs().len() as u32,
        timesteps: result.timesteps_run as u32,
        start_time: 0,
        period: 300,
        seed: 0,
        dataset: "perfbench".to_string(),
        env: ConfigFingerprint::host_env(),
    };
    let started = Instant::now();
    let rec = RunRecord::from_result(fp, result);
    let ledger = Ledger::open(ledger_dir).map_err(|e| e.to_string())?;
    black_box(ledger.record(&rec).map_err(|e| e.to_string())?);
    Ok(started.elapsed().as_secs_f64())
}
