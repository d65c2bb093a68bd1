//! Pluggable inter-partition transport.
//!
//! The executor's worker loop is written against one small surface — the
//! [`Transport`] trait: ship encoded `MessageBatch` frames to peers
//! ([`Transport::send`]), collect the frames peers shipped here
//! ([`Transport::exchange`]), and rendezvous at barriers that fold the
//! halting votes ([`Transport::arrive`] / [`Transport::barrier`]). Two
//! implementations exist:
//!
//! * [`InProcess`] — today's simulated cluster: crossbeam channels between
//!   worker threads and a shared [`SyncPoint`] barrier. Zero behaviour
//!   change from the pre-trait engine; [`Cluster::InProcess`] runs on it.
//! * [`Tcp`] — a real cluster over loopback/LAN TCP: one full-duplex
//!   framed connection per unordered worker pair (see [`crate::net`] for
//!   the frame layout), plus one control connection per worker to a
//!   coordinator that serves barriers by folding [`Contribution`] frames
//!   into [`Aggregate`] broadcasts. Workers are in-process threads
//!   ([`Cluster::Threads`]) or real spawned worker processes
//!   ([`Cluster::Processes`], the `tempograph worker` binary).
//!
//! [`run_job_tcp`] is the one job driver for all three clusters: one
//! epoch runner per [`Cluster`] reports how an epoch ended, and the driver
//! decides recovery and assembles the result in one place.
//!
//! **Why both transports produce byte-identical results.** Delivery order
//! is canonicalised *after* transport: staged runs are merged by the
//! globally unique `(from, seq)` key, so TCP arrival nondeterminism cannot
//! leak into algorithm output. Barrier decisions are pure functions of the
//! folded [`Aggregate`], which both transports compute identically. The
//! cross-transport equivalence suite (`tests/transport_equivalence.rs`)
//! asserts this fingerprint-for-fingerprint.
//!
//! **Exactly-once delivery under injected frame faults.** Each data frame
//! carries a per-(sender → receiver) sequence number counted from 1; every
//! exchange ends with a [`crate::net::FrameKind::Sentinel`] watermark
//! declaring the cumulative count. The receiver sorts by sequence, drops
//! duplicates, skips checksum-damaged frames (the sender always follows
//! them with a clean retransmission), and fails with
//! [`EngineError::FrameLoss`] if the surviving sequence numbers do not
//! contiguously cover the watermark. See [`crate::FrameFault`] for the
//! injectable fault kinds.
//!
//! **Failure attribution.** A TCP worker that observes a dead peer reports
//! the peer's partition to the coordinator in an Abort frame before
//! unwinding; the coordinator broadcasts the abort and reaps everyone. An
//! in-process worker's death poisons the shared barrier, and its peers die
//! as cascades. On every cluster the driver surfaces a typed
//! [`EngineError::RemoteWorkerDied`] naming the *primary* death — never
//! the cascade. With checkpointing armed and an *injected* death (the
//! fault plan's panic events, or a killed worker process), it instead
//! relaunches the epoch from the latest committed checkpoint.

use crate::checkpoint;
use crate::error::{EngineError, WireError};
use crate::executor::{
    assemble_job_result, effective_timesteps, run_worker_body, JobConfig, WorkerOutput,
};
use crate::faults::{payload_is_injected, FaultPlan, FrameFault};
use crate::metrics::{AttributionRow, Emit, JobResult, MetricsShard, TimestepMetrics};
use crate::net::{
    accept_with_deadline, connect_with_retry, decode_payload, encode_payload, read_frame, AbortMsg,
    AttrRowWire, Frame, FrameConn, FrameKind, HelloMsg, MetricsShardWire, StartMsg, StatusReplyMsg,
    TelemetryMsg, TraceEventWire, WorkerStatusWire, COORDINATOR, RESUME_NONE,
};
use crate::program::SubgraphProgram;
use crate::provider::InstanceSource;
use crate::sync::{
    panic_message, payload_is_cascade, Aggregate, Contribution, PoisonOnPanic, SyncPoint,
};
use crate::wire::WireMsg;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use tempograph_partition::{PartitionedGraph, Subgraph, SubgraphId};
use tempograph_trace::{Clock, Trace, TraceEvent, TraceSink};

/// Handshake patience: how long the coordinator waits for worker hellos and
/// a worker waits for higher-numbered peers to dial its mesh listener.
/// Generous because process-mode workers pay binary startup plus graph
/// reload before their first frame.
pub(crate) const HANDSHAKE_TIMEOUT_MS: u64 = 30_000;

/// Exit code a worker process uses for an *injected* death (fault-plan
/// panic), so the coordinator can tell "recoverable drill" from "real bug"
/// across a process boundary, where panic payloads don't travel.
pub const INJECTED_EXIT_CODE: i32 = 42;

/// Which inbox a shipped frame is destined for. An enum (not a `u8` tag)
/// so every routing `match` is exhaustive — adding a delivery class forces
/// both the send and drain paths to be updated (lint rule W01).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BatchKind {
    /// Delivered at the next superstep of the current phase.
    Superstep,
    /// Delivered at superstep 0 of the next timestep.
    NextTimestep,
}

/// Inter-partition batch exchange and barrier synchronisation, as seen by
/// one worker. See the module docs for the contract both implementations
/// honour; the executor is written against this trait only.
pub trait Transport: Send {
    /// Number of partitions in the cluster (== workers, == peers + self).
    fn num_partitions(&self) -> usize;

    /// Ship one encoded `MessageBatch` frame to partition `dst`. Returns
    /// the number of *retransmissions* the transport performed (injected
    /// frame loss recovered under the exactly-once contract) — the worker
    /// accounts them as `send_retries`.
    fn send(&mut self, dst: u16, kind: BatchKind, bytes: Bytes) -> Result<u64, EngineError>;

    /// Collect every frame peers shipped to this worker during the phase
    /// that the preceding [`Transport::arrive`] closed. Must only be called
    /// between an `arrive` and the matching [`Transport::barrier`] — the
    /// rendezvous is what guarantees all peer sends are complete/in flight.
    fn exchange(&mut self) -> Result<Vec<(BatchKind, Bytes)>, EngineError>;

    /// Barrier rendezvous folding each worker's [`Contribution`] into the
    /// global [`Aggregate`] every worker receives.
    fn arrive(&mut self, c: Contribution) -> Result<Aggregate, EngineError>;

    /// Pure rendezvous: arrive with an empty contribution, discard the
    /// aggregate.
    fn barrier(&mut self) -> Result<(), EngineError> {
        self.arrive(Contribution::default()).map(|_| ())
    }

    /// Whether the worker should hand this transport per-round telemetry
    /// flushes. The default (`false`, used by [`InProcess`] and by a TCP
    /// run with observability disabled) keeps the disabled path to one
    /// virtual call and a branch: no snapshot is built, nothing allocates.
    fn wants_telemetry(&self) -> bool {
        false
    }

    /// Ship one observability snapshot to the coordinator. Called only
    /// when [`Transport::wants_telemetry`] returned `true` — once per
    /// closed timestep, plus one `final_flush` at job end.
    fn telemetry(&mut self, _flush: TelemetryFlush) -> Result<(), EngineError> {
        Ok(())
    }
}

/// One observability snapshot handed to [`Transport::telemetry`] when a
/// worker closes a timestep (or finishes the job). `events` are drained
/// increments — each trace event crosses the wire exactly once; `shard`
/// and `attr_rows` are cumulative snapshots the coordinator replaces, so
/// re-sending after recovery cannot double count.
pub struct TelemetryFlush {
    /// Timestep this flush closes.
    pub(crate) timestep: u32,
    /// Supersteps the closed timestep ran.
    pub(crate) supersteps: u32,
    /// Barrier wait accumulated in the closed timestep, nanoseconds.
    pub(crate) barrier_wait_ns: u64,
    /// True for the end-of-job flush (carries merge-phase observability).
    pub(crate) final_flush: bool,
    /// Trace events recorded since the previous flush.
    pub(crate) events: Vec<TraceEvent>,
    /// Cumulative metrics-shard snapshot (when metrics are armed).
    pub(crate) shard: Option<MetricsShard>,
    /// Cumulative attribution snapshot (when attribution is armed).
    pub(crate) attr_rows: Vec<AttributionRow>,
}

// ---- in-process transport ----------------------------------------------

/// The simulated cluster's transport: unbounded crossbeam channels between
/// worker threads, barriers on a shared [`SyncPoint`]. Behaviour (including
/// the poison-cascade panic message peers rely on) is identical to the
/// pre-trait engine.
pub struct InProcess<'a> {
    partition: u16,
    rx: Receiver<(BatchKind, Bytes)>,
    txs: Vec<Sender<(BatchKind, Bytes)>>,
    sync: &'a SyncPoint,
}

impl<'a> InProcess<'a> {
    /// Wire up one worker's endpoints: its receive side, one sender per
    /// partition, and the shared barrier.
    pub fn new(
        partition: u16,
        rx: Receiver<(BatchKind, Bytes)>,
        txs: Vec<Sender<(BatchKind, Bytes)>>,
        sync: &'a SyncPoint,
    ) -> Self {
        InProcess {
            partition,
            rx,
            txs,
            sync,
        }
    }
}

impl Transport for InProcess<'_> {
    fn num_partitions(&self) -> usize {
        self.txs.len()
    }

    fn send(&mut self, dst: u16, kind: BatchKind, bytes: Bytes) -> Result<u64, EngineError> {
        debug_assert_ne!(dst, self.partition, "local messages never reach send");
        let tx = self
            .txs
            .get(dst as usize)
            .ok_or_else(|| EngineError::Protocol {
                detail: format!("send to unknown partition {dst}"),
            })?;
        tx.send((kind, bytes)).unwrap_or_else(|_| {
            // A receiver only disappears when its worker died; surface
            // this as a cascade so recovery blames the primary failure.
            panic!("channel to partition {dst} closed: a peer worker died")
        });
        Ok(0)
    }

    fn exchange(&mut self) -> Result<Vec<(BatchKind, Bytes)>, EngineError> {
        let mut out = Vec::new();
        while let Ok(item) = self.rx.try_recv() {
            out.push(item);
        }
        Ok(out)
    }

    fn arrive(&mut self, c: Contribution) -> Result<Aggregate, EngineError> {
        Ok(self.sync.arrive(c))
    }

    fn barrier(&mut self) -> Result<(), EngineError> {
        self.sync.barrier();
        Ok(())
    }
}

// ---- TCP transport -------------------------------------------------------

fn net_error(context: String) -> impl FnOnce(std::io::Error) -> EngineError {
    move |e| EngineError::Net {
        context,
        detail: e.to_string(),
    }
}

type ReadResult = Result<(Frame, usize), EngineError>;

/// Typed out-of-range error for a peer index. Every per-peer state vector
/// (`peers_tx`, `peers_rx`, `send_seq`, `recv_done`, `held`) shares the
/// mesh length, so this only fires on a corrupt partition id.
fn bad_peer(d: usize) -> EngineError {
    EngineError::Protocol {
        detail: format!("no mesh state for partition {d}"),
    }
}

/// Write half of one peer connection.
struct PeerWriter {
    stream: TcpStream,
    label: String,
}

impl PeerWriter {
    fn send(&mut self, frame: &Frame) -> Result<usize, EngineError> {
        crate::net::write_frame(&mut self.stream, frame, &self.label)
    }

    fn send_corrupted(&mut self, frame: &Frame) -> Result<usize, EngineError> {
        crate::net::write_frame_corrupted(&mut self.stream, frame, &self.label)
    }
}

/// Read half of one peer connection: a detached thread that drains the
/// socket into an unbounded channel. Decoupling reads from the worker's
/// phase structure is what makes the mesh deadlock-free — a peer's send
/// never blocks on this worker reaching its own exchange, because the
/// kernel buffer is always being emptied. A checksum failure is pushed and
/// reading continues (the stream stays frame-aligned, the clean
/// retransmission follows); any other error is pushed and the thread exits.
fn spawn_reader(mut reader: BufReader<TcpStream>, label: String) -> Receiver<ReadResult> {
    let (tx, rx) = unbounded();
    std::thread::spawn(move || loop {
        let res = read_frame(&mut reader, &label);
        let fatal = !matches!(
            &res,
            Ok(_) | Err(EngineError::Wire(WireError::Checksum { .. }))
        );
        if tx.send(res).is_err() {
            break; // transport dropped; nobody is listening
        }
        if fatal {
            break;
        }
    });
    rx
}

/// The real-cluster transport: a full mesh of framed TCP connections
/// between workers, barriers served by the coordinator over each worker's
/// control connection. See the module docs for the exactly-once and
/// failure-attribution contracts.
pub struct Tcp {
    partition: u16,
    epoch: u32,
    coord: FrameConn,
    peers_tx: Vec<Option<PeerWriter>>,
    peers_rx: Vec<Option<Receiver<ReadResult>>>,
    /// Data frames sent per peer this epoch (the next frame's seq − 1, and
    /// the sentinel watermark).
    send_seq: Vec<u64>,
    /// Highest contiguously accounted-for seq per peer.
    recv_done: Vec<u64>,
    /// Global 1-based ordinal of data frames sent by this worker — the
    /// fault plan's `f{N}` coordinate (see [`FaultPlan::frame_fault_at`]).
    frames_sent: u64,
    /// One frame per peer held back by an injected Reorder fault; shipped
    /// after the next frame to that peer (or at the phase sentinel).
    held: Vec<Option<Frame>>,
    faults: Option<Arc<FaultPlan>>,
    tracer: TraceSink,
    peer_bytes_sent: u64,
    peer_bytes_received: u64,
    /// Whether the worker loop should hand this transport per-round
    /// telemetry flushes (any of trace/metrics/attribution armed). When
    /// false, no Telemetry frame is ever built or sent.
    telemetry_armed: bool,
}

impl Tcp {
    /// Build the peer mesh: dial every lower-numbered partition (sending a
    /// PeerHello naming us), accept every higher-numbered one (identified
    /// by *its* PeerHello) — one full-duplex connection per unordered pair.
    #[allow(clippy::too_many_arguments)]
    fn connect_mesh(
        partition: u16,
        epoch: u32,
        coord: FrameConn,
        listener: &TcpListener,
        peer_addrs: &[String],
        faults: Option<Arc<FaultPlan>>,
        tracer: TraceSink,
        telemetry_armed: bool,
    ) -> Result<Tcp, EngineError> {
        let k = peer_addrs.len();
        let me = partition as usize;
        let mut peers_tx: Vec<Option<PeerWriter>> = (0..k).map(|_| None).collect();
        let mut peers_rx: Vec<Option<Receiver<ReadResult>>> = (0..k).map(|_| None).collect();
        for (j, addr) in peer_addrs.iter().enumerate().take(me) {
            let stream = connect_with_retry(addr, &format!("partition {j}"))?;
            stream.set_nodelay(true).map_err(net_error(format!(
                "configuring connection to partition {j}"
            )))?;
            let reader = BufReader::new(
                stream
                    .try_clone()
                    .map_err(net_error(format!("cloning connection to partition {j}")))?,
            );
            let mut writer = PeerWriter {
                stream,
                label: format!("partition {j}"),
            };
            writer.send(&Frame {
                kind: FrameKind::PeerHello,
                sender: partition,
                epoch,
                seq: 0,
                payload: Bytes::new(),
            })?;
            peers_rx[j] = Some(spawn_reader(reader, format!("partition {j}")));
            peers_tx[j] = Some(writer);
        }
        for _ in me + 1..k {
            let stream = accept_with_deadline(listener, HANDSHAKE_TIMEOUT_MS, "a peer handshake")?;
            stream
                .set_nodelay(true)
                .map_err(net_error("configuring an accepted peer connection".into()))?;
            let mut reader = BufReader::new(
                stream
                    .try_clone()
                    .map_err(net_error("cloning an accepted peer connection".into()))?,
            );
            let (hello, _) = read_frame(&mut reader, "peer (handshaking)")?;
            if hello.kind != FrameKind::PeerHello {
                return Err(EngineError::Protocol {
                    detail: format!("expected PeerHello on mesh accept, got {:?}", hello.kind),
                });
            }
            if hello.epoch != epoch {
                return Err(EngineError::Protocol {
                    detail: format!(
                        "PeerHello from partition {} carries epoch {} (expected {epoch})",
                        hello.sender, hello.epoch
                    ),
                });
            }
            let j = hello.sender as usize;
            if j >= k || j == me || peers_tx[j].is_some() {
                return Err(EngineError::Protocol {
                    detail: format!("unexpected PeerHello from partition {j}"),
                });
            }
            peers_rx[j] = Some(spawn_reader(reader, format!("partition {j}")));
            peers_tx[j] = Some(PeerWriter {
                stream,
                label: format!("partition {j}"),
            });
        }
        Ok(Tcp {
            partition,
            epoch,
            coord,
            peers_tx,
            peers_rx,
            send_seq: vec![0; k],
            recv_done: vec![0; k],
            frames_sent: 0,
            held: (0..k).map(|_| None).collect(),
            faults,
            tracer,
            peer_bytes_sent: 0,
            peer_bytes_received: 0,
            telemetry_armed,
        })
    }

    /// Send one control frame to the coordinator (also used by the worker
    /// wrapper after the run, for Output/Abort frames).
    fn coord_send(&mut self, frame: &Frame) -> Result<(), EngineError> {
        self.coord.send(frame)
    }

    /// Write `frame` to peer `d`, promoting any I/O failure to
    /// [`EngineError::RemoteWorkerDied`] naming that peer — a mesh
    /// connection only fails when the worker behind it is gone, and naming
    /// it is what lets the coordinator distinguish primary from cascade.
    fn send_to_peer(&mut self, d: usize, frame: &Frame) -> Result<(), EngineError> {
        let writer = self
            .peers_tx
            .get_mut(d)
            .and_then(Option::as_mut)
            .ok_or_else(|| EngineError::Protocol {
                detail: format!("no mesh connection to partition {d}"),
            })?;
        match writer.send(frame) {
            Ok(n) => {
                self.peer_bytes_sent += n as u64;
                Ok(())
            }
            Err(e) => Err(EngineError::RemoteWorkerDied {
                partition: d as u16,
                detail: e.to_string(),
            }),
        }
    }

    /// Ship `frame` to peer `d` under an optional injected fault, honouring
    /// the exactly-once contract (see [`FrameFault`]). Returns the
    /// retransmission count the fault forced.
    fn deliver(
        &mut self,
        d: usize,
        frame: Frame,
        fault: Option<FrameFault>,
    ) -> Result<u64, EngineError> {
        if let Some(FrameFault::Reorder) = fault {
            // Swap with the next frame to this peer: flush anything already
            // held, then hold this one back.
            if let Some(prev) = self.held.get_mut(d).and_then(Option::take) {
                self.send_to_peer(d, &prev)?;
            }
            *self.held.get_mut(d).ok_or_else(|| bad_peer(d))? = Some(frame);
            return Ok(0);
        }
        let retransmits = match fault {
            None | Some(FrameFault::Reorder) => {
                self.send_to_peer(d, &frame)?;
                0
            }
            Some(FrameFault::Drop) => {
                // The first transmission is lost in flight; what reaches
                // the wire is already the retransmission.
                self.send_to_peer(d, &frame)?;
                1
            }
            Some(FrameFault::Duplicate) => {
                // Two identical copies; the receiver's seq-dedup keeps one.
                self.send_to_peer(d, &frame)?;
                self.send_to_peer(d, &frame)?;
                0
            }
            Some(FrameFault::Truncate) => {
                // A checksum-damaged copy the receiver discards, then the
                // clean retransmission.
                let writer = self
                    .peers_tx
                    .get_mut(d)
                    .and_then(Option::as_mut)
                    .ok_or_else(|| EngineError::Protocol {
                        detail: format!("no mesh connection to partition {d}"),
                    })?;
                match writer.send_corrupted(&frame) {
                    Ok(n) => self.peer_bytes_sent += n as u64,
                    Err(e) => {
                        return Err(EngineError::RemoteWorkerDied {
                            partition: d as u16,
                            detail: e.to_string(),
                        })
                    }
                }
                self.send_to_peer(d, &frame)?;
                1
            }
        };
        // A frame held by an earlier Reorder ships right after this one.
        if let Some(prev) = self.held.get_mut(d).and_then(Option::take) {
            self.send_to_peer(d, &prev)?;
        }
        Ok(retransmits)
    }
}

impl Transport for Tcp {
    fn num_partitions(&self) -> usize {
        self.peers_tx.len()
    }

    fn send(&mut self, dst: u16, kind: BatchKind, bytes: Bytes) -> Result<u64, EngineError> {
        let t0 = self.tracer.now();
        let d = dst as usize;
        let fkind = match kind {
            BatchKind::Superstep => FrameKind::DataSuperstep,
            BatchKind::NextTimestep => FrameKind::DataNextTimestep,
        };
        self.frames_sent += 1;
        let seq = {
            let s = self.send_seq.get_mut(d).ok_or_else(|| bad_peer(d))?;
            *s += 1;
            *s
        };
        let frame = Frame {
            kind: fkind,
            sender: self.partition,
            epoch: self.epoch,
            seq,
            payload: bytes,
        };
        let fault = self
            .faults
            .as_ref()
            .and_then(|f| f.frame_fault(self.partition, self.frames_sent));
        let retransmits = self.deliver(d, frame, fault)?;
        let t1 = self.tracer.now();
        self.tracer
            .span_arg_at("net.send", t0, t1, "peer", dst as u64);
        self.tracer.counter("net.bytes_sent", self.peer_bytes_sent);
        Ok(retransmits)
    }

    fn exchange(&mut self) -> Result<Vec<(BatchKind, Bytes)>, EngineError> {
        let t0 = self.tracer.now();
        let k = self.peers_tx.len();
        let me = self.partition as usize;
        // Flush Reorder holds and declare this phase's watermark to every
        // peer, ascending.
        for d in 0..k {
            if d == me {
                continue;
            }
            if let Some(prev) = self.held.get_mut(d).and_then(Option::take) {
                self.send_to_peer(d, &prev)?;
            }
            let sentinel = Frame {
                kind: FrameKind::Sentinel,
                sender: self.partition,
                epoch: self.epoch,
                seq: self.send_seq.get(d).copied().ok_or_else(|| bad_peer(d))?,
                payload: Bytes::new(),
            };
            self.send_to_peer(d, &sentinel)?;
        }
        // Collect each peer's frames up to its sentinel, ascending. Blocking
        // is safe: the arrive() rendezvous that precedes every exchange
        // proves all peers finished sending, and per-connection FIFO puts
        // their data before their sentinel.
        let mut out: Vec<(BatchKind, Bytes)> = Vec::new();
        for j in 0..k {
            if j == me {
                continue;
            }
            let mut got: Vec<(u64, BatchKind, Bytes)> = Vec::new();
            let watermark = loop {
                let rx = self
                    .peers_rx
                    .get(j)
                    .and_then(Option::as_ref)
                    .ok_or_else(|| EngineError::Protocol {
                        detail: format!("no mesh connection to partition {j}"),
                    })?;
                let res = match rx.recv() {
                    Ok(res) => res,
                    Err(_) => {
                        return Err(EngineError::RemoteWorkerDied {
                            partition: j as u16,
                            detail: "mesh connection lost".into(),
                        })
                    }
                };
                let (frame, n) = match res {
                    Ok(pair) => pair,
                    // A damaged frame was discarded; its retransmission is
                    // behind it on the same connection.
                    Err(EngineError::Wire(WireError::Checksum { .. })) => continue,
                    Err(e) => {
                        return Err(EngineError::RemoteWorkerDied {
                            partition: j as u16,
                            detail: e.to_string(),
                        })
                    }
                };
                self.peer_bytes_received += n as u64;
                if frame.epoch != self.epoch {
                    return Err(EngineError::Protocol {
                        detail: format!(
                            "frame from partition {j} carries epoch {} (expected {})",
                            frame.epoch, self.epoch
                        ),
                    });
                }
                match frame.kind {
                    FrameKind::Sentinel => break frame.seq,
                    FrameKind::DataSuperstep => {
                        got.push((frame.seq, BatchKind::Superstep, frame.payload));
                    }
                    FrameKind::DataNextTimestep => {
                        got.push((frame.seq, BatchKind::NextTimestep, frame.payload));
                    }
                    other => {
                        return Err(EngineError::Protocol {
                            detail: format!(
                                "unexpected {other:?} frame from partition {j} during exchange"
                            ),
                        })
                    }
                }
            };
            // Canonicalise: injected reordering sorts out, duplicates drop
            // out, and the sentinel convicts any genuine loss.
            got.sort_by_key(|(seq, _, _)| *seq);
            got.dedup_by_key(|(seq, _, _)| *seq);
            let done = self.recv_done.get_mut(j).ok_or_else(|| bad_peer(j))?;
            let mut covered = *done;
            for (seq, _, _) in &got {
                if *seq != covered + 1 {
                    return Err(EngineError::FrameLoss {
                        peer: j as u16,
                        expected: watermark,
                        got: covered,
                    });
                }
                covered = *seq;
            }
            if covered != watermark {
                return Err(EngineError::FrameLoss {
                    peer: j as u16,
                    expected: watermark,
                    got: covered,
                });
            }
            *done = watermark;
            out.extend(got.into_iter().map(|(_, kind, payload)| (kind, payload)));
        }
        let t1 = self.tracer.now();
        self.tracer.span_at("net.recv", t0, t1);
        self.tracer
            .counter("net.bytes_recv", self.peer_bytes_received);
        Ok(out)
    }

    fn arrive(&mut self, c: Contribution) -> Result<Aggregate, EngineError> {
        let t0 = self.tracer.now();
        self.coord.send(&Frame::control(
            FrameKind::Contribution,
            self.partition,
            self.epoch,
            encode_payload(&c),
        ))?;
        let frame = self.coord.recv()?;
        let result = match frame.kind {
            FrameKind::Aggregate => {
                if frame.epoch != self.epoch {
                    return Err(EngineError::Protocol {
                        detail: format!(
                            "aggregate carries epoch {} (expected {})",
                            frame.epoch, self.epoch
                        ),
                    });
                }
                decode_payload::<Aggregate>(frame.payload)
            }
            FrameKind::Abort => {
                let abort: AbortMsg = decode_payload(frame.payload)?;
                Err(EngineError::RemoteWorkerDied {
                    partition: abort.dead_partition,
                    detail: abort.detail,
                })
            }
            other => Err(EngineError::Protocol {
                detail: format!("unexpected {other:?} frame from coordinator at a barrier"),
            }),
        };
        let t1 = self.tracer.now();
        self.tracer.span_at("net.barrier", t0, t1);
        result
    }

    fn wants_telemetry(&self) -> bool {
        self.telemetry_armed
    }

    fn telemetry(&mut self, mut flush: TelemetryFlush) -> Result<(), EngineError> {
        // The transport's own net.* spans and byte counters ride along
        // with the worker's events — same track, merged at assembly.
        flush.events.extend(self.tracer.take_events());
        let msg = TelemetryMsg {
            timestep: flush.timestep,
            supersteps: flush.supersteps,
            barrier_wait_ns: flush.barrier_wait_ns,
            clock_ns: self.tracer.now(),
            bytes_sent: self.coord.bytes_sent() + self.peer_bytes_sent,
            bytes_received: self.coord.bytes_received() + self.peer_bytes_received,
            final_flush: flush.final_flush,
            events: flush
                .events
                .iter()
                .map(TraceEventWire::from_event)
                .collect(),
            shard: flush.shard.as_ref().map(MetricsShardWire::from_shard),
            attr: flush.attr_rows.iter().map(AttrRowWire::from_row).collect(),
        };
        self.coord_send(&Frame::control(
            FrameKind::Telemetry,
            self.partition,
            self.epoch,
            encode_payload(&msg),
        ))
    }
}

// ---- worker results on the wire -----------------------------------------

/// The transportable subset of a worker's results, shipped in the final
/// Output frame. Observability state (trace events, metrics shards,
/// attribution rows) travels separately, in the Telemetry frames each
/// barrier round and the final flush emit — the coordinator grafts it
/// back onto these essentials before assembling the [`JobResult`].
pub(crate) struct WorkerEssentials {
    pub(crate) metrics: Vec<TimestepMetrics>,
    pub(crate) merge_metrics: TimestepMetrics,
    pub(crate) counters: Vec<Vec<(String, u64)>>,
    pub(crate) merge_counters: Vec<(String, u64)>,
    pub(crate) emits: Vec<Emit>,
    pub(crate) timesteps_run: u64,
    pub(crate) final_states: Vec<(SubgraphId, Vec<u8>)>,
}

fn counters_row(row: &BTreeMap<&'static str, u64>) -> Vec<(String, u64)> {
    row.iter().map(|(&n, &v)| (n.to_string(), v)).collect()
}

fn intern_row(row: Vec<(String, u64)>) -> BTreeMap<&'static str, u64> {
    row.into_iter()
        .map(|(n, v)| (checkpoint::intern(&n), v))
        .collect()
}

impl WorkerEssentials {
    pub(crate) fn from_output(out: &WorkerOutput) -> WorkerEssentials {
        WorkerEssentials {
            metrics: out.metrics.clone(),
            merge_metrics: out.merge_metrics.clone(),
            counters: out.counters.iter().map(counters_row).collect(),
            merge_counters: counters_row(&out.merge_counters),
            emits: out.emits.clone(),
            timesteps_run: out.timesteps_run as u64,
            final_states: out.final_states.clone(),
        }
    }

    pub(crate) fn into_output(self) -> WorkerOutput {
        WorkerOutput {
            metrics: self.metrics,
            merge_metrics: self.merge_metrics,
            counters: self.counters.into_iter().map(intern_row).collect(),
            merge_counters: intern_row(self.merge_counters),
            emits: self.emits,
            timesteps_run: self.timesteps_run as usize,
            final_states: self.final_states,
            sinks: Vec::new(),
            shard: None,
            attr_rows: Vec::new(),
        }
    }

    pub(crate) fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        (self.metrics.len() as u32).encode(&mut buf);
        for m in &self.metrics {
            checkpoint::put_metrics(&mut buf, m);
        }
        checkpoint::put_metrics(&mut buf, &self.merge_metrics);
        (self.counters.len() as u32).encode(&mut buf);
        for row in &self.counters {
            put_counter_row(&mut buf, row);
        }
        put_counter_row(&mut buf, &self.merge_counters);
        (self.emits.len() as u32).encode(&mut buf);
        for e in &self.emits {
            (e.timestep as u64).encode(&mut buf);
            e.vertex.encode(&mut buf);
            e.value.encode(&mut buf);
        }
        self.timesteps_run.encode(&mut buf);
        (self.final_states.len() as u32).encode(&mut buf);
        for (sg, state) in &self.final_states {
            sg.encode(&mut buf);
            (state.len() as u32).encode(&mut buf);
            buf.put_slice(state);
        }
        buf.freeze()
    }

    pub(crate) fn decode(mut buf: Bytes) -> Result<WorkerEssentials, EngineError> {
        let n_metrics = u32::decode(&mut buf)? as usize;
        let mut metrics = Vec::new();
        for _ in 0..n_metrics {
            metrics.push(get_metrics(&mut buf)?);
        }
        let merge_metrics = get_metrics(&mut buf)?;
        let n_rows = u32::decode(&mut buf)? as usize;
        let mut counters = Vec::new();
        for _ in 0..n_rows {
            counters.push(get_counter_row(&mut buf)?);
        }
        let merge_counters = get_counter_row(&mut buf)?;
        let n_emits = u32::decode(&mut buf)? as usize;
        let mut emits = Vec::new();
        for _ in 0..n_emits {
            emits.push(Emit {
                timestep: u64::decode(&mut buf)? as usize,
                vertex: tempograph_core::VertexIdx::decode(&mut buf)?,
                value: f64::decode(&mut buf)?,
            });
        }
        let timesteps_run = u64::decode(&mut buf)?;
        let n_states = u32::decode(&mut buf)? as usize;
        let mut final_states = Vec::new();
        for _ in 0..n_states {
            let sg = SubgraphId::decode(&mut buf)?;
            let len = u32::decode(&mut buf)? as usize;
            if buf.remaining() < len {
                return Err(EngineError::Wire(WireError::Eof {
                    context: "final program state",
                    needed: len,
                    remaining: buf.remaining(),
                }));
            }
            final_states.push((sg, buf.split_to(len).to_vec()));
        }
        if buf.remaining() != 0 {
            return Err(EngineError::Protocol {
                detail: format!("{} trailing bytes after worker results", buf.remaining()),
            });
        }
        Ok(WorkerEssentials {
            metrics,
            merge_metrics,
            counters,
            merge_counters,
            emits,
            timesteps_run,
            final_states,
        })
    }
}

fn put_counter_row(buf: &mut BytesMut, row: &[(String, u64)]) {
    (row.len() as u32).encode(buf);
    for (name, v) in row {
        name.encode(buf);
        v.encode(buf);
    }
}

fn get_counter_row(buf: &mut Bytes) -> Result<Vec<(String, u64)>, EngineError> {
    let n = u32::decode(buf)? as usize;
    let mut row = Vec::new();
    for _ in 0..n {
        row.push((String::decode(buf)?, u64::decode(buf)?));
    }
    Ok(row)
}

fn get_metrics(buf: &mut Bytes) -> Result<TimestepMetrics, EngineError> {
    checkpoint::get_metrics(buf).map_err(|e| EngineError::Protocol {
        detail: format!("worker results metrics: {e}"),
    })
}

// ---- worker side ---------------------------------------------------------

/// One TCP worker, start to finish: handshake with the coordinator, build
/// the peer mesh, run the TI-BSP loop over the [`Tcp`] transport, ship the
/// results back. On a peer death observed first-hand, reports the dead
/// partition to the coordinator (an Abort frame) before unwinding, so the
/// coordinator can attribute the primary failure even when the dying
/// worker's own connection reset is observed later.
fn tcp_worker<P, F>(
    coord_addr: &str,
    partition: u16,
    pg: &Arc<PartitionedGraph>,
    source: &InstanceSource,
    factory: &F,
    config: &JobConfig<P::Msg>,
    timesteps: usize,
) -> Result<(), EngineError>
where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync,
{
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(net_error("binding the peer-mesh listener".into()))?;
    let listen_addr = listener
        .local_addr()
        .map_err(net_error("resolving the peer-mesh listener address".into()))?
        .to_string();
    let stream = connect_with_retry(coord_addr, "coordinator")?;
    let mut coord = FrameConn::new(stream, "coordinator")?;
    coord.send(&Frame::control(
        FrameKind::Hello,
        partition,
        0,
        encode_payload(&HelloMsg {
            partition,
            listen_addr,
        }),
    ))?;
    let frame = coord.recv()?;
    if frame.kind != FrameKind::Start {
        return Err(EngineError::Protocol {
            detail: format!("expected Start from coordinator, got {:?}", frame.kind),
        });
    }
    let start: StartMsg = decode_payload(frame.payload)?;
    if let Some(faults) = &config.faults {
        // One-shot events consumed in earlier epochs stay consumed: a
        // relaunched worker process must not re-fire them.
        faults.mark_fired(&start.fired);
    }
    let resume_from = (start.resume_from != RESUME_NONE).then_some(start.resume_from);
    let tracer = config
        .trace
        .map(|tc| tc.sink(partition as u32))
        .unwrap_or_else(TraceSink::inert);
    let telemetry_armed = config.trace.is_some() || config.metrics || config.attribution;
    let mut tcp = Tcp::connect_mesh(
        partition,
        start.epoch,
        coord,
        &listener,
        &start.peer_addrs,
        config.faults.clone(),
        tracer,
        telemetry_armed,
    )?;
    let epoch = start.epoch;
    let out = run_worker_body::<P, F>(
        partition,
        pg,
        source,
        factory,
        config,
        timesteps,
        resume_from,
        &mut tcp,
    );
    match out {
        Ok(mut output) => {
            if tcp.wants_telemetry() {
                // Final flush: drain whatever the per-round flushes did not
                // cover (merge-phase events, the provider's GoFS sink, the
                // last cumulative shard/attribution snapshots). Sent before
                // the Output frame so the coordinator has the complete
                // picture by the time it assembles the JobResult.
                let mut events = Vec::new();
                for (_, sink) in &mut output.sinks {
                    events.extend(sink.take_events());
                }
                tcp.telemetry(TelemetryFlush {
                    timestep: output.timesteps_run.saturating_sub(1) as u32,
                    supersteps: 0,
                    barrier_wait_ns: 0,
                    final_flush: true,
                    events,
                    shard: output.shard.take().map(|b| *b),
                    attr_rows: std::mem::take(&mut output.attr_rows),
                })?;
            }
            let essentials = WorkerEssentials::from_output(&output);
            tcp.coord_send(&Frame::control(
                FrameKind::Output,
                partition,
                epoch,
                essentials.encode(),
            ))?;
            Ok(())
        }
        Err(e) => {
            if let EngineError::RemoteWorkerDied {
                partition: dead,
                detail,
            } = &e
            {
                // Best-effort: name the primary death for the coordinator.
                let _ = tcp.coord_send(&Frame::control(
                    FrameKind::Abort,
                    partition,
                    epoch,
                    encode_payload(&AbortMsg {
                        dead_partition: *dead,
                        detail: detail.clone(),
                    }),
                ));
            }
            Err(e)
        }
    }
}

/// Worker-process entry point (the `tempograph worker` subcommand). Runs
/// [`tcp_worker`] on a joinable thread so an injected panic can be mapped
/// to [`INJECTED_EXIT_CODE`] — the cross-process substitute for the panic
/// payload an in-process epoch inspects. Returns the process exit code.
pub fn run_tcp_worker<P, F>(
    coordinator: String,
    partition: u16,
    pg: Arc<PartitionedGraph>,
    source: InstanceSource,
    factory: F,
    config: JobConfig<P::Msg>,
) -> i32
where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync + 'static,
{
    let handle = std::thread::spawn(move || {
        let timesteps = effective_timesteps(&config, source.num_timesteps())?;
        tcp_worker::<P, F>(
            &coordinator,
            partition,
            &pg,
            &source,
            &factory,
            &config,
            timesteps,
        )
    });
    match handle.join() {
        Ok(Ok(())) => 0,
        Ok(Err(e)) => {
            eprintln!("worker for partition {partition} failed: {e}");
            1
        }
        Err(payload) => {
            if payload_is_injected(payload.as_ref()) {
                INJECTED_EXIT_CODE
            } else {
                eprintln!(
                    "worker for partition {partition} panicked: {}",
                    panic_message(payload.as_ref())
                );
                101
            }
        }
    }
}

// ---- coordinator side ----------------------------------------------------

/// How [`run_job_tcp`] hosts its workers.
pub enum Cluster {
    /// Workers are scoped threads in this process, exchanging batches over
    /// crossbeam channels ([`InProcess`]) and meeting at a shared
    /// [`SyncPoint`] — the simulated cluster [`crate::run_job`] runs on.
    /// Binds no socket and serves no status board; worker outputs carry
    /// their trace, metrics and attribution straight back.
    InProcess,
    /// Workers are threads in this process dialing the coordinator over
    /// loopback TCP — every frame really crosses a socket, no process
    /// boundary. The default for tests: fast, and panic payloads stay
    /// inspectable.
    Threads,
    /// Workers are real spawned processes running `worker_bin` with
    /// `worker_args` plus `--partition N --coordinator ADDR` appended.
    /// The binary must reconstruct the same graph, program, and config
    /// from those args (the `tempograph worker` subcommand does).
    Processes {
        /// Path to the worker binary (usually `std::env::current_exe()`).
        worker_bin: PathBuf,
        /// Arguments before the appended per-worker pair — subcommand,
        /// data directory, algorithm, fault spec, checkpoint flags.
        worker_args: Vec<String>,
    },
}

/// Coordinator-side evidence of a worker death (not yet attributed to
/// injection or a real bug — that needs the join result / exit status).
struct Death {
    partition: u16,
    detail: String,
}

/// How one epoch ended, after every worker was reaped.
enum EpochEnd {
    /// All workers reported results, indexed by partition.
    Done(Vec<WorkerOutput>),
    /// A worker died; `injected` decides recoverability, `typed` carries a
    /// deterministic worker error to re-surface verbatim.
    Died {
        partition: u16,
        detail: String,
        injected: bool,
        typed: Option<EngineError>,
    },
}

/// Broadcast an Abort naming the primary death to every live worker
/// connection (best-effort; TCP buffers absorb the frames for workers that
/// reach their next barrier later), and return the evidence.
fn abort_cluster(conns: &mut [Option<FrameConn>], primary: u16, detail: String) -> Death {
    let payload = encode_payload(&AbortMsg {
        dead_partition: primary,
        detail: detail.clone(),
    });
    for conn in conns.iter_mut().flatten() {
        let _ = conn.send(&Frame::control(
            FrameKind::Abort,
            COORDINATOR,
            0,
            payload.clone(),
        ));
    }
    Death {
        partition: primary,
        detail,
    }
}

// ---- coordinator-side telemetry ------------------------------------------

/// Per-partition observability accumulated at the coordinator from
/// Telemetry frames.
struct PartTelemetry {
    /// Decoded trace events, in arrival order (worker clock domain).
    events: Vec<TraceEvent>,
    /// Latest cumulative metrics-shard snapshot.
    shard: Option<MetricsShard>,
    /// Latest cumulative attribution snapshot.
    attr_rows: Vec<AttributionRow>,
}

/// The coordinator's half of the telemetry plane: ingests Telemetry frames
/// during [`serve_epoch`], keeps the live status board, judges stragglers
/// over complete barrier rounds, and grafts the accumulated observability
/// back onto the epoch's outputs so [`assemble_job_result`] sees exactly
/// what an in-process epoch hands back.
pub(crate) struct CoordTelemetry {
    parts: Vec<PartTelemetry>,
    /// Straggler threshold (multiple of the round's median barrier wait).
    straggler_factor: f64,
    /// Barrier-wait reports per timestep — `(partition, wait_ns,
    /// clock_ns)` per worker — judged once the round is complete.
    rounds: BTreeMap<u32, Vec<(u16, u64, u64)>>,
    /// Live status board, shared with the status-server thread.
    board: Arc<Mutex<StatusBoard>>,
}

impl CoordTelemetry {
    fn new(k: usize, straggler_factor: f64) -> CoordTelemetry {
        CoordTelemetry {
            parts: (0..k)
                .map(|_| PartTelemetry {
                    events: Vec::new(),
                    shard: None,
                    attr_rows: Vec::new(),
                })
                .collect(),
            straggler_factor,
            rounds: BTreeMap::new(),
            board: Arc::new(Mutex::new(StatusBoard::new(k))),
        }
    }

    /// Discard a failed epoch's accumulation. The relaunched workers
    /// re-record events from the restore point and re-send cumulative
    /// snapshots, so keeping the dead epoch's state would double count —
    /// this mirrors an in-process run, whose result only carries the final
    /// successful attempt's sinks and shards.
    fn reset(&mut self, epoch: u32) {
        for part in &mut self.parts {
            part.events.clear();
            part.shard = None;
            part.attr_rows.clear();
        }
        self.rounds.clear();
        lock_board(&self.board).reset(epoch);
    }

    /// Ingest one Telemetry frame from partition `p`: append drained
    /// events, replace cumulative snapshots, update the status board, and
    /// judge the barrier round once all `k` workers reported it.
    fn ingest(&mut self, p: usize, payload: Bytes) -> Result<(), EngineError> {
        let msg: TelemetryMsg = decode_payload(payload)?;
        if p >= self.parts.len() {
            return Err(EngineError::Protocol {
                detail: format!("telemetry from unknown partition {p}"),
            });
        }
        lock_board(&self.board).note(p as u16, &msg);
        if !msg.final_flush {
            let k = self.parts.len();
            let round = self.rounds.entry(msg.timestep).or_default();
            round.push((p as u16, msg.barrier_wait_ns, msg.clock_ns));
            if round.len() == k {
                let round = self.rounds.remove(&msg.timestep).unwrap_or_default();
                self.judge_round(round);
            }
        }
        if let Some(part) = self.parts.get_mut(p) {
            part.events
                .extend(msg.events.into_iter().map(TraceEventWire::into_event));
            if let Some(shard) = msg.shard {
                part.shard = Some(shard.into_shard());
            }
            part.attr_rows = msg.attr.into_iter().map(AttrRowWire::into_row).collect();
        }
        Ok(())
    }

    /// A complete barrier round: any worker whose wait exceeded
    /// `straggler_factor` × the round's median earns a
    /// `straggler.detected` instant on its own track — timestamped in the
    /// worker's clock domain, with the wait riding the `wait_ns` arg (the
    /// partition is the track identity).
    fn judge_round(&mut self, round: Vec<(u16, u64, u64)>) {
        let mut waits: Vec<u64> = round.iter().map(|&(_, w, _)| w).collect();
        waits.sort_unstable();
        let median = waits.get(waits.len() / 2).copied().unwrap_or(0);
        if median == 0 {
            return;
        }
        let threshold = median as f64 * self.straggler_factor;
        for (p, wait, clock_ns) in round {
            if (wait as f64) > threshold {
                if let Some(part) = self.parts.get_mut(p as usize) {
                    part.events.push(TraceEvent::Instant {
                        name: "straggler.detected",
                        ts_ns: clock_ns,
                        arg: Some(("wait_ns", wait)),
                    });
                }
            }
        }
    }

    /// Graft the accumulated observability onto the epoch's outputs:
    /// per-partition recorded sinks, the latest shard snapshots, and the
    /// latest attribution rows.
    fn merge_into(self, outputs: &mut [WorkerOutput]) {
        for (p, (out, part)) in outputs.iter_mut().zip(self.parts).enumerate() {
            if !part.events.is_empty() {
                out.sinks.push((
                    format!("partition {p}"),
                    TraceSink::from_recorded(p as u32, part.events),
                ));
            }
            out.shard = part.shard.map(Box::new);
            out.attr_rows = part.attr_rows;
        }
    }
}

/// The coordinator's live status board: one row per partition, updated on
/// every Telemetry frame, served to `tempograph status` clients.
pub(crate) struct StatusBoard {
    /// Recovery epoch currently being served.
    epoch: u32,
    rows: Vec<WorkerStatusWire>,
    /// Coordinator-clock reading at each partition's last telemetry
    /// (`None` = not heard from this epoch).
    last_seen_ns: Vec<Option<u64>>,
    /// The coordinator clock the last-telemetry ages are measured on.
    clock: Clock,
}

fn blank_row(p: usize, epoch: u32) -> WorkerStatusWire {
    WorkerStatusWire {
        partition: p as u16,
        epoch,
        timestep: 0,
        supersteps: 0,
        barrier_wait_ns: 0,
        bytes_sent: 0,
        bytes_received: 0,
        last_telemetry_ms: u64::MAX,
    }
}

impl StatusBoard {
    fn new(k: usize) -> StatusBoard {
        StatusBoard {
            epoch: 0,
            rows: (0..k).map(|p| blank_row(p, 0)).collect(),
            last_seen_ns: vec![None; k],
            clock: Clock::start(),
        }
    }

    fn reset(&mut self, epoch: u32) {
        let k = self.rows.len();
        self.epoch = epoch;
        self.rows = (0..k).map(|p| blank_row(p, epoch)).collect();
        self.last_seen_ns = vec![None; k];
    }

    fn note(&mut self, p: u16, msg: &TelemetryMsg) {
        let epoch = self.epoch;
        let now = self.clock.elapsed_ns();
        if let (Some(row), Some(seen)) = (
            self.rows.get_mut(p as usize),
            self.last_seen_ns.get_mut(p as usize),
        ) {
            row.epoch = epoch;
            row.timestep = msg.timestep;
            if !msg.final_flush {
                // The final flush closes no new round; keep the last
                // round's superstep count on the board.
                row.supersteps = msg.supersteps;
            }
            row.barrier_wait_ns = row.barrier_wait_ns.max(msg.barrier_wait_ns);
            row.bytes_sent = msg.bytes_sent;
            row.bytes_received = msg.bytes_received;
            *seen = Some(now);
        }
    }

    /// Snapshot with last-telemetry ages materialised (coordinator clock).
    fn snapshot(&self) -> StatusReplyMsg {
        let now = self.clock.elapsed_ns();
        let workers = self
            .rows
            .iter()
            .zip(&self.last_seen_ns)
            .map(|(row, seen)| {
                let mut row = row.clone();
                row.last_telemetry_ms = match seen {
                    Some(t) => now.saturating_sub(*t) / 1_000_000,
                    None => u64::MAX,
                };
                row
            })
            .collect();
        StatusReplyMsg { workers }
    }
}

fn lock_board(board: &Mutex<StatusBoard>) -> std::sync::MutexGuard<'_, StatusBoard> {
    // A poisoned board only means a panicking thread held the lock; the
    // data (plain counters) is still coherent enough to serve.
    board.lock().unwrap_or_else(|e| e.into_inner())
}

/// Handle to the coordinator's status endpoint: a polling accept thread
/// serving one StatusRequest → StatusReply exchange per connection.
/// Stopped and joined on drop, when the job ends.
struct StatusServer {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StatusServer {
    fn spawn(addr: &str, board: Arc<Mutex<StatusBoard>>) -> Result<StatusServer, EngineError> {
        let listener = TcpListener::bind(addr)
            .map_err(net_error(format!("binding the status listener on {addr}")))?;
        listener
            .set_nonblocking(true)
            .map_err(net_error("configuring the status listener".into()))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        if let Ok(mut conn) = FrameConn::new(stream, "status client") {
                            let _ = serve_status_client(&mut conn, &board);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(StatusServer {
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One status exchange: expect a StatusRequest, answer with the board.
fn serve_status_client(
    conn: &mut FrameConn,
    board: &Mutex<StatusBoard>,
) -> Result<(), EngineError> {
    let frame = conn.recv()?;
    if frame.kind != FrameKind::StatusRequest {
        return Err(EngineError::Protocol {
            detail: format!("expected StatusRequest, got {:?}", frame.kind),
        });
    }
    let (epoch, reply) = {
        let b = lock_board(board);
        (b.epoch, b.snapshot())
    };
    conn.send(&Frame::control(
        FrameKind::StatusReply,
        COORDINATOR,
        epoch,
        encode_payload(&reply),
    ))
}

/// Query a running coordinator's status board (the `tempograph status`
/// subcommand): one StatusRequest over a fresh connection, one decoded
/// StatusReply back.
pub fn query_status(addr: &str) -> Result<StatusReplyMsg, EngineError> {
    let stream = connect_with_retry(addr, "status server")?;
    let mut conn = FrameConn::new(stream, "status server")?;
    conn.send(&Frame::control(
        FrameKind::StatusRequest,
        COORDINATOR,
        0,
        Bytes::new(),
    ))?;
    let frame = conn.recv()?;
    if frame.kind != FrameKind::StatusReply {
        return Err(EngineError::Protocol {
            detail: format!("expected StatusReply, got {:?}", frame.kind),
        });
    }
    decode_payload(frame.payload)
}

/// Serve one epoch over the coordinator listener: accept `k` hellos, send
/// Start, then serve barrier rounds (fold k Contributions, broadcast the
/// Aggregate) until all k workers deliver Output frames. Telemetry frames
/// interleave with the barrier protocol and are drained into `telem` as
/// they arrive (a protocol error when telemetry is disabled — the zero-cost
/// contract says no such frame may exist). Returns `Ok(Err(death))` when a
/// worker died mid-epoch (remaining workers have been told to abort), and
/// `Err` only for unrecoverable coordinator-side failures (handshake
/// timeout, protocol violations).
fn serve_epoch(
    listener: &TcpListener,
    k: usize,
    epoch: u32,
    resume_from: Option<u64>,
    faults: Option<&FaultPlan>,
    mut telem: Option<&mut CoordTelemetry>,
) -> Result<Result<Vec<WorkerEssentials>, Death>, EngineError> {
    let mut conns: Vec<Option<FrameConn>> = (0..k).map(|_| None).collect();
    let mut peer_addrs = vec![String::new(); k];
    for _ in 0..k {
        let stream = accept_with_deadline(listener, HANDSHAKE_TIMEOUT_MS, "a worker hello")?;
        let mut conn = FrameConn::new(stream, "worker (handshaking)")?;
        let frame = conn.recv()?;
        if frame.kind != FrameKind::Hello {
            return Err(EngineError::Protocol {
                detail: format!("expected Hello from a worker, got {:?}", frame.kind),
            });
        }
        let hello: HelloMsg = decode_payload(frame.payload)?;
        let p = hello.partition as usize;
        if p >= k || conns[p].is_some() {
            return Err(EngineError::Protocol {
                detail: format!("unexpected Hello from partition {p}"),
            });
        }
        conn.set_peer(format!("worker {p}"));
        peer_addrs[p] = hello.listen_addr;
        conns[p] = Some(conn);
    }
    let start = encode_payload(&StartMsg {
        epoch,
        resume_from: resume_from.unwrap_or(RESUME_NONE),
        peer_addrs,
        fired: faults.map(FaultPlan::fired_indices).unwrap_or_default(),
    });
    for p in 0..k {
        let conn = conns[p].as_mut().expect("all workers connected");
        if let Err(e) = conn.send(&Frame::control(
            FrameKind::Start,
            COORDINATOR,
            epoch,
            start.clone(),
        )) {
            return Ok(Err(abort_cluster(&mut conns, p as u16, e.to_string())));
        }
    }
    let mut outputs: Vec<Option<WorkerEssentials>> = (0..k).map(|_| None).collect();
    loop {
        let mut agg = Aggregate::EMPTY;
        let mut outputs_this_round = 0usize;
        for p in 0..k {
            // Telemetry frames interleave with the barrier protocol on the
            // same connection; drain them until a protocol frame arrives.
            let frame = loop {
                let conn = conns[p].as_mut().expect("all workers connected");
                let frame = match conn.recv() {
                    Ok(f) => f,
                    // EOF / reset without an Abort naming someone else
                    // first: this worker is the primary death.
                    Err(e) => return Ok(Err(abort_cluster(&mut conns, p as u16, e.to_string()))),
                };
                if frame.kind != FrameKind::Abort && frame.epoch != epoch {
                    return Err(EngineError::Protocol {
                        detail: format!(
                            "worker {p} sent a frame for epoch {} (serving {epoch})",
                            frame.epoch
                        ),
                    });
                }
                if frame.kind != FrameKind::Telemetry {
                    break frame;
                }
                match telem.as_deref_mut() {
                    Some(ct) => ct.ingest(p, frame.payload)?,
                    None => {
                        return Err(EngineError::Protocol {
                            detail: format!(
                                "unexpected Telemetry frame from worker {p} \
                                 (observability disabled)"
                            ),
                        })
                    }
                }
            };
            match frame.kind {
                FrameKind::Contribution => agg = agg.absorb(decode_payload(frame.payload)?),
                FrameKind::Output => {
                    outputs[p] = Some(WorkerEssentials::decode(frame.payload)?);
                    outputs_this_round += 1;
                }
                FrameKind::Abort => {
                    // A worker saw the death first-hand; trust its
                    // attribution over our own later EOF observation.
                    let abort: AbortMsg = decode_payload(frame.payload)?;
                    return Ok(Err(abort_cluster(
                        &mut conns,
                        abort.dead_partition,
                        abort.detail,
                    )));
                }
                other => {
                    return Err(EngineError::Protocol {
                        detail: format!("unexpected {other:?} frame from worker {p}"),
                    })
                }
            }
        }
        if outputs_this_round == k {
            let collected: Vec<WorkerEssentials> = outputs
                .into_iter()
                .map(|o| o.expect("all outputs present"))
                .collect();
            return Ok(Ok(collected));
        }
        if outputs_this_round != 0 {
            return Err(EngineError::Protocol {
                detail: "workers disagree on the barrier schedule".into(),
            });
        }
        let agg = encode_payload(&agg);
        for p in 0..k {
            let conn = conns[p].as_mut().expect("all workers connected");
            if let Err(e) = conn.send(&Frame::control(
                FrameKind::Aggregate,
                COORDINATOR,
                epoch,
                agg.clone(),
            )) {
                return Ok(Err(abort_cluster(&mut conns, p as u16, e.to_string())));
            }
        }
    }
}

/// One epoch on the in-process cluster: k scoped worker threads joined by
/// crossbeam channels and one [`SyncPoint`] barrier. A dying worker
/// poisons the barrier so its peers fail fast as cascades. A typed worker
/// error wins over any panic, because it is deterministic; otherwise the
/// primary death is the lowest-numbered non-cascade panic.
#[allow(clippy::too_many_arguments)]
fn run_epoch_inprocess<P, F>(
    k: usize,
    resume_from: Option<u64>,
    pg: &Arc<PartitionedGraph>,
    source: &InstanceSource,
    factory: &F,
    config: &JobConfig<P::Msg>,
    timesteps: usize,
) -> EpochEnd
where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync,
{
    let sync = SyncPoint::new(k);
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..k).map(|_| unbounded()).unzip();
    let results: Vec<std::thread::Result<Result<WorkerOutput, EngineError>>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = rxs
                .into_iter()
                .enumerate()
                .map(|(p, rx)| {
                    let txs = txs.clone();
                    let sync = &sync;
                    // Per-thread clones: `Msg` is Send + Clone but not
                    // necessarily Sync.
                    let config = config.clone();
                    let source = source.clone();
                    scope.spawn(move || {
                        // If this worker dies, poison the barrier so peers
                        // fail fast (as cascades) instead of deadlocking.
                        let _poison = PoisonOnPanic(sync);
                        let mut transport = InProcess::new(p as u16, rx, txs, sync);
                        let out = run_worker_body::<P, F>(
                            p as u16,
                            pg,
                            &source,
                            factory,
                            &config,
                            timesteps,
                            resume_from,
                            &mut transport,
                        );
                        if out.is_err() {
                            // An error return unwinds no stack, so the RAII
                            // guard won't fire — poison explicitly.
                            sync.poison();
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });

    let mut outputs = Vec::with_capacity(k);
    let mut typed = None;
    let mut panics = Vec::new();
    for (p, r) in results.into_iter().enumerate() {
        match r {
            Ok(Ok(out)) => outputs.push(out),
            Ok(Err(e)) => {
                typed.get_or_insert((p, e));
            }
            Err(payload) => panics.push((p, payload)),
        }
    }
    if let Some((p, e)) = typed {
        return EpochEnd::Died {
            partition: p as u16,
            detail: e.to_string(),
            injected: false,
            typed: Some(e),
        };
    }
    let injected = panics.iter().any(|(_, e)| payload_is_injected(e.as_ref()));
    match panics
        .into_iter()
        .min_by_key(|(p, e)| (payload_is_cascade(e.as_ref()), *p))
    {
        Some((p, payload)) => EpochEnd::Died {
            partition: p as u16,
            detail: format!(
                "worker thread panicked: {}",
                panic_message(payload.as_ref())
            ),
            injected,
            typed: None,
        },
        None => EpochEnd::Done(outputs),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_epoch_threads<P, F>(
    listener: &TcpListener,
    coord_addr: &str,
    k: usize,
    epoch: u32,
    resume_from: Option<u64>,
    pg: &Arc<PartitionedGraph>,
    source: &InstanceSource,
    factory: &F,
    config: &JobConfig<P::Msg>,
    timesteps: usize,
    telem: Option<&mut CoordTelemetry>,
) -> Result<EpochEnd, EngineError>
where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..k)
            .map(|p| {
                // Per-thread clones, as in `run_epoch_inprocess`: `Msg` is Send + Clone
                // but not necessarily Sync.
                let config = config.clone();
                let source = source.clone();
                scope.spawn(move || {
                    tcp_worker::<P, F>(
                        coord_addr, p as u16, pg, &source, factory, &config, timesteps,
                    )
                })
            })
            .collect();
        match serve_epoch(
            listener,
            k,
            epoch,
            resume_from,
            config.faults.as_deref(),
            telem,
        ) {
            Ok(Ok(essentials)) => {
                for (p, h) in handles.into_iter().enumerate() {
                    match h.join() {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => return Err(e),
                        Err(_) => {
                            return Err(EngineError::RemoteWorkerDied {
                                partition: p as u16,
                                detail: "worker thread panicked after reporting results".into(),
                            })
                        }
                    }
                }
                Ok(EpochEnd::Done(
                    essentials
                        .into_iter()
                        .map(WorkerEssentials::into_output)
                        .collect(),
                ))
            }
            Ok(Err(death)) => {
                // Reap every thread (the Abort broadcast unblocks them),
                // then judge the primary by its join result.
                let mut results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
                let p = death.partition as usize;
                let (injected, typed, detail) = if p < results.len() {
                    match results.swap_remove(p) {
                        Err(payload) => (
                            payload_is_injected(payload.as_ref()),
                            None,
                            format!("{} ({})", death.detail, panic_message(payload.as_ref())),
                        ),
                        // A typed error is deterministic: a relaunch would
                        // hit it again, so it is re-surfaced verbatim.
                        Ok(Err(e)) => (false, Some(e), death.detail),
                        Ok(Ok(())) => (false, None, death.detail),
                    }
                } else {
                    (false, None, death.detail)
                };
                Ok(EpochEnd::Died {
                    partition: death.partition,
                    detail,
                    injected,
                    typed,
                })
            }
            Err(e) => {
                for h in handles {
                    let _ = h.join();
                }
                Err(e)
            }
        }
    })
}

#[cfg(unix)]
fn killed_by_signal(status: &std::process::ExitStatus) -> bool {
    use std::os::unix::process::ExitStatusExt;
    status.signal().is_some()
}

#[cfg(not(unix))]
fn killed_by_signal(_status: &std::process::ExitStatus) -> bool {
    false
}

#[allow(clippy::too_many_arguments)]
fn run_epoch_processes(
    listener: &TcpListener,
    coord_addr: &str,
    k: usize,
    epoch: u32,
    resume_from: Option<u64>,
    worker_bin: &Path,
    worker_args: &[String],
    faults: Option<&FaultPlan>,
    telem: Option<&mut CoordTelemetry>,
) -> Result<EpochEnd, EngineError> {
    let mut children: Vec<Child> = Vec::with_capacity(k);
    for p in 0..k {
        match Command::new(worker_bin)
            .args(worker_args)
            .arg("--partition")
            .arg(p.to_string())
            .arg("--coordinator")
            .arg(coord_addr)
            .spawn()
        {
            Ok(child) => children.push(child),
            Err(e) => {
                for c in &mut children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(EngineError::Net {
                    context: format!("spawning the worker process for partition {p}"),
                    detail: e.to_string(),
                });
            }
        }
    }
    match serve_epoch(listener, k, epoch, resume_from, faults, telem) {
        Ok(Ok(essentials)) => {
            for c in &mut children {
                let _ = c.wait();
            }
            Ok(EpochEnd::Done(
                essentials
                    .into_iter()
                    .map(WorkerEssentials::into_output)
                    .collect(),
            ))
        }
        Ok(Err(death)) => {
            let p = death.partition as usize;
            let mut injected = false;
            let mut detail = death.detail;
            // The primary's exit status is the cross-process stand-in for
            // a panic payload: the injected exit code, or a kill signal
            // (the worker-kill drill), marks a recoverable death.
            if let Some(child) = children.get_mut(p) {
                match child.wait() {
                    Ok(status) => {
                        injected =
                            status.code() == Some(INJECTED_EXIT_CODE) || killed_by_signal(&status);
                        detail = format!("{detail}; {status}");
                    }
                    Err(e) => detail = format!("{detail}; wait failed: {e}"),
                }
            }
            for (q, child) in children.iter_mut().enumerate() {
                if q != p {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
            Ok(EpochEnd::Died {
                partition: death.partition,
                detail,
                injected,
                typed: None,
            })
        }
        Err(e) => {
            for c in &mut children {
                let _ = c.kill();
                let _ = c.wait();
            }
            Err(e)
        }
    }
}

/// Run a TI-BSP job on `cluster` and gather its results and metrics — the
/// one job driver for every cluster. Each epoch runs the whole cluster
/// until every worker reports or one dies; an *injected* death (a fault
/// plan panic event, or a killed worker process) with checkpointing armed
/// relaunches the epoch from the latest committed checkpoint. Anything
/// else fails the job with a typed error naming the partition: a worker's
/// own typed error verbatim, otherwise
/// [`EngineError::RemoteWorkerDied`] for the primary death, never a
/// cascade.
///
/// Recoveries are bounded by the fault plan's panic events (each recovery
/// consumes one), at least 1 for [`Cluster::Processes`] (a worker process
/// can also be killed from outside), and 0 without checkpointing.
///
/// Over sockets, with any of trace/metrics/attribution armed, workers ship
/// their observability over the telemetry plane (one Telemetry frame per
/// barrier round plus a final flush), so the returned [`JobResult`] carries
/// the same trace, registry, and attribution on every cluster — see
/// `tests/transport_equivalence.rs`. With [`JobConfig::status_addr`] set,
/// a socket cluster's coordinator also serves the live status board (the
/// `tempograph status` view) for the life of the job. Temporal parallelism
/// needs [`Cluster::InProcess`].
pub fn run_job_tcp<P, F>(
    pg: &Arc<PartitionedGraph>,
    source: &InstanceSource,
    factory: F,
    config: JobConfig<P::Msg>,
    cluster: Cluster,
) -> Result<JobResult, EngineError>
where
    P: SubgraphProgram,
    F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync,
{
    let k = pg.num_partitions();
    if config.temporal_parallelism && !matches!(cluster, Cluster::InProcess) {
        return Err(EngineError::Config {
            detail: "temporal parallelism needs the in-process cluster".into(),
        });
    }
    let timesteps = effective_timesteps(&config, source.num_timesteps())?;
    // Socket clusters serve every epoch from one coordinator listener.
    let coordinator = match cluster {
        Cluster::InProcess => None,
        Cluster::Threads | Cluster::Processes { .. } => {
            let listener = TcpListener::bind("127.0.0.1:0")
                .map_err(net_error("binding the coordinator listener".into()))?;
            let addr = listener
                .local_addr()
                .map_err(net_error("resolving the coordinator address".into()))?
                .to_string();
            Some((listener, addr))
        }
    };
    let job_start = Clock::start();
    let panic_budget = config.faults.as_ref().map_or(0, |f| f.panic_events());
    let max_recoveries = match (&config.checkpoint, &cluster) {
        (None, _) => 0,
        (Some(_), Cluster::Processes { .. }) => panic_budget.max(1),
        (Some(_), _) => panic_budget,
    };
    let mut recoveries = 0usize;
    let mut resume_from: Option<u64> = None;
    let mut epoch = 0u32;
    // Coordinator-side telemetry accumulation — armed by exactly the same
    // predicate the socket workers use, so a Telemetry frame arriving while
    // this is `None` is a protocol violation, not a silent drop. In-process
    // workers hand their observability back directly.
    let telemetry_armed =
        coordinator.is_some() && (config.trace.is_some() || config.metrics || config.attribution);
    let mut telem = telemetry_armed.then(|| CoordTelemetry::new(k, config.straggler_factor));
    // Driver-side sink (its own track, after the k partition tracks) for
    // recovery markers.
    let mut driver_sink = config.trace.map(|tc| tc.sink(k as u32));
    let _status_server = match (&config.status_addr, &telem) {
        (Some(addr), Some(ct)) => Some(StatusServer::spawn(addr, ct.board.clone())?),
        _ => None,
    };
    loop {
        let end = match (&cluster, &coordinator) {
            (Cluster::InProcess, _) => run_epoch_inprocess::<P, F>(
                k,
                resume_from,
                pg,
                source,
                &factory,
                &config,
                timesteps,
            ),
            (Cluster::Threads, Some((listener, coord_addr))) => run_epoch_threads::<P, F>(
                listener,
                coord_addr,
                k,
                epoch,
                resume_from,
                pg,
                source,
                &factory,
                &config,
                timesteps,
                telem.as_mut(),
            )?,
            (
                Cluster::Processes {
                    worker_bin,
                    worker_args,
                },
                Some((listener, coord_addr)),
            ) => run_epoch_processes(
                listener,
                coord_addr,
                k,
                epoch,
                resume_from,
                worker_bin,
                worker_args,
                config.faults.as_deref(),
                telem.as_mut(),
            )?,
            (_, None) => unreachable!("socket clusters bind a coordinator listener"),
        };
        match end {
            EpochEnd::Done(mut outputs) => {
                let total_wall_ns = job_start.elapsed_ns();
                if let Some(ct) = telem.take() {
                    ct.merge_into(&mut outputs);
                }
                let trace = config.trace.map(|_| {
                    let mut sinks: Vec<(String, TraceSink)> =
                        outputs.iter_mut().flat_map(|o| o.sinks.drain(..)).collect();
                    if let Some(sink) = driver_sink.take() {
                        if !sink.events().is_empty() {
                            sinks.push(("driver".to_string(), sink));
                        }
                    }
                    Trace::from_sinks(sinks)
                });
                return Ok(assemble_job_result(
                    outputs,
                    k,
                    total_wall_ns,
                    recoveries,
                    trace,
                    config.metrics,
                    config.attribution,
                ));
            }
            EpochEnd::Died {
                partition,
                detail,
                injected,
                typed,
            } => {
                // A typed worker error is deterministic: a relaunch would
                // hit it again, so it is surfaced verbatim.
                if let Some(e) = typed {
                    return Err(e);
                }
                // Recover only from *injected* deaths with a recovery to
                // spend: a real bug would re-trigger after restore.
                if !injected || recoveries >= max_recoveries {
                    return Err(EngineError::RemoteWorkerDied { partition, detail });
                }
                recoveries += 1;
                epoch += 1;
                if matches!(cluster, Cluster::Processes { .. }) {
                    // The dead process took its latched fault state with
                    // it; latch the event it fired in the coordinator's
                    // copy so the next epoch's StartMsg ships it as
                    // already-fired.
                    if let Some(faults) = &config.faults {
                        faults.attribute_death(partition);
                    }
                }
                resume_from = config
                    .checkpoint
                    .as_ref()
                    .and_then(|ck| checkpoint::latest_valid::<P::Msg>(&ck.dir, k as u16));
                if let Some(ct) = telem.as_mut() {
                    ct.reset(epoch);
                }
                if let Some(sink) = &mut driver_sink {
                    sink.instant(
                        "recovery.attempt",
                        Some(("resume_t", resume_from.unwrap_or(u64::MAX))),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempograph_core::VertexIdx;

    #[test]
    fn in_process_transport_round_trips_and_synchronises() {
        let sync = SyncPoint::new(1);
        let (tx, rx) = unbounded();
        // One channel, addressed as partition 0, with "self" labelled 1 so
        // the sends count as remote — one thread exercises the whole loop.
        let mut t = InProcess::new(1, rx, vec![tx], &sync);
        assert_eq!(t.num_partitions(), 1);
        t.send(0, BatchKind::Superstep, Bytes::copy_from_slice(b"abc"))
            .unwrap();
        t.send(0, BatchKind::NextTimestep, Bytes::copy_from_slice(b"xyz"))
            .unwrap();
        let got = t.exchange().unwrap();
        assert_eq!(
            got,
            vec![
                (BatchKind::Superstep, Bytes::copy_from_slice(b"abc")),
                (BatchKind::NextTimestep, Bytes::copy_from_slice(b"xyz")),
            ]
        );
        let agg = t
            .arrive(Contribution {
                msgs_sent: 3,
                all_halted: true,
            })
            .unwrap();
        assert_eq!(agg.total_msgs, 3);
        assert!(agg.all_halted);
        t.barrier().unwrap();
    }

    #[test]
    fn worker_essentials_roundtrip() {
        let m = TimestepMetrics {
            compute_ns: 42,
            msgs_remote: 7,
            supersteps: 3,
            superstep_compute_ns: vec![40, 2],
            ..Default::default()
        };
        let essentials = WorkerEssentials {
            metrics: vec![m.clone(), TimestepMetrics::default()],
            merge_metrics: m,
            counters: vec![
                vec![("edges".to_string(), 10), ("visited".to_string(), 4)],
                vec![],
            ],
            merge_counters: vec![("merged".to_string(), 1)],
            emits: vec![Emit {
                timestep: 1,
                vertex: VertexIdx(9),
                value: 2.5,
            }],
            timesteps_run: 2,
            final_states: vec![(SubgraphId(3), vec![1, 2, 3]), (SubgraphId(5), vec![])],
        };
        let decoded = WorkerEssentials::decode(essentials.encode()).unwrap();
        assert_eq!(decoded.metrics, essentials.metrics);
        assert_eq!(decoded.merge_metrics, essentials.merge_metrics);
        assert_eq!(decoded.counters, essentials.counters);
        assert_eq!(decoded.merge_counters, essentials.merge_counters);
        assert_eq!(decoded.emits.len(), 1);
        assert_eq!(decoded.emits[0].vertex, VertexIdx(9));
        assert_eq!(decoded.timesteps_run, 2);
        assert_eq!(decoded.final_states, essentials.final_states);

        // Trailing garbage is rejected, truncation is a typed error.
        let mut enc = BytesMut::from(essentials.encode()[..].to_vec());
        enc.put_u8(0);
        assert!(WorkerEssentials::decode(enc.freeze()).is_err());
        let enc = essentials.encode();
        let cut = enc.slice(..enc.len() - 2);
        assert!(WorkerEssentials::decode(cut).is_err());

        // The interned round trip back to a WorkerOutput keeps counters.
        let decoded = WorkerEssentials::decode(essentials.encode()).unwrap();
        let out = decoded.into_output();
        assert_eq!(out.counters[0].get("edges"), Some(&10));
        assert_eq!(out.timesteps_run, 2);
    }
}
