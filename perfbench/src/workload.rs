//! The three workloads: how each input is generated from the seed, how
//! it is set up as a GoFS store, and how its job runs on each transport.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use tempograph::engine::{
    run_job, run_job_tcp, Cluster, InstanceSource, JobConfig, JobResult, SubgraphProgram,
};
use tempograph::gen::{
    generate_road_latencies, generate_sir_tweets, road_network, small_world, RoadLatencyConfig,
    RoadNetConfig, SirConfig, SmallWorldConfig, LATENCY_ATTR, TWEETS_ATTR,
};
use tempograph::partition::{PartitionedGraph, Subgraph};
use tempograph::prelude::{
    GraphTemplate, HashtagAggregation, MemeTracking, Tdsp, TimeSeriesCollection, VertexIdx,
};
use tempograph::trace::TraceConfig;

/// Partitions per job: one per core of the 2-core reference host.
pub const PARTITIONS: usize = 2;
/// GoFS layout, the `tempograph generate` defaults.
pub const PACKING: usize = 10;
pub const BINNING: usize = 5;
/// Seconds between instances.
const PERIOD: i64 = 300;
/// The tracked hashtag, the CLI's `--meme` default.
pub const MEME: &str = "#meme";

/// Which job a workload runs. Each is a row of the CLI's algo table, so a
/// `tempograph worker` process rebuilds the identical job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    Tdsp,
    Hash,
    Meme,
}

impl Algo {
    pub fn cli_name(self) -> &'static str {
        match self {
            Algo::Tdsp => "tdsp",
            Algo::Hash => "hash",
            Algo::Meme => "meme",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RoadTdsp,
    TweetsHash,
    BarrierMeme,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RoadTdsp,
        Workload::TweetsHash,
        Workload::BarrierMeme,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RoadTdsp => "road-tdsp",
            Workload::TweetsHash => "tweets-hash",
            Workload::BarrierMeme => "barrier-meme",
        }
    }

    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}` (road-tdsp|tweets-hash|barrier-meme)"))
    }

    pub fn algo(self) -> Algo {
        match self {
            Workload::RoadTdsp => Algo::Tdsp,
            Workload::TweetsHash => Algo::Hash,
            Workload::BarrierMeme => Algo::Meme,
        }
    }

    /// Instances in the generated series.
    pub fn timesteps(self) -> usize {
        match self {
            Workload::RoadTdsp => 50,
            Workload::TweetsHash => 200,
            Workload::BarrierMeme => 3000,
        }
    }

    /// Generate the template and its instance series. Every generator
    /// seed derives from `seed`.
    pub fn generate(self, seed: u64) -> Arc<TimeSeriesCollection> {
        let template_seed = derive(seed, 1);
        let instance_seed = derive(seed, 2);
        match self {
            Workload::RoadTdsp => {
                // CARN analogue at scale 20 (`carn_like`'s shape).
                let scale = 20.0_f64;
                let side = (10_000.0 * scale).sqrt().round() as usize;
                let t = Arc::new(road_network(&RoadNetConfig {
                    width: side,
                    height: side,
                    extra_edge_prob: 0.4,
                    seed: template_seed,
                }));
                // The bench harness's calibrated road latencies: mean
                // 95 s/√scale, so the TDSP frontier crosses the graph in
                // most of the 50 instances.
                let mean = 95.0 / scale.sqrt();
                Arc::new(generate_road_latencies(
                    t,
                    &RoadLatencyConfig {
                        timesteps: self.timesteps(),
                        start_time: 0,
                        period: PERIOD,
                        min_latency: 5.0,
                        max_latency: (2.0 * mean - 5.0).max(12.0),
                        seed: instance_seed,
                    },
                ))
            }
            Workload::TweetsHash => {
                let initial = SirConfig::default().initial_infected;
                tweets(
                    16.0,
                    self.timesteps(),
                    initial,
                    template_seed,
                    instance_seed,
                )
            }
            // MEME re-sends from every coloured boundary vertex each
            // timestep. With the generator's 5 initial tweeters, some
            // seeds colour no boundary vertex at all, and the job falls to
            // one superstep per timestep with no messages; 40 make each
            // seed's job ship messages every timestep.
            Workload::BarrierMeme => {
                tweets(0.5, self.timesteps(), 40, template_seed, instance_seed)
            }
        }
    }
}

/// WIKI analogue at `scale` (`wiki_like`'s shape) with the SIR tweet
/// series `tempograph generate --workload tweets` writes: WIKI's 2 % hit
/// probability and the generator's defaults otherwise, but for the number
/// of `initial_infected` tweeters.
fn tweets(
    scale: f64,
    timesteps: usize,
    initial_infected: usize,
    template_seed: u64,
    instance_seed: u64,
) -> Arc<TimeSeriesCollection> {
    let t = Arc::new(small_world(&SmallWorldConfig {
        vertices: (12_000.0 * scale).round() as usize,
        edges_per_vertex: 2,
        directed: false,
        seed: template_seed,
    }));
    Arc::new(generate_sir_tweets(
        t,
        &SirConfig {
            timesteps,
            period: PERIOD,
            meme: MEME.to_string(),
            hit_prob: 0.02,
            initial_infected,
            seed: instance_seed,
            ..SirConfig::default()
        },
    ))
}

/// splitmix64 of `seed` mixed with a per-use tag.
fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How one job is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// `run_job`, observability off.
    InProcess,
    /// `run_job` with `with_trace(TraceConfig::new())`.
    Traced,
    /// `run_job` with metrics + attribution armed.
    Armed,
    /// `run_job_tcp(.., Cluster::Threads)`, observability off.
    Tcp,
    /// `run_job_tcp(.., Cluster::Threads)` armed like `run --observe`.
    ArmedTcp,
    /// `run_job_tcp(.., Cluster::Processes)` with `tempograph worker`.
    Processes,
}

/// An opened store plus what every job over it needs.
pub struct JobSetup {
    pub workload: Workload,
    pub store_dir: PathBuf,
    pub template: Arc<GraphTemplate>,
    pub pg: Arc<PartitionedGraph>,
    pub src: InstanceSource,
    pub timesteps: usize,
    /// The `tempograph` CLI binary, for process workers.
    pub worker_bin: Option<PathBuf>,
}

impl JobSetup {
    pub fn open(
        workload: Workload,
        store_dir: &Path,
        worker_bin: Option<PathBuf>,
    ) -> Result<JobSetup, String> {
        let store = tempograph::gofs::GofsStore::open(store_dir).map_err(|e| e.to_string())?;
        Ok(JobSetup {
            workload,
            store_dir: store_dir.to_path_buf(),
            template: store.template().clone(),
            pg: Arc::new(store.partitioned_graph()),
            src: InstanceSource::Gofs(store_dir.to_path_buf()),
            timesteps: store.meta().num_timesteps,
            worker_bin,
        })
    }

    /// Run the workload's job once as `variant`.
    pub fn run(&self, variant: Variant) -> Result<JobResult, String> {
        let t = &self.template;
        let ts = self.timesteps;
        let col_v = || {
            t.vertex_schema()
                .index_of(TWEETS_ATTR)
                .ok_or("dataset lacks a tweets column")
        };
        // Mirrors the CLI's `dispatch_algo` rows for tdsp / hash / meme.
        match self.workload.algo() {
            Algo::Tdsp => {
                let col = t
                    .edge_schema()
                    .index_of(LATENCY_ATTR)
                    .ok_or("dataset lacks a latency column")?;
                self.exec(
                    variant,
                    Tdsp::factory(VertexIdx(0), col),
                    JobConfig::sequentially_dependent(ts).while_active(ts),
                )
            }
            Algo::Hash => self.exec(
                variant,
                HashtagAggregation::factory(MEME, col_v()?),
                JobConfig::eventually_dependent(ts),
            ),
            Algo::Meme => self.exec(
                variant,
                MemeTracking::factory(MEME, col_v()?),
                JobConfig::sequentially_dependent(ts),
            ),
        }
    }

    fn exec<P, F>(
        &self,
        variant: Variant,
        factory: F,
        cfg: JobConfig<P::Msg>,
    ) -> Result<JobResult, String>
    where
        P: SubgraphProgram,
        F: Fn(&Subgraph, &PartitionedGraph) -> P + Send + Sync + 'static,
    {
        let (pg, src) = (&self.pg, &self.src);
        let tcp =
            |cfg, cluster| run_job_tcp(pg, src, &factory, cfg, cluster).map_err(|e| e.to_string());
        match variant {
            Variant::InProcess => Ok(run_job(pg, src, &factory, cfg)),
            Variant::Traced => Ok(run_job(
                pg,
                src,
                &factory,
                cfg.with_trace(TraceConfig::new()),
            )),
            Variant::Armed => Ok(run_job(
                pg,
                src,
                &factory,
                cfg.with_metrics().with_attribution(),
            )),
            Variant::Tcp => tcp(cfg, Cluster::Threads),
            Variant::ArmedTcp => tcp(cfg.with_metrics().with_attribution(), Cluster::Threads),
            Variant::Processes => {
                let worker_bin = self
                    .worker_bin
                    .clone()
                    .ok_or("process workers need --worker-bin")?;
                // The flags `run --transport tcp-process` mirrors to its
                // workers, so each rebuilds the identical job.
                let worker_args = vec![
                    "worker".to_string(),
                    "--data".to_string(),
                    self.store_dir.display().to_string(),
                    "--algo".to_string(),
                    self.workload.algo().cli_name().to_string(),
                    "--timesteps".to_string(),
                    self.timesteps.to_string(),
                    "--source".to_string(),
                    "0".to_string(),
                    "--meme".to_string(),
                    MEME.to_string(),
                ];
                tcp(
                    cfg,
                    Cluster::Processes {
                        worker_bin,
                        worker_args,
                    },
                )
            }
        }
    }
}
